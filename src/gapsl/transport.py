"""Length-prefixed binary framing and the client/server message layer.

Frame layout (little-endian):

    magic   4 bytes  "GPSL"
    version u8       2
    tag     u8       message tag
    length  u32      body length, capped at 64 MiB
    body    length bytes, tag-specific

Matrix-bearing bodies (ACTIVATIONS, ACT_GRADS, EVAL_RESULT: each a
:class:`MatrixMessage`) are ``round u32, client_id u16, rows u32, cols
u32`` followed by rows*cols IEEE-754 single-precision values. The wire
carries the experiment's float32 precision losslessly, so TCP runs and
in-process runs produce identical results.

The sender checks nothing: ``config.validate`` refuses a run whose ids,
rounds, config text or address the wire cannot carry, :class:`ProxyCohort`
a seed whose frames would pass the cap, and ``gapsl client`` an id outside
HELLO's range. The receiver checks every frame, once per hop: it refuses
one that breaks the layout or holds a non-finite float, naming its byte
offset, and its end names the round, the client and the phase.

Handshake: a client opens with HELLO carrying its id; the server answers
with CONFIG (the canonical key=value config text) or closes the
connection to reject it, as it does a HELLO of another version.

In an eval round (``config.is_eval_round``) each client pushes EVAL_RESULT
unasked once it has applied its ACT_GRADS, so a schedule disagreement fails
as a :class:`ProtocolError` instead of blocking: the coordinator reads the
wrong frame, or its deadline runs out. The next ACTIVATIONS follow right
behind; channels set ``TCP_NODELAY`` because under Nagle's algorithm that
frame would wait for the coordinator's delayed ACK (about 40 ms). Every
frame leaves in a single ``sendall``, so no frame is split into small segments.

Every read waits under a deadline, so a live but silent peer on either
end ends the run with a :class:`ProtocolError` instead of hanging it.
Handshake reads wait at most ``HANDSHAKE_TIMEOUT_S``. The coordinator
waits at most ``PEER_TIMEOUT_S`` for each frame a client owes it
(activations, eval results). Before it answers a client it may read every
client's eval frame, then every client's next activations, so a client
waits at most ``(2 * clients + 1) * PEER_TIMEOUT_S`` for each frame the
coordinator owes it (gradients, METRICS, BYE); the extra term covers the
coordinator's own work, such as a seed's set-up. A send blocks only once
the peer stops reading; it then waits at most what the last read on its
socket left of that read's deadline, or for a client's HELLO
``HANDSHAKE_TIMEOUT_S``.

Both ends check a matrix frame's type, round, client and shape with
:func:`expect_matrix`, the one shape check a peer's matrix meets. Checks
here say only what went wrong; each end names a failure inside a round
once, as ``round t client i (phase): problem`` (:func:`client_error`).
Only this module builds a :class:`ProtocolError`, so exit code 3 always
means a peer's fault.
"""

from __future__ import annotations

import json
import socket
import struct
import time
from collections.abc import Iterator, Sequence
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .config import MAX_FRAME, is_eval_round, parse_address, parse_config_text
from .errors import ConfigError, ProtocolError

MAGIC = b"GPSL"
VERSION = 2
HEADER_FMT = "<4sBBI"
HEADER_SIZE = struct.calcsize(HEADER_FMT)
MATRIX_FMT = "<IHII"  # a matrix body's header: round, client_id, rows, cols
MATRIX_HEADER_SIZE = struct.calcsize(MATRIX_FMT)
# seconds the coordinator waits for one client frame: far above a client's
# per-seed dataset build plus one round
PEER_TIMEOUT_S = 300.0
# seconds for a client's connect and CONFIG, and for the coordinator's whole handshake
HANDSHAKE_TIMEOUT_S = 10.0
_NO_PAYLOAD = np.empty(0, dtype="<f4")

TAG_HELLO = 1
TAG_CONFIG = 2
TAG_ACTIVATIONS = 3
TAG_ACT_GRADS = 4
TAG_EVAL_RESULT = 6
TAG_METRICS = 7
TAG_BYE = 8  # tag 5 is retired: version 1's eval request


@dataclass
class Hello:
    client_id: int


@dataclass
class ConfigMsg:
    text: str


@dataclass
class MatrixMessage:
    """A float32 matrix for one round and one client; its subclass names the tag."""

    round: int
    client_id: int
    matrix: np.ndarray


class Activations(MatrixMessage):
    """A client's cut-layer activations for its training batch."""


class ActGrads(MatrixMessage):
    """The server's gradients for those activations."""


class EvalResult(MatrixMessage):
    """A client's cut-layer activations for the test set."""


@dataclass
class Metrics:
    payload: dict = field(default_factory=dict)


@dataclass
class Bye:
    pass


WireMessage = Hello | ConfigMsg | MatrixMessage | Metrics | Bye

_MATRIX_TAGS = {Activations: TAG_ACTIVATIONS, ActGrads: TAG_ACT_GRADS, EvalResult: TAG_EVAL_RESULT}


def encode(msg: WireMessage) -> bytes:
    """Serialize one message into a complete frame, unchecked (see the module docstring)."""
    payload = _NO_PAYLOAD
    if isinstance(msg, Hello):
        tag, body = TAG_HELLO, struct.pack("<H", msg.client_id)
    elif isinstance(msg, ConfigMsg):
        tag, body = TAG_CONFIG, msg.text.encode("utf-8")
    elif type(msg) in _MATRIX_TAGS:
        payload = np.ascontiguousarray(msg.matrix, dtype="<f4")  # the frame copies it once
        tag, body = _MATRIX_TAGS[type(msg)], struct.pack(MATRIX_FMT, msg.round, msg.client_id, *payload.shape)
    elif isinstance(msg, Metrics):
        tag, body = TAG_METRICS, json.dumps(msg.payload, sort_keys=True).encode("utf-8")
    elif isinstance(msg, Bye):
        tag, body = TAG_BYE, b""
    else:
        raise TypeError(f"cannot encode {type(msg).__name__}")
    return b"".join((struct.pack(HEADER_FMT, MAGIC, VERSION, tag, len(body) + payload.nbytes), body, payload))


def _decode_matrix(cls, buf, length: int):
    if length < MATRIX_HEADER_SIZE:
        raise ProtocolError("truncated matrix header", offset=HEADER_SIZE + length)
    rnd, client_id, rows, cols = struct.unpack_from(MATRIX_FMT, buf, HEADER_SIZE)
    expected = MATRIX_HEADER_SIZE + rows * cols * 4
    if length != expected:
        raise ProtocolError(f"matrix body is {length} bytes, layout requires {expected}",
                            offset=HEADER_SIZE + min(length, expected))
    start = HEADER_SIZE + MATRIX_HEADER_SIZE
    matrix = np.frombuffer(buf, dtype="<f4", count=rows * cols, offset=start).reshape(rows, cols).copy()
    finite = np.isfinite(matrix)
    if not finite.all():
        raise ProtocolError("non-finite payload float", offset=start + int(np.argmin(finite)) * 4)
    return cls(rnd, client_id, matrix)


def _decode_hello(buf, length: int) -> Hello:
    if length != 2:
        raise ProtocolError("HELLO body must be 2 bytes", offset=HEADER_SIZE + length)
    return Hello(*struct.unpack_from("<H", buf, HEADER_SIZE))


def _decode_config(buf, length: int) -> ConfigMsg:
    try:
        return ConfigMsg(buf[HEADER_SIZE : HEADER_SIZE + length].decode("utf-8"))
    except UnicodeDecodeError as e:
        raise ProtocolError("CONFIG body is not UTF-8", offset=HEADER_SIZE + e.start) from e


def _decode_metrics(buf, length: int) -> Metrics:
    try:
        return Metrics(json.loads(buf[HEADER_SIZE : HEADER_SIZE + length].decode("utf-8")))
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise ProtocolError(f"METRICS body is not JSON: {e}", offset=HEADER_SIZE) from e


def _decode_bye(buf, length: int) -> Bye:
    if length != 0:
        raise ProtocolError("BYE carries no body", offset=HEADER_SIZE)
    return Bye()


# the known tags, each with the decoder of a body of ``length`` bytes at
# buf[HEADER_SIZE:]; what a decoder returns owns its bytes, so the frame may go
_DECODERS = {
    TAG_HELLO: _decode_hello,
    TAG_CONFIG: _decode_config,
    **{tag: partial(_decode_matrix, cls) for cls, tag in _MATRIX_TAGS.items()},
    TAG_METRICS: _decode_metrics,
    TAG_BYE: _decode_bye,
}


def decode(buf: bytes | bytearray) -> tuple[WireMessage, int] | None:
    """Parse one frame from the head of ``buf``.

    Returns (message, bytes consumed), or None when more bytes are needed.
    Malformed frames raise :class:`ProtocolError` naming the byte offset.
    """
    if len(buf) < HEADER_SIZE:
        return None
    magic, version, tag, length = struct.unpack_from(HEADER_FMT, buf, 0)
    if magic != MAGIC:
        raise ProtocolError(f"bad magic {magic!r}, expected {MAGIC!r}", offset=0)
    if version != VERSION:
        raise ProtocolError(f"unsupported version {version}", offset=4)
    if tag not in _DECODERS:
        raise ProtocolError(f"unknown tag {tag}", offset=5)
    if length > MAX_FRAME:
        raise ProtocolError(f"declared length {length} exceeds the {MAX_FRAME} byte cap", offset=6)
    if len(buf) < HEADER_SIZE + length:
        return None
    return _DECODERS[tag](buf, length), HEADER_SIZE + length


def expect_matrix(
    msg: WireMessage, kind: type[MatrixMessage], round_t: int, client_id: int, shape: tuple[int, int]
) -> np.ndarray:
    """The matrix of ``msg`` if it is a ``kind`` frame for round ``round_t`` and
    client ``client_id`` of shape ``shape``, else a :class:`ProtocolError`
    saying what arrived: so a lying peer is a protocol error, not a model error."""
    if not isinstance(msg, kind):
        raise ProtocolError(f"expected {kind.__name__}, got {type(msg).__name__}")
    if msg.round != round_t or msg.client_id != client_id:
        raise ProtocolError(f"{kind.__name__} for round {msg.round} client {msg.client_id}")
    if msg.matrix.shape != shape:
        raise ProtocolError(f"{kind.__name__} of shape {msg.matrix.shape}, expected {shape}")
    return msg.matrix


def client_error(round_t: int, client_id: int, phase: str, problem) -> ProtocolError:
    """A ProtocolError naming the round, the client and the phase."""
    return ProtocolError(f"round {round_t} client {client_id} ({phase}): {problem}")


class FrameChannel:
    """Duplex message channel over a connected byte-stream socket."""

    def __init__(self, sock: socket.socket):
        self.sock = sock
        self._buf = bytearray()
        if sock.family in (socket.AF_INET, socket.AF_INET6):
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)

    def send(self, msg: WireMessage) -> None:
        try:
            self.sock.sendall(encode(msg))
        except OSError as e:
            raise ProtocolError(f"send failed: {e}") from e

    def recv(self, timeout: float) -> WireMessage:
        """The next message; ``timeout`` seconds bound the wait for the whole frame."""
        deadline = time.monotonic() + timeout
        while True:
            parsed = decode(self._buf)
            if parsed is not None:
                msg, consumed = parsed
                del self._buf[:consumed]
                return msg
            left = deadline - time.monotonic()
            try:
                if left <= 0:
                    raise socket.timeout
                self.sock.settimeout(left)
                chunk = self.sock.recv(65536)
            except socket.timeout as e:
                raise ProtocolError(f"timed out after {timeout}s waiting for a frame") from e
            except OSError as e:
                raise ProtocolError(f"recv failed: {e}") from e
            if not chunk:
                raise ProtocolError("connection closed mid-stream")
            self._buf.extend(chunk)

    def close(self) -> None:
        try:
            self.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self.sock.close()


def connect(address: str) -> FrameChannel:
    """Open a TCP connection within ``HANDSHAKE_TIMEOUT_S``; raises
    ProtocolError when the peer is unreachable."""
    host, port = parse_address(address)
    try:
        sock = socket.create_connection((host, port), timeout=HANDSHAKE_TIMEOUT_S)
    except OSError as e:
        raise ProtocolError(f"cannot connect to {address}: {e}") from e
    return FrameChannel(sock)


class Listener:
    """Coordinator-side listener for the HELLO/CONFIG handshake; a failed bind or listen is a ConfigError."""

    def __init__(self, bind_address: str):
        host, port = parse_address(bind_address)
        self._sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        try:
            self._sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            self._sock.bind((host, port))
            self._sock.listen()
        except OSError as e:
            self._sock.close()
            raise ConfigError(f"cannot listen on {bind_address}: {e}") from e

    @property
    def address(self) -> str:
        host, port = self._sock.getsockname()[:2]
        return f"{host}:{port}"

    def accept_clients(
        self, num_clients: int, config_text: str, timeout: float = HANDSHAKE_TIMEOUT_S
    ) -> dict[int, FrameChannel]:
        """Accept until every client id in [0, num_clients) has checked in.

        A connection whose first frame does not parse is closed; one that
        does not open with a fresh, in-range HELLO id gets BYE and is closed.
        ``timeout`` bounds the whole handshake: each accept and each first
        frame waits only for what is left of it. A timeout closes the
        admitted clients and names each refused peer.
        """
        channels: dict[int, FrameChannel] = {}
        refused: list[str] = []
        deadline = time.monotonic() + timeout
        while len(channels) < num_clients:
            try:
                left = deadline - time.monotonic()
                if left <= 0:
                    raise socket.timeout
                self._sock.settimeout(left)
                conn, peer = self._sock.accept()
            except socket.timeout as e:
                for ch in channels.values():
                    ch.close()
                raise ProtocolError(
                    f"handshake timed out with {len(channels)}/{num_clients} clients connected"
                    + "".join(f"; refused {r}" for r in refused)
                ) from e
            ch = FrameChannel(conn)
            where = f"{peer[0]}:{peer[1]}"
            try:
                msg = ch.recv(timeout=round(deadline - time.monotonic(), 3))  # to the ms, for the message
            except ProtocolError as e:
                refused.append(f"{where}: {e}")
                ch.close()
                continue
            if not isinstance(msg, Hello):
                reason = f"opened with {type(msg).__name__}, not Hello"
            elif not (0 <= msg.client_id < num_clients):
                reason = f"HELLO id {msg.client_id} outside [0, {num_clients})"
            elif msg.client_id in channels:
                reason = f"duplicate HELLO id {msg.client_id}"
            else:
                ch.send(ConfigMsg(config_text))
                channels[msg.client_id] = ch
                continue
            refused.append(f"{where}: {reason}")
            ch.send(Bye())
            ch.close()
        return channels

    def close(self) -> None:
        self._sock.close()


class RemoteClientProxy:
    """Coordinator-side view of one TCP client; each read expects ``shape``."""

    def __init__(self, channel: FrameChannel, client_id: int):
        self.channel = channel
        self.client_id = client_id

    def forward_round(self, round_t: int, shape: tuple[int, int]) -> np.ndarray:
        return expect_matrix(self.channel.recv(PEER_TIMEOUT_S), Activations, round_t, self.client_id, shape)

    def apply_grads(self, round_t: int, act_grads: np.ndarray) -> None:
        self.channel.send(ActGrads(round_t, self.client_id, act_grads))

    def eval_activations(self, round_t: int, shape: tuple[int, int]) -> np.ndarray:
        return expect_matrix(self.channel.recv(PEER_TIMEOUT_S), EvalResult, round_t, self.client_id, shape)

    def finish(self, metrics: dict) -> None:
        self.channel.send(Metrics(metrics))
        self.channel.send(Bye())
        self.channel.close()


class ProxyCohort:
    """The ``orchestrator.ClientCohort`` over TCP, called one client at a
    time in id order; a ProtocolError names the round, client and phase.
    Per-client arrays live only here, on the wire: each remote client's
    activations arrive checked against its batch's shape and are copied
    into a zero-padded stack, and each gets its rows of the gradient stack,
    which the server's backward built in the shape of that stack. Batches
    are not sent: each remote client replays its own stream. A ConfigError
    refuses a largest batch or a test set whose frame would pass the cap."""

    def __init__(self, proxies: dict[int, RemoteClientProxy], fan_in: int, batch_rows: int, test_rows: int):
        for what, rows in (("a training batch", batch_rows), ("the test set", test_rows)):
            if MATRIX_HEADER_SIZE + 4 * rows * fan_in > MAX_FRAME:
                raise ConfigError(f"tcp transport cannot carry {what} of {rows} rows x {fan_in} "
                                  f"floats: its frame would pass the {MAX_FRAME} byte cap")
        self.proxies = proxies
        self.fan_in = fan_in
        self.test_shape = (test_rows, fan_in)
        self._lengths = None  # the batch lengths of the last forward

    def _each(self, round_t: int, phase: str, call) -> Iterator[tuple[int, object]]:
        for i in sorted(self.proxies):
            try:
                out = call(i, self.proxies[i])
            except ProtocolError as e:
                raise client_error(round_t, i, phase, e) from e
            yield i, out

    def forward(self, round_t: int, rows: np.ndarray, lengths: Sequence[int]) -> np.ndarray:
        acts = np.zeros((*rows.shape, self.fan_in), dtype=np.float32)
        for i, a in self._each(round_t, "forward", lambda i, p: p.forward_round(round_t, (lengths[i], self.fan_in))):
            acts[i, : lengths[i]] = a
        self._lengths = lengths
        return acts

    def apply_grads(self, round_t: int, act_grads: np.ndarray) -> None:
        lengths = self._lengths
        for _ in self._each(round_t, "backward", lambda i, p: p.apply_grads(round_t, act_grads[i, : lengths[i]])):
            pass

    def eval_activations(self, round_t: int) -> Iterator[np.ndarray]:
        shape = self.test_shape
        return (acts for _, acts in self._each(round_t, "eval", lambda i, p: p.eval_activations(round_t, shape)))


def client_loop(channel: FrameChannel, client_id: int) -> dict:
    """Worker-side protocol driver: handshake, train every seed, wind down.

    The server's CONFIG text is authoritative; it determines the data,
    model, schedule and seed list. The client replays the batch stream the
    coordinator draws, so labels never cross the wire. Returns the final
    METRICS payload.
    """
    from .orchestrator import (  # at call time: the orchestrator imports this module
        ClientBank, build_dataset, build_partition, padded_rows, shard_cursors,
    )

    channel.send(Hello(client_id))
    msg = channel.recv(HANDSHAKE_TIMEOUT_S)
    if isinstance(msg, Bye):
        raise ProtocolError(f"server rejected client {client_id} during handshake")
    if not isinstance(msg, ConfigMsg):
        raise ProtocolError(f"expected CONFIG after HELLO, got {type(msg).__name__}")
    cfg = parse_config_text(msg.text, source="<server config>")
    owed_s = (2 * cfg.clients + 1) * PEER_TIMEOUT_S  # the bound the module docstring derives

    for seed in cfg.seeds:
        train, test = build_dataset(cfg, seed)
        (cursor,) = shard_cursors(cfg, seed, build_partition(cfg, seed, train.labels), [client_id])
        bank = ClientBank(cfg, seed, [client_id], train, test)
        for t in range(1, cfg.rounds + 1):
            phase = "forward"
            try:
                rows, (n,) = padded_rows([cursor.next()])
                acts = bank.forward(t, rows, [n])
                sent = acts[0, :n]
                channel.send(Activations(t, client_id, sent))
                phase = "backward"
                grads = np.zeros_like(acts)
                grads[0, :n] = expect_matrix(channel.recv(owed_s), ActGrads, t, client_id, sent.shape)
                bank.apply_grads(t, grads)
                if is_eval_round(cfg, t):
                    phase = "eval"
                    (eval_acts,) = bank.eval_activations(t)
                    channel.send(EvalResult(t, client_id, eval_acts))
            except ProtocolError as e:
                raise client_error(t, client_id, phase, e) from e

    final: dict = {}
    try:
        while True:
            msg = channel.recv(owed_s)
            if isinstance(msg, Metrics):
                final = msg.payload
            elif isinstance(msg, Bye):
                return final
            else:
                raise ProtocolError(f"unexpected {type(msg).__name__} after training finished")
    except ProtocolError as e:
        raise client_error(cfg.rounds, client_id, "wind-down", e) from e
