"""Length-prefixed binary framing and the client/server message layer.

Frame layout (little-endian):

    magic   4 bytes  "GPSL"
    version u8       1
    tag     u8       message tag
    length  u32      body length, capped at 64 MiB
    body    length bytes, tag-specific

Matrix-bearing bodies (ACTIVATIONS, ACT_GRADS, EVAL_RESULT) are
``round u32, client_id u16, rows u32, cols u32`` followed by rows*cols
IEEE-754 single-precision values. Payload floats must be finite; the wire
carries the experiment's float32 precision losslessly, so TCP runs and
in-process runs produce identical results.

Handshake: a client opens with HELLO carrying its id; the server answers
with CONFIG (the canonical key=value config text) or closes the
connection to reject it.

TCP channels set ``TCP_NODELAY``: in an eval round the coordinator sends
ACT_GRADS and then EVAL_REQUEST back to back, and under Nagle's algorithm
the second frame would wait for the client's delayed ACK (about 40 ms).
Every frame leaves in a single ``sendall``, so no frame is split into
small segments.
"""

from __future__ import annotations

import json
import socket
import struct
from dataclasses import dataclass, field

import numpy as np

from .config import is_eval_round, parse_config_text
from .errors import ConfigError, ProtocolError

MAGIC = b"GPSL"
VERSION = 1
MAX_FRAME = 64 * 1024 * 1024
HEADER_FMT = "<4sBBI"
HEADER_SIZE = struct.calcsize(HEADER_FMT)
MATRIX_FMT = "<IHII"
MATRIX_HEADER_SIZE = struct.calcsize(MATRIX_FMT)

TAG_HELLO = 1
TAG_CONFIG = 2
TAG_ACTIVATIONS = 3
TAG_ACT_GRADS = 4
TAG_EVAL_REQUEST = 5
TAG_EVAL_RESULT = 6
TAG_METRICS = 7
TAG_BYE = 8
_KNOWN_TAGS = frozenset(range(1, 9))


@dataclass
class Hello:
    client_id: int


@dataclass
class ConfigMsg:
    text: str


@dataclass
class Activations:
    round: int
    client_id: int
    matrix: np.ndarray


@dataclass
class ActGrads:
    round: int
    client_id: int
    matrix: np.ndarray


@dataclass
class EvalRequest:
    round: int


@dataclass
class EvalResult:
    round: int
    client_id: int
    matrix: np.ndarray


@dataclass
class Metrics:
    payload: dict = field(default_factory=dict)


@dataclass
class Bye:
    pass


WireMessage = Hello | ConfigMsg | Activations | ActGrads | EvalRequest | EvalResult | Metrics | Bye

_MATRIX_TAGS = {Activations: TAG_ACTIVATIONS, ActGrads: TAG_ACT_GRADS, EvalResult: TAG_EVAL_RESULT}
_TAG_TO_MATRIX = {v: k for k, v in _MATRIX_TAGS.items()}


def _matrix_body(msg) -> bytes:
    m = np.ascontiguousarray(msg.matrix, dtype="<f4")
    if m.ndim != 2:
        raise ProtocolError(f"matrix payload must be 2-D, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ProtocolError("refusing to encode non-finite payload floats")
    head = struct.pack(MATRIX_FMT, msg.round, msg.client_id, m.shape[0], m.shape[1])
    return head + m.tobytes()


def encode(msg: WireMessage) -> bytes:
    """Serialize one message into a complete frame."""
    try:
        if isinstance(msg, Hello):
            tag, body = TAG_HELLO, struct.pack("<H", msg.client_id)
        elif isinstance(msg, ConfigMsg):
            tag, body = TAG_CONFIG, msg.text.encode("utf-8")
        elif isinstance(msg, (Activations, ActGrads, EvalResult)):
            tag, body = _MATRIX_TAGS[type(msg)], _matrix_body(msg)
        elif isinstance(msg, EvalRequest):
            tag, body = TAG_EVAL_REQUEST, struct.pack("<I", msg.round)
        elif isinstance(msg, Metrics):
            tag, body = TAG_METRICS, json.dumps(msg.payload, sort_keys=True).encode("utf-8")
        elif isinstance(msg, Bye):
            tag, body = TAG_BYE, b""
        else:
            raise ProtocolError(f"cannot encode {type(msg).__name__}")
    except struct.error as e:
        raise ProtocolError(f"field out of range while encoding {type(msg).__name__}: {e}") from e
    if len(body) > MAX_FRAME:
        raise ProtocolError(f"payload of {len(body)} bytes exceeds the {MAX_FRAME} byte cap")
    return struct.pack(HEADER_FMT, MAGIC, VERSION, tag, len(body)) + body


def _decode_matrix(tag: int, body: bytes, base: int):
    if len(body) < MATRIX_HEADER_SIZE:
        raise ProtocolError("truncated matrix header", offset=base + len(body))
    rnd, client_id, rows, cols = struct.unpack_from(MATRIX_FMT, body, 0)
    expected = MATRIX_HEADER_SIZE + rows * cols * 4
    if len(body) != expected:
        raise ProtocolError(
            f"matrix body is {len(body)} bytes, layout requires {expected}",
            offset=base + min(len(body), expected),
        )
    data = np.frombuffer(body, dtype="<f4", count=rows * cols, offset=MATRIX_HEADER_SIZE)
    finite = np.isfinite(data)
    if not finite.all():
        bad = int(np.argmin(finite))
        raise ProtocolError(
            "non-finite payload float", offset=base + MATRIX_HEADER_SIZE + bad * 4
        )
    matrix = data.reshape(rows, cols).copy()
    return _TAG_TO_MATRIX[tag](rnd, client_id, matrix)


def decode(buf: bytes | bytearray) -> tuple[WireMessage, int] | None:
    """Parse one frame from the head of ``buf``.

    Returns (message, bytes consumed), or None when more bytes are needed.
    Malformed frames raise :class:`ProtocolError` naming the byte offset.
    """
    if len(buf) < HEADER_SIZE:
        return None
    magic, version, tag, length = struct.unpack_from(HEADER_FMT, bytes(buf[:HEADER_SIZE]), 0)
    if magic != MAGIC:
        raise ProtocolError(f"bad magic {magic!r}, expected {MAGIC!r}", offset=0)
    if version != VERSION:
        raise ProtocolError(f"unsupported version {version}", offset=4)
    if tag not in _KNOWN_TAGS:
        raise ProtocolError(f"unknown tag {tag}", offset=5)
    if length > MAX_FRAME:
        raise ProtocolError(f"declared length {length} exceeds the {MAX_FRAME} byte cap", offset=6)
    if len(buf) < HEADER_SIZE + length:
        return None
    body = bytes(buf[HEADER_SIZE : HEADER_SIZE + length])
    consumed = HEADER_SIZE + length

    if tag in _TAG_TO_MATRIX:
        return _decode_matrix(tag, body, HEADER_SIZE), consumed
    if tag == TAG_HELLO:
        if len(body) != 2:
            raise ProtocolError("HELLO body must be 2 bytes", offset=HEADER_SIZE + len(body))
        return Hello(struct.unpack("<H", body)[0]), consumed
    if tag == TAG_CONFIG:
        try:
            return ConfigMsg(body.decode("utf-8")), consumed
        except UnicodeDecodeError as e:
            raise ProtocolError("CONFIG body is not UTF-8", offset=HEADER_SIZE + e.start) from e
    if tag == TAG_EVAL_REQUEST:
        if len(body) != 4:
            raise ProtocolError("EVAL_REQUEST body must be 4 bytes", offset=HEADER_SIZE + len(body))
        return EvalRequest(struct.unpack("<I", body)[0]), consumed
    if tag == TAG_METRICS:
        try:
            return Metrics(json.loads(body.decode("utf-8"))), consumed
        except (UnicodeDecodeError, json.JSONDecodeError) as e:
            raise ProtocolError(f"METRICS body is not JSON: {e}", offset=HEADER_SIZE) from e
    if len(body) != 0:
        raise ProtocolError("BYE carries no body", offset=HEADER_SIZE)
    return Bye(), consumed


def parse_address(address: str) -> tuple[str, int]:
    """Split a host:port string."""
    host, sep, port = address.rpartition(":")
    if not sep or not host:
        raise ConfigError(f"address must be host:port, got {address!r}")
    try:
        return host, int(port)
    except ValueError as e:
        raise ConfigError(f"bad port in address {address!r}") from e


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

    def recv(self, timeout: float | None = None) -> WireMessage:
        self.sock.settimeout(timeout)
        while True:
            parsed = decode(self._buf)
            if parsed is not None:
                msg, consumed = parsed
                del self._buf[:consumed]
                return msg
            try:
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


def connect(address: str, timeout: float = 10.0) -> FrameChannel:
    """Open a TCP connection; raises ProtocolError when the peer is unreachable."""
    host, port = parse_address(address)
    try:
        sock = socket.create_connection((host, port), timeout=timeout)
    except OSError as e:
        raise ProtocolError(f"cannot connect to {address}: {e}") from e
    sock.settimeout(None)
    return FrameChannel(sock)


class Listener:
    """Coordinator-side listener implementing the HELLO/CONFIG handshake."""

    def __init__(self, bind_address: str):
        host, port = parse_address(bind_address)
        self._sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._sock.bind((host, port))
        self._sock.listen()

    @property
    def address(self) -> str:
        host, port = self._sock.getsockname()[:2]
        return f"{host}:{port}"

    def accept_clients(
        self, num_clients: int, config_text: str, timeout: float = 10.0
    ) -> dict[int, FrameChannel]:
        """Accept until every client id in [0, num_clients) has checked in.

        A connection that does not open with a fresh, in-range HELLO id is
        answered with BYE and closed.
        """
        channels: dict[int, FrameChannel] = {}
        self._sock.settimeout(timeout)
        while len(channels) < num_clients:
            try:
                conn, _ = self._sock.accept()
            except socket.timeout as e:
                raise ProtocolError(
                    f"handshake timed out with {len(channels)}/{num_clients} clients connected"
                ) from e
            ch = FrameChannel(conn)
            try:
                msg = ch.recv(timeout=timeout)
            except ProtocolError:
                ch.close()
                continue
            if not isinstance(msg, Hello) or not (0 <= msg.client_id < num_clients) or msg.client_id in channels:
                ch.send(Bye())
                ch.close()
                continue
            ch.send(ConfigMsg(config_text))
            channels[msg.client_id] = ch
        return channels

    def close(self) -> None:
        self._sock.close()


class RemoteClientProxy:
    """Coordinator-side view of one TCP client."""

    def __init__(self, channel: FrameChannel, client_id: int):
        self.channel = channel
        self.client_id = client_id

    def _expect_matrix(self, msg, want_type, round_t: int) -> np.ndarray:
        if not isinstance(msg, want_type):
            raise ProtocolError(
                f"client {self.client_id}: expected {want_type.__name__}, got {type(msg).__name__}"
            )
        if msg.round != round_t or msg.client_id != self.client_id:
            raise ProtocolError(
                f"client {self.client_id}: frame for round {msg.round} client {msg.client_id}, "
                f"expected round {round_t}"
            )
        return msg.matrix

    def forward_round(self, round_t: int) -> np.ndarray:
        return self._expect_matrix(self.channel.recv(), Activations, round_t)

    def apply_grads(self, round_t: int, act_grads: np.ndarray) -> None:
        self.channel.send(ActGrads(round_t, self.client_id, act_grads))

    def eval_activations(self, round_t: int) -> np.ndarray:
        self.channel.send(EvalRequest(round_t))
        return self._expect_matrix(self.channel.recv(), EvalResult, round_t)

    def get_params(self):
        raise ConfigError("tcp transport cannot ship client model parameters")

    def set_params(self, arrays) -> None:
        raise ConfigError("tcp transport cannot ship client model parameters")

    def finish(self, metrics: dict) -> None:
        self.channel.send(Metrics(metrics))
        self.channel.send(Bye())
        self.channel.close()


def client_loop(channel: FrameChannel, client_id: int, handshake_timeout: float = 10.0) -> dict:
    """Worker-side protocol driver: handshake, train every seed, wind down.

    The server's CONFIG text is authoritative; it determines the data,
    model, schedule and seed list. Returns the final METRICS payload.
    """
    from .orchestrator import ClientBank  # local import keeps module deps one-way

    channel.send(Hello(client_id))
    msg = channel.recv(timeout=handshake_timeout)
    if isinstance(msg, Bye):
        raise ProtocolError(f"server rejected client {client_id} during handshake")
    if not isinstance(msg, ConfigMsg):
        raise ProtocolError(f"expected CONFIG after HELLO, got {type(msg).__name__}")
    cfg = parse_config_text(msg.text, source="<server config>")

    for seed in cfg.seeds:
        bank = ClientBank(cfg, seed, [client_id])
        for t in range(1, cfg.rounds + 1):
            (acts,) = bank.forward(t)
            channel.send(Activations(t, client_id, acts))
            reply = channel.recv()
            if not isinstance(reply, ActGrads) or reply.round != t:
                raise ProtocolError(f"round {t}: expected ACT_GRADS, got {type(reply).__name__}")
            bank.apply_grads(t, [reply.matrix])
            if is_eval_round(cfg, t):
                req = channel.recv()
                if not isinstance(req, EvalRequest) or req.round != t:
                    raise ProtocolError(f"round {t}: expected EVAL_REQUEST, got {type(req).__name__}")
                (eval_acts,) = bank.eval_activations(t)
                channel.send(EvalResult(t, client_id, eval_acts))

    final: dict = {}
    while True:
        msg = channel.recv()
        if isinstance(msg, Metrics):
            final = msg.payload
        elif isinstance(msg, Bye):
            return final
        else:
            raise ProtocolError(f"unexpected {type(msg).__name__} after training finished")
