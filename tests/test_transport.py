"""Wire format and the TCP message layer."""

import socket
import threading

import numpy as np
import pytest

from gapsl.config import ExperimentConfig, config_to_text
from gapsl.errors import ProtocolError
from gapsl.orchestrator import TrainingEngine, run_experiment
from gapsl.reporting import metrics_rows
from gapsl.transport import (
    ActGrads,
    Activations,
    Bye,
    ConfigMsg,
    EvalRequest,
    EvalResult,
    FrameChannel,
    Hello,
    Listener,
    Metrics,
    RemoteClientProxy,
    client_loop,
    connect,
    decode,
    encode,
)


def random_message(rng):
    kind = int(rng.integers(0, 8))
    if kind == 0:
        return Hello(int(rng.integers(0, 1 << 16)))
    if kind == 1:
        return ConfigMsg("".join(chr(int(c)) for c in rng.integers(32, 127, size=20)))
    if kind in (2, 3, 4):
        rows, cols = int(rng.integers(1, 9)), int(rng.integers(1, 17))
        matrix = rng.normal(size=(rows, cols)).astype(np.float32)
        cls = (Activations, ActGrads, EvalResult)[kind - 2]
        return cls(int(rng.integers(0, 1 << 31)), int(rng.integers(0, 1 << 16)), matrix)
    if kind == 5:
        return EvalRequest(int(rng.integers(0, 1 << 31)))
    if kind == 6:
        return Metrics({"k": float(rng.normal()), "n": int(rng.integers(0, 100))})
    return Bye()


def assert_messages_equal(a, b):
    assert type(a) is type(b)
    if hasattr(a, "matrix"):
        assert a.round == b.round and a.client_id == b.client_id
        assert a.matrix.dtype == b.matrix.dtype == np.float32
        assert np.array_equal(a.matrix, b.matrix)
    else:
        assert a == b


class TestFixtures:
    def test_bye_frame_is_exactly_ten_bytes(self):
        frame = encode(Bye())
        assert frame == bytes.fromhex("47 50 53 4c 01 08 00 00 00 00".replace(" ", ""))

    def test_unit_activation_fixture(self):
        frame = encode(Activations(0, 0, np.array([[1.0]], dtype=np.float32)))
        body = frame[10:]
        assert body.hex() == "00000000" + "0000" + "01000000" + "01000000" + "0000803f"

    def test_header_layout(self):
        frame = encode(Hello(0x0102))
        assert frame[:4] == b"GPSL"
        assert frame[4] == 1          # version
        assert frame[5] == 1          # tag
        assert frame[6:10] == (2).to_bytes(4, "little")


class TestCodecRoundTrip:
    def test_fuzzed_messages_round_trip(self):
        rng = np.random.default_rng(0)
        for _ in range(2000):
            msg = random_message(rng)
            frame = encode(msg)
            decoded, consumed = decode(frame)
            assert consumed == len(frame)
            assert_messages_equal(decoded, msg)

    def test_decode_from_concatenated_stream(self):
        rng = np.random.default_rng(1)
        msgs = [random_message(rng) for _ in range(50)]
        stream = b"".join(encode(m) for m in msgs)
        out = []
        while stream:
            decoded, consumed = decode(stream)
            out.append(decoded)
            stream = stream[consumed:]
        assert len(out) == 50
        for a, b in zip(out, msgs):
            assert_messages_equal(a, b)


class TestParserRobustness:
    def test_wrong_magic_rejected_at_offset_zero(self):
        frame = bytearray(encode(Bye()))
        frame[:4] = b"XPSL"
        with pytest.raises(ProtocolError) as e:
            decode(bytes(frame))
        assert e.value.offset == 0

    def test_bad_version_rejected(self):
        frame = bytearray(encode(Bye()))
        frame[4] = 9
        with pytest.raises(ProtocolError) as e:
            decode(bytes(frame))
        assert e.value.offset == 4

    def test_unknown_tag_rejected(self):
        frame = bytearray(encode(Bye()))
        frame[5] = 99
        with pytest.raises(ProtocolError) as e:
            decode(bytes(frame))
        assert e.value.offset == 5

    def test_incomplete_header_needs_more_bytes(self):
        assert decode(encode(Bye())[:7]) is None

    def test_declared_length_beyond_buffer_needs_more_bytes(self):
        frame = encode(Hello(3))
        assert decode(frame[:-1]) is None

    def test_oversized_declared_length_rejected(self):
        header = b"GPSL" + bytes([1, 2]) + (64 * 1024 * 1024 + 1).to_bytes(4, "little")
        with pytest.raises(ProtocolError) as e:
            decode(header)
        assert e.value.offset == 6

    def test_nan_payload_rejected_with_offset(self):
        m = np.array([[1.0, np.inf], [0.0, 2.0]], dtype=np.float32)
        frame = bytearray(encode(Activations(1, 2, np.ones((2, 2), dtype=np.float32))))
        frame[10 + 14 : 10 + 14 + 16] = m.tobytes()
        with pytest.raises(ProtocolError) as e:
            decode(bytes(frame))
        assert e.value.offset == 10 + 14 + 4  # second float

    def test_encode_refuses_non_finite(self):
        with pytest.raises(ProtocolError):
            encode(Activations(0, 0, np.array([[np.nan]], dtype=np.float32)))

    def test_matrix_length_mismatch_rejected(self):
        frame = bytearray(encode(Activations(0, 0, np.ones((2, 2), dtype=np.float32))))
        frame[10 + 6 : 10 + 10] = (3).to_bytes(4, "little")  # claim 3 rows
        with pytest.raises(ProtocolError):
            decode(bytes(frame))

    def test_fuzzed_garbage_never_crashes(self):
        rng = np.random.default_rng(2)
        outcomes = {"msg": 0, "more": 0, "err": 0}
        for _ in range(2000):
            blob = rng.integers(0, 256, size=int(rng.integers(0, 64)), dtype=np.uint8).tobytes()
            try:
                out = decode(blob)
                outcomes["msg" if out else "more"] += 1
            except ProtocolError:
                outcomes["err"] += 1
        assert outcomes["err"] > 0 and outcomes["more"] > 0


class TestTcpChannels:
    def test_loopback_echo_of_fuzzed_frames(self):
        lsock = socket.create_server(("127.0.0.1", 0))
        lsock.settimeout(10)

        def echo():
            conn, _ = lsock.accept()
            channel = FrameChannel(conn)
            try:
                while True:
                    msg = channel.recv(timeout=10)
                    channel.send(msg)
                    if isinstance(msg, Bye):
                        return
            except ProtocolError:
                pass
            finally:
                channel.close()

        echoer = threading.Thread(target=echo)
        echoer.start()
        host, port = lsock.getsockname()[:2]
        ch = connect(f"{host}:{port}")
        rng = np.random.default_rng(3)
        try:
            for _ in range(1000):
                msg = random_message(rng)
                if isinstance(msg, Bye):
                    continue
                ch.send(msg)
                assert_messages_equal(ch.recv(timeout=10), msg)
            ch.send(Bye())
            assert_messages_equal(ch.recv(timeout=10), Bye())
        finally:
            ch.close()
            echoer.join(timeout=10)
            lsock.close()
        assert not echoer.is_alive()

    def test_channels_disable_nagle(self):
        # an eval round sends ACT_GRADS then EVAL_REQUEST back to back; with
        # Nagle on, the second frame waits for the peer's delayed ACK
        listener = Listener("127.0.0.1:0")
        cfg_text = config_to_text(ExperimentConfig())
        clients = []

        def check_in(cid):
            ch = connect(listener.address)
            clients.append(ch)
            ch.send(Hello(cid))
            ch.recv(timeout=10)

        threads = [threading.Thread(target=check_in, args=(i,)) for i in range(2)]
        for t in threads:
            t.start()
        try:
            accepted = listener.accept_clients(2, cfg_text, timeout=10)
        finally:
            for t in threads:
                t.join(timeout=10)
            listener.close()
        try:
            assert len(accepted) == 2 and len(clients) == 2
            for ch in [*clients, *accepted.values()]:
                assert ch.sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY) != 0
        finally:
            for ch in [*clients, *accepted.values()]:
                ch.close()

    def test_handshake_and_duplicate_client_id_rejected(self):
        listener = Listener("127.0.0.1:0")
        cfg_text = config_to_text(ExperimentConfig())
        outcomes = {}
        accepted = {}
        admitted = []

        def acceptor():
            accepted.update(listener.accept_clients(2, cfg_text, timeout=10))

        acc = threading.Thread(target=acceptor)
        acc.start()

        def check_in(name, cid):
            ch = connect(listener.address)
            try:
                ch.send(Hello(cid))
                outcomes[name] = ch.recv(timeout=10)
            except ProtocolError as e:
                outcomes[name] = e
            if isinstance(outcomes.get(name), ConfigMsg):
                admitted.append(ch)
            else:
                ch.close()

        # serialized so the duplicate arrives after the first valid check-in
        for name, cid in (("a", 0), ("dup", 0), ("oob", 7), ("b", 1)):
            t = threading.Thread(target=check_in, args=(name, cid))
            t.start()
            t.join()
        acc.join()
        listener.close()

        assert set(accepted) == {0, 1}
        assert isinstance(outcomes["a"], ConfigMsg) and outcomes["a"].text == cfg_text
        assert isinstance(outcomes["b"], ConfigMsg)
        assert isinstance(outcomes["dup"], Bye)
        assert isinstance(outcomes["oob"], Bye)
        for ch in [*admitted, *accepted.values()]:
            ch.close()

    def test_transport_transparency_tcp_equals_inproc(self):
        cfg = ExperimentConfig(
            strategy="gapsl", clients=3, rounds=6, batch_size=16, samples_per_class=40,
            model_dims=(8, 16, 16, 4), cut=1, eval_interval=2, seeds=(1, 2), alpha=0.3,
        )
        rows_inproc = []
        for seed in cfg.seeds:
            rows_inproc += metrics_rows(cfg.strategy, seed, cfg.alpha, run_experiment(cfg, seed))

        listener = Listener("127.0.0.1:0")
        addr = listener.address
        finals = {}

        def worker(cid):
            ch = connect(addr)
            try:
                finals[cid] = client_loop(ch, cid)
            finally:
                ch.close()

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(cfg.clients)]
        for t in threads:
            t.start()
        channels = listener.accept_clients(cfg.clients, config_to_text(cfg), timeout=10)
        proxies = {i: RemoteClientProxy(ch, i) for i, ch in channels.items()}
        rows_tcp = []
        for seed in cfg.seeds:
            rows_tcp += metrics_rows(cfg.strategy, seed, cfg.alpha, TrainingEngine(cfg, seed, proxies).run())
        for i in sorted(proxies):
            proxies[i].finish({"done": 1})
        for t in threads:
            t.join()
        listener.close()

        assert rows_tcp == rows_inproc
        assert all(finals[i] == {"done": 1} for i in range(cfg.clients))
