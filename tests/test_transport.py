"""Wire format and the TCP message layer."""

import dataclasses
import re
import socket
import threading
import time

import numpy as np
import pytest

import gapsl.transport as tp
from gapsl.config import ExperimentConfig, config_to_text
from gapsl.errors import ProtocolError
from gapsl.orchestrator import TrainingEngine, padded_rows
from gapsl.reporting import metrics_rows
from gapsl.transport import (
    ActGrads,
    Activations,
    Bye,
    ConfigMsg,
    EvalResult,
    FrameChannel,
    Hello,
    Listener,
    MatrixMessage,
    Metrics,
    ProxyCohort,
    RemoteClientProxy,
    VERSION,
    client_loop,
    connect,
    decode,
    encode,
)


def random_message(rng):
    kind = int(rng.integers(0, 7))
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
        return Metrics({"k": float(rng.normal()), "n": int(rng.integers(0, 100))})
    return Bye()


# the fake coordinator's reply that sends nothing and keeps the socket open
SILENT = object()
# seconds a stalled client may take beyond its deadline to end
STALL_MARGIN_S = 0.5


def client_deadline(cfg):
    """The seconds a client waits for a frame the coordinator owes it."""
    return (2 * cfg.clients + 1) * tp.PEER_TIMEOUT_S


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
        assert frame == bytes.fromhex("47 50 53 4c 02 08 00 00 00 00".replace(" ", ""))

    def test_unit_activation_fixture(self):
        frame = encode(Activations(0, 0, np.array([[1.0]], dtype=np.float32)))
        body = frame[10:]
        assert body.hex() == "00000000" + "0000" + "01000000" + "01000000" + "0000803f"

    def test_header_layout(self):
        frame = encode(Hello(0x0102))
        assert frame[:4] == b"GPSL"
        assert frame[4] == VERSION
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

    @pytest.mark.parametrize("tag", [99, 5])  # 5: version 1's retired eval request
    def test_unknown_tag_rejected(self, tag):
        frame = bytearray(encode(Bye()))
        frame[5] = tag
        with pytest.raises(ProtocolError) as e:
            decode(bytes(frame))
        assert e.value.offset == 5

    def test_incomplete_header_needs_more_bytes(self):
        assert decode(encode(Bye())[:7]) is None

    def test_declared_length_beyond_buffer_needs_more_bytes(self):
        frame = encode(Hello(3))
        assert decode(frame[:-1]) is None

    def test_oversized_declared_length_rejected(self):
        header = b"GPSL" + bytes([VERSION, 2]) + (64 * 1024 * 1024 + 1).to_bytes(4, "little")
        with pytest.raises(ProtocolError) as e:
            decode(header)
        assert e.value.offset == 6

    def test_nan_payload_rejected_with_offset(self):
        # the sender frames any float; the receiver refuses a non-finite one
        m = np.array([[1.0, np.inf], [0.0, 2.0]], dtype=np.float32)
        with pytest.raises(ProtocolError) as e:
            decode(encode(Activations(1, 2, m)))
        assert e.value.offset == 10 + 14 + 4  # second float

    def test_matrix_length_mismatch_rejected(self):
        frame = bytearray(encode(Activations(0, 0, np.ones((2, 2), dtype=np.float32))))
        frame[10 + 6 : 10 + 10] = (3).to_bytes(4, "little")  # claim 3 rows
        with pytest.raises(ProtocolError):
            decode(bytes(frame))

    def test_matrix_messages_are_one_class(self):
        # one dataclass, three tags: equality and encoding still tell them apart
        m = np.ones((2, 3), dtype=np.float32)
        assert all(issubclass(cls, MatrixMessage) for cls in (Activations, ActGrads, EvalResult))
        assert Activations(1, 0, m) != ActGrads(1, 0, m)
        assert [encode(cls(1, 0, m))[5] for cls in (Activations, ActGrads, EvalResult)] == [3, 4, 6]
        with pytest.raises(TypeError, match="cannot encode MatrixMessage"):
            encode(MatrixMessage(1, 0, m))

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

    def test_recv_deadline_bounds_the_whole_frame(self):
        # a peer that trickles a frame byte by byte keeps every single read
        # short; the deadline still holds for the frame as a whole
        near, far = socket.socketpair()
        channel = FrameChannel(near)
        stop = threading.Event()

        def trickle():
            for byte in encode(Bye()):
                if stop.wait(0.1):
                    return
                far.sendall(bytes([byte]))

        sender = threading.Thread(target=trickle)
        sender.start()
        try:
            with pytest.raises(ProtocolError, match="timed out after 0.35s"):
                channel.recv(timeout=0.35)
        finally:
            stop.set()
            sender.join(timeout=10)
            channel.close()
            far.close()

    @staticmethod
    def answer_first_activations(reply, rounds=2):
        """Run client 1 of 2 against a fake coordinator on a socketpair, which
        answers its round-1 activations with ``reply(activations)``, a
        frame or a tuple of frames sent in order, then says nothing more. A ``reply`` of None closes the socket instead; one
        of SILENT sends nothing and keeps the socket open. Returns the
        activations, the client's ProtocolError messages and the seconds
        from the activations' arrival to the client's end.

        The coordinator waits for the client's end at most the client's
        deadline plus STALL_MARGIN_S, and at most 10 s, so a client without
        a deadline fails the caller instead of hanging it."""
        cfg = ExperimentConfig(
            strategy="psl", clients=2, rounds=rounds, batch_size=4, samples_per_class=10,
            model_dims=(4, 6, 3), cut=1, seeds=(1,),
        )
        near, far = socket.socketpair()
        coordinator, client = FrameChannel(near), FrameChannel(far)
        errors, ended = [], []

        def run():
            try:
                client_loop(client, 1)
            except ProtocolError as e:
                errors.append(str(e))
            ended.append(time.monotonic())

        worker = threading.Thread(target=run)
        worker.start()
        try:
            assert coordinator.recv(timeout=10) == Hello(1)
            coordinator.send(ConfigMsg(config_to_text(cfg)))
            acts = coordinator.recv(timeout=10)
            arrived = time.monotonic()
            assert isinstance(acts, Activations) and (acts.round, acts.client_id) == (1, 1)
            if reply is None:
                coordinator.close()
            elif reply is not SILENT:
                frames = reply(acts)
                for frame in frames if isinstance(frames, tuple) else (frames,):
                    coordinator.send(frame)
            worker.join(timeout=min(client_deadline(cfg) + STALL_MARGIN_S, 10))
        finally:
            coordinator.close()
            worker.join(timeout=10)
            client.close()
        assert not worker.is_alive()
        return acts, errors, ended[0] - arrived

    @pytest.mark.parametrize("round_t,client_id", [(1, 0), (2, 1)])
    def test_client_rejects_act_grads_addressed_elsewhere(self, round_t, client_id):
        # ACT_GRADS of the right shape for another client or another round
        _, errors, _ = self.answer_first_activations(
            lambda acts: ActGrads(round_t, client_id, np.zeros_like(acts.matrix))
        )
        assert errors == [f"round 1 client 1 (backward): ActGrads for round {round_t} client {client_id}"]

    def test_client_rejects_non_finite_act_grads(self):
        def poisoned(acts):
            grads = np.zeros_like(acts.matrix)
            grads[0, 1] = np.nan
            return ActGrads(1, 1, grads)

        _, errors, _ = self.answer_first_activations(poisoned)
        assert errors == ["round 1 client 1 (backward): non-finite payload float (byte offset 28)"]

    @pytest.mark.parametrize("cut", [lambda m: m[:-1], lambda m: np.vstack([m, m]), lambda m: m[:, :-1]],
                             ids=["short", "long", "narrow"])
    def test_client_rejects_misshaped_act_grads(self, cut):
        # the client pads the gradients into its stack only once their shape
        # is the one its activations had
        acts, errors, _ = self.answer_first_activations(lambda acts: ActGrads(1, 1, cut(np.ones_like(acts.matrix))))
        bad = cut(acts.matrix).shape
        assert errors == [f"round 1 client 1 (backward): ActGrads of shape {bad}, expected {acts.matrix.shape}"]

    def test_client_names_a_coordinator_gone_mid_round(self):
        # the coordinator vanishes after round 1's activations: the client's
        # error names the round, itself and the phase it was waiting in
        _, errors, _ = self.answer_first_activations(None)
        assert errors == ["round 1 client 1 (backward): connection closed mid-stream"]

    def test_client_of_a_coordinator_stalled_mid_round_times_out(self, monkeypatch):
        # the coordinator stays alive and says nothing after round 1's
        # activations: the client gives up after the deadline derived from
        # PEER_TIMEOUT_S, (2 * 2 + 1) * 0.1 s
        monkeypatch.setattr(tp, "PEER_TIMEOUT_S", 0.1)
        _, errors, elapsed = self.answer_first_activations(SILENT)
        assert errors == ["round 1 client 1 (backward): timed out after 0.5s waiting for a frame"]
        assert elapsed < 0.5 + STALL_MARGIN_S

    @pytest.mark.parametrize("then,problem", [
        ((), "timed out after 0.5s waiting for a frame"),
        ((Activations(1, 1, np.zeros((3, 6), np.float32)),), "unexpected Activations after training finished"),
    ], ids=["stalled", "unexpected-frame"])
    def test_client_names_the_last_round_at_wind_down(self, monkeypatch, then, problem):
        # a one-round run: the client applies its gradients and pushes its
        # eval result, then ``then`` follows where METRICS or BYE belong
        monkeypatch.setattr(tp, "PEER_TIMEOUT_S", 0.1)
        _, errors, elapsed = self.answer_first_activations(
            lambda acts: (ActGrads(1, 1, np.zeros_like(acts.matrix)), *then), rounds=1
        )
        assert errors == [f"round 1 client 1 (wind-down): {problem}"]
        assert elapsed < 0.5 + STALL_MARGIN_S

    def test_client_of_a_coordinator_stalled_at_the_handshake_times_out(self, monkeypatch):
        # no CONFIG follows the HELLO; the handshake names no round
        monkeypatch.setattr(tp, "HANDSHAKE_TIMEOUT_S", 0.2)
        near, far = socket.socketpair()
        coordinator, client = FrameChannel(near), FrameChannel(far)
        began = time.monotonic()
        try:
            with pytest.raises(ProtocolError, match=r"^timed out after 0.2s waiting for a frame$"):
                client_loop(client, 1)
            assert time.monotonic() - began < 0.2 + STALL_MARGIN_S
            assert coordinator.recv(timeout=10) == Hello(1)
        finally:
            coordinator.close()
            client.close()

    @pytest.mark.parametrize("phase,frame,problem", [
        ("forward", EvalResult(1, 0, np.zeros((3, 6), np.float32)), "expected Activations, got EvalResult"),
        ("forward", Activations(2, 0, np.zeros((3, 6), np.float32)), "Activations for round 2 client 0"),
        ("forward", Activations(1, 1, np.zeros((3, 6), np.float32)), "Activations for round 1 client 1"),
        ("forward", Activations(1, 0, np.full((3, 6), -np.inf, np.float32)),
         "non-finite payload float (byte offset 24)"),
        # a wider matrix would fail inside the server model
        ("forward", Activations(1, 0, np.zeros((3, 12), np.float32)),
         "Activations of shape (3, 12), expected (3, 6)"),
        # one row would broadcast one prediction against every label
        ("eval", EvalResult(1, 0, np.zeros((1, 6), np.float32)), "EvalResult of shape (1, 6), expected (5, 6)"),
        ("eval", EvalResult(1, 0, np.zeros((5, 12), np.float32)), "EvalResult of shape (5, 12), expected (5, 6)"),
    ], ids=["type", "round", "client", "non-finite", "double-width", "eval-one-row", "eval-double-width"])
    def test_coordinator_names_a_wrong_frame_once(self, phase, frame, problem):
        # the frame check says what arrived; the TCP cohort adds round,
        # client and phase, once. The cohort reads round 1's frame as the
        # forward of a 3-row batch or the eval of a 5-row test set
        near, far = socket.socketpair()
        client = FrameChannel(far)
        cohort = ProxyCohort({0: RemoteClientProxy(FrameChannel(near), 0)}, 6, 3, 5)
        read = {"forward": lambda: cohort.forward(1, *padded_rows([np.arange(3)])),
                "eval": lambda: list(cohort.eval_activations(1))}[phase]
        try:
            client.send(frame)
            with pytest.raises(ProtocolError) as e:
                read()
            assert str(e.value) == f"round 1 client 0 ({phase}): {problem}"
        finally:
            cohort.proxies[0].channel.close()
            client.close()

    def test_channels_disable_nagle(self):
        # after an eval round a client sends EVAL_RESULT then the next
        # ACTIVATIONS back to back; with Nagle on, the second frame waits for
        # the coordinator's delayed ACK
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

    def test_version_one_hello_is_refused(self):
        listener = Listener("127.0.0.1:0")
        peer = socket.create_connection(tp.parse_address(listener.address), timeout=10)
        try:
            hello = bytearray(encode(Hello(0)))
            hello[4] = 1
            peer.sendall(hello)
            host, port = peer.getsockname()[:2]
            refused = re.escape(f"; refused {host}:{port}: unsupported version 1 (byte offset 4)")
            with pytest.raises(ProtocolError, match="handshake timed out with 0/1 clients connected" + refused):
                listener.accept_clients(1, config_to_text(ExperimentConfig()), timeout=0.5)
            assert peer.recv(16) == b""  # closed without a CONFIG
        finally:
            peer.close()
            listener.close()

    def test_handshake_timeout_names_refused_hello_ids(self):
        listener = Listener("127.0.0.1:0")
        peers = [socket.create_connection(tp.parse_address(listener.address), timeout=10) for _ in range(3)]
        try:
            for peer, cid in zip(peers, (0, 0, 7)):
                peer.sendall(encode(Hello(cid)))
            where = ["{}:{}".format(*peer.getsockname()[:2]) for peer in peers]
            want = (
                f"handshake timed out with 1/2 clients connected; refused {where[1]}: duplicate HELLO id 0; "
                f"refused {where[2]}: HELLO id 7 outside [0, 2)"
            )
            with pytest.raises(ProtocolError, match=re.escape(want)):
                listener.accept_clients(2, config_to_text(ExperimentConfig()), timeout=0.5)
        finally:
            for peer in peers:
                peer.close()
            listener.close()

    def test_silent_peers_share_one_handshake_deadline(self):
        # one deadline for the whole handshake: the second silent peer gets
        # no accept or first-frame wait of its own
        timeout, margin = 0.5, 0.25
        listener = Listener("127.0.0.1:0")
        peers = [socket.create_connection(tp.parse_address(listener.address), timeout=10) for _ in range(2)]
        try:
            start = time.monotonic()
            with pytest.raises(ProtocolError, match=r"handshake timed out with 0/2 clients connected; refused "
                               r"[\d.]+:\d+: timed out after [\d.]+s waiting for a frame$"):
                listener.accept_clients(2, config_to_text(ExperimentConfig()), timeout=timeout)
            assert time.monotonic() - start < timeout + margin
        finally:
            for peer in peers:
                peer.close()
            listener.close()

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

    @pytest.mark.parametrize("cfg,one_row", [
        (ExperimentConfig(
            strategy="gapsl", clients=3, rounds=6, batch_size=16, samples_per_class=40,
            model_dims=(8, 16, 16, 4), cut=1, eval_interval=2, seeds=(1, 2), alpha=0.3,
        ), False),
        # shards of 11, 11 and 10 rows: round 4 holds a one-row batch beside
        # two-row ones; two client and two server layers, so a one-row
        # delta @ W.T reaches a gradient on both sides
        (ExperimentConfig(
            strategy="gapsl", clients=3, rounds=6, batch_size=3, samples_per_class=10,
            model_dims=(8, 16, 12, 10, 4), cut=2, eval_interval=2, seeds=(1, 2), alpha=None,
        ), True),
    ], ids=["ragged", "one-row"])
    def test_transport_transparency_tcp_equals_inproc(self, cfg, one_row):
        rows_inproc, lengths = [], []
        for seed in cfg.seeds:
            engine = TrainingEngine(cfg, seed)
            forward = engine.clients.forward
            engine.clients.forward = lambda t, rows, n, forward=forward: lengths.append(n) or forward(t, rows, n)
            rows_inproc += metrics_rows(cfg.strategy, seed, cfg.alpha, engine.run())
        assert any(1 in n and max(n) > 1 for n in lengths) == one_row  # a one-row batch beside a longer one

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


class TestEvalPush:
    """In an eval round each client pushes EVAL_RESULT after its ACT_GRADS,
    unasked; the coordinator only receives it."""

    CFG = ExperimentConfig(
        strategy="psl", clients=2, rounds=4, batch_size=8, samples_per_class=20,
        model_dims=(4, 6, 2), cut=1, eval_interval=2, seeds=(1,), alpha=None,
    )

    def run_rounds(self, cfg, on_channels=None):
        """Run every round of ``cfg`` against real ``client_loop`` threads."""
        listener = Listener("127.0.0.1:0")
        addr = listener.address
        errors = []

        def worker(cid):
            ch = connect(addr)
            try:
                client_loop(ch, cid)
            except ProtocolError as e:
                errors.append(e)
            finally:
                ch.close()

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(cfg.clients)]
        for t in threads:
            t.start()
        channels = {}
        try:
            channels = listener.accept_clients(cfg.clients, config_to_text(cfg), timeout=10)
            if on_channels is not None:
                on_channels(channels)
            proxies = {i: RemoteClientProxy(ch, i) for i, ch in channels.items()}
            reports = TrainingEngine(cfg, 1, proxies).run()
            for i in sorted(proxies):
                proxies[i].finish({})
        finally:
            for ch in channels.values():
                ch.close()
            for t in threads:
                t.join(timeout=10)
            listener.close()
        assert not any(t.is_alive() for t in threads) and errors == []
        return reports

    def test_eval_round_sends_one_frame_per_client(self):
        sent = []  # every frame the coordinator sends during the rounds

        def record(channels):
            for ch in channels.values():
                def send(msg, inner=ch.send):
                    sent.append(msg)
                    inner(msg)
                ch.send = send

        reports = self.run_rounds(self.CFG, record)
        assert [r.accuracy is not None for r in reports] == [False, True, False, True]
        clients = range(self.CFG.clients)
        assert [(type(m), getattr(m, "round", None), getattr(m, "client_id", None)) for m in sent] == [
            *((ActGrads, t, i) for t in range(1, self.CFG.rounds + 1) for i in clients),
            *((kind, None, None) for i in clients for kind in (Metrics, Bye)),  # finish
        ]

    def test_push_in_a_train_round_fails_the_next_forward(self, monkeypatch):
        # the clients believe every round is an eval round
        monkeypatch.setattr(tp, "is_eval_round", lambda cfg, t: True)
        with pytest.raises(ProtocolError, match=r"^round 2 client 0 \(forward\): "
                                                 r"expected Activations, got EvalResult$"):
            self.run_rounds(self.CFG)

    def test_missing_push_times_out_in_the_eval_phase(self, monkeypatch):
        # the clients never evaluate; the coordinator's last round does
        monkeypatch.setattr(tp, "is_eval_round", lambda cfg, t: False)
        monkeypatch.setattr(tp, "PEER_TIMEOUT_S", 0.5)
        began = time.monotonic()
        with pytest.raises(ProtocolError, match=r"round 1 client 0 \(eval\): timed out after 0.5s"):
            self.run_rounds(dataclasses.replace(self.CFG, rounds=1))
        assert time.monotonic() - began < 5
