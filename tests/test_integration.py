"""Cross-module paths: IDX-backed runs, failure handling, exit codes."""

import struct
import threading

import numpy as np
import pytest

import gapsl.orchestrator as orch
from gapsl.cli import main
from gapsl.config import ExperimentConfig, config_to_text
from gapsl.errors import ProtocolError
from gapsl.geometry import flatten
from gapsl.nn import grads_arrays, params_arrays
from gapsl.orchestrator import ClientBank, TrainingEngine, run_experiment
from gapsl.transport import Activations, Bye, ConfigMsg, Hello, Listener, RemoteClientProxy, connect


def write_idx_pair(directory, name, images, labels):
    arr = np.asarray(images, dtype=np.uint8)
    img = directory / f"{name}-images.idx"
    lab = directory / f"{name}-labels.idx"
    img.write_bytes(struct.pack(">IIII", 0x00000803, *arr.shape) + arr.tobytes())
    lab_arr = np.asarray(labels, dtype=np.uint8)
    lab.write_bytes(struct.pack(">II", 0x00000801, len(lab_arr)) + lab_arr.tobytes())
    return str(img), str(lab)


class TestIdxExperiment:
    def test_experiment_runs_from_idx_files(self, tmp_path):
        rng = np.random.default_rng(0)
        # two 3x3 "image" classes with distinct intensity patterns
        n = 60
        labels = np.tile([0, 1], n // 2)
        images = np.where(labels[:, None, None] == 0, 40, 200) + rng.integers(0, 30, (n, 3, 3))
        ti, tl = write_idx_pair(tmp_path, "train", images, labels)
        vi, vl = write_idx_pair(tmp_path, "test", images[:20], labels[:20])
        cfg = ExperimentConfig(
            strategy="psl", clients=2, rounds=12, batch_size=8, eval_interval=2,
            dataset="idx", train_images=ti, train_labels=tl, test_images=vi, test_labels=vl,
            model_dims=(9, 6, 2), cut=1, alpha=None, seeds=(1,),
        )
        reports = run_experiment(cfg, seed=1)
        assert len(reports) == 12
        assert reports[-1].accuracy is not None
        # separable intensity classes are learned quickly
        assert reports[-1].accuracy >= 0.9


def record_server_grads(monkeypatch, clients, zeroed=()):
    """Record each client's flat server gradient as the engine computes it,
    zeroing those of the ``zeroed`` clients (server passes run in client order)."""
    rows = []
    backward = orch.backward_server

    def recording(layers, cache):
        grads, act_grads = backward(layers, cache)
        if len(rows) % clients in zeroed:
            grads = [(np.zeros_like(dw), np.zeros_like(db)) for dw, db in grads]
        rows.append(flatten(grads_arrays(grads)))
        return grads, act_grads

    monkeypatch.setattr(orch, "backward_server", recording)
    return rows


def server_step(engine, t):
    """Run round ``t``; return its report and the step the server took."""
    before = flatten(params_arrays(engine.server))
    report = engine.run_round(t)
    return report, before, flatten(params_arrays(engine.server))


def coordination_config(**kw):
    base = dict(
        strategy="gapsl", clients=3, rounds=2, batch_size=8, samples_per_class=20,
        model_dims=(4, 6, 2), cut=1, seeds=(1,), alpha=None, eval_interval=10,
    )
    base.update(kw)
    return ExperimentConfig(**base)


class TestCoordinationSkip:
    def test_degenerate_cohort_falls_back_to_psl_mean(self, monkeypatch):
        # two of three server gradients are zero: fewer than two usable
        # directions, so the round skips coordination and steps by the mean
        cfg = coordination_config()
        rows = record_server_grads(monkeypatch, cfg.clients, zeroed=(0, 1))
        report, before, after = server_step(TrainingEngine(cfg, seed=1), 1)
        assert report.coordination_skipped is True
        assert report.k_percent is None and report.selected_ids is None and report.survivor_ids is None
        assert not rows[0].any() and not rows[1].any() and rows[2].any()
        # first step from zero momentum: p <- p - lr * update
        assert np.array_equal(after, before - cfg.lr_server * np.stack(rows).mean(axis=0))

    def test_empty_survivor_set_steps_by_the_leader(self, monkeypatch):
        # a zero threshold admits no client that deviates from the leader at
        # all, and a leader averaged from two distinct gradients matches neither
        cfg = coordination_config(clients=4, k_min=50.0, k_max=50.0, theta_th_override=0.0)
        rows = record_server_grads(monkeypatch, cfg.clients)
        report, before, after = server_step(TrainingEngine(cfg, seed=1), 1)
        assert not report.coordination_skipped
        assert report.gda_fallback is True and report.survivor_ids == ()
        assert report.selected_count == 2
        leader = np.stack([rows[i] for i in report.selected_ids]).mean(axis=0)
        assert np.array_equal(after, before - cfg.lr_server * leader)

    def test_identical_gradients_coordinate_to_their_common_direction(self, monkeypatch):
        from test_orchestrator import clone_cursor_state

        cfg = coordination_config(clients=2)
        rows = record_server_grads(monkeypatch, cfg.clients)
        engine = TrainingEngine(cfg, seed=1)
        clone_cursor_state(engine, 0, 1, 1)
        report, before, after = server_step(engine, 1)
        assert np.array_equal(rows[0], rows[1])
        assert report.pairwise_deviation == 0.0
        assert not report.coordination_skipped and not report.gda_fallback
        # every deviation to the leader is 0: both survive, unpenalized, and
        # the correction's float64 shift rounds away in the model dtype
        assert report.survivor_ids == (0, 1)
        assert report.regularized_losses == report.train_losses
        assert np.array_equal(after, before - cfg.lr_server * rows[0])


class TestTransportFailures:
    def test_handshake_timeout_raises_connection_error(self):
        listener = Listener("127.0.0.1:0")
        try:
            with pytest.raises(ProtocolError, match="timed out"):
                listener.accept_clients(1, "rounds = 1\n", timeout=0.2)
        finally:
            listener.close()

    def test_mid_round_disconnect_aborts_with_round_context(self):
        cfg = ExperimentConfig(
            strategy="psl", clients=2, rounds=5, batch_size=8, samples_per_class=20,
            model_dims=(4, 6, 2), cut=1, eval_interval=10, seeds=(1,), alpha=None,
        )

        def flaky_client(cid, die_after):
            ch = connect(addr)
            try:
                ch.send(Hello(cid))
                msg = ch.recv(timeout=10)
                assert isinstance(msg, ConfigMsg)
                bank = ClientBank(cfg, 1, [cid])
                for t in range(1, die_after + 1):
                    ch.send(Activations(t, cid, bank.forward(t)[0]))
                    reply = ch.recv()
                    bank.apply_grads(t, [reply.matrix])
            except ProtocolError:
                pass  # the coordinator aborts once its peer vanishes
            finally:
                ch.close()  # vanish mid-experiment

        listener = Listener("127.0.0.1:0")
        addr = listener.address
        threads = [
            threading.Thread(target=flaky_client, args=(0, 2)),
            threading.Thread(target=flaky_client, args=(1, 5)),
        ]
        for t in threads:
            t.start()
        channels = listener.accept_clients(2, config_to_text(cfg), timeout=10)
        proxies = {i: RemoteClientProxy(ch, i) for i, ch in channels.items()}
        engine = TrainingEngine(cfg, 1, proxies)
        try:
            with pytest.raises(ProtocolError, match="round 3 client 0"):
                engine.run()
        finally:
            for ch in channels.values():
                ch.close()
            for t in threads:
                t.join(timeout=5)
            listener.close()

    def test_wrong_width_activations_are_a_protocol_error(self):
        cfg = ExperimentConfig(
            strategy="psl", clients=2, rounds=3, batch_size=8, samples_per_class=20,
            model_dims=(4, 6, 2), cut=1, eval_interval=10, seeds=(1,), alpha=None,
        )

        class WideBank(ClientBank):
            def forward(self, round_t, indices=None):
                acts = super().forward(round_t, indices)
                if round_t == 2:
                    acts[1] = np.hstack([acts[1], acts[1]])
                return acts

        engine = TrainingEngine(cfg, 1)
        engine.clients = WideBank(cfg, 1, range(cfg.clients))
        with pytest.raises(ProtocolError, match=r"round 2 client 1 \(forward\): expected activations of shape \(8, 6\)"):
            engine.run()

    @pytest.mark.parametrize("reply", ["one_row", "double_width"])
    def test_wrong_shape_eval_activations_are_a_protocol_error(self, reply):
        # one row would broadcast one prediction against every label; double
        # width would fail inside the server model
        cfg = ExperimentConfig(
            strategy="psl", clients=2, rounds=5, batch_size=8, samples_per_class=20,
            model_dims=(4, 6, 2), cut=1, eval_interval=5, seeds=(1,), alpha=None,
        )

        class LyingBank(ClientBank):
            def eval_activations(self, round_t):
                honest, acts = super().eval_activations(round_t)
                yield honest
                yield acts[:1] if reply == "one_row" else np.hstack([acts, acts])

        engine = TrainingEngine(cfg, 1)
        engine.clients = LyingBank(cfg, 1, range(cfg.clients))
        rows = len(engine.test)
        got = r"\(1, 6\)" if reply == "one_row" else rf"\({rows}, 12\)"
        with pytest.raises(ProtocolError, match=rf"round 5 client 1 \(eval\): expected activations of shape "
                                                 rf"\({rows}, 6\), got {got}"):
            engine.run()


class TestExitCodes:
    def test_numeric_error_exits_4(self, tmp_path, capsys, monkeypatch):
        from gapsl.errors import NumericError
        import gapsl.cli as cli_mod

        def explode(cfg, seed):
            raise NumericError("non-finite gradient for tensor layer0.w")

        monkeypatch.setattr(cli_mod, "run_experiment", explode)
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("clients = 2\nrounds = 1\nsamples_per_class = 20\nseeds = 1\n")
        code = main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert code == 4
        assert "numeric error" in capsys.readouterr().err

    def test_protocol_error_exits_3(self, capsys):
        # connecting to a dead port is a protocol-level failure
        code = main(["client", "--connect", "127.0.0.1:1", "--client-id", "0"])
        assert code == 3
        assert "protocol error" in capsys.readouterr().err
