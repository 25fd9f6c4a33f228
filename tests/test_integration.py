"""Cross-module paths: IDX-backed runs, failure handling, exit codes."""

import struct
import threading

import numpy as np
import pytest

from gapsl.cli import main
from gapsl.config import ExperimentConfig, config_to_text
from gapsl.errors import ProtocolError
from gapsl.orchestrator import LocalClientProxy, RoundReport, TrainingEngine, run_experiment
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


class TestCoordinationSkip:
    def test_degenerate_cohort_falls_back_to_psl_mean(self):
        cfg = ExperimentConfig(
            strategy="gapsl", clients=3, rounds=2, batch_size=8, samples_per_class=20,
            model_dims=(4, 6, 2), cut=1, seeds=(1,), alpha=None,
        )
        engine = TrainingEngine(cfg, seed=1)
        g = {0: np.zeros(14, np.float32), 1: np.zeros(14, np.float32),
             2: np.ones(14, np.float32)}
        losses = {0: 1.0, 1: 1.0, 2: 1.0}
        update, fields = engine._coordinate(g, losses, round_t=1)
        report = RoundReport(round=1, epoch_equiv=0.0, train_losses=losses, train_loss=1.0, **fields)
        assert report.coordination_skipped is True
        assert report.k_percent is None and report.selected_ids is None
        expected = np.stack([g[i] for i in (0, 1, 2)]).mean(axis=0)
        assert np.array_equal(update, expected)


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
                from gapsl.orchestrator import ClientWorker
                worker = ClientWorker(cfg, 1, cid)
                for t in range(1, die_after + 1):
                    ch.send(Activations(t, cid, worker.forward_round(t)))
                    reply = ch.recv()
                    worker.apply_grads(t, reply.matrix)
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
        with pytest.raises(ProtocolError, match="round 3 client 0"):
            engine.run()
        for t in threads:
            t.join(timeout=5)
        listener.close()

    def test_wrong_width_activations_are_a_protocol_error(self):
        cfg = ExperimentConfig(
            strategy="psl", clients=2, rounds=3, batch_size=8, samples_per_class=20,
            model_dims=(4, 6, 2), cut=1, eval_interval=10, seeds=(1,), alpha=None,
        )

        class WideProxy(LocalClientProxy):
            def forward_round(self, round_t):
                acts = super().forward_round(round_t)
                return np.hstack([acts, acts]) if round_t == 2 else acts

        engine = TrainingEngine(cfg, 1)
        engine.proxies[1] = WideProxy(engine.proxies[1].worker)
        with pytest.raises(ProtocolError, match=r"round 2 client 1: expected activations of shape \(8, 6\)"):
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
