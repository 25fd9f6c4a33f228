"""Cross-module paths: IDX-backed runs, failure handling, exit codes."""

import dataclasses
import math
import struct
import threading
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

import gapsl.gda as gda
import gapsl.lgi as lgi
import gapsl.orchestrator as orch
import gapsl.transport as tp
from gapsl.cli import main
from gapsl.config import ExperimentConfig, config_to_text, parse_config
from gapsl.errors import ProtocolError
from gapsl.orchestrator import ClientBank, TrainingEngine, build_dataset, build_partition, run_experiment, shard_cursors
from gapsl.reporting import metrics_rows
from gapsl.transport import Activations, ConfigMsg, Hello, Listener, RemoteClientProxy, connect


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


def record_server_grads(monkeypatch, clients, zeroed=(), negated=()):
    """Record each client's flat server gradient as the engine computes it,
    zeroing those of the ``zeroed`` clients and giving the ``negated`` ones the
    exact negation of the previous client's. One stacked backward writes the
    round's rows in client order."""
    rows = []
    backward = orch.backward_server

    def recording(layers, cache, out, loss_weights=None):
        act_grads = backward(layers, cache, out, loss_weights)
        assert out.shape == (clients, out.shape[-1])  # one stacked call per round
        for k, row in enumerate(out):
            if k in zeroed:
                row[...] = 0
            if k in negated:
                row[...] = -rows[-1]
            rows.append(row.copy())
        return act_grads

    monkeypatch.setattr(orch, "backward_server", recording)
    return rows


def server_step(engine, t):
    """Run round ``t``; return its report and the step the server took."""
    before = engine.server_params.copy()
    report = engine.run_round(t)
    return report, before, engine.server_params.copy()


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

    @pytest.mark.parametrize("zero", range(4))
    def test_a_zero_gradient_is_left_out_of_coordination(self, monkeypatch, caplog, zero):
        # one of four server gradients is zero: LGI and GDA run over the three
        # usable rows, and nothing the cohort left out reaches a norm they divide by
        cfg = coordination_config(clients=4, theta_th_override=1.5)
        rows = record_server_grads(monkeypatch, cfg.clients, zeroed=(zero,))
        seen = []
        run_gda = gda.run_gda

        def spied(cohort, *args, **kwargs):
            seen.append((cohort.usable, run_gda(cohort, *args, **kwargs)))
            return seen[-1][1]

        monkeypatch.setattr(orch.gda_mod, "run_gda", spied)
        caplog.set_level("DEBUG")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report, before, after = server_step(TrainingEngine(cfg, seed=1), 1)
        assert caplog.records == []
        usable = [i for i in range(4) if i != zero]
        assert not rows[zero].any() and all(rows[i].any() for i in usable)
        [(gda_ids, out)] = seen
        assert gda_ids == usable
        assert not report.coordination_skipped and not report.gda_fallback
        assert zero not in report.selected_ids and zero not in report.survivor_ids
        assert report.survivor_ids == out.survivors and len(out.survivors) > 1
        want = np.stack([out.corrected[i] for i in out.survivors]).mean(axis=0)
        assert np.array_equal(after, before - cfg.lr_server * want)

    @pytest.mark.parametrize("leader", [
        dict(k_min=100.0, k_max=100.0),
        dict(k_min=100.0, k_max=100.0, non_gda=True),
    ], ids=["k_100", "k_100_non_gda"])
    def test_cancelling_cohort_skips_coordination(self, monkeypatch, leader):
        # two usable gradients that sum to zero, with every client selected:
        # the leader has no direction, so the round takes the plain-mean step
        cfg = coordination_config(clients=2, **leader)
        rows = record_server_grads(monkeypatch, cfg.clients, negated=(1,))
        report, before, after = server_step(TrainingEngine(cfg, seed=1), 1)
        assert rows[0].any() and np.array_equal(rows[1], -rows[0])
        assert report.coordination_skipped is True and report.gda_fallback is False
        assert report.k_percent is None and report.selected_ids is None and report.survivor_ids is None
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
        assert report.global_loss == sum(report.client_losses.tolist())
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
                train, test = build_dataset(cfg, 1)
                (cursor,) = shard_cursors(cfg, 1, build_partition(cfg, 1, train.labels), [cid])
                bank = ClientBank(cfg, 1, [cid], train, test)
                for t in range(1, die_after + 1):
                    batch = cursor.next()
                    ch.send(Activations(t, cid, bank.forward(t, batch[None], [len(batch)])[0]))
                    reply = ch.recv(timeout=10)
                    bank.apply_grads(t, reply.matrix[None])
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

    def test_silent_peer_times_out_with_round_context(self, monkeypatch):
        monkeypatch.setattr(tp, "PEER_TIMEOUT_S", 0.5)
        cfg = ExperimentConfig(
            strategy="psl", clients=2, rounds=2, batch_size=8, samples_per_class=20,
            model_dims=(4, 6, 2), cut=1, eval_interval=10, seeds=(1,), alpha=None,
        )

        def silent_peer(cid):
            ch = connect(addr)
            try:
                ch.send(Hello(cid))
                ch.recv(timeout=10)
                ch.recv(timeout=10)  # say nothing until the coordinator hangs up
            except ProtocolError:
                pass
            finally:
                ch.close()

        listener = Listener("127.0.0.1:0")
        addr = listener.address
        peers = [threading.Thread(target=silent_peer, args=(i,)) for i in range(2)]
        for peer in peers:
            peer.start()
        channels = {}
        try:
            channels = listener.accept_clients(2, config_to_text(cfg), timeout=10)
            engine = TrainingEngine(cfg, 1, {i: RemoteClientProxy(ch, i) for i, ch in channels.items()})
            began = time.monotonic()
            with pytest.raises(ProtocolError, match=r"round 1 client 0 \(forward\): timed out after 0.5s"):
                engine.run_round(1)
            assert time.monotonic() - began < 5
        finally:
            for ch in channels.values():
                ch.close()
            for peer in peers:
                peer.join(timeout=10)
            listener.close()
        assert not any(peer.is_alive() for peer in peers)


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


class TestReplay:
    def test_coordination_sums_do_not_depend_on_the_python_version(self, monkeypatch):
        # Python 3.12 made the builtin float sum compensated; a run must
        # replay the same bits with either sum
        desk = Path(__file__).resolve().parents[1] / "configs" / "desk_noniid.cfg"
        cfg = dataclasses.replace(parse_config(str(desk)), clients=100, rounds=5)
        want = metrics_rows(cfg.strategy, 1, cfg.alpha, run_experiment(cfg, 1))
        monkeypatch.setattr(lgi, "sum", math.fsum, raising=False)
        monkeypatch.setattr(gda, "sum", math.fsum, raising=False)
        assert metrics_rows(cfg.strategy, 1, cfg.alpha, run_experiment(cfg, 1)) == want
