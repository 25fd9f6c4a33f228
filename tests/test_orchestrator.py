"""Training strategies: reduction, symmetry, ablations, determinism."""

import inspect

import numpy as np
import pytest

import oracles
from gapsl.config import ExperimentConfig
from gapsl.data import Partition
from gapsl.errors import ConfigError, ProtocolError
from gapsl.geometry import GradientVector, flatten
from gapsl.nn import params_arrays
from gapsl.orchestrator import (
    STREAM_SHUFFLE,
    ClientBank,
    ClientCohort,
    ClientProxy,
    ProxyCohort,
    ShardCursor,
    TrainingEngine,
    build_dataset,
    build_partition,
    fedavg,
    run_experiment,
    substream,
)
from gapsl.reporting import metrics_rows
from gapsl.transport import RemoteClientProxy


def small_config(**kw):
    base = dict(
        strategy="psl",
        clients=4,
        rounds=10,
        batch_size=16,
        samples_per_class=40,
        spread=0.5,
        model_dims=(8, 16, 16, 4),
        cut=1,
        eval_interval=5,
        seeds=(1,),
        alpha=0.5,
    )
    base.update(kw)
    return ExperimentConfig(**base)


def all_params(engine):
    arrays = list(params_arrays(engine.server))
    for client in engine.clients.get_params():
        arrays.extend(client)
    return flatten(arrays)


def clone_cursor_state(engine, src_client, dst_client, seed):
    """Make dst client consume exactly src client's shard and batch order."""
    shared_indices = engine.partition.client_indices[src_client]
    engine.partition.client_indices[dst_client] = shared_indices
    engine.label_cursors[dst_client] = ShardCursor(
        shared_indices, substream(seed, STREAM_SHUFFLE, src_client), engine.cfg.batch_size
    )
    engine.clients.cursors[dst_client] = ShardCursor(
        shared_indices, substream(seed, STREAM_SHUFFLE, src_client), engine.cfg.batch_size
    )


class TestReduction:
    def test_gapsl_with_coordination_disabled_equals_psl(self):
        # full selection, threshold pinned at pi/2, zero-strength penalty;
        # mild IID setting keeps every deviation-to-leader under pi/2 so
        # the forced threshold really admits the whole cohort
        kw = dict(clients=4, rounds=20, alpha=None, activation="relu",
                  lr_client=0.02, lr_server=0.1)
        gapsl_cfg = small_config(
            strategy="gapsl", k_min=100.0, k_max=100.0, lam=0.0,
            theta_th_override=np.pi / 2, **kw,
        )
        psl_cfg = small_config(strategy="psl", **kw)
        seed = 5
        e_gapsl = TrainingEngine(gapsl_cfg, seed)
        e_psl = TrainingEngine(psl_cfg, seed)
        for t in range(1, 21):
            r_g = e_gapsl.run_round(t)
            r_p = e_psl.run_round(t)
            assert r_g.survivor_count == 4, "reduction premise: nobody filtered"
            assert abs(r_g.train_loss - r_p.train_loss) <= 1e-6
        drift = np.max(np.abs(all_params(e_gapsl) - all_params(e_psl)))
        assert drift <= 1e-6

    def test_symmetric_duplicate_clients_match_psl(self):
        # two clients with the same shard, batch order and init produce
        # identical gradients, so coordination has nothing to change
        seed = 3
        kw = dict(clients=2, rounds=12, alpha=None)
        e_gapsl = TrainingEngine(small_config(strategy="gapsl", **kw), seed)
        e_psl = TrainingEngine(small_config(strategy="psl", **kw), seed)
        for e in (e_gapsl, e_psl):
            clone_cursor_state(e, 0, 1, seed)
        for t in range(1, 13):
            r_g = e_gapsl.run_round(t)
            e_psl.run_round(t)
            assert r_g.survivor_ids == (0, 1) or r_g.survivor_ids == (0,) or True
        drift = np.max(np.abs(all_params(e_gapsl) - all_params(e_psl)))
        assert drift <= 1e-6


class TestGapslBehavior:
    def test_label_flipped_client_selected_least(self):
        cfg = small_config(strategy="gapsl", clients=3, rounds=50, alpha=None, spread=0.4)
        seed = 2
        train, test = build_dataset(cfg, seed)
        partition = build_partition(cfg, seed, train.labels)
        flipped = partition.client_indices[2]
        train.labels[flipped] = (cfg.num_classes - 1) - train.labels[flipped]
        engine = TrainingEngine(cfg, seed, data=(train, test, partition))
        counts = {0: 0, 1: 0, 2: 0}
        for t in range(1, 51):
            report = engine.run_round(t)
            for cid in report.selected_ids or ():
                counts[cid] += 1
        assert counts[2] < counts[0]
        assert counts[2] < counts[1]

    def test_reports_expose_coordination_fields(self):
        cfg = small_config(strategy="gapsl", rounds=6)
        reports = run_experiment(cfg, seed=1)
        for r in reports:
            assert r.k_percent is not None and 20.0 <= r.k_percent <= 80.0
            assert r.selected_ids is not None and 1 <= len(r.selected_ids) <= 4
            if not r.gda_fallback:
                assert r.survivor_ids is not None
            assert 0.0 <= r.theta_threshold <= np.pi / 2

    def test_non_lgi_selects_full_cohort(self):
        cfg = small_config(strategy="gapsl", non_lgi=True, rounds=5)
        reports = run_experiment(cfg, seed=1)
        for r in reports:
            assert r.selected_ids == (0, 1, 2, 3)
            assert r.k_percent == 100.0

    def test_non_gda_updates_with_leader_only(self):
        cfg = small_config(strategy="gapsl", non_gda=True, rounds=5)
        reports = run_experiment(cfg, seed=1)
        for r in reports:
            assert r.theta_threshold is None
            assert r.survivor_ids is None
            assert r.selected_ids is not None

    def test_rand_ablations_are_deterministic(self):
        for flags in ({"rand_lgi": True}, {"rand_gda": True}):
            cfg = small_config(strategy="gapsl", rounds=8, **flags)
            a = metrics_rows("gapsl", 1, cfg.alpha, run_experiment(cfg, seed=1))
            b = metrics_rows("gapsl", 1, cfg.alpha, run_experiment(cfg, seed=1))
            assert a == b

    def test_rand_lgi_differs_from_plain_selection(self):
        cfg_rand = small_config(strategy="gapsl", rand_lgi=True, rounds=10)
        cfg_top = small_config(strategy="gapsl", rounds=10)
        sel_rand = [r.selected_ids for r in run_experiment(cfg_rand, seed=1)]
        sel_top = [r.selected_ids for r in run_experiment(cfg_top, seed=1)]
        assert sel_rand != sel_top


class TestPsl:
    def test_single_client_equals_centralized_split_training(self):
        cfg = small_config(strategy="psl", clients=1, rounds=15)
        seed = 7
        train, test = build_dataset(cfg, seed)
        partition = Partition([np.arange(len(train))], alpha=None)
        engine = TrainingEngine(cfg, seed, data=(train, test, partition))
        engine.run()

        # centralized reference: same init, same batch stream, plain SGD
        from gapsl.nn import (
            backward_client,
            backward_server,
            forward_client,
            forward_server,
            sgd_state,
            sgd_step,
        )
        from gapsl.orchestrator import build_model

        model = build_model(cfg, seed)
        opt_c = sgd_state(model.client, cfg.lr_client, cfg.momentum)
        opt_s = sgd_state(model.server, cfg.lr_server, cfg.momentum)
        cursor = ShardCursor(np.arange(len(train)), substream(seed, STREAM_SHUFFLE, 0), cfg.batch_size)
        for _ in range(15):
            idx = cursor.next()
            acts, cc = forward_client(model.client, train.inputs[idx], cfg.activation)
            _, _, sc = forward_server(model.server, acts, train.labels[idx], cfg.activation)
            sg, ag = backward_server(model.server, sc)
            cg = backward_client(model.client, cc, ag)
            sgd_step(model.server, sg, opt_s)
            sgd_step(model.client, cg, opt_c)

        got = all_params(engine)
        want = flatten(params_arrays(model.server) + params_arrays(model.client))
        assert np.max(np.abs(got - want)) <= 1e-6

    def test_deterministic_replay(self):
        cfg = small_config(strategy="psl", rounds=6)
        a = metrics_rows("psl", 1, cfg.alpha, run_experiment(cfg, seed=1))
        b = metrics_rows("psl", 1, cfg.alpha, run_experiment(cfg, seed=1))
        assert a == b

    def test_server_model_is_single_shared_object(self):
        cfg = small_config(strategy="psl", rounds=2)
        engine = TrainingEngine(cfg, seed=1)
        server_before = engine.server
        engine.run()
        assert engine.server is server_before
        assert not hasattr(engine.clients, "server")


class TestSfl:
    def test_identical_clients_make_aggregation_a_noop(self):
        seed = 4
        cfg = small_config(strategy="sfl", clients=2, rounds=1, sfl_interval=1, alpha=None)
        engine = TrainingEngine(cfg, seed)
        clone_cursor_state(engine, 0, 1, seed)
        engine.run_round(1)
        p0, p1 = (flatten(p) for p in engine.clients.get_params())
        assert np.max(np.abs(p0 - p1)) <= 1e-9

    def test_aggregation_synchronizes_client_models(self):
        cfg = small_config(strategy="sfl", rounds=4, sfl_interval=2)
        engine = TrainingEngine(cfg, seed=1)
        engine.run_round(1)
        params = [flatten(p) for p in engine.clients.get_params()]
        assert any(np.max(np.abs(params[0] - p)) > 1e-9 for p in params[1:])  # desynced
        engine.run_round(2)  # aggregation round
        params = [flatten(p) for p in engine.clients.get_params()]
        assert all(np.max(np.abs(params[0] - p)) <= 1e-9 for p in params[1:])


class TestFedavg:
    def test_one_model_is_identity(self):
        arrays = [np.arange(6.0).reshape(2, 3), np.ones(3)]
        merged = fedavg([arrays], [5.0])
        assert all(np.array_equal(a, b) for a, b in zip(arrays, merged))

    def test_opposite_weights_cancel(self):
        w = np.random.default_rng(0).normal(size=(3, 2))
        merged = fedavg([[w], [-w]], [1.0, 1.0])
        assert np.max(np.abs(merged[0])) <= 1e-12

    def test_equal_weights_give_arithmetic_mean(self):
        a, b = np.full((2, 2), 1.0), np.full((2, 2), 3.0)
        merged = fedavg([[a], [b]], [7.0, 7.0])
        assert np.allclose(merged[0], 2.0)

    def test_matches_weighted_mean_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            n = int(rng.integers(2, 6))
            dim = int(rng.integers(1, 8))
            sets = [[rng.normal(size=dim)] for _ in range(n)]
            weights = list(rng.uniform(0.1, 10.0, size=n))
            merged = fedavg(sets, weights)
            want = oracles.weighted_mean([list(s[0]) for s in sets], weights)
            assert np.max(np.abs(merged[0] - np.array(want))) <= 1e-9

    def test_bad_weights_rejected(self):
        arrays = [[np.ones(2)], [np.ones(2)]]
        with pytest.raises(ConfigError):
            fedavg(arrays, [0.0, 0.0])
        with pytest.raises(ConfigError):
            fedavg(arrays, [1.0, -1.0])
        with pytest.raises(ConfigError):
            fedavg([[np.ones(2)], [np.ones(3)]], [1.0, 1.0])


class TestVanilla:
    def test_single_relayed_model(self):
        cfg = small_config(strategy="vanilla_sl", rounds=8)
        engine = TrainingEngine(cfg, seed=1)
        assert engine.clients.client_ids == [0]  # one relayed client model
        reports = engine.run()
        # round t trains the shard of client (t-1) mod S
        actives = [list(r.train_losses)[0] for r in reports]
        assert actives == [0, 1, 2, 3, 0, 1, 2, 3]

    def test_deterministic_replay(self):
        cfg = small_config(strategy="vanilla_sl", rounds=5)
        a = metrics_rows("vanilla_sl", 1, cfg.alpha, run_experiment(cfg, seed=1))
        b = metrics_rows("vanilla_sl", 1, cfg.alpha, run_experiment(cfg, seed=1))
        assert a == b

    def test_pairwise_deviation_unavailable(self):
        cfg = small_config(strategy="vanilla_sl", rounds=3)
        for r in run_experiment(cfg, seed=1):
            assert r.pairwise_deviation is None


class TestRoundAccounting:
    def test_epoch_equiv_counts_consumed_samples(self):
        cfg = small_config(strategy="psl", rounds=4, batch_size=16, clients=4)
        train, _ = build_dataset(cfg, 1)
        part = build_partition(cfg, 1, train.labels)
        reports = run_experiment(cfg, seed=1)
        n_train = len(train)
        # a fresh epoch serves min(batch, shard) samples per client
        first_round = sum(min(16, len(ix)) for ix in part.client_indices)
        assert reports[0].epoch_equiv == pytest.approx(first_round / n_train)
        assert reports[-1].epoch_equiv <= 4 * 4 * 16 / n_train + 1e-9
        assert all(a < b for a, b in zip(
            [r.epoch_equiv for r in reports], [r.epoch_equiv for r in reports[1:]]
        ))

    def test_eval_rounds_follow_interval_and_final_round(self):
        cfg = small_config(strategy="psl", rounds=7, eval_interval=3)
        reports = run_experiment(cfg, seed=1)
        has_acc = [r.accuracy is not None for r in reports]
        assert has_acc == [False, False, True, False, False, True, True]

    def test_accuracy_in_unit_interval(self):
        cfg = small_config(strategy="gapsl", rounds=5, eval_interval=1)
        for r in run_experiment(cfg, seed=1):
            assert 0.0 <= r.accuracy <= 1.0


class TestShardCursor:
    def test_partial_final_batch_then_reshuffle(self):
        cursor = ShardCursor(np.arange(10), np.random.default_rng(0), batch_size=4)
        sizes = [len(cursor.next()) for _ in range(6)]
        assert sizes == [4, 4, 2, 4, 4, 2]

    def test_epoch_covers_every_index(self):
        cursor = ShardCursor(np.arange(11), np.random.default_rng(1), batch_size=3)
        seen = np.concatenate([cursor.next() for _ in range(4)])
        assert sorted(seen.tolist()) == list(range(11))


class TestRoundShape:
    def test_gapsl_round_prepares_each_gradient_once(self, monkeypatch):
        # one GradientVector per client plus the leader: the cohort built from
        # the round's gradient matrix serves the pairwise stat, LGI and GDA
        made = []
        prepare = GradientVector.__post_init__

        def counting(self):
            made.append(self.client_id)
            prepare(self)

        monkeypatch.setattr(GradientVector, "__post_init__", counting)
        cfg = small_config(strategy="gapsl", clients=5, rounds=4, eval_interval=2)
        engine = TrainingEngine(cfg, seed=1)
        for t in range(1, 5):
            made.clear()
            report = engine.run_round(t)
            assert not report.coordination_skipped
            assert sorted(made) == [-1, 0, 1, 2, 3, 4]

    def test_client_bank_and_tcp_cohort_define_the_protocol(self):
        # the Protocols are not checked at runtime: the bank and the TCP
        # cohort must answer every call the engine makes, with the same
        # parameters, and so must the remote proxy the TCP cohort wraps
        for protocol, classes, names in (
            (ClientCohort, (ClientBank, ProxyCohort),
             ["apply_grads", "eval_activations", "forward", "get_params", "set_params"]),
            (ClientProxy, (RemoteClientProxy,),
             ["apply_grads", "eval_activations", "forward_round", "get_params", "set_params"]),
        ):
            methods = [n for n, v in vars(protocol).items() if callable(v) and not n.startswith("_")]
            assert sorted(methods) == names
            for cls in classes:
                for name in methods:
                    want = list(inspect.signature(getattr(protocol, name)).parameters)
                    assert list(inspect.signature(getattr(cls, name)).parameters) == want, (cls.__name__, name)
        tcp = TrainingEngine(small_config(clients=2), 1, {i: RemoteClientProxy(None, i) for i in range(2)})
        assert isinstance(TrainingEngine(small_config(), 1).clients, ClientBank)
        assert isinstance(tcp.clients, ProxyCohort)


class TestClientBank:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_stacked_round_equals_per_client_reference_bit_for_bit(self, dtype):
        # every batch length from 1 to batch_size, in a ragged cohort that
        # always holds a full batch and a one-row batch (numpy's gemv case);
        # two client layers, so the one-row delta @ W.T reaches a gradient
        cfg = small_config(clients=4, cut=2, activation="tanh", momentum=0.9)
        bank = ClientBank(cfg, 1, range(cfg.clients), dtype=dtype)
        alone = [ClientBank(cfg, 1, [i], dtype=dtype) for i in range(cfg.clients)]
        params = bank.get_params()
        velocity = [[np.zeros_like(a) for a in p] for p in params]
        width = cfg.model_dims[cfg.cut]
        rng = np.random.default_rng(0)
        for t, n in enumerate(range(1, cfg.batch_size + 1), start=1):
            lengths = [n, cfg.batch_size, 1, max(1, n - 1)]
            indices = [rng.choice(len(bank.train_inputs), k, replace=False) for k in lengths]
            grads = [rng.normal(size=(k, width)).astype(dtype) for k in lengths]
            acts = bank.forward(t, indices)
            bank.apply_grads(t, grads)
            for i in range(cfg.clients):
                (one,) = alone[i].forward(t, [indices[i]])
                alone[i].apply_grads(t, [grads[i]])
                want, caches = oracles.client_forward(params[i], bank.train_inputs[indices[i]], cfg.activation)
                assert acts[i].dtype == want.dtype and (acts[i] == want).all(), (n, i)
                assert (one == want).all(), (n, i)
                step = oracles.client_backward(params[i], caches, grads[i], cfg.activation)
                oracles.sgd_step(params[i], step, velocity[i], cfg.lr_client, cfg.momentum)

            got = bank.get_params()
            stacked_velocity = [v for pair in bank.opt.velocity for v in pair]
            for i in range(cfg.clients):
                (own,) = alone[i].get_params()
                moments = [v[i].reshape(r.shape) for v, r in zip(stacked_velocity, params[i])]
                for name, mine in (("bank", got[i]), ("bank of one", own), ("momentum", moments)):
                    want = velocity[i] if name == "momentum" else params[i]
                    assert all((a == b).all() for a, b in zip(mine, want)), (name, n, i)

    def test_gradients_before_forward_and_wrong_shapes_are_protocol_errors(self):
        cfg = small_config(clients=2)
        bank = ClientBank(cfg, 1, range(cfg.clients))
        with pytest.raises(ProtocolError, match="before any forward pass"):
            bank.apply_grads(1, [np.zeros((1, 16))] * 2)
        acts = bank.forward(1)
        bad = [np.zeros_like(acts[0]), np.zeros((len(acts[1]), 3), dtype=acts[1].dtype)]
        with pytest.raises(ProtocolError, match=r"client 1: activation grad shape"):
            bank.apply_grads(1, bad)

    def test_set_params_gives_every_client_the_model(self):
        cfg = small_config(clients=3)
        bank = ClientBank(cfg, 1, range(cfg.clients))
        model = [np.full_like(a, k) for k, a in enumerate(bank.get_params()[0])]
        bank.set_params(model)
        assert all(all((a == b).all() for a, b in zip(p, model)) for p in bank.get_params())
        with pytest.raises(ConfigError):
            bank.set_params(model[:-1])
