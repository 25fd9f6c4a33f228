"""Training strategies: reduction, symmetry, ablations, determinism."""

import dataclasses
import inspect
import itertools

import numpy as np
import pytest

import oracles
import gapsl.orchestrator as orchestrator
from gapsl.config import ExperimentConfig
from gapsl.errors import ConfigError, CoordinationSkipped
from gapsl.geometry import Cohort, GradientVector
from gapsl.nn import forward_client, layer_views, logits_from_activations
from oracles import params_arrays
from gapsl.orchestrator import (
    STREAM_SHUFFLE,
    ClientBank,
    ClientCohort,
    ShardCursor,
    TrainingEngine,
    build_dataset,
    build_partition,
    padded_rows,
    run_experiment,
    substream,
)
from gapsl.reporting import metrics_rows
from gapsl.transport import ProxyCohort, RemoteClientProxy


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


def client_params(bank):
    """Each client's [w0, b0, w1, b1, ...] in model shapes, copied from the bank's stacks."""
    return [[p.copy() for l in bank.layers for p in (l.w[k], l.b[k, 0])] for k in range(len(bank.client_ids))]


def zero_padded(arrays, maxlen):
    """Per-client ``[rows, width]`` arrays as one stack, zero on padding rows."""
    out = np.zeros((len(arrays), maxlen, arrays[0].shape[1]), dtype=arrays[0].dtype)
    for k, a in enumerate(arrays):
        out[k, : len(a)] = a
    return out


class StubProxy:
    """A remote client that answers every round with the same ``[rows, 6]``
    activations, keeps the gradients it is sent and records every call and
    the shape each forward expects."""

    def __init__(self, rows):
        self.acts = np.full((rows, 6), rows, dtype=np.float32)
        self.got = []
        self.asked = []
        self.shapes = []

    def forward_round(self, round_t, shape):
        self.asked.append("forward_round")
        self.shapes.append(shape)
        return self.acts

    def apply_grads(self, round_t, act_grads):
        self.asked.append("apply_grads")
        self.got.append(act_grads)

    def eval_activations(self, round_t, shape):
        self.asked.append("eval_activations")
        return self.acts


def all_params(engine):
    """The server's flat parameters, then each client's."""
    return np.concatenate([engine.server_params, engine.clients.params.ravel()])


def clone_cursor_state(engine, src_client, dst_client, seed):
    """Make dst client consume exactly src client's shard and batch order."""
    shared_indices = engine.partition[src_client]
    engine.partition[dst_client] = shared_indices
    engine.cursors[dst_client] = ShardCursor(
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
            assert r_g.survivor_ids == (0, 1)
        drift = np.max(np.abs(all_params(e_gapsl) - all_params(e_psl)))
        assert drift <= 1e-6


class TestGapslBehavior:
    def test_label_flipped_client_selected_least(self):
        cfg = small_config(strategy="gapsl", clients=3, rounds=50, alpha=None, spread=0.4)
        seed = 2
        engine = TrainingEngine(cfg, seed)
        labels, flipped = engine.train.labels, engine.partition[2]
        labels[flipped] = (cfg.num_classes - 1) - labels[flipped]  # every round reads engine.train's labels
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
        cfg = small_config(strategy="gapsl", k_min=100.0, k_max=100.0, rounds=5)
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
        engine = TrainingEngine(cfg, seed)
        train, (shard,) = engine.train, engine.partition
        assert np.array_equal(shard, np.arange(len(train)))  # the one client holds every sample
        engine.run()

        # centralized reference: same init, same batch stream, plain SGD
        from gapsl.nn import (
            backward_client,
            backward_server,
            forward_client,
            forward_server,
            sgd_state,
            sgd_step,
            softmax_loss,
        )
        from gapsl.orchestrator import build_model

        model = build_model(cfg, seed)
        opt_c = sgd_state(model.client, cfg.lr_client, cfg.momentum)
        opt_s = sgd_state(model.server, cfg.lr_server, cfg.momentum)
        sg, cg = np.empty_like(model.server_params), np.empty_like(model.client_params)
        cursor = ShardCursor(np.arange(len(train)), substream(seed, STREAM_SHUFFLE, 0), cfg.batch_size)
        for _ in range(15):
            idx = cursor.next()
            acts, cc = forward_client(model.client, train.inputs[idx], cfg.activation)
            logits, weights, sc = forward_server(model.server, acts, train.labels[idx], cfg.activation)
            sc.probs, _ = softmax_loss(logits, sc.labels)
            assert (weights == np.full(len(idx), 1.0 / len(idx), dtype=logits.dtype)).all()
            ag = backward_server(model.server, sc, sg, weights)
            backward_client(model.client, cc, ag, cg)
            sgd_step(model.server_params, sg, opt_s)
            sgd_step(model.client_params, cg, opt_c)

        got = all_params(engine)
        want = np.concatenate([model.server_params, model.client_params])
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
        p0, p1 = engine.clients.params
        assert np.max(np.abs(p0 - p1)) <= 1e-9

    def test_aggregation_synchronizes_client_models(self):
        cfg = small_config(strategy="sfl", rounds=4, sfl_interval=2)
        engine = TrainingEngine(cfg, seed=1)
        engine.run_round(1)
        params = engine.clients.params.copy()
        assert any(np.max(np.abs(params[0] - p)) > 1e-9 for p in params[1:])  # desynced
        engine.run_round(2)  # aggregation round
        params = engine.clients.params.copy()
        assert all(np.max(np.abs(params[0] - p)) <= 1e-9 for p in params[1:])


def bank_holding(*stacks):
    """A bank whose client models are ``stacks``: [clients, in, out] weights
    and [clients, 1, out] biases, layer by layer, laid out in one matrix."""
    cfg = small_config(clients=len(stacks[0]))
    bank = ClientBank(cfg, 1, range(cfg.clients), *build_dataset(cfg, 1))
    bank.params = np.concatenate([s.reshape(cfg.clients, -1) for s in stacks], axis=1)
    bank.layers = layer_views(bank.params, (stacks[0].shape[1], *(w.shape[2] for w in stacks[::2])))
    return bank


class TestFedavg:
    def test_one_model_is_identity(self):
        arrays = [np.arange(6.0).reshape(1, 2, 3), np.ones((1, 1, 3))]
        bank = bank_holding(*(a.copy() for a in arrays))
        bank.average([5.0])
        assert all(np.array_equal(a, b) for a, b in zip(arrays, params_arrays(bank.layers)))

    def test_opposite_weights_cancel(self):
        w = np.random.default_rng(0).normal(size=(3, 2))
        bank = bank_holding(np.stack([w, -w]), np.zeros((2, 1, 2)))
        bank.average([1.0, 1.0])
        assert np.max(np.abs(bank.layers[0].w)) <= 1e-12

    def test_equal_weights_give_arithmetic_mean(self):
        a, b = np.full((2, 2), 1.0), np.full((2, 2), 3.0)
        bank = bank_holding(np.stack([a, b]), np.stack([a[:1], b[:1]]))
        bank.average([7.0, 7.0])
        assert all(np.allclose(stack, 2.0) for stack in params_arrays(bank.layers))

    def test_matches_weighted_mean_oracle(self):
        # the oracle sums in float64 in client order, as FedAvg does, so the
        # two agree bit for bit. Cohorts reach past numpy's 8-value pairwise
        # block, some stacks hold one value per client, and the weights are
        # shard sizes, whose sum is exact in any order.
        rng = np.random.default_rng(1)
        for dtype, n, (fan_in, width) in itertools.product(
            (np.float32, np.float64), (2, 5, 9, 19), ((1, 1), (3, 1), (2, 5), (7, 4))
        ):
            w = rng.normal(size=(n, fan_in, width)).astype(dtype)
            b = rng.normal(size=(n, 1, width)).astype(dtype)
            weights = [int(k) for k in rng.integers(1, 200, size=n)]
            want = oracles.weighted_mean([np.concatenate([w[k].ravel(), b[k].ravel()]).tolist() for k in range(n)], weights)
            bank = bank_holding(w, b)
            bank.average(weights)
            for k in range(n):  # every client now holds the mean
                got = np.concatenate([bank.layers[0].w[k].ravel(), bank.layers[0].b[k].ravel()])
                assert got.dtype == dtype and (got == np.array(want, dtype=dtype)).all(), (dtype, n, fan_in, width)


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
        first_round = sum(min(16, len(ix)) for ix in part)
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


class TestValidation:
    def test_engine_rejects_an_invalid_config_before_drawing_data(self, monkeypatch):
        drawn = []
        monkeypatch.setattr(orchestrator, "build_dataset", lambda *a: drawn.append(a))
        with pytest.raises(ConfigError, match="alpha must be finite, got nan"):
            run_experiment(ExperimentConfig(alpha=float("nan"), rounds=2), 1)
        with pytest.raises(ConfigError, match="rounds must be >= 1, got 0"):
            run_experiment(ExperimentConfig(rounds=0), 1)
        assert drawn == []


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
        # the round's gradient matrix is its cohort: one Cohort over every
        # client's server gradient, and the leader is the round's only
        # GradientVector
        rows, cohorts, made = [], [], []
        backward, prepare, record = orchestrator.backward_server, Cohort.__init__, GradientVector.__init__

        def recording(layers, cache, out, loss_weights=None):
            result = backward(layers, cache, out, loss_weights)
            rows.extend(out.copy())  # the stacked call: one row per client
            return result

        def counting_cohort(self, ids, values, round_t):
            prepare(self, ids, values, round_t)
            cohorts.append(self)

        def counting_vector(self, *args, **kwargs):
            record(self, *args, **kwargs)
            made.append(self.client_id)

        monkeypatch.setattr(orchestrator, "backward_server", recording)
        monkeypatch.setattr(Cohort, "__init__", counting_cohort)
        monkeypatch.setattr(GradientVector, "__init__", counting_vector)
        cfg = small_config(strategy="gapsl", clients=5, rounds=4, eval_interval=2)
        engine = TrainingEngine(cfg, seed=1)
        for t in range(1, 5):
            del rows[:], cohorts[:], made[:]
            report = engine.run_round(t)
            assert not report.coordination_skipped
            [cohort] = cohorts
            assert cohort.ids == list(range(5)) and cohort.round == t
            assert len(rows) == 5 and np.array_equal(cohort.values, np.stack(rows))
            assert made == [-1]

    def test_round_runs_one_server_forward_per_client_and_one_stacked_backward(self, monkeypatch):
        # the in-process mirror of the benchmark's pin of one server pass
        # per client: every client's forward, then one softmax over the
        # logit stack and one backward over the stack, whatever the batch lengths
        calls = []
        forward, backward = orchestrator.forward_server, orchestrator.backward_server
        softmax = orchestrator.softmax_loss

        def counting_forward(layers, acts, labels, activation):
            calls.append(("forward", len(labels)))
            return forward(layers, acts, labels, activation)

        def counting_softmax(logits, labels):
            assert logits.shape[:-1] == labels.shape
            calls.append(("softmax", logits.shape))
            return softmax(logits, labels)

        def counting_backward(layers, cache, out, loss_weights=None):
            assert cache.inputs[0].shape[:-1] == cache.labels.shape == loss_weights.shape
            calls.append(("backward", cache.probs.shape[:-1]))
            return backward(layers, cache, out, loss_weights)

        monkeypatch.setattr(orchestrator, "forward_server", counting_forward)
        monkeypatch.setattr(orchestrator, "softmax_loss", counting_softmax)
        monkeypatch.setattr(orchestrator, "backward_server", counting_backward)
        # 48 training samples over 5 clients: shards of 10 and 9 rows, so
        # batches of 4 end each epoch with 2- and 1-row batches
        cfg = small_config(clients=5, rounds=6, batch_size=4, samples_per_class=15, alpha=None)
        engine = TrainingEngine(cfg, seed=1)
        shapes = set()
        for t in range(1, 7):
            del calls[:]
            engine.run_round(t)
            lengths = [n for kind, n in calls[:5] if kind == "forward"]
            assert len(lengths) == 5
            depth = max(2, *lengths)
            assert calls[5:] == [("softmax", (5, depth, cfg.num_classes)), ("backward", (5, depth))]
            shapes.add((max(lengths), lengths.count(1)))
        assert shapes == {(4, 0), (2, 2)}  # full batches, and two one-row clients in a padded stack

    def test_gapsl_round_builds_one_gram(self, monkeypatch):
        # the pairwise stat, LGI scores, LGI selection and GDA's leader
        # angles all read the cohort built in the round
        grams = []
        prepare = Cohort.__init__

        def counting(self, ids, values, round_t):
            prepare(self, ids, values, round_t)
            grams.append(len(self.gram))

        monkeypatch.setattr(Cohort, "__init__", counting)
        cfg = small_config(strategy="gapsl", clients=5, rounds=4, eval_interval=2)
        engine = TrainingEngine(cfg, seed=1)
        for t in range(1, 5):
            grams.clear()
            report = engine.run_round(t)
            assert not report.coordination_skipped and report.survivor_ids is not None
            assert grams == [5]

    def test_client_bank_and_tcp_cohort_define_the_protocol(self):
        # the Protocol is not checked at runtime: the bank and the TCP
        # cohort must answer every call the engine makes, with the same
        # parameters; SFL's FedAvg runs in process only, so only the bank
        # averages models
        methods = [n for n, v in vars(ClientCohort).items() if callable(v) and not n.startswith("_")]
        assert sorted(methods) == ["apply_grads", "eval_activations", "forward"]
        for cls in (ClientBank, ProxyCohort):
            for name in methods:
                want = list(inspect.signature(getattr(ClientCohort, name)).parameters)
                assert list(inspect.signature(getattr(cls, name)).parameters) == want, (cls.__name__, name)
        assert hasattr(ClientBank, "average")
        assert not hasattr(ProxyCohort, "average") and not hasattr(RemoteClientProxy, "average")
        tcp = TrainingEngine(small_config(clients=2), 1, {i: RemoteClientProxy(None, i) for i in range(2)})
        assert isinstance(TrainingEngine(small_config(), 1).clients, ClientBank)
        assert isinstance(tcp.clients, ProxyCohort)

    def test_tcp_cohort_pads_with_zeros_and_sends_each_client_its_rows(self):
        # per-client arrays live on the wire only: the TCP cohort copies each
        # client's activations into a zero-padded stack and sends each client
        # its rows of the gradient stack
        proxies = {0: StubProxy(8), 1: StubProxy(3)}
        cohort = ProxyCohort(proxies, 6, 8, 8)
        rows, lengths = padded_rows([np.arange(8), np.arange(3)])
        acts = cohort.forward(1, rows, lengths)
        assert [p.shapes for p in proxies.values()] == [[(8, 6)], [(3, 6)]]
        assert acts.dtype == np.float32 and acts.shape == (2, 8, 6)
        assert (acts[0] == 8).all() and (acts[1, :3] == 3).all() and (acts[1, 3:] == 0).all()
        grads = np.arange(2 * 8 * 6, dtype=np.float32).reshape(2, 8, 6)
        cohort.apply_grads(1, grads)
        for k, p in proxies.items():
            (got,) = p.got
            assert got.shape == (lengths[k], 6) and (got == grads[k, : lengths[k]]).all(), k

    def test_tcp_cohort_takes_one_gradient_stack_per_forward(self):
        # the stack is two rows deep for one-row batches
        proxies = {0: StubProxy(1), 1: StubProxy(1)}
        cohort = ProxyCohort(proxies, 6, 1, 1)
        acts = cohort.forward(1, *padded_rows([np.arange(1), np.arange(1)]))
        assert acts.shape == (2, 2, 6)
        cohort.apply_grads(1, acts)
        assert [len(p.got) for p in proxies.values()] == [1, 1]

    @pytest.mark.parametrize("strategy", ["sfl", "vanilla_sl"])
    def test_remote_clients_serve_only_parallel_strategies(self, strategy):
        # sfl would ship client models and vanilla_sl relays one, neither of
        # which the wire carries
        proxies = {i: RemoteClientProxy(None, i) for i in range(2)}
        with pytest.raises(ConfigError, match=f"supports only gapsl and psl, got {strategy}"):
            TrainingEngine(small_config(strategy=strategy, clients=2), 1, proxies)

    @pytest.mark.parametrize("overrides, refused", [
        # 4096 test rows x 4096 cut floats: EVAL_RESULT
        (dict(samples_per_class=2560), "the test set of 4096 rows x 4096 floats"),
        # one client's shard of 4096 rows, all in one batch: ACTIVATIONS and ACT_GRADS
        (dict(samples_per_class=640, batch_size=4096), "a training batch of 4096 rows x 4096 floats"),
    ])
    def test_frames_past_the_cap_are_refused_at_set_up(self, overrides, refused):
        # a body of 14 header bytes plus 4096 * 4096 floats is 14 bytes over
        # the 64 MiB cap; the engine refuses the seed before it asks any
        # client for a frame, and the same config builds in process
        cfg = ExperimentConfig(strategy="psl", clients=1, model_dims=(16, 4096, 8), cut=1, seeds=(1,),
                               transport="tcp", listen="127.0.0.1:0", **overrides)
        proxy = StubProxy(1)
        with pytest.raises(ConfigError, match=f"cannot carry {refused}: its frame would pass the 67108864 byte cap"):
            TrainingEngine(cfg, 1, {0: proxy})
        assert proxy.asked == []
        assert isinstance(TrainingEngine(dataclasses.replace(cfg, transport="inproc"), 1).clients, ClientBank)

    def test_the_largest_batch_is_capped_by_the_largest_shard(self):
        # batch_size 4096 over two IID shards of 2048 rows: 32 MiB frames
        cfg = ExperimentConfig(strategy="psl", clients=2, model_dims=(16, 4096, 8), cut=1, seeds=(1,), alpha=None,
                               samples_per_class=640, batch_size=4096, transport="tcp", listen="127.0.0.1:0")
        engine = TrainingEngine(cfg, 1, {i: RemoteClientProxy(None, i) for i in range(2)})
        assert max(len(s) for s in engine.partition) == 2048 and isinstance(engine.clients, ProxyCohort)

    @pytest.mark.parametrize("ids", [[0, 1], [1, 2, 3], [0, 1, 3], [0, 1, 2, 3]])
    def test_remote_clients_must_be_the_cohort(self, ids):
        # the engine pairs client k with the k-th activations it receives:
        # a missing, extra or misnumbered proxy would mislabel every client
        # after it
        proxies = {i: RemoteClientProxy(None, i) for i in ids}
        with pytest.raises(ConfigError, match=r"one proxy per client 0\.\.2, got \[" + ", ".join(map(str, ids))):
            TrainingEngine(small_config(strategy="gapsl", clients=3), 1, proxies)


    def test_each_round_draws_each_batch_once(self, monkeypatch):
        # the coordinator owns the batch stream: one draw per training client
        # per round, whether the round is parallel or vanilla_sl's relay
        drawn = []
        draw = ShardCursor.next

        def counting(self):
            drawn.append(self)
            return draw(self)

        monkeypatch.setattr(ShardCursor, "next", counting)
        for strategy, per_round in (("psl", 4), ("gapsl", 4), ("sfl", 4), ("vanilla_sl", 1)):
            engine = TrainingEngine(small_config(strategy=strategy, clients=4, sfl_interval=2), 1)
            for t in range(1, 6):
                drawn.clear()
                engine.run_round(t)
                assert len(drawn) == per_round, (strategy, t)
                assert drawn == (engine.cursors if per_round > 1 else [engine.cursors[(t - 1) % 4]])


class TestRoundMeans:
    """A round's means reduce with ``ufunc.reduce`` directly; each keeps the
    bits of numpy's ``mean`` over the same values."""

    def run_spied(self, monkeypatch, cfg, rounds):
        """Run ``rounds`` rounds; returns the reports, each round's g, the
        server updates, the GDA outcomes and each eval round's logits."""
        engine = TrainingEngine(cfg, seed=1)
        seen = {"g": [], "update": [], "gda": [], "logits": []}
        step, run_gda = orchestrator.sgd_step, orchestrator.gda_mod.run_gda

        def spy_step(params, grads, state):
            if params is engine.server_params:
                seen["update"].append(grads.copy())
            step(params, grads, state)

        def keep(key, value):
            seen[key].append(value)
            return value

        monkeypatch.setattr(orchestrator, "Cohort", lambda ids, g, t: Cohort(ids, keep("g", g), t))
        monkeypatch.setattr(orchestrator, "sgd_step", spy_step)
        monkeypatch.setattr(orchestrator.gda_mod, "run_gda", lambda *a, **k: keep("gda", run_gda(*a, **k)))
        monkeypatch.setattr(orchestrator, "logits_from_activations", lambda *a: keep("logits", logits_from_activations(*a)))
        return [engine.run_round(t) for t in range(1, rounds + 1)], seen, engine

    @pytest.mark.parametrize("strategy", ["psl", "gapsl-skipped"])
    def test_mean_update_loss_and_accuracy(self, monkeypatch, strategy):
        if strategy == "gapsl-skipped":
            def skip(*a, **k):
                raise CoordinationSkipped("forced")
            monkeypatch.setattr(orchestrator.lgi_mod, "run_lgi", skip)
        cfg = small_config(strategy=strategy.split("-")[0], clients=7)  # 1/7 is inexact
        reports, seen, engine = self.run_spied(monkeypatch, cfg, rounds=5)
        for r, g, update in zip(reports, seen["g"], seen["update"], strict=True):
            assert r.coordination_skipped == (strategy == "gapsl-skipped")
            assert update.dtype == np.float32 and (update == g.mean(axis=0)).all()
            assert r.train_loss == float(np.mean(r.client_losses))
        labels = engine.test.labels
        assert len(seen["logits"]) == engine.cfg.clients  # round 5 alone evaluates
        accs = [np.count_nonzero(lg.argmax(axis=1) == labels) / len(labels) for lg in seen["logits"]]
        assert reports[-1].accuracy == float(np.mean(accs))

    def test_gda_update_is_mean_of_corrected_survivors(self, monkeypatch):
        # a wide threshold keeps most of the 7 clients, so the sum's order shows
        cfg = small_config(strategy="gapsl", clients=7, theta_th_override=1.5)
        reports, seen, _ = self.run_spied(monkeypatch, cfg, rounds=6)
        assert not any(r.coordination_skipped for r in reports)
        aligned = [(out, u) for out, u in zip(seen["gda"], seen["update"], strict=True) if not out.fallback]
        assert any(len(out.survivors) > 2 for out, _ in aligned)
        for out, update in aligned:
            want = np.stack([out.corrected[i] for i in out.survivors]).mean(axis=0)
            assert update.dtype == np.float32 and (update == want).all()


class TestFlatParameters:
    def test_layers_stay_views_of_one_buffer_per_part(self):
        # sfl averages the bank every other round, and client 1's shard is
        # cut to one sample, so each of its batches is one row in a padded stack
        cfg = small_config(strategy="sfl", clients=3, rounds=4, sfl_interval=2, eval_interval=2)
        engine = TrainingEngine(cfg, seed=1)
        one_sample = engine.partition[1][:1]
        engine.cursors[1] = ShardCursor(one_sample, substream(1, STREAM_SHUFFLE, 1), cfg.batch_size)
        bank = engine.clients

        def buffers():
            return [engine.server_params, engine.server_opt.velocity, bank.params, bank.opt.velocity]

        before = buffers()
        for t in range(1, 5):
            engine.run_round(t)
        assert all(a is b for a, b in zip(buffers(), before, strict=True))
        for layers, params in ((engine.server, engine.server_params), (bank.layers, bank.params)):
            for layer in layers:
                assert np.shares_memory(layer.w, params) and np.shares_memory(layer.b, params)
        assert np.array_equal(oracles.flatten(params_arrays(engine.server)), engine.server_params)
        for k, params in enumerate(client_params(bank)):
            assert np.array_equal(oracles.flatten(params), bank.params[k])


class TestClientBank:
    def test_padded_rows_are_at_least_two_deep(self):
        # padding reads sample 0; one-row batches still stack two rows deep
        rows, lengths = padded_rows([np.array([7]), np.array([9])])
        assert lengths == [1, 1] and rows.dtype == np.intp and rows.tolist() == [[7, 0], [9, 0]]
        rows, lengths = padded_rows([np.array([7, 8, 9]), np.array([5])])
        assert lengths == [3, 1] and rows.tolist() == [[7, 8, 9], [5, 0, 0]]

    def test_stacked_round_equals_per_client_reference_bit_for_bit(self):
        # every batch length from 1 to batch_size, in a ragged cohort that
        # always holds a full batch and a one-row batch (gemv alone, gemm in
        # a stack); two client layers, so the one-row delta @ W.T reaches a
        # gradient. A bank of one pads its stack to two rows.
        cfg = small_config(clients=4, cut=2, activation="tanh", momentum=0.9)
        train, test = build_dataset(cfg, 1)
        bank = ClientBank(cfg, 1, range(cfg.clients), train, test)
        alone = [ClientBank(cfg, 1, [i], train, test) for i in range(cfg.clients)]
        params = client_params(bank)
        velocity = [[np.zeros_like(a) for a in p] for p in params]
        width = cfg.model_dims[cfg.cut]
        rng = np.random.default_rng(0)
        for t, n in enumerate(range(1, cfg.batch_size + 1), start=1):
            sizes = [n, cfg.batch_size, 1, max(1, n - 1)]
            indices = [rng.choice(len(bank.train_inputs), k, replace=False) for k in sizes]
            rows, lengths = padded_rows(indices)
            grads = [rng.normal(size=(k, width)).astype(np.float32) for k in lengths]
            acts = bank.forward(t, rows, lengths)
            assert acts.shape == (cfg.clients, cfg.batch_size, width)
            bank.apply_grads(t, zero_padded(grads, cfg.batch_size))
            for i in range(cfg.clients):
                own_rows, own_lengths = padded_rows([indices[i]])
                assert own_rows.shape == (1, max(2, lengths[i]))
                one = alone[i].forward(t, own_rows, own_lengths)[0, : lengths[i]]
                alone[i].apply_grads(t, zero_padded(grads[i : i + 1], own_rows.shape[1]))
                inputs = bank.train_inputs[indices[i]]
                want, caches = oracles.client_forward(params[i], inputs, cfg.activation, padded=True)
                assert acts.dtype == want.dtype and (acts[i, : lengths[i]] == want).all(), (n, i)
                assert (one == want).all(), (n, i)
                step = oracles.client_backward(params[i], caches, grads[i], cfg.activation, padded=True)
                oracles.sgd_step(params[i], step, velocity[i], cfg.lr_client, cfg.momentum)

            got = client_params(bank)
            for i in range(cfg.clients):
                (own,) = client_params(alone[i])
                moments = params_arrays(layer_views(bank.opt.velocity[i], bank.widths))
                for name, mine in (("bank", got[i]), ("bank of one", own), ("momentum", moments)):
                    want = velocity[i] if name == "momentum" else params[i]
                    assert all((a == b).all() for a, b in zip(mine, want)), (name, n, i)

    @pytest.mark.parametrize("activation", ["relu", "tanh"])
    def test_gradients_equal_the_recomputed_derivative_form(self, activation, monkeypatch):
        # backward reads the outputs forward stored; the per-client oracle
        # recomputes each derivative from the pre-activation. Client 1's
        # one-row batch runs gemm in the padded stack, as in the oracle.
        cfg = small_config(clients=3, cut=2, activation=activation)
        train, test = build_dataset(cfg, 1)
        bank = ClientBank(cfg, 1, range(cfg.clients), train, test)
        params = client_params(bank)
        stepped = []
        monkeypatch.setattr(orchestrator, "sgd_step", lambda params, grads, state: stepped.append(grads))
        rng = np.random.default_rng(2)
        indices = [rng.choice(len(bank.train_inputs), k, replace=False) for k in [cfg.batch_size, 1, 5]]
        rows, lengths = padded_rows(indices)
        act_grads = [rng.normal(size=(k, cfg.model_dims[cfg.cut])).astype(np.float32) for k in lengths]
        bank.forward(1, rows, lengths)
        bank.apply_grads(1, zero_padded(act_grads, cfg.batch_size))
        (grads,) = stepped
        for i in range(cfg.clients):
            _, caches = oracles.client_forward(params[i], bank.train_inputs[indices[i]], activation, padded=True)
            want = oracles.client_backward(params[i], caches, act_grads[i], activation, padded=True)
            got = params_arrays(layer_views(grads[i], bank.widths))
            assert all(g.dtype == np.float32 and (g == w).all() for g, w in zip(got, want)), i

    def test_every_round_writes_one_gradient_buffer(self, monkeypatch):
        # the bank's [clients, P] gradient matrix is allocated once: every
        # round's backward writes into it and its SGD step reads it
        cfg = small_config(clients=3)
        engine = TrainingEngine(cfg, 1)
        written, stepped = [], []
        backward = orchestrator.backward_client
        step = orchestrator.sgd_step

        def recording_backward(layers, cache, act_grads, out):
            written.append(out)
            return backward(layers, cache, act_grads, out)

        def recording_step(params, grads, state):
            stepped.append(grads)
            return step(params, grads, state)

        monkeypatch.setattr(orchestrator, "backward_client", recording_backward)
        monkeypatch.setattr(orchestrator, "sgd_step", recording_step)
        for t in (1, 2, 3):
            engine.run_round(t)
        assert len(written) == 3 and all(out is written[0] for out in written)
        assert sum(grads is written[0] for grads in stepped) == 3

    @pytest.mark.parametrize("activation", ["relu", "tanh"])
    def test_evaluation_keeps_no_cache_and_changes_nothing(self, activation):
        cfg = small_config(clients=3, activation=activation)
        engine = TrainingEngine(cfg, 1)
        for t in (1, 2):
            engine.run_round(t)  # the clients' models drift apart
        bank = engine.clients
        before = [a.copy() for a in (bank.test_inputs, bank.params, engine.server_params)]
        recount = []
        for k, acts in enumerate(bank.eval_activations(3)):
            want = forward_client(bank._models(k), bank.test_inputs, activation)[0]
            assert acts.dtype == want.dtype and (acts == want).all(), k
            logits = logits_from_activations(engine.server, want, activation)
            recount.append(float((logits.argmax(axis=1) == engine.test.labels).sum()) / len(engine.test))
        assert engine._evaluate(3) == float(np.mean(recount))
        after = [bank.test_inputs, bank.params, engine.server_params]
        assert all((a == b).all() for a, b in zip(after, before))

    @pytest.mark.parametrize("strategy", ["gapsl", "psl"])
    def test_padding_rows_do_not_reach_any_bit(self, strategy, monkeypatch):
        # the bank pads each batch by reading sample 0, the TCP cohort with
        # zero rows: the padding weighs 0 in the server's loss, so the
        # server's gradients and every parameter come out the same. Batches
        # of 4 over shards of 10 and 9 rows give ragged rounds with one-row
        # clients.
        cfg = small_config(strategy=strategy, clients=5, rounds=6, batch_size=4, samples_per_class=15, alpha=None)
        seen, ragged = {}, []
        cohort = orchestrator.Cohort

        def recording(ids, values, round_t):
            seen.setdefault(round_t, []).append(values.copy())
            return cohort(ids, values, round_t)

        monkeypatch.setattr(orchestrator, "Cohort", recording)
        zeroed = TrainingEngine(cfg, 1)
        forward = zeroed.clients.forward

        def zero_padding(t, rows, lengths):
            acts = forward(t, rows, lengths).copy()  # the bank keeps its own stack, as over TCP
            for k, n in enumerate(lengths):
                acts[k, n:] = 0
            ragged.append(sorted(set(lengths)))
            return acts

        zeroed.clients.forward = zero_padding
        engines = (TrainingEngine(cfg, 1), zeroed)
        for t in range(1, cfg.rounds + 1):
            sample_rows, zero_rows = (metrics_rows(strategy, 1, cfg.alpha, [e.run_round(t)]) for e in engines)
            assert sample_rows == zero_rows, t
            sample, zero = seen[t]
            assert sample.tobytes() == zero.tobytes(), t
        assert [1, 2] in ragged  # a padded stack with one-row clients
        assert all_params(engines[0]).tobytes() == all_params(engines[1]).tobytes()
