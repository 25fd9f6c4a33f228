"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`. The desk-scale trend
experiments (criteria 8/9) share one set of seeded runs through module
fixtures; everything else is self-contained fuzzing against the
independent oracles in oracles.py.
"""

import math
import threading
import time

import numpy as np
import pytest

import oracles
from gapsl.config import ExperimentConfig, config_to_text
from gapsl.errors import ProtocolError
from gapsl.gda import GdaConfig, adaptive_threshold, alignment_correction, run_gda
from gapsl.geometry import GradientVector, angular_deviation, mean_std, pairwise_mean_deviation
from gapsl.lgi import LgiConfig, LgiState, ScoreSet, run_lgi, selection_ratio
from gapsl.nn import ModelSpec, split_model
from gapsl.orchestrator import TrainingEngine, run_experiment
from gapsl.reporting import metrics_rows
from gapsl import cli
from gapsl import transport as tp

from test_nn import analytic_flat_grads, flat_params, full_forward_loss, set_flat_params


def report(criterion: str, passed: bool, detail: str = "") -> None:
    state = "PASS" if passed else "FAIL"
    print(f"\n[acceptance] {criterion}: {state}" + (f" ({detail})" if detail else ""))


# --------------------------------------------------------------------------
# desk-scale experiment shared by criteria 8, 9 and 11

DESK = dict(
    clients=10, rounds=80, batch_size=16, samples_per_class=400, spread=0.2,
    model_dims=(16, 32, 32, 8), cut=2, eval_interval=5, seeds=(1, 2, 3), alpha=0.1,
    activation="tanh", lr_client=0.02, lr_server=0.8, momentum=0.5,
    eta=1.0, lam=0.3, k_min=60.0, k_max=80.0,
)


def desk_config(strategy: str, **flags) -> ExperimentConfig:
    return ExperimentConfig(**{**DESK, "strategy": strategy, **flags})


def run_desk(strategy: str, **flags) -> dict:
    cfg = desk_config(strategy, **flags)
    curves, devs = {}, []
    for seed in cfg.seeds:
        reports = run_experiment(cfg, seed)
        curves[seed] = [(r.round, r.accuracy) for r in reports if r.accuracy is not None]
        devs.append(np.mean([
            r.pairwise_deviation for r in reports if r.pairwise_deviation is not None
        ]))
    finals = [c[-1][1] for c in curves.values()]
    return {
        "mean_final": float(np.mean(finals)),
        "finals": finals,
        "mean_dev": float(np.mean(devs)),
        "curves": curves,
    }


@pytest.fixture(scope="module")
def desk_runs():
    started = time.perf_counter()
    runs = {name: run_desk(name) for name in ("gapsl", "psl", "sfl")}
    runs["elapsed"] = time.perf_counter() - started
    return runs


@pytest.fixture(scope="module")
def ablation_runs():
    return {
        "rand_lgi": run_desk("gapsl", rand_lgi=True),
        "non_gda": run_desk("gapsl", non_gda=True),
    }


# --------------------------------------------------------------------------


class TestC01GeometryOracles:
    def test_geometry_matches_brute_force(self):
        started = time.perf_counter()
        rng = np.random.default_rng(101)
        cases = 0
        for _ in range(700):
            dim = int(rng.integers(2, 17))
            a, b = rng.normal(size=dim), rng.normal(size=dim)
            assert abs(angular_deviation(a, b) - oracles.angle(list(a), list(b))) <= 1e-9
            size = int(rng.integers(2, 7))
            vs = [rng.normal(size=dim) for _ in range(size)]
            got = pairwise_mean_deviation(vs)
            assert abs(got - oracles.pairwise_mean_angle([list(v) for v in vs])) <= 1e-9
            vals = list(rng.normal(size=int(rng.integers(1, 10))))
            m, s = mean_std(vals)
            assert abs(m - oracles.mean(vals)) <= 1e-9
            assert abs(s - oracles.pop_std(vals)) <= 1e-9
            cases += 3

        # clamp edge cases: cosines that land at +-1 +- epsilon
        g = rng.normal(size=8)
        for scale in (1.0, 2.0, 0.5, 1024.0):
            assert angular_deviation(g, scale * g) == 0.0
            assert abs(angular_deviation(g, -scale * g) - math.pi) <= 1e-12
            cases += 2
        near = np.array([1.0, 1e-16])
        axis = np.array([1.0, 0.0])
        theta = angular_deviation(near, axis)
        assert math.isfinite(theta) and 0 <= theta <= math.pi
        cases += 1

        elapsed = time.perf_counter() - started
        ok = cases >= 1000 and elapsed < 10.0
        report("C1 geometry-oracle-suite", ok, f"{cases} cases in {elapsed:.2f}s")
        assert ok


class TestC02LgiEquivalence:
    def test_run_lgi_matches_reimplementation(self):
        rng = np.random.default_rng(202)
        cfg = LgiConfig(total_rounds=30, k_min=20, k_max=80)
        checked = skipped = 0
        while checked < 520:
            size = int(rng.integers(2, 7))
            dim = int(rng.integers(2, 9))
            t = int(rng.integers(1, 31))
            nu_min = None if rng.random() < 0.25 else float(rng.uniform(0, 0.3))
            nu_max = None if nu_min is None else nu_min + float(rng.uniform(0, 0.4))
            vectors = {i: list(rng.normal(size=dim)) for i in range(size)}
            ref = oracles.lgi_reference(vectors, nu_min, nu_max, t, 30, 20, 80)

            # rank-boundary knife edges (exact score ties happen in the
            # plane) make set equality ill-posed across implementations
            count = len(ref["selected"])
            ranked = sorted(ref["scores"].values())
            if count < size and ranked[count] - ranked[count - 1] < 1e-9:
                skipped += 1
                continue

            state = LgiState(nu_min=nu_min, nu_max=nu_max)
            cohort = [GradientVector(i, t, np.asarray(v)) for i, v in vectors.items()]
            out = run_lgi(cohort, state, cfg, round_t=t)
            assert all(abs(out.scores.scores[i] - ref["scores"][i]) <= 1e-9 for i in vectors)
            assert abs(out.k_percent - ref["k"]) <= 1e-9
            assert list(out.selected) == ref["selected"]
            assert np.max(np.abs(out.leader.values - np.array(ref["leader"]))) <= 1e-9
            checked += 1
        report("C2 lgi-equivalence", True, f"{checked} cases, {skipped} boundary ties skipped")


class TestC03GdaEquivalence:
    def test_hand_computed_three_client_case(self):
        vs = [[math.cos(d), math.sin(d)] for d in (0.2, 0.6, 1.0)]
        cohort = [GradientVector(i, 1, np.asarray(v)) for i, v in enumerate(vs)]
        leader = GradientVector(-1, 1, np.array([1.0, 0.0]))
        out = run_gda(cohort, {0: 1.0, 1: 1.0, 2: 1.0}, leader, GdaConfig(eta=1.0, lam=0.3))
        assert abs(out.threshold - 0.2734) <= 1e-4
        assert out.survivors == (0,)

    def test_run_gda_matches_reimplementation(self):
        rng = np.random.default_rng(303)
        cfg = GdaConfig(eta=1.0, lam=5e-4)
        checked = skipped = 0
        while checked < 520:
            size = int(rng.integers(2, 7))
            dim = int(rng.integers(2, 9))
            vectors = {i: list(rng.normal(size=dim)) for i in range(size)}
            losses = {i: float(rng.uniform(0, 3)) for i in range(size)}
            lead = list(rng.normal(size=dim))
            ref = oracles.gda_reference(vectors, losses, lead, eta=1.0, lam=5e-4)
            if min(abs(d - ref["threshold"]) for d in ref["deviations"].values()) < 1e-9:
                skipped += 1  # membership knife edge, ill-posed comparison
                continue
            cohort = [GradientVector(i, 1, np.asarray(v)) for i, v in vectors.items()]
            out = run_gda(cohort, losses, GradientVector(-1, 1, np.asarray(lead)), cfg)
            assert abs(out.threshold - ref["threshold"]) <= 1e-9
            assert list(out.survivors) == ref["survivors"]
            assert abs(out.global_loss - ref["global_loss"]) <= 1e-9
            for i in out.survivors:
                assert abs(out.regularized_losses[i] - ref["regularized"][i]) <= 1e-9
                assert np.max(np.abs(out.corrected[i] - np.array(ref["corrected"][i]))) <= 1e-9
            checked += 1
        report("C3 gda-equivalence", True, f"{checked} cases, {skipped} boundary ties skipped")


class TestC04BoundInvariants:
    def test_ratio_and_threshold_stay_bounded(self):
        rng = np.random.default_rng(404)
        for _ in range(300):
            total = int(rng.integers(1, 60))
            k_min = float(rng.uniform(1, 60))
            k_max = k_min + float(rng.uniform(0, 100 - k_min))
            cfg = LgiConfig(total_rounds=total, k_min=k_min, k_max=k_max)
            state = LgiState()
            prev_min, prev_max = math.inf, -math.inf
            for t in range(1, total + 1):
                state.round = t
                scores = {i: float(rng.uniform(0, math.pi)) for i in range(int(rng.integers(2, 9)))}
                k = selection_ratio(state, cfg, ScoreSet(t, scores))
                assert k_min <= k <= k_max
                assert state.nu_min <= prev_min + 1e-15
                assert state.nu_max >= prev_max - 1e-15
                prev_min, prev_max = state.nu_min, state.nu_max
        for _ in range(2000):
            devs = list(rng.uniform(0, math.pi, size=int(rng.integers(1, 11))))
            th = adaptive_threshold(devs, float(rng.uniform(0, 4)))
            assert 0.0 <= th <= math.pi / 2
        report("C4 bound-invariants", True, "300 score streams, 2000 thresholds")


class TestC05AlignmentCorrection:
    def test_correction_improves_cosine_and_vanishes_at_zero(self):
        rng = np.random.default_rng(505)
        checked = 0
        while checked < 1000:
            dim = int(rng.integers(2, 12))
            g = rng.normal(size=dim)
            g *= float(rng.uniform(0.5, 4.0)) / np.linalg.norm(g)
            lead = rng.normal(size=dim)
            theta = angular_deviation(g, lead)
            if not (1e-8 < theta <= math.pi / 2):
                continue
            lam_g = float(rng.uniform(1e-5, 0.9)) * float(np.linalg.norm(g))
            corrected = alignment_correction(g, lead, lam_g)
            assert math.cos(angular_deviation(corrected, lead)) > math.cos(theta)
            checked += 1
        # exact alignment leaves the gradient untouched
        for _ in range(100):
            g = rng.normal(size=6)
            out = alignment_correction(g, g * float(rng.uniform(0.1, 5.0)), 0.5)
            assert np.linalg.norm(out - g) <= 1e-12
        report("C5 alignment-correction", True, f"{checked} improvement cases")


class TestC06GradientCorrectness:
    def test_finite_differences_and_split_equivalence(self):
        rng = np.random.default_rng(606)
        for dims, cut in (((6, 10, 4), 1), ((16, 12, 10, 8), 2), ((5, 16, 8, 3), 1)):
            model = split_model(ModelSpec(dims), cut, seed=int(rng.integers(1 << 30)), dtype=np.float64)
            inputs = rng.normal(size=(8, dims[0]))
            labels = rng.integers(0, dims[-1], 8)
            theta0 = flat_params(model).copy()
            analytic = analytic_flat_grads(model, inputs, labels)

            def loss_at(theta_list):
                set_flat_params(model, np.asarray(theta_list))
                return full_forward_loss(model, inputs, labels)

            numeric = oracles.central_difference(loss_at, list(theta0), step=1e-5)
            set_flat_params(model, theta0)
            rel = oracles.relative_error(list(analytic), numeric, floor=1e-6)
            assert rel <= 1e-6, f"dims {dims}: rel err {rel:.2e}"

            # split forward equals the unsplit layer stack
            from gapsl.nn import forward_client, forward_server
            acts, _ = forward_client(model.client, inputs, "relu")
            _, _, cache = forward_server(model.server, acts, labels, "relu")
            a = inputs
            stack = model.client + model.server
            for layer in stack[:-1]:
                a = np.maximum(a @ layer.w + layer.b, 0)
            unsplit = a @ stack[-1].w + stack[-1].b
            split = cache.inputs[-1] @ stack[-1].w + stack[-1].b  # the server's logits, as its forward takes them
            assert np.max(np.abs(split - unsplit)) <= 1e-9
        report("C6 gradient-correctness", True, "3 architectures, rel err <= 1e-6")


class TestC07Reduction:
    def test_disabled_coordination_matches_psl(self):
        from test_orchestrator import all_params
        kw = dict(
            clients=4, rounds=20, batch_size=16, samples_per_class=40, spread=0.5,
            model_dims=(8, 16, 16, 4), cut=1, eval_interval=5, seeds=(5,), alpha=None,
            activation="relu", lr_client=0.02, lr_server=0.1, momentum=0.9,
        )
        gapsl_cfg = ExperimentConfig(
            strategy="gapsl", k_min=100.0, k_max=100.0, lam=0.0,
            theta_th_override=math.pi / 2, **kw,
        )
        psl_cfg = ExperimentConfig(strategy="psl", **kw)
        e_gapsl = TrainingEngine(gapsl_cfg, 5)
        e_psl = TrainingEngine(psl_cfg, 5)
        for t in range(1, 21):
            r = e_gapsl.run_round(t)
            e_psl.run_round(t)
            assert r.survivor_count == 4
        drift = float(np.max(np.abs(all_params(e_gapsl) - all_params(e_psl))))
        report("C7 reduction-to-psl", drift <= 1e-6, f"max drift {drift:.2e} after 20 rounds")
        assert drift <= 1e-6


class TestC08TrendReproduction:
    def test_a_accuracy_gap(self, desk_runs):
        gap = desk_runs["gapsl"]["mean_final"] - desk_runs["psl"]["mean_final"]
        ok = gap >= 0.03
        report(
            "C8a gapsl-vs-psl-accuracy", ok,
            f"gapsl {desk_runs['gapsl']['mean_final']:.4f} vs psl "
            f"{desk_runs['psl']['mean_final']:.4f}, gap {gap * 100:+.2f}pp (need >= +3pp)",
        )
        assert ok

    def test_b_deviation_ordering(self, desk_runs):
        psl_dev = desk_runs["psl"]["mean_dev"]
        sfl_dev = desk_runs["sfl"]["mean_dev"]
        ok = psl_dev > sfl_dev
        report(
            "C8b pairwise-deviation-ordering", ok,
            f"psl {psl_dev:.4f} vs sfl {sfl_dev:.4f}; over seeds 1-40 psl is lower on every seed, "
            "and it stays lower with cut 1, a two-layer server part and relu",
        )
        assert ok, (
            "run-averaged pairwise deviation: psl should exceed sfl (interval 1); "
            f"measured psl {psl_dev:.4f} <= sfl {sfl_dev:.4f}. Not seed noise: over seeds 1-40 "
            "psl - sfl is -0.085 rad (SE 0.002) and psl is lower on every seed. Not the server "
            "head: psl stays lower with cut 1, with model_dims 16,32,32,32,8, and with relu "
            "(6 of 6 seeds each). Not the choice of gradient: on client-side gradients psl gives "
            "1.496 rad and sfl 1.562. Not the training state: in the same psl rounds, with the "
            "same server and batches, the clients' own models give 1.499 rad and their FedAvg "
            "1.550. No fault was found in the psl or sfl code paths; the measure behind the "
            "paper's claim is not settled by the abstract."
        )

    def test_c_rounds_to_target(self, desk_runs):
        target = 0.95 * max(desk_runs["gapsl"]["mean_final"], desk_runs["psl"]["mean_final"])

        def rtt(curves):
            out = []
            for c in curves.values():
                hits = [r for r, a in c if a >= target]
                out.append(hits[0] if hits else DESK["rounds"] + 1)
            return float(np.mean(out))

        r_gapsl = rtt(desk_runs["gapsl"]["curves"])
        r_psl = rtt(desk_runs["psl"]["curves"])
        ok = r_gapsl <= r_psl
        report(
            "C8c rounds-to-target", ok,
            f"target {target:.4f}: gapsl {r_gapsl:.1f} vs psl {r_psl:.1f} rounds",
        )
        assert ok

    def test_runtime_budget(self, desk_runs):
        ok = desk_runs["elapsed"] < 300.0
        report("C8 runtime", ok, f"{desk_runs['elapsed']:.1f}s for 3 strategies x 3 seeds")
        assert ok

    def test_alpha_sweep_direction(self):
        # companion trend: the coordination advantage persists at mild skew
        # and is larger under severe skew
        mild = {
            s: run_desk(s, alpha=0.9, seeds=(1, 2, 3))["mean_final"] for s in ("gapsl", "psl")
        }
        gap_severe = run_desk("gapsl")["mean_final"] - run_desk("psl")["mean_final"]
        gap_mild = mild["gapsl"] - mild["psl"]
        ok = gap_mild >= 0 and gap_severe >= 0 and gap_severe > gap_mild
        report(
            "C8+ alpha-sweep-direction", ok,
            f"gap at alpha 0.1 {gap_severe * 100:+.2f}pp vs alpha 0.9 {gap_mild * 100:+.2f}pp",
        )
        assert ok


class TestC09AblationDirections:
    def test_gapsl_versus_ablations(self, desk_runs, ablation_runs):
        full = desk_runs["gapsl"]["mean_final"]
        rand_lgi = ablation_runs["rand_lgi"]["mean_final"]
        non_gda = ablation_runs["non_gda"]["mean_final"]
        ok_gda = full >= non_gda
        ok_lgi = full >= rand_lgi
        report(
            "C9 ablation-directions", ok_gda and ok_lgi,
            f"gapsl {full:.4f} vs rand_lgi {rand_lgi:.4f} "
            f"({'>=' if ok_lgi else '<'}) and non_gda {non_gda:.4f} ({'>=' if ok_gda else '<'})",
        )
        assert ok_gda, f"removing the alignment stage should not help: {full:.4f} < {non_gda:.4f}"
        assert ok_lgi, (
            f"random selection should not beat consistency selection: {full:.4f} < {rand_lgi:.4f}. "
            "Keeping the top of a per-client consistency ranking lost to random on 0 of 40 seeds "
            "(-2.59 pp), at every alpha, client count and k_min tried: it keeps leaving out the "
            "clients that alone hold a class. lgi.select_consistent drops a client only when the "
            "cohort's trend can spare it; check that it still runs and that its leader stays close "
            "to the mean of all client gradients."
        )


class TestC10Transport:
    def test_fixtures_and_fuzzed_round_trips(self):
        from test_transport import assert_messages_equal, random_message

        assert tp.encode(tp.Bye()) == bytes.fromhex("475053" "4c0208" "00000000".replace(" ", ""))
        frame = tp.encode(tp.Activations(0, 0, np.array([[1.0]], dtype=np.float32)))
        assert frame[10:].hex() == "000000000000" + "01000000" + "01000000" + "0000803f"

        rng = np.random.default_rng(707)
        for _ in range(10_000):
            msg = random_message(rng)
            decoded, consumed = tp.decode(tp.encode(msg))
            assert consumed == len(tp.encode(msg))
            assert_messages_equal(decoded, msg)
        report("C10 transport-roundtrip", True, "10000 fuzzed frames, fixtures exact")

    def test_tcp_equals_inproc_metrics(self, tmp_path):
        cfg = ExperimentConfig(
            strategy="gapsl", clients=3, rounds=6, batch_size=16, samples_per_class=40,
            model_dims=(8, 16, 16, 4), cut=1, eval_interval=2, seeds=(7,), alpha=0.3,
        )
        rows_inproc = metrics_rows("gapsl", 7, cfg.alpha, run_experiment(cfg, 7))

        listener = tp.Listener("127.0.0.1:0")
        addr = listener.address
        threads = []
        for cid in range(cfg.clients):
            def worker(cid=cid):
                ch = tp.connect(addr)
                try:
                    tp.client_loop(ch, cid)
                finally:
                    ch.close()
            t = threading.Thread(target=worker)
            t.start()
            threads.append(t)
        channels = listener.accept_clients(cfg.clients, config_to_text(cfg), timeout=10)
        proxies = {i: tp.RemoteClientProxy(ch, i) for i, ch in channels.items()}
        rows_tcp = metrics_rows("gapsl", 7, cfg.alpha, TrainingEngine(cfg, 7, proxies).run())
        for i in sorted(proxies):
            proxies[i].finish({})
        for t in threads:
            t.join()
        listener.close()

        ok = rows_tcp == rows_inproc
        report("C10 transport-transparency", ok, f"{len(rows_tcp)} metric rows identical")
        assert ok


class TestC11Determinism:
    def test_desk_config_metrics_are_byte_identical(self, tmp_path):
        cfg_file = tmp_path / "desk.cfg"
        cfg_file.write_text(config_to_text(desk_config("gapsl")))
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert cli.main(["run", "--config", str(cfg_file), "--out", str(out_a)]) == 0
        assert cli.main(["run", "--config", str(cfg_file), "--out", str(out_b)]) == 0
        same = (out_a / "metrics.csv").read_bytes() == (out_b / "metrics.csv").read_bytes()
        report("C11 determinism", same, "two executions, byte-identical metrics.csv")
        assert same
