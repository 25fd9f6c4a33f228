"""Gradient direction alignment: thresholding, filtering, regularization."""

import math

import numpy as np
import pytest

import oracles
from gapsl.errors import ConfigError, CoordinationSkipped
from gapsl.gda import (
    GdaConfig,
    adaptive_threshold,
    alignment_correction,
    deviations_to_leader,
    filter_clients,
    global_loss,
    regularized_loss,
    run_gda,
)
from gapsl.geometry import GradientVector, angular_deviation


def cohort_of(vectors, round_t=1):
    return [GradientVector(i, round_t, np.asarray(v, dtype=np.float64)) for i, v in enumerate(vectors)]


def leader_of(v):
    return GradientVector(-1, 1, np.asarray(v, dtype=np.float64))


class TestDeviationsToLeader:
    def test_aligned_client_has_zero_deviation(self):
        devs = deviations_to_leader(cohort_of([[2.0, 0.0]]), leader_of([1.0, 0.0]))
        assert devs[0] == 0.0

    def test_opposed_client_has_pi_deviation(self):
        devs = deviations_to_leader(cohort_of([[-1.0, 0.0]]), leader_of([1.0, 0.0]))
        assert abs(devs[0] - math.pi) < 1e-12

    def test_matches_per_client_angle_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            vs = [list(rng.normal(size=5)) for _ in range(4)]
            lead = list(rng.normal(size=5))
            devs = deviations_to_leader(cohort_of(vs), leader_of(lead))
            for i, v in enumerate(vs):
                assert abs(devs[i] - oracles.angle(v, lead)) <= 1e-9

    def test_degenerate_leader_skips(self):
        with pytest.raises(CoordinationSkipped):
            deviations_to_leader(cohort_of([[1.0, 0.0]]), leader_of([0.0, 0.0]))

    def test_degenerate_clients_dropped(self):
        devs = deviations_to_leader(cohort_of([[1.0, 0.0], [0.0, 0.0]]), leader_of([1.0, 0.0]))
        assert set(devs) == {0}


class TestAdaptiveThreshold:
    def test_equal_deviations_give_that_value(self):
        for d in (0.0, 0.4, 1.2):
            assert abs(adaptive_threshold([d, d, d], eta=5.0) - d) < 1e-12

    def test_upper_clamp_at_half_pi(self):
        assert adaptive_threshold([2.0, 2.0], eta=1.0) == math.pi / 2

    def test_lower_clamp_at_zero(self):
        assert adaptive_threshold([0.1, 0.9], eta=10.0) == 0.0

    def test_hand_computed_three_deviation_case(self):
        th = adaptive_threshold([0.2, 0.6, 1.0], eta=1.0)
        assert abs(th - (0.6 - math.sqrt(0.32 / 3))) < 1e-12
        assert abs(th - 0.2734) < 1e-4

    def test_monotone_nonincreasing_in_eta(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            devs = list(rng.uniform(0, math.pi, size=int(rng.integers(2, 8))))
            etas = sorted(rng.uniform(0, 3, size=4))
            ths = [adaptive_threshold(devs, e) for e in etas]
            assert all(a >= b for a, b in zip(ths, ths[1:]))

    def test_always_in_range_fuzz(self):
        rng = np.random.default_rng(2)
        for _ in range(500):
            devs = list(rng.uniform(0, math.pi, size=int(rng.integers(1, 10))))
            th = adaptive_threshold(devs, float(rng.uniform(0, 5)))
            assert 0.0 <= th <= math.pi / 2


class TestFilterClients:
    def test_everyone_below_half_pi_survives(self):
        devs = {0: 0.1, 1: 1.0, 2: 1.5}
        assert filter_clients(devs, math.pi / 2) == (0, 1, 2)

    def test_zero_threshold_keeps_only_exactly_aligned(self):
        devs = {0: 0.0, 1: 0.01}
        assert filter_clients(devs, 0.0) == (0,)

    def test_hand_case_keeps_single_survivor(self):
        devs = {0: 0.2, 1: 0.6, 2: 1.0}
        th = adaptive_threshold(list(devs.values()), eta=1.0)
        assert filter_clients(devs, th) == (0,)

    def test_membership_is_exactly_the_predicate(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            devs = {i: float(rng.uniform(0, math.pi)) for i in range(int(rng.integers(1, 8)))}
            th = float(rng.uniform(0, math.pi / 2))
            got = set(filter_clients(devs, th))
            assert got == {i for i, d in devs.items() if d <= th}


class TestRegularizedLoss:
    def test_zero_deviation_preserves_loss(self):
        assert regularized_loss(1.37, 0.0, lam=0.5) == 1.37

    def test_orthogonal_deviation_adds_full_lambda(self):
        assert abs(regularized_loss(2.0, math.pi / 2, lam=5e-4) - (2.0 + 5e-4)) < 1e-15

    def test_sixty_degree_case(self):
        assert abs(regularized_loss(1.0, math.pi / 3, lam=1.0) - 1.5) < 1e-12

    def test_penalty_strictly_increasing_on_quarter_turn(self):
        thetas = np.linspace(0, math.pi / 2, 50)
        penalties = [regularized_loss(0.0, t, lam=1.0) for t in thetas]
        assert penalties[0] == 0.0
        assert all(a < b for a, b in zip(penalties, penalties[1:]))


class TestAlignmentCorrection:
    def test_parallel_gradient_unchanged(self):
        g = np.array([2.0, 0.0])
        out = alignment_correction(g, np.array([5.0, 0.0]), lambda_g=1.0)
        assert np.array_equal(out, g)

    def test_orthogonal_closed_form(self):
        out = alignment_correction(np.array([1.0, 0.0]), np.array([0.0, 1.0]), lambda_g=1.0)
        assert np.allclose(out, [1.0, 1.0])
        before = angular_deviation(np.array([1.0, 0.0]), np.array([0.0, 1.0]))
        after = angular_deviation(out, np.array([0.0, 1.0]))
        assert abs(before - math.pi / 2) < 1e-12
        assert abs(after - math.pi / 4) < 1e-12

    def test_zero_strength_is_identity(self):
        rng = np.random.default_rng(4)
        g = rng.normal(size=5)
        out = alignment_correction(g, rng.normal(size=5), lambda_g=0.0)
        assert np.max(np.abs(out - g)) <= 1e-12

    def test_improves_cosine_for_open_quarter_turn(self):
        rng = np.random.default_rng(5)
        checked = 0
        while checked < 500:
            g = rng.normal(size=6)
            g *= rng.uniform(0.5, 4.0) / np.linalg.norm(g)
            lead = rng.normal(size=6)
            theta = angular_deviation(g, lead)
            if not (1e-6 < theta <= math.pi / 2):
                continue
            lam_g = float(rng.uniform(1e-5, 0.9)) * float(np.linalg.norm(g))
            out = alignment_correction(g, lead, lam_g)
            cos_before = math.cos(theta)
            cos_after = math.cos(angular_deviation(out, lead))
            assert cos_after > cos_before
            checked += 1

    def test_cosine_rises_iff_turn_below_twice_the_angle(self):
        # g turns toward the leader by phi = atan(lambda_g sin(theta) / ||g||^2)
        # and lands at |theta - phi| from it
        rng = np.random.default_rng(9)
        rises = falls = 0
        for _ in range(2000):
            u, w = np.linalg.qr(rng.normal(size=(5, 2)))[0].T
            gn = float(np.exp(rng.uniform(math.log(0.01), math.log(4.0))))
            g = gn * u
            turn = rng.uniform(0.0, math.pi)
            lead = math.cos(turn) * u + math.sin(turn) * w
            theta = angular_deviation(g, lead)
            lam_g = float(rng.uniform(0.0, 2.0)) * gn
            phi = math.atan(lam_g * math.sin(theta) / gn**2)
            if abs(phi - 2 * theta) < 1e-6 or phi < 1e-9:
                continue
            out = alignment_correction(g, lead, lam_g)
            rose = math.cos(angular_deviation(out, lead)) > math.cos(theta)
            assert rose == (phi < 2 * theta)
            assert abs(angular_deviation(out, lead) - abs(theta - phi)) <= 1e-9
            rises += rose
            falls += not rose
        assert rises > 100 and falls > 100

    def test_engine_strength_overshoots_a_short_gradient(self):
        # run_gda's lambda_g = lambda * ||g||: the shift is lambda * sin(theta)
        # whatever ||g|| is, so on a short g it swings past the leader
        theta, lam = 0.1, 0.3
        g = 0.01 * np.array([math.cos(theta), math.sin(theta)])
        out = run_gda(
            cohort_of([g]), {0: 1.0}, leader_of([1.0, 0.0]),
            GdaConfig(lam=lam, threshold_override=math.pi / 2),
        )
        corrected = out.corrected[0]
        assert abs(np.linalg.norm(corrected - g) - lam * math.sin(theta)) <= 1e-12
        assert math.atan(lam * math.sin(theta) / 0.01) > 2 * theta
        assert math.cos(angular_deviation(corrected, np.array([1.0, 0.0]))) < math.cos(theta)

    def test_degenerate_passthrough(self):
        g = np.zeros(3)
        assert np.array_equal(alignment_correction(g, np.ones(3), 1.0), g)

    def test_preserves_dtype(self):
        g = np.array([1.0, 0.0], dtype=np.float32)
        out = alignment_correction(g, np.array([0.0, 1.0], dtype=np.float32), 0.5)
        assert out.dtype == np.float32


class TestGlobalLoss:
    def test_singleton(self):
        assert global_loss({3: 1.25}, (3,)) == 1.25

    def test_two_clients(self):
        assert global_loss({0: 1.0, 1: 2.5}, (0, 1)) == 3.5

    def test_matches_sum_oracle_fuzz(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            losses = {i: float(rng.uniform(0, 5)) for i in range(int(rng.integers(1, 9)))}
            ids = tuple(sorted(rng.choice(list(losses), size=int(rng.integers(1, len(losses) + 1)), replace=False)))
            assert abs(global_loss(losses, ids) - sum(losses[i] for i in ids)) <= 1e-12


class TestRunGda:
    def test_fully_aligned_cohort_keeps_everyone_unchanged(self):
        vs = [[1.0, 1.0], [2.0, 2.0], [0.5, 0.5]]
        cohort = cohort_of(vs)
        losses = {0: 1.0, 1: 2.0, 2: 3.0}
        out = run_gda(cohort, losses, leader_of([1.0, 1.0]), GdaConfig())
        assert out.survivors == (0, 1, 2)
        assert not out.fallback
        for i, v in enumerate(vs):
            assert np.max(np.abs(out.corrected[i] - np.asarray(v))) <= 1e-12
            assert out.regularized_losses[i] == losses[i]
        assert abs(out.global_loss - 6.0) < 1e-12

    def test_hand_computed_three_client_chain(self):
        # deviations 0.2/0.6/1.0 rad against the x axis
        vs = [[math.cos(d), math.sin(d)] for d in (0.2, 0.6, 1.0)]
        cohort = cohort_of(vs)
        losses = {0: 1.0, 1: 1.0, 2: 1.0}
        out = run_gda(cohort, losses, leader_of([1.0, 0.0]), GdaConfig(eta=1.0, lam=1.0))
        assert abs(out.threshold - 0.2734) < 1e-4
        assert out.survivors == (0,)
        assert abs(out.regularized_losses[0] - (1.0 + 1.0 - math.cos(0.2))) < 1e-9
        assert abs(out.global_loss - out.regularized_losses[0]) < 1e-12

    def test_fuzz_matches_independent_reimplementation(self):
        # cases with a deviation within 1e-9 of the threshold are skipped:
        # there the <= membership test is a float knife-edge (for two
        # clients at eta=1 the threshold IS the smaller deviation), so set
        # equality across implementations is ill-posed
        rng = np.random.default_rng(7)
        cfg = GdaConfig(eta=1.0, lam=5e-4)
        checked = 0
        while checked < 150:
            size = int(rng.integers(2, 7))
            dim = int(rng.integers(3, 9))
            vectors = {i: list(rng.normal(size=dim)) for i in range(size)}
            losses = {i: float(rng.uniform(0, 3)) for i in range(size)}
            lead = list(rng.normal(size=dim))
            ref = oracles.gda_reference(vectors, losses, lead, eta=1.0, lam=5e-4)
            if min(abs(d - ref["threshold"]) for d in ref["deviations"].values()) < 1e-9:
                continue
            out = run_gda(cohort_of(list(vectors.values())), losses, leader_of(lead), cfg)
            assert abs(out.threshold - ref["threshold"]) <= 1e-9
            assert list(out.survivors) == ref["survivors"]
            assert abs(out.global_loss - ref["global_loss"]) <= 1e-9
            for i in out.survivors:
                assert abs(out.regularized_losses[i] - ref["regularized"][i]) <= 1e-9
                assert np.max(np.abs(out.corrected[i] - np.array(ref["corrected"][i]))) <= 1e-9
            checked += 1

    def test_empty_survivors_sets_fallback(self):
        # two clients on either side of the leader, tight threshold via large eta
        vs = [[1.0, 0.4], [1.0, -0.4]]
        out = run_gda(cohort_of(vs), {0: 1.0, 1: 1.0}, leader_of([0.0, 1.0]), GdaConfig(eta=50.0))
        assert out.fallback
        assert out.survivors == ()
        assert out.global_loss == 0.0

    def test_threshold_override(self):
        vs = [[1.0, 0.0], [0.0, 1.0]]
        out = run_gda(cohort_of(vs), {0: 1.0, 1: 1.0}, leader_of([1.0, 0.0]),
                      GdaConfig(threshold_override=math.pi / 2))
        assert out.survivors == (0, 1)

    def test_loss_only_variant_keeps_gradients(self):
        rng = np.random.default_rng(8)
        vs = [rng.normal(size=4) for _ in range(3)]
        losses = {i: 1.0 for i in range(3)}
        out = run_gda(cohort_of(vs), losses, leader_of(list(rng.normal(size=4))),
                      GdaConfig(eta=0.0, apply_correction=False))
        for i in out.survivors:
            assert np.array_equal(out.corrected[i], np.asarray(vs[i]))

    def test_random_survivor_mode_preserves_count(self):
        rng = np.random.default_rng(9)
        vs = [list(rng.normal(size=4)) for _ in range(6)]
        losses = {i: 1.0 for i in range(6)}
        lead = list(np.mean(vs, axis=0))
        base = run_gda(cohort_of(vs), losses, leader_of(lead), GdaConfig())
        rand = run_gda(cohort_of(vs), losses, leader_of(lead), GdaConfig(),
                       survivor_mode="random", rng=np.random.default_rng(1))
        assert len(rand.survivors) == len(base.survivors)

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            GdaConfig(eta=-0.1)
        with pytest.raises(ConfigError):
            GdaConfig(lam=-1.0)
