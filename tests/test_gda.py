"""Gradient direction alignment: thresholding, filtering, regularization."""

import math

import numpy as np
import pytest

import oracles
from gapsl import gda
from gapsl.gda import (
    GdaConfig,
    adaptive_threshold,
    alignment_correction,
    deviations_to_leader,
    filter_clients,
    regularized_loss,
    run_gda,
)
from gapsl.geometry import Cohort, GradientVector, angular_deviation


def cohort_of(vectors, round_t=1):
    return [GradientVector(i, round_t, np.asarray(v, dtype=np.float64)) for i, v in enumerate(vectors)]


def matrix_cohort(vectors):
    """The prepared cohort of ``vectors``, built from their matrix as a round builds it."""
    return Cohort(range(len(vectors)), np.asarray(vectors, dtype=np.float64), 1)


def leader_of(v):
    return GradientVector(-1, 1, np.asarray(v, dtype=np.float64))


class TestDeviationsToLeader:
    def test_aligned_client_has_zero_deviation(self):
        devs = deviations_to_leader(matrix_cohort([[2.0, 0.0]]), leader_of([1.0, 0.0]))
        assert devs[0] == 0.0

    def test_opposed_client_has_pi_deviation(self):
        devs = deviations_to_leader(matrix_cohort([[-1.0, 0.0]]), leader_of([1.0, 0.0]))
        assert abs(devs[0] - math.pi) < 1e-12

    def test_matches_per_client_angle_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            vs = [list(rng.normal(size=5)) for _ in range(4)]
            lead = list(rng.normal(size=5))
            devs = deviations_to_leader(matrix_cohort(vs), leader_of(lead))
            for i, v in enumerate(vs):
                assert abs(devs[i] - oracles.angle(v, lead)) <= 1e-9

    def test_degenerate_clients_dropped(self):
        # one angle per usable row: the zero row 1 has none
        devs = deviations_to_leader(matrix_cohort([[1.0, 0.0], [0.0, 0.0], [0.0, 2.0]]), leader_of([1.0, 0.0]))
        assert devs == [0.0, math.pi / 2]


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
    # deviations come one per usable row; survivors are row positions
    def test_everyone_below_half_pi_survives(self):
        devs = [0.1, 1.0, 1.5]
        assert filter_clients(devs, math.pi / 2) == (0, 1, 2)

    def test_zero_threshold_keeps_only_exactly_aligned(self):
        devs = [0.0, 0.01]
        assert filter_clients(devs, 0.0) == (0,)

    def test_hand_case_keeps_single_survivor(self):
        devs = [0.2, 0.6, 1.0]
        th = adaptive_threshold(devs, eta=1.0)
        assert filter_clients(devs, th) == (0,)

    def test_membership_is_exactly_the_predicate(self, exact_calls):
        # a fixed threshold is compared in float, never exactly
        rng = np.random.default_rng(3)
        for _ in range(200):
            devs = [float(d) for d in rng.uniform(0, math.pi, size=int(rng.integers(1, 8)))]
            th = float(rng.uniform(0, math.pi / 2))
            got = filter_clients(devs, th)
            assert got == tuple(i for i, d in enumerate(devs) if d <= th)
        # the float threshold of [0.1, 0.5] at eta = 1 lies an ulp below 0.1
        assert filter_clients([0.1, 0.5], adaptive_threshold([0.1, 0.5], 1.0)) == ()
        assert exact_calls == []


def adaptive_members(devs, eta):
    return filter_clients(devs, adaptive_threshold(devs, eta), eta)


def fraction_members(devs, eta):
    return tuple(k for k, d in enumerate(devs) if oracles.exact_at_or_below_threshold(d, devs, eta))


@pytest.fixture
def exact_calls(monkeypatch):
    """How often filter_clients builds the exact predicate."""
    calls = []
    real = gda.exactly_kept

    def counted(deviations, eta):
        calls.append(len(deviations))
        return real(deviations, eta)

    monkeypatch.setattr(gda, "exactly_kept", counted)
    return calls


class TestExactMembership:
    """The adaptive threshold's members, as exact arithmetic decides them."""

    def test_nearer_of_two_survives_within_half_pi(self, exact_calls):
        # at eta = 1 the exact threshold of [a, b] is min(a, b); at eta < 1 above it
        rng = np.random.default_rng(11)
        float_drops = 0
        for _ in range(2000):
            devs = [float(d) for d in rng.uniform(0, math.pi, size=2)]
            if rng.random() < 0.2:
                devs[1] = devs[0]  # an exact tie
            near = min(range(2), key=devs.__getitem__)
            for eta in (0.0, 0.5, 1.0):
                kept = adaptive_members(devs, eta)
                assert (near in kept) == (devs[near] <= math.pi / 2)
            float_drops += devs[near] <= math.pi / 2 and adaptive_threshold(devs, 1.0) < devs[near]
        assert float_drops > 100  # pairs the float comparison alone would leave without a survivor
        assert adaptive_members([0.1, 0.5], 1.0) == (0,)
        assert exact_calls

    def test_matches_a_fraction_reference(self):
        rng = np.random.default_rng(12)
        for _ in range(400):
            devs = [float(d) for d in rng.uniform(0, math.pi, size=int(rng.integers(1, 13)))]
            for eta in (0.0, 0.5, 1.0, 2.0):
                assert adaptive_members(devs, eta) == fraction_members(devs, eta)

    def test_matches_a_fraction_reference_on_ties(self, exact_calls):
        # lists with a deviation at, or an ulp from, their exact threshold
        cases = [([0.25, 0.75, 1.25], 0.0), ([0.5] * 5, 2.0), ([0.3, 1.1, 1.1, 1.1, 1.1], 2.0),
                 ([math.pi / 2] * 3, 1.0), ([0.0, 0.0], 1.0), ([0.4, 1.3], 1.0)]
        rng = np.random.default_rng(13)
        for _ in range(200):
            devs = [float(d) for d in rng.uniform(0, math.pi / 2, size=int(rng.integers(2, 9)))]
            eta = float(rng.choice([0.0, 0.5, 1.0, 2.0]))
            for _ in range(60):  # move devs[0] onto the threshold it sets with the others
                devs[0] = adaptive_threshold(devs, eta)
            cases += [([math.nextafter(devs[0], to), *devs[1:]], eta) for to in (0.0, math.pi)]
            cases.append((devs, eta))
        for devs, eta in cases:
            assert adaptive_members(devs, eta) == fraction_members(devs, eta)
        assert len(exact_calls) > 0.9 * len(cases)

    def test_band_covers_the_float_threshold(self):
        rng = np.random.default_rng(14)
        for _ in range(500):
            devs = [float(d) for d in rng.uniform(0, math.pi, size=int(rng.integers(1, 101)))]
            eta = float(rng.choice([0.0, 0.5, 1.0, 2.0, rng.uniform(0, 10)]))
            th, band = adaptive_threshold(devs, eta), gda.threshold_band(len(devs), eta)
            assert oracles.exact_at_or_below_threshold(th - band, devs, eta)
            assert not oracles.exact_at_or_below_threshold(th + band, devs, eta)

    def test_random_deviations_never_take_the_exact_path(self, exact_calls):
        rng = np.random.default_rng(15)
        for _ in range(50):
            devs = [float(d) for d in rng.uniform(0, math.pi, size=100)]
            assert adaptive_members(devs, 1.0) == tuple(
                k for k, d in enumerate(devs) if d <= adaptive_threshold(devs, 1.0)
            )
        assert exact_calls == []


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

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bits_equal_linalg_norm_form(self, dtype):
        rng = np.random.default_rng(21)
        for dim in (1, 2, 7, 264, 1000):
            for _ in range(20):
                g, lead = (rng.normal(size=(2, dim)) * rng.uniform(1e-3, 10.0, (2, 1))).astype(dtype)
                lam_g = float(rng.uniform(0.0, 2.0))
                out = alignment_correction(g, lead, lam_g)
                want = oracles.alignment_correction(g, lead, lam_g)
                assert out.dtype == dtype and (out == want).all()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_block_equals_one_vector_calls(self, dtype):
        rng = np.random.default_rng(23)
        for size in (1, 2, 5, 17):
            for dim in (2, 7, 264):
                block = (rng.normal(size=(size, dim)) * rng.uniform(1e-3, 10.0, (size, 1))).astype(dtype)
                before = block.copy()
                lead = rng.normal(size=dim).astype(dtype)
                lam_g = rng.uniform(0.0, 2.0, size=size).tolist()
                want = np.stack([alignment_correction(g, lead, lam) for g, lam in zip(block, lam_g)])
                out = alignment_correction(block, lead, lam_g)
                assert out.dtype == dtype and (out == want).all()
                assert (block == before).all()
                # the leader as the engine passes it: float64
                assert (alignment_correction(block, lead.astype(np.float64), lam_g) == want).all()
                # one strength for every row
                want = np.stack([alignment_correction(g, lead, 0.4) for g in block])
                assert (alignment_correction(block, lead, 0.4) == want).all()

    def test_preserves_dtype(self):
        g = np.array([1.0, 0.0], dtype=np.float32)
        out = alignment_correction(g, np.array([0.0, 1.0], dtype=np.float32), 0.5)
        assert out.dtype == np.float32


class TestGlobalLoss:
    """run_gda's global_loss: its survivors' regularized losses summed, as a float."""

    @staticmethod
    def outcome(losses, kept):
        # kept clients lie on the leader, the rest opposite it; lam 0 leaves each loss as it is
        vectors = [GradientVector(i, 1, np.array([1.0, 0.0] if i in kept else [-1.0, 0.0])) for i in losses]
        cfg = GdaConfig(lam=0.0, threshold_override=math.pi / 4)
        return run_gda(vectors, losses, leader_of([1.0, 0.0]), cfg)

    def test_singleton(self):
        out = self.outcome({3: 1.25}, (3,))
        assert out.survivors == (3,)
        assert out.global_loss == 1.25

    def test_two_clients(self):
        out = self.outcome({0: 1.0, 1: 2.5}, (0, 1))
        assert out.survivors == (0, 1)
        assert out.global_loss == 3.5

    def test_matches_sum_oracle_fuzz(self):
        # the engine's losses are np.float64; the outcome holds a plain float
        rng = np.random.default_rng(6)
        for _ in range(100):
            losses = {i: np.float64(rng.uniform(0, 5)) for i in range(int(rng.integers(1, 9)))}
            picked = rng.choice(list(losses), size=int(rng.integers(1, len(losses) + 1)), replace=False)
            ids = tuple(sorted(int(i) for i in picked))
            out = self.outcome(losses, ids)
            assert out.survivors == ids
            assert type(out.global_loss) is float
            assert abs(out.global_loss - sum(losses[i] for i in ids)) <= 1e-12


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
        # the engine and the oracle sum their angles in different orders,
        # so there an ulp of angle can flip membership (for two clients at
        # eta=1 the threshold IS the smaller deviation)
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

    def test_fuzz_survivors_are_the_exact_members_of_the_engines_deviations(self):
        # run_gda on random 2- to 6-client float32 cohorts, as a round builds
        # them, a fifth with a copied client (a tie), against the exact
        # predicate on its own deviations_to_leader output; no draw is
        # skipped, so the 2-client draws, whose exact threshold at eta = 1 is
        # the nearer deviation, count as well
        rng = np.random.default_rng(16)
        pairs = 0
        for _ in range(600):
            size, dim = int(rng.integers(2, 7)), int(rng.integers(3, 9))
            g = rng.normal(size=(size, dim)).astype(np.float32)
            if rng.random() < 0.2:
                g[-1] = g[0]
            eta = float(rng.choice([0.5, 1.0, 1.0, 2.0]))
            cohort, leader = Cohort(range(size), g, 1), leader_of(rng.normal(size=dim))
            devs = deviations_to_leader(cohort, leader)
            want = tuple(k for k, d in enumerate(devs) if oracles.exact_at_or_below_threshold(d, devs, eta))
            assert run_gda(cohort, np.ones(size), leader, GdaConfig(eta=eta)).survivors == want
            pairs += size == 2
        assert pairs > 100

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

    def test_lambda_zero_leaves_every_survivor_row_its_gradient(self):
        # lambda_g = 0 makes the shift a signed zero: each float32 corrected
        # row is its gradient, bit for bit
        rng = np.random.default_rng(8)
        for size in range(2, 7):
            values = rng.normal(size=(size, 5)).astype(np.float32)
            leader = leader_of(values.astype(np.float64).mean(axis=0))
            out = run_gda(Cohort(range(size), values, 1), np.ones(size), leader, GdaConfig(eta=0.0, lam=0.0))
            assert out.survivors and out.corrected_rows.dtype == np.float32
            assert out.corrected_rows.tobytes() == values[list(out.survivors)].tobytes()

    def test_random_survivors_preserve_count(self):
        # given a generator, GDA draws as many survivors as the threshold keeps
        rng = np.random.default_rng(9)
        vs = [list(rng.normal(size=4)) for _ in range(6)]
        losses = {i: 1.0 for i in range(6)}
        lead = list(np.mean(vs, axis=0))
        base = run_gda(cohort_of(vs), losses, leader_of(lead), GdaConfig())
        rand = run_gda(cohort_of(vs), losses, leader_of(lead), GdaConfig(), rng=np.random.default_rng(1))
        assert len(rand.survivors) == len(base.survivors)
        drawn = np.random.default_rng(1).choice(6, size=len(base.survivors), replace=False)
        assert rand.survivors == tuple(sorted(drawn.tolist()))
        assert rand.threshold == base.threshold
