"""Leader gradient identification: scoring, ratio adaptation, selection."""

import math

import numpy as np
import pytest

import oracles
from gapsl.errors import ConfigError, CoordinationSkipped
from gapsl.geometry import Cohort, GradientVector, left_sum
from gapsl.lgi import (
    LgiConfig,
    LgiState,
    ScoreSet,
    consistency_scores,
    leader_gradient,
    run_lgi,
    select_consistent,
    selection_ratio,
)


def cohort_of(vectors, round_t=1):
    return [GradientVector(i, round_t, np.asarray(v, dtype=np.float64)) for i, v in enumerate(vectors)]


def matrix_cohort(vectors):
    """The prepared cohort of ``vectors``, built from their matrix as a round builds it."""
    return Cohort(range(len(vectors)), np.asarray(vectors, dtype=np.float64), 1)


class TestConsistencyScores:
    def test_identical_gradients_score_zero(self):
        cohort = matrix_cohort([[1.0, 2.0]] * 3)
        scores = consistency_scores(cohort)
        assert all(s == 0.0 for s in scores.scores.values())

    def test_hand_computed_three_client_cohort(self):
        s = 1 / math.sqrt(2)
        cohort = matrix_cohort([[1.0, 0.0], [0.0, 1.0], [s, s]])
        scores = consistency_scores(cohort).scores
        assert abs(scores[0] - 3 * math.pi / 8) < 1e-12
        assert abs(scores[1] - 3 * math.pi / 8) < 1e-12
        assert abs(scores[2] - math.pi / 4) < 1e-12

    def test_fuzz_matches_double_loop_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            size = int(rng.integers(2, 7))
            vectors = {i: list(rng.normal(size=4)) for i in range(size)}
            cohort = matrix_cohort(list(vectors.values()))
            got = consistency_scores(cohort).scores
            ref = oracles.lgi_reference(vectors, None, None, 1, 10, 20, 80)["scores"]
            assert all(abs(got[i] - ref[i]) <= 1e-9 for i in vectors)

    def test_degenerate_clients_excluded(self):
        cohort = matrix_cohort([[1.0, 0.0], [0.0, 0.0], [0.0, 1.0]])
        scores = consistency_scores(cohort)
        assert set(scores.scores) == {0, 2}
        # remaining pair scores against each other only
        assert abs(scores.scores[0] - math.pi / 2) < 1e-12

    def test_fewer_than_two_usable_skips_coordination(self):
        with pytest.raises(CoordinationSkipped):
            consistency_scores(matrix_cohort([[0.0, 0.0], [1.0, 0.0]]))


class TestSelectionRatio:
    def test_final_round_most_stable_hits_k_max(self):
        cfg = LgiConfig(total_rounds=10, k_min=20, k_max=80)
        state = LgiState(nu_min=0.1, nu_max=0.5, round=10)
        # nu == historic minimum -> stability 1, t == T -> time factor 1
        k = selection_ratio(state, cfg, ScoreSet(10, {0: 1.0, 1: 1.2}))
        # scores {1.0, 1.2} -> nu = 0.1 == nu_min
        assert abs(k - 80.0) < 1e-12

    def test_most_volatile_round_pins_k_min(self):
        cfg = LgiConfig(total_rounds=10, k_min=20, k_max=80)
        state = LgiState(nu_min=0.0, nu_max=0.1, round=7)
        k = selection_ratio(state, cfg, ScoreSet(7, {0: 1.0, 1: 1.2}))  # nu = 0.1 = nu_max
        assert abs(k - 20.0) < 1e-12

    def test_direct_substitution_example(self):
        # k_min 20, k_max 80, t/T = 0.5, stability 0.5 -> 20 + 0.25*60 = 35
        cfg = LgiConfig(total_rounds=10, k_min=20, k_max=80)
        state = LgiState(nu_min=0.0, nu_max=0.2, round=5)
        k = selection_ratio(state, cfg, ScoreSet(5, {0: 1.0, 1: 1.2}))  # nu = 0.1, stability 0.5
        assert abs(k - 35.0) < 1e-12

    def test_extremes_updated_before_ratio(self):
        cfg = LgiConfig(total_rounds=4, k_min=20, k_max=80)
        state = LgiState(round=1)
        # first round: extremes adopt nu, degenerate span -> temporal schedule
        k = selection_ratio(state, cfg, ScoreSet(1, {0: 0.5, 1: 1.5}))
        assert abs(k - (20 + 0.25 * 60)) < 1e-12
        assert state.nu_min == state.nu_max == 0.5

    def test_extremes_monotone_over_stream(self):
        cfg = LgiConfig(total_rounds=50, k_min=20, k_max=80)
        state = LgiState()
        rng = np.random.default_rng(1)
        prev_min, prev_max = math.inf, -math.inf
        for t in range(1, 51):
            state.round = t
            scores = {i: float(rng.uniform(0, math.pi)) for i in range(5)}
            k = selection_ratio(state, cfg, ScoreSet(t, scores))
            assert 20.0 <= k <= 80.0
            assert state.nu_min <= prev_min + 1e-15
            assert state.nu_max >= prev_max - 1e-15
            prev_min, prev_max = state.nu_min, state.nu_max


def ranked(scores, count):
    """The ids of the ``count`` smallest scores, ascending; ties go to the smaller id."""
    return tuple(sorted(sorted(scores.scores, key=lambda i: (scores.scores[i], i))[:count]))


class TestDegenerateTrend:
    """A cohort whose usable gradients cancel has no trend to follow:
    ``select_consistent`` keeps the smallest scores."""

    @staticmethod
    def cancelling(n):
        # integer rows, the last one minus the sum of the rest: the sum is exactly zero
        vs = [[i + 1, i * i % 5 + 1] for i in range(n - 1)]
        cohort = matrix_cohort([*vs, [-sum(col) for col in zip(*vs)]])
        assert not np.add.reduce(cohort.stack, axis=0).any()
        return cohort

    def test_k_100_selects_everyone(self):
        scores = ScoreSet(1, {0: 0.3, 1: 0.1, 2: 0.2})
        assert select_consistent(self.cancelling(3), scores, 100.0) == (0, 1, 2)

    def test_hand_case_selects_most_consistent(self):
        scores = ScoreSet(1, {0: 3 * math.pi / 8, 1: 3 * math.pi / 8, 2: math.pi / 4})
        assert select_consistent(self.cancelling(3), scores, 30.0) == (2,)  # ceil(0.9) = 1

    def test_tie_breaks_by_client_id(self):
        scores = ScoreSet(1, {0: 0.5, 1: 0.5, 2: 0.5})
        assert select_consistent(self.cancelling(3), scores, 20.0) == (0,)
        scores = ScoreSet(1, {0: 0.7, 1: 0.5, 2: 0.6, 3: 0.5})
        assert select_consistent(self.cancelling(4), scores, 50.0) == (1, 3)
        assert select_consistent(self.cancelling(4), scores, 25.0) == (1,)

    def test_ceiling_count(self):
        scores = ScoreSet(1, {i: float(9 - i) for i in range(10)})
        assert select_consistent(self.cancelling(10), scores, 35.0) == (6, 7, 8, 9)  # ceil(3.5)
        assert select_consistent(self.cancelling(10), scores, 20.0) == (8, 9)

    def test_floor_of_one(self):
        scores = ScoreSet(1, {0: 0.6, 1: 0.5})
        assert select_consistent(self.cancelling(2), scores, 1.0) == (1,)


class TestSelectConsistent:
    def test_keeps_a_least_consistent_client_the_trend_needs(self):
        # three small gradients along x, two large ones along y: ranking keeps
        # the x cluster only, the set keeps one y gradient so the leader
        # follows the cohort's sum
        vs = [[1.0, 0.1], [1.0, 0.0], [1.0, -0.1], [0.2, 5.0], [-0.2, 5.0]]
        cohort = matrix_cohort(vs)
        scores = consistency_scores(cohort)
        assert ranked(scores, 3) == (0, 1, 2)
        assert select_consistent(cohort, scores, 60.0) == (0, 1, 4)
        trend = list(np.sum(vs, axis=0))
        by_rank = list(leader_gradient(cohort, (0, 1, 2)).values)
        by_set = list(leader_gradient(cohort, (0, 1, 4)).values)
        assert oracles.angle(by_set, trend) < oracles.angle(by_rank, trend)

    def test_opposed_client_is_dropped_first(self):
        # two agreeing gradients and a larger one pointing against them
        cohort = matrix_cohort([[1.0, 0.2], [1.0, -0.2], [-1.5, 0.1]])
        scores = consistency_scores(cohort)
        assert select_consistent(cohort, scores, 60.0) == (0, 1)

    def test_cancelling_cohort_falls_back_to_ranking(self):
        cohort = matrix_cohort([[1.0, 0.0], [-1.0, 0.0], [0.0, 2.0], [0.0, -2.0], [0.5, 0.5], [-0.5, -0.5]])
        scores = consistency_scores(cohort)
        assert select_consistent(cohort, scores, 50.0) == ranked(scores, 3)

    def test_tail_search_matches_testing_every_kept_row(self):
        # cohorts of 3 to 120 clients, some rows duplicated, each under its
        # own scores; under scores rounded onto a coarse grid (equal scores,
        # several rows tied at worst); under scores where only the rows
        # tied at worst clear the bar, low everywhere else, so that dropping
        # any other row would leave a mean above the cohort's; and under
        # one score for every row, where for some n rounding sets the bar
        # below every row and only the rule that worst may always go drops.
        # Each score set is built from its scores alone, as the gates build it
        rng = np.random.default_rng(25)
        shut = 0
        for n in (*range(3, 41), *range(44, 121, 4)):
            vs = rng.normal(size=(n, 12)) + rng.normal(size=12)
            vs[rng.integers(0, n, size=n // 3)] = vs[rng.integers(0, n, size=n // 3)]
            cohort = matrix_cohort(vs)
            own_set = consistency_scores(cohort)
            own = own_set.by_row
            worst = rng.choice(n, size=int(rng.integers(1, max(2, n // 4))), replace=False)
            only_worst = [3.0 if r in worst else 1.0 for r in range(n)]
            tied = [1.3] * n
            shut += (left_sum(tied) - 1.3) / (n - 1) > left_sum(tied) / n
            for by_row in (own, [round(s, 1) for s in own], only_worst, tied):
                scores = ScoreSet(1, dict(zip(cohort.usable, by_row)))
                for k_percent in (20.0, 60.0, float(rng.uniform(1.0, 99.0))):
                    got = select_consistent(cohort, scores, k_percent)
                    assert got == oracles.select_consistent(cohort, scores, k_percent), (n, k_percent)
                    if by_row is own:  # an equal set, whatever order its dict was filled in
                        reversed_set = ScoreSet(1, dict(reversed(own_set.scores.items())))
                        for same in (own_set, reversed_set):
                            assert got == select_consistent(cohort, same, k_percent), (n, k_percent)
            # at n - 1 clients only one drop is made, and the bar lets only the worst go
            worst_set = ScoreSet(1, dict(zip(cohort.usable, only_worst)))
            kept = select_consistent(cohort, worst_set, 100.0 * (n - 1.5) / n)
            assert len(kept) == n - 1 and set(range(n)) - set(kept) <= set(worst.tolist())
        assert shut


class TestLeaderGradient:
    def test_single_selection_returns_it_exactly(self):
        cohort = matrix_cohort([[1.0, 2.0], [5.0, 6.0]])
        leader = leader_gradient(cohort, (1,))
        assert np.array_equal(leader.values, [5.0, 6.0])

    def test_mean_of_two(self):
        cohort = matrix_cohort([[1.0, 0.0], [0.0, 1.0]])
        leader = leader_gradient(cohort, (0, 1))
        assert np.allclose(leader.values, [0.5, 0.5])

    def test_full_selection_is_global_mean(self):
        rng = np.random.default_rng(2)
        vs = [rng.normal(size=6) for _ in range(5)]
        leader = leader_gradient(matrix_cohort(vs), tuple(range(5)))
        assert np.max(np.abs(leader.values - np.mean(vs, axis=0))) <= 1e-9

    def test_bits_equal_ndarray_mean(self):
        rng = np.random.default_rng(22)
        for n in (1, 3, 10, 100):
            values = rng.normal(size=(n, 264)).astype(np.float32)
            cohort = Cohort(range(n), values, 1)
            for size in sorted({1, (n + 1) // 2, n}):
                selected = tuple(sorted(rng.choice(n, size=size, replace=False).tolist()))
                leader = leader_gradient(cohort, selected)
                want = values[list(selected)].mean(axis=0)
                assert leader.values.dtype == np.float32 and (leader.values == want).all()

    def test_cancelling_selection_skips(self):
        # a zero mean has no direction for the alignment stage to follow
        cohort = matrix_cohort([[1.0, -2.0], [-1.0, 2.0], [0.0, 1.0]])
        with pytest.raises(CoordinationSkipped, match="leader gradient is degenerate"):
            leader_gradient(cohort, (0, 1))


class TestRunLgi:
    def test_identical_two_client_cohort_temporal_schedule(self):
        cfg = LgiConfig(total_rounds=10, k_min=20, k_max=80)
        state = LgiState()
        cohort = cohort_of([[1.0, 1.0], [1.0, 1.0]], round_t=4)
        out = run_lgi(cohort, state, cfg, round_t=4)
        assert np.array_equal(out.leader.values, [1.0, 1.0])
        assert abs(out.k_percent - (20 + 0.4 * 60)) < 1e-12

    def test_fuzz_matches_independent_reimplementation(self):
        # dim >= 3: in the plane, angle sums around the circle can tie two
        # scores exactly, and the id tie-break then hinges on float noise
        rng = np.random.default_rng(3)
        cfg = LgiConfig(total_rounds=20, k_min=20, k_max=80)
        for _ in range(150):
            state = LgiState(
                nu_min=None if rng.random() < 0.3 else float(rng.uniform(0, 0.2)),
                nu_max=None,
            )
            if state.nu_min is not None:
                state.nu_max = state.nu_min + float(rng.uniform(0, 0.4))
            size = int(rng.integers(2, 7))
            dim = int(rng.integers(3, 9))
            t = int(rng.integers(1, 21))
            vectors = {i: list(rng.normal(size=dim)) for i in range(size)}
            ref = oracles.lgi_reference(vectors, state.nu_min, state.nu_max, t, 20, 20, 80)
            out = run_lgi(cohort_of(list(vectors.values()), round_t=t), state, cfg, round_t=t)
            assert all(abs(out.scores.scores[i] - ref["scores"][i]) <= 1e-9 for i in vectors)
            assert abs(out.k_percent - ref["k"]) <= 1e-9
            assert list(out.selected) == ref["selected"]
            assert np.max(np.abs(out.leader.values - np.array(ref["leader"]))) <= 1e-9
            assert abs(state.nu_min - ref["nu_min"]) <= 1e-12
            assert abs(state.nu_max - ref["nu_max"]) <= 1e-12

    def test_constant_cohort_k_strictly_increasing_in_t(self):
        cfg = LgiConfig(total_rounds=30, k_min=20, k_max=80)
        state = LgiState()
        rng = np.random.default_rng(4)
        vs = [list(rng.normal(size=5)) for _ in range(4)]
        ks = [run_lgi(cohort_of(vs, t), state, cfg, round_t=t).k_percent for t in range(1, 31)]
        assert all(a < b for a, b in zip(ks, ks[1:]))

    def test_selection_boundary_scores_ordered(self):
        # the boundary follows the order in which clients are dropped: a
        # larger ratio only keeps more of them, and every selection is on
        # average at least as consistent as the cohort (mean score no higher)
        rng = np.random.default_rng(5)
        for _ in range(100):
            size = int(rng.integers(3, 8))
            vs = [rng.normal(size=4) for _ in range(size)]
            previous: tuple[int, ...] = ()
            for k in (1.0, 30.0, 60.0, 90.0, 100.0):
                cfg = LgiConfig(total_rounds=10, k_min=k, k_max=k)
                out = run_lgi(cohort_of(vs, 3), LgiState(), cfg, round_t=3)
                scores = out.scores.scores
                assert len(out.selected) == math.ceil(k * size / 100)
                assert set(previous) <= set(out.selected)
                assert np.mean([scores[i] for i in out.selected]) <= np.mean(list(scores.values())) + 1e-12
                previous = out.selected

    def test_leader_permutation_invariance(self):
        rng = np.random.default_rng(6)
        vs = [rng.normal(size=5) for _ in range(5)]
        cohort = cohort_of(vs, 2)
        cfg = LgiConfig(total_rounds=10)
        out_a = run_lgi(cohort, LgiState(), cfg, round_t=2)
        shuffled = [cohort[i] for i in (3, 1, 4, 0, 2)]
        out_b = run_lgi(shuffled, LgiState(), cfg, round_t=2)
        assert out_a.selected == out_b.selected
        assert np.array_equal(out_a.leader.values, out_b.leader.values)

    def test_selection_scale_invariance(self):
        rng = np.random.default_rng(7)
        vs = [rng.normal(size=6) for _ in range(5)]
        cfg = LgiConfig(total_rounds=10)
        out_a = run_lgi(cohort_of(vs, 3), LgiState(), cfg, round_t=3)
        out_b = run_lgi(cohort_of([v * 37.5 for v in vs], 3), LgiState(), cfg, round_t=3)
        assert out_a.selected == out_b.selected
        assert abs(out_a.k_percent - out_b.k_percent) <= 1e-9
        assert all(
            abs(out_a.scores.scores[i] - out_b.scores.scores[i]) <= 1e-9 for i in range(5)
        )

    def test_k_forced_100_selects_every_usable_client(self):
        # the non-LGI arm: the leader is the mean of every usable client
        rng = np.random.default_rng(8)
        vs = [rng.normal(size=4) for _ in range(5)]
        vs[2] = np.zeros(4)
        cfg_100 = LgiConfig(total_rounds=10, k_min=100, k_max=100)
        out = run_lgi(cohort_of(vs, 1), LgiState(), cfg_100, round_t=1)
        assert out.selected == (0, 1, 3, 4) and out.k_percent == 100.0
        usable = np.stack([vs[i] for i in out.selected])
        assert np.array_equal(out.leader.values, np.add.reduce(usable, axis=0) / 4)

    def test_random_selection_uses_adaptive_count(self):
        # given a generator, LGI draws the adaptive count of clients from it
        rng = np.random.default_rng(9)
        vs = [rng.normal(size=4) for _ in range(6)]
        cfg = LgiConfig(total_rounds=10, k_min=50, k_max=50)
        out = run_lgi(cohort_of(vs, 1), LgiState(), cfg, round_t=1, rng=np.random.default_rng(0))
        assert len(out.selected) == 3  # ceil(50% of 6)
        assert out.selected == tuple(sorted(np.random.default_rng(0).choice(6, size=3, replace=False).tolist()))

    def test_mismatched_lengths_rejected(self):
        cohort = [GradientVector(0, 1, np.ones(3)), GradientVector(1, 1, np.ones(4))]
        with pytest.raises(ConfigError):
            run_lgi(cohort, LgiState(), LgiConfig(total_rounds=5), round_t=1)
