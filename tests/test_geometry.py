"""Gradient geometry: the flat layout, angles, pairwise stats."""

import math
import tracemalloc

import numpy as np
import pytest

import oracles
from gapsl.errors import DegenerateGradientError
from gapsl.gda import deviations_to_leader
from gapsl.geometry import (
    EPS_NORM,
    Cohort,
    GradientVector,
    angular_deviation,
    mean_std,
    pairwise_mean_deviation,
    prepared,
)
from gapsl.lgi import consistency_scores, leader_gradient, select_consistent
from gapsl.nn import ModelSpec, split_model
from oracles import flatten, params_arrays, unflatten


def edge_cohort(rng, dtype, size=6, dim=7):
    """Random gradients plus a zero one and ones with norm at, just above
    and just below EPS_NORM, in ``dtype``."""
    vs = [rng.normal(size=dim) for _ in range(size)]
    unit = rng.normal(size=dim)
    unit /= np.linalg.norm(unit)
    vs.insert(1, np.zeros(dim))
    vs.insert(3, unit * EPS_NORM * 1.0001)
    vs.append(unit * EPS_NORM)
    vs.append(unit * EPS_NORM * 0.9999)
    return [v.astype(dtype) for v in vs]


class TestFlatten:
    def test_row_major_weight_then_bias(self):
        w = np.array([[1.0, 2.0], [3.0, 4.0]])
        b = np.array([5.0, 6.0])
        assert np.array_equal(flatten([w, b]), np.array([1, 2, 3, 4, 5, 6], dtype=float))

    def test_round_trip(self):
        rng = np.random.default_rng(0)
        arrays = [rng.normal(size=(3, 4)), rng.normal(size=4), rng.normal(size=(4, 2))]
        vec = flatten(arrays)
        back = unflatten(vec, [a.shape for a in arrays])
        assert all(np.array_equal(a, b) for a, b in zip(arrays, back))
        assert np.array_equal(flatten(back), vec)

    def test_length_matches_parameter_count(self):
        model = split_model(ModelSpec((4, 8, 8, 3)), 2, seed=0)
        vec = flatten(params_arrays(model.client))
        assert vec.size == oracles.param_count(model.client) == 112

    def test_each_part_vector_holds_the_flatten_order(self):
        # a part's flat vector, and so each row of a round's gradient
        # matrix, is its tensors flattened layer by layer, weights then bias
        model = split_model(ModelSpec((4, 8, 8, 3)), 2, seed=0)
        model.params[...] = np.arange(model.params.size)  # distinct entries
        for part, vec in ((model.client, model.client_params), (model.server, model.server_params)):
            assert np.array_equal(flatten(params_arrays(part)), vec)
        assert np.array_equal(flatten(params_arrays(model.client + model.server)), model.params)

    def test_empty_list_rejected(self):
        with pytest.raises(ValueError):
            flatten([])

    def test_unflatten_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            unflatten(np.zeros(5), [(2, 2)])


class TestAngularDeviation:
    def test_scale_invariance_gives_zero(self):
        g = np.array([1.0, 2.0, -3.0])
        assert angular_deviation(g, 2 * g) == 0.0

    def test_orthogonal_vectors(self):
        assert abs(angular_deviation(np.array([1.0, 0.0]), np.array([0.0, 1.0])) - math.pi / 2) < 1e-12

    def test_opposite_vectors(self):
        assert abs(angular_deviation(np.array([1.0, 0.0]), np.array([-1.0, 0.0])) - math.pi) < 1e-12

    def test_symmetry_and_positive_scaling_invariance(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            a = rng.normal(size=6)
            b = rng.normal(size=6)
            s = float(rng.uniform(0.1, 100))
            assert angular_deviation(a, b) == angular_deviation(b, a)
            assert abs(angular_deviation(s * a, b) - angular_deviation(a, b)) <= 1e-9

    def test_near_parallel_clamp_never_nan(self):
        # vectors whose raw cosine rounds above 1
        a = np.array([1.0, 1e-16])
        b = np.array([1.0, 0.0])
        theta = angular_deviation(a, b)
        assert math.isfinite(theta) and 0 <= theta <= math.pi
        c = np.full(1000, 0.1)
        assert angular_deviation(c, c * 3.0) == 0.0

    def test_zero_norm_is_degenerate(self):
        with pytest.raises(DegenerateGradientError):
            angular_deviation(np.zeros(3), np.ones(3))


class TestPairwiseMeanDeviation:
    def test_identical_vectors_give_zero(self):
        g = np.array([1.0, -2.0, 0.5])
        assert pairwise_mean_deviation([g, g.copy(), g * 2]) == 0.0

    def test_three_orthogonal_unit_vectors(self):
        vs = [np.eye(3)[i] for i in range(3)]
        assert abs(pairwise_mean_deviation(vs) - math.pi / 2) < 1e-12

    def test_matches_naive_pair_loop(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            vs = [rng.normal(size=5) for _ in range(5)]
            got = pairwise_mean_deviation(vs)
            want = oracles.pairwise_mean_angle([list(v) for v in vs])
            assert abs(got - want) <= 1e-9

    def test_degenerate_vectors_excluded(self):
        a, b = np.array([1.0, 0.0]), np.array([0.0, 1.0])
        assert abs(pairwise_mean_deviation([a, np.zeros(2), b]) - math.pi / 2) < 1e-12

    def test_unavailable_with_fewer_than_two_usable(self):
        assert pairwise_mean_deviation([np.zeros(2), np.ones(2)]) is None
        assert pairwise_mean_deviation([np.ones(2)]) is None


class TestPreparedCohort:
    """At width 7, and a handful of rows, the Gram's gemm sums each dot
    product in the order a per-pair dot product does, so the cohort's
    angles equal plain per-pair loops bit for bit. Wider rows part ways by
    ulps (:class:`TestGramPath`)."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_equals_plain_angle_loops_on_raw_arrays(self, dtype):
        rng = np.random.default_rng(7)
        for _ in range(20):
            vs = edge_cohort(rng, dtype)
            lead = rng.normal(size=vs[0].size).astype(dtype)
            usable = [
                (i, v) for i, v in enumerate(vs) if np.linalg.norm(v.astype(np.float64)) > EPS_NORM
            ]

            total = 0.0
            for k, (_, a) in enumerate(usable):
                for _, b in usable[k + 1 :]:
                    total += angular_deviation(a, b)
            pairs = len(usable) * (len(usable) - 1) // 2
            assert pairwise_mean_deviation(vs) == total / pairs

            cohort = prepared(GradientVector(i, 1, v) for i, v in enumerate(vs))
            scores = {}
            for i, a in usable:
                total = 0.0
                for j, b in usable:
                    if j != i:
                        total += angular_deviation(a, b)
                scores[i] = total / (len(usable) - 1)
            assert consistency_scores(cohort).scores == scores

            leader = GradientVector(-1, 1, lead)
            assert deviations_to_leader(cohort, leader) == [angular_deviation(v, lead) for _, v in usable]


class TestMatrixCohort:
    """A round builds its cohort from its gradient matrix; the entry points
    the gates call prepare one from :class:`GradientVector` s. Both must
    give every stage the same numbers."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_matrix_and_prepared_vectors_agree(self, dtype):
        rng = np.random.default_rng(15)
        for _ in range(20):
            vs = edge_cohort(rng, dtype)
            ids = sorted(rng.choice(50, size=len(vs), replace=False).tolist())
            matrix = Cohort(ids, np.stack(vs), 1)
            order = rng.permutation(len(vs))  # prepared() sorts by client id
            listed = prepared(GradientVector(ids[k], 1, vs[k]) for k in order)

            assert listed.ids == matrix.ids == ids
            assert listed.sq == matrix.sq
            assert matrix.usable == [i for i, v in zip(ids, vs) if not GradientVector(i, 1, v).is_degenerate()]
            assert matrix.usable == listed.usable and 2 < len(matrix.usable) < len(ids)
            assert pairwise_mean_deviation(listed) == pairwise_mean_deviation(matrix)
            scores = consistency_scores(matrix)
            assert consistency_scores(listed).scores == scores.scores
            selected = select_consistent(matrix, scores, 50.0)
            assert select_consistent(listed, scores, 50.0) == selected
            assert len(selected) < len(scores.scores)
            leader = leader_gradient(matrix, selected)
            assert np.array_equal(leader_gradient(listed, selected).values, leader.values)
            assert leader.values.dtype == dtype
            assert deviations_to_leader(listed, leader) == deviations_to_leader(matrix, leader)

    def test_all_usable_rows_are_cast_to_float64_once(self):
        # a float32 round matrix whose rows are all usable: its float64 cast
        # is the stack, so building the cohort holds one float64 copy of it,
        # not two; a float64 matrix is its own stack
        rng = np.random.default_rng(16)
        g = rng.normal(size=(4, 20000)).astype(np.float32)
        tracemalloc.start()
        try:
            cohort = Cohort(range(4), g, 1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * g.size * 8
        assert cohort.stack.dtype == np.float64 and np.array_equal(cohort.stack, g)
        g64 = g.astype(np.float64)
        assert np.shares_memory(Cohort(range(4), g64, 1).stack, g64)
        g64[2] = 0.0  # a degenerate row: the usable rows are copied out
        assert not np.shares_memory(Cohort(range(4), g64, 1).stack, g64)


def oracle_angles(rows):
    """Every pairwise angle of ``rows`` by the plain-Python oracle."""
    n = len(rows)
    angles = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            angles[i][j] = angles[j][i] = oracles.angle(rows[i], rows[j])
    return angles


class TestGramPath:
    """Angles read from the cohort's one Gram, at cohort100 shape."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_matches_oracles_within_1e_13(self, dtype):
        rng = np.random.default_rng(11)
        vs = rng.normal(size=(100, 264)).astype(dtype)
        lead = rng.normal(size=264).astype(dtype)
        cohort = Cohort(range(len(vs)), vs, 1)
        rows = vs.tolist()
        angles = oracle_angles(rows)
        n = len(rows)

        assert abs(pairwise_mean_deviation(cohort) - oracles.pairwise_mean_angle(rows)) <= 1e-13
        scores = consistency_scores(cohort).scores
        for i in range(n):
            assert abs(scores[i] - sum(angles[i][j] for j in range(n) if j != i) / (n - 1)) <= 1e-13
        devs = deviations_to_leader(cohort, GradientVector(-1, 1, lead))
        for i in range(n):
            assert abs(devs[i] - oracles.angle(rows[i], lead.tolist())) <= 1e-13

    @pytest.mark.parametrize("power", [-2, 0, 1, 3])
    def test_power_of_two_multiple_at_first_and_last_row(self, power):
        # small-integer rows: every dot product is exact in any summation
        # order, so the Gram's cosine lands on exactly 1.0
        rng = np.random.default_rng(12)
        vs = rng.integers(-8, 9, size=(100, 264)).astype(np.float64)
        vs[-1] = vs[0] * 2.0**power
        cohort = Cohort(range(len(vs)), vs, 1)
        first, last = cohort.stack[0], cohort.stack[-1]
        assert angular_deviation(first, last, cohort.diag[0], cohort.diag[-1], cohort.gram[0, -1]) == 0.0
        devs = deviations_to_leader(cohort, GradientVector(-1, 1, vs[0] * 2.0**-power))
        assert devs[0] == devs[99] == 0.0

        # random rows: BLAS tiles the product, so the cross entry can round
        # an ulp off the diagonal ones, which acos magnifies to ~1e-8 rad
        vs = rng.normal(size=(100, 264))
        vs[-1] = vs[0] * 2.0**power
        cohort = Cohort(range(len(vs)), vs, 1)
        first, last = cohort.stack[0], cohort.stack[-1]
        assert angular_deviation(first, last, cohort.diag[0], cohort.diag[-1], cohort.gram[0, -1]) <= 1e-7
        assert angular_deviation(first, last) == 0.0  # one dot kernel: one order


class TestOracles:
    def test_float32_elements_compute_in_float64(self):
        rng = np.random.default_rng(14)
        a, b = rng.normal(size=(2, 300)).astype(np.float32)
        weights = rng.uniform(1, 9, size=2).astype(np.float32)
        assert oracles.dot(a, b) == oracles.dot(a.tolist(), b.tolist())
        assert oracles.norm(a) == oracles.norm(a.tolist())
        assert oracles.weighted_mean([a, b], weights) == oracles.weighted_mean(
            [a.tolist(), b.tolist()], weights.tolist()
        )


class TestMeanStd:
    def test_singleton(self):
        assert mean_std([3.5]) == (3.5, 0.0)

    def test_two_values(self):
        assert mean_std([0.0, 2.0]) == (1.0, 1.0)

    def test_matches_two_pass_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            vals = list(rng.normal(size=int(rng.integers(1, 12))))
            m, s = mean_std(vals)
            assert abs(m - oracles.mean(vals)) <= 1e-12
            assert abs(s - oracles.pop_std(vals)) <= 1e-12

    def test_bits_equal_numpy_mean_and_std(self):
        rng = np.random.default_rng(17)
        for n in range(1, 131):
            samples = (rng.normal(size=n), rng.uniform(0.0, np.pi, n), np.full(n, 0.7), np.full(n, -3.25))
            for vals in samples:
                assert mean_std(vals.tolist()) == oracles.mean_std(vals), n

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            mean_std([])


class TestGradientVector:
    def test_degeneracy_threshold(self):
        assert GradientVector(0, 1, np.zeros(4)).is_degenerate()
        assert GradientVector(0, 1, np.full(4, 1e-13)).is_degenerate()
        assert not GradientVector(0, 1, np.full(4, 1e-3)).is_degenerate()
        rng = np.random.default_rng(8)
        for dtype in (np.float32, np.float64):
            for v in edge_cohort(rng, dtype):
                g = GradientVector(0, 1, v)
                norm = float(np.linalg.norm(v.astype(np.float64)))
                assert g.norm() == norm
                assert g.is_degenerate() == (norm <= EPS_NORM)
