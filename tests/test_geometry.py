"""Gradient geometry: flattening, angles, pairwise stats."""

import math

import numpy as np
import pytest

import oracles
from gapsl.errors import DegenerateGradientError
from gapsl.gda import deviations_to_leader
from gapsl.geometry import (
    EPS_NORM,
    GradientVector,
    angular_deviation,
    flatten,
    mean_std,
    pairwise_mean_deviation,
    unflatten,
)
from gapsl.lgi import consistency_scores
from gapsl.nn import ModelSpec, param_count, params_arrays, split_model


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
        assert vec.size == param_count(model.client) == 112

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
    """The per-round cast-and-square must not move a single bit of any angle."""

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

            cohort = [GradientVector(i, 1, v) for i, v in enumerate(vs)]
            scores = {}
            for i, a in usable:
                total = 0.0
                for j, b in usable:
                    if j != i:
                        total += angular_deviation(a, b)
                scores[i] = total / (len(usable) - 1)
            assert consistency_scores(cohort).scores == scores

            leader = GradientVector(-1, 1, lead)
            assert deviations_to_leader(cohort, leader) == {
                i: angular_deviation(v, lead) for i, v in usable
            }


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
