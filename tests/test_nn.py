"""Neural-network core: exact forward/backward, split execution, SGD."""

import numpy as np
import pytest

import oracles
from gapsl.errors import ConfigError, DataError, NumericError, ProtocolError
from gapsl.geometry import flatten, unflatten
from gapsl.nn import (
    DenseLayer,
    ModelSpec,
    backward_client,
    backward_server,
    forward_client,
    forward_server,
    grads_arrays,
    logits_from_activations,
    param_count,
    params_arrays,
    sgd_state,
    sgd_step,
    split_model,
)


def make_model(dims, cut, seed=0, dtype=np.float64, activation="relu"):
    return split_model(ModelSpec(tuple(dims), activation), cut, seed, dtype=dtype)


def full_forward_loss(model, inputs, labels):
    acts, _ = forward_client(model.client, inputs, model.spec.activation)
    _, mean_loss, _ = forward_server(model.server, acts, labels, model.spec.activation)
    return mean_loss


def flat_params(model):
    return flatten(params_arrays(model.client) + params_arrays(model.server))


def set_flat_params(model, vec):
    arrays = params_arrays(model.client) + params_arrays(model.server)
    for dst, src in zip(arrays, unflatten(vec, [a.shape for a in arrays])):
        dst[...] = src


def evaluate(model, inputs, labels):
    """Classification accuracy of the split model on a test set."""
    if len(labels) == 0:
        raise DataError("empty test set")
    acts, _ = forward_client(model.client, inputs, model.spec.activation)
    logits = logits_from_activations(model.server, acts, model.spec.activation)
    pred = logits.argmax(axis=1)
    return float((pred == labels).sum()) / len(labels)


def analytic_flat_grads(model, inputs, labels):
    acts, ccache = forward_client(model.client, inputs, model.spec.activation)
    _, _, scache = forward_server(model.server, acts, labels, model.spec.activation)
    sgrads, agrads = backward_server(model.server, scache)
    cgrads = backward_client(model.client, ccache, agrads)
    return flatten(grads_arrays(cgrads) + grads_arrays(sgrads))


class TestForwardClient:
    def test_zero_network_zero_activations(self):
        layers = [DenseLayer(np.zeros((3, 4)), np.zeros(4)), DenseLayer(np.zeros((4, 2)), np.zeros(2))]
        acts, _ = forward_client(layers, np.random.default_rng(0).normal(size=(5, 3)), "relu")
        assert np.all(acts == 0)

    def test_relu_identity_on_nonnegative_input(self):
        layers = [DenseLayer(np.eye(4), np.zeros(4))]
        x = np.abs(np.random.default_rng(1).normal(size=(6, 4)))
        acts, _ = forward_client(layers, x, "relu")
        assert np.allclose(acts, x)

    def test_matches_naive_matmul_oracle(self):
        rng = np.random.default_rng(7)
        layers = [DenseLayer(rng.normal(size=(4, 2)), rng.normal(size=2))]
        x = rng.normal(size=(3, 4))
        acts, _ = forward_client(layers, x, "relu")
        for r in range(3):
            for c in range(2):
                z = sum(x[r, k] * layers[0].w[k, c] for k in range(4)) + layers[0].b[c]
                assert abs(acts[r, c] - max(z, 0.0)) < 1e-6

    def test_shape_mismatch_is_config_error(self):
        layers = [DenseLayer(np.zeros((3, 4)), np.zeros(4))]
        with pytest.raises(ConfigError):
            forward_client(layers, np.zeros((2, 5)), "relu")


class TestForwardServer:
    def test_uniform_logits_loss_is_log_c(self):
        layers = [DenseLayer(np.zeros((4, 5)), np.zeros(5))]
        per_ex, mean_loss, _ = forward_server(layers, np.ones((3, 4)), np.array([0, 2, 4]))
        assert np.allclose(per_ex, np.log(5))
        assert abs(mean_loss - np.log(5)) < 1e-12

    def test_saturated_correct_logits_loss_vanishes(self):
        # logit margin of 50 in favor of the true class
        layers = [DenseLayer(np.zeros((2, 3)), np.array([50.0, 0.0, 0.0]))]
        per_ex, mean_loss, _ = forward_server(layers, np.zeros((4, 2)), np.zeros(4, dtype=int))
        assert mean_loss < 1e-6

    def test_matches_independent_softmax_ce_oracle(self):
        rng = np.random.default_rng(3)
        layers = [DenseLayer(rng.normal(size=(4, 6)), rng.normal(size=6)),
                  DenseLayer(rng.normal(size=(6, 3)), rng.normal(size=3))]
        acts = rng.normal(size=(5, 4))
        labels = rng.integers(0, 3, size=5)
        per_ex, mean_loss, cache = forward_server(layers, acts, labels)
        h = np.maximum(acts @ layers[0].w + layers[0].b, 0)
        logits = h @ layers[1].w + layers[1].b
        expected = [oracles.softmax_ce(list(logits[r]), int(labels[r])) for r in range(5)]
        assert np.allclose(per_ex, expected, atol=1e-6)
        assert abs(mean_loss - np.mean(expected)) < 1e-6

    def test_softmax_rows_sum_to_one_and_loss_nonnegative(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            layers = [DenseLayer(rng.normal(size=(3, 4)), rng.normal(size=4))]
            per_ex, _, cache = forward_server(layers, rng.normal(size=(6, 3)), rng.integers(0, 4, 6))
            assert np.allclose(cache.probs.sum(axis=1), 1.0, atol=1e-6)
            assert np.all(per_ex >= 0)

    def test_label_out_of_range_is_data_error(self):
        layers = [DenseLayer(np.zeros((2, 3)), np.zeros(3))]
        with pytest.raises(DataError):
            forward_server(layers, np.zeros((1, 2)), np.array([3]))


class TestBackwardServer:
    def test_saturated_predictions_give_near_zero_grads(self):
        layers = [DenseLayer(np.zeros((2, 3)), np.array([50.0, 0.0, 0.0]))]
        _, _, cache = forward_server(layers, np.zeros((4, 2)), np.zeros(4, dtype=int))
        grads, agrads = backward_server(layers, cache)
        assert np.linalg.norm(grads[0][0]) <= 1e-6
        assert np.linalg.norm(grads[0][1]) <= 1e-6
        assert np.linalg.norm(agrads) <= 1e-6

    def test_grad_shapes_mirror_params_and_activations(self):
        model = make_model([5, 7, 6, 3], 1, seed=5)
        rng = np.random.default_rng(0)
        acts, _ = forward_client(model.client, rng.normal(size=(4, 5)), "relu")
        _, _, cache = forward_server(model.server, acts, rng.integers(0, 3, 4))
        grads, agrads = backward_server(model.server, cache)
        for layer, (dw, db) in zip(model.server, grads):
            assert dw.shape == layer.w.shape and db.shape == layer.b.shape
        assert agrads.shape == acts.shape

    def test_loss_weight_scaling_scales_grads_linearly(self):
        rng = np.random.default_rng(9)
        layers = [DenseLayer(rng.normal(size=(3, 5)), rng.normal(size=5)),
                  DenseLayer(rng.normal(size=(5, 4)), rng.normal(size=4))]
        acts = rng.normal(size=(6, 3))
        labels = rng.integers(0, 4, 6)
        _, _, cache = forward_server(layers, acts, labels)
        w = rng.uniform(0.1, 1.0, size=6)
        g1, a1 = backward_server(layers, cache, loss_weights=w)
        g2, a2 = backward_server(layers, cache, loss_weights=2 * w)
        for (dw1, db1), (dw2, db2) in zip(g1, g2):
            assert np.allclose(2 * dw1, dw2, atol=1e-9)
            assert np.allclose(2 * db1, db2, atol=1e-9)
        assert np.allclose(2 * a1, a2, atol=1e-9)

    def test_stale_cache_is_protocol_error(self):
        model_a = make_model([4, 6, 3], 1, seed=1)
        model_b = make_model([4, 5, 3], 1, seed=2)
        rng = np.random.default_rng(0)
        acts, _ = forward_client(model_a.client, rng.normal(size=(2, 4)), "relu")
        _, _, cache = forward_server(model_a.server, acts, np.array([0, 1]))
        with pytest.raises(ProtocolError):
            backward_server(model_b.server, cache)


class TestBackwardClient:
    def test_zero_activation_grads_give_zero_client_grads(self):
        model = make_model([4, 6, 5, 3], 2, seed=3)
        acts, cache = forward_client(model.client, np.random.default_rng(0).normal(size=(3, 4)), "relu")
        grads = backward_client(model.client, cache, np.zeros_like(acts))
        assert all(np.all(dw == 0) and np.all(db == 0) for dw, db in grads)

    def test_split_forward_equals_unsplit_forward(self):
        # raw layer-stack equivalence, elementwise <= 1e-9 in float64
        rng = np.random.default_rng(17)
        for cut in (1, 2):
            model = make_model([5, 8, 7, 4], cut, seed=int(rng.integers(1 << 30)))
            x = rng.normal(size=(6, 5))
            acts, _ = forward_client(model.client, x, "relu")
            _, _, cache = forward_server(model.server, acts, np.zeros(6, dtype=int))
            split_logits = cache.layers[-1].preact
            a = x
            all_layers = model.client + model.server
            for layer in all_layers[:-1]:
                a = np.maximum(a @ layer.w + layer.b, 0)
            unsplit_logits = a @ all_layers[-1].w + all_layers[-1].b
            assert np.max(np.abs(split_logits - unsplit_logits)) <= 1e-9


class TestGradientCorrectness:
    @pytest.mark.parametrize("dims,cut", [([4, 6, 3], 1), ([5, 8, 7, 4], 2), ([16, 12, 10, 8], 1)])
    def test_finite_difference_float64(self, dims, cut):
        rng = np.random.default_rng(sum(dims))
        model = make_model(dims, cut, seed=42)
        inputs = rng.normal(size=(8, dims[0]))
        labels = rng.integers(0, dims[-1], 8)

        theta0 = flat_params(model).copy()
        analytic = analytic_flat_grads(model, inputs, labels)

        def loss_at(theta_list):
            set_flat_params(model, np.asarray(theta_list))
            return full_forward_loss(model, inputs, labels)

        numeric = oracles.central_difference(loss_at, list(theta0), step=1e-5)
        set_flat_params(model, theta0)
        assert oracles.relative_error(list(analytic), numeric, floor=1e-6) <= 1e-6

    def test_finite_difference_float32(self):
        rng = np.random.default_rng(2)
        model = make_model([6, 8, 4], 1, seed=4, dtype=np.float32)
        inputs = rng.normal(size=(4, 6)).astype(np.float32)
        labels = rng.integers(0, 4, 4)
        theta0 = flat_params(model).copy()
        analytic = analytic_flat_grads(model, inputs, labels)

        def loss_at(theta_list):
            set_flat_params(model, np.asarray(theta_list, dtype=np.float32))
            return full_forward_loss(model, inputs, labels)

        # f32 loss roundoff makes small steps noisy; cbrt(eps) balances the two
        numeric = oracles.central_difference(loss_at, [float(t) for t in theta0], step=5e-3)
        set_flat_params(model, theta0)
        assert oracles.relative_error([float(a) for a in analytic], numeric, floor=1e-3) <= 2e-2

    def test_tanh_activation_finite_difference(self):
        rng = np.random.default_rng(8)
        model = make_model([4, 6, 5, 3], 2, seed=12, activation="tanh")
        inputs = rng.normal(size=(5, 4))
        labels = rng.integers(0, 3, 5)
        theta0 = flat_params(model).copy()
        analytic = analytic_flat_grads(model, inputs, labels)

        def loss_at(theta_list):
            set_flat_params(model, np.asarray(theta_list))
            return full_forward_loss(model, inputs, labels)

        numeric = oracles.central_difference(loss_at, list(theta0), step=1e-5)
        set_flat_params(model, theta0)
        assert oracles.relative_error(list(analytic), numeric, floor=1e-6) <= 1e-6


class TestSgd:
    def test_plain_step_decrements_by_gradient(self):
        layers = [DenseLayer(np.ones((2, 2)), np.ones(2))]
        g = [(np.full((2, 2), 0.25), np.full(2, 0.5))]
        sgd_step(layers, g, sgd_state(layers, lr=1.0, momentum=0.0))
        assert np.allclose(layers[0].w, 0.75)
        assert np.allclose(layers[0].b, 0.5)

    def test_momentum_two_steps_closed_form(self):
        layers = [DenseLayer(np.zeros((1, 1)), np.zeros(1))]
        g = [(np.array([[1.0]]), np.array([1.0]))]
        state = sgd_state(layers, lr=1.0, momentum=0.9)
        sgd_step(layers, g, state)
        sgd_step(layers, g, state)
        assert np.allclose(layers[0].w, -(1.0 + 1.9))

    def test_matches_scalar_recursion_oracle(self):
        rng = np.random.default_rng(5)
        layers = [DenseLayer(np.array([[rng.normal()]]), np.array([0.0]))]
        state = sgd_state(layers, lr=0.3, momentum=0.7)
        p, v = float(layers[0].w[0, 0]), 0.0
        for _ in range(20):
            g = rng.normal()
            sgd_step(layers, [(np.array([[g]]), np.array([0.0]))], state)
            v = 0.7 * v + g
            p = p - 0.3 * v
            assert abs(float(layers[0].w[0, 0]) - p) < 1e-9

    def test_non_finite_grad_is_numeric_error_naming_tensor(self):
        layers = [DenseLayer(np.zeros((2, 2)), np.zeros(2))]
        bad = [(np.array([[np.nan, 0], [0, 0]]), np.zeros(2))]
        with pytest.raises(NumericError, match="layer0.w"):
            sgd_step(layers, bad, sgd_state(layers, lr=0.1, momentum=0.0))


class TestSplitModel:
    def test_determinism(self):
        spec = ModelSpec((4, 8, 8, 3))
        a = split_model(spec, 2, seed=99)
        b = split_model(spec, 2, seed=99)
        for la, lb in zip(a.client + a.server, b.client + b.server):
            assert np.array_equal(la.w, lb.w) and np.array_equal(la.b, lb.b)

    def test_cut_one_gives_single_client_layer(self):
        model = split_model(ModelSpec((4, 8, 8, 3)), 1, seed=0)
        assert len(model.client) == 1 and len(model.server) == 2

    def test_parameter_counts(self):
        model = split_model(ModelSpec((4, 8, 8, 3)), 2, seed=0)
        assert param_count(model.client) == 4 * 8 + 8 + 8 * 8 + 8  # 112
        assert param_count(model.server) == 8 * 3 + 3              # 27

    def test_cut_out_of_range_rejected(self):
        spec = ModelSpec((4, 8, 3))
        with pytest.raises(ConfigError):
            split_model(spec, 0, seed=0)
        with pytest.raises(ConfigError):
            split_model(spec, 2, seed=0)

    def test_glorot_bounds(self):
        model = split_model(ModelSpec((4, 8, 3)), 1, seed=1)
        a = np.sqrt(6.0 / (4 + 8))
        assert np.all(np.abs(model.client[0].w) <= a)
        assert np.all(model.client[0].b == 0)

    def test_spec_validation(self):
        with pytest.raises(ConfigError):
            ModelSpec((4, 3))
        with pytest.raises(ConfigError):
            ModelSpec((4, 0, 3))
        with pytest.raises(ConfigError):
            ModelSpec((4, 5, 3), activation="gelu")


class TestEvaluate:
    def test_constant_prediction_on_single_class_set(self):
        model = split_model(ModelSpec((3, 4, 2)), 1, seed=0)
        model.server[-1].b[...] = np.array([10.0, 0.0], dtype=model.dtype)
        model.server[-1].w[...] = 0
        inputs = np.random.default_rng(0).normal(size=(10, 3)).astype(model.dtype)
        assert evaluate(model, inputs, np.zeros(10, dtype=int)) == 1.0

    def test_chance_level_on_random_labels(self):
        rng = np.random.default_rng(6)
        model = split_model(ModelSpec((4, 8, 4)), 1, seed=3)
        inputs = rng.normal(size=(2000, 4)).astype(np.float32)
        labels = rng.integers(0, 4, 2000)
        acc = evaluate(model, inputs, labels)
        assert abs(acc - 0.25) < 0.05

    def test_matches_prediction_recount(self):
        rng = np.random.default_rng(13)
        model = split_model(ModelSpec((4, 6, 3)), 1, seed=21)
        inputs = rng.normal(size=(50, 4)).astype(np.float32)
        labels = rng.integers(0, 3, 50)
        acc = evaluate(model, inputs, labels)
        correct = 0
        for r in range(50):
            acts, _ = forward_client(model.client, inputs[r : r + 1], "relu")
            h = acts
            for layer in model.server[:-1]:
                h = np.maximum(h @ layer.w + layer.b, 0)
            logits = h @ model.server[-1].w + model.server[-1].b
            correct += int(np.argmax(logits) == labels[r])
        assert acc == correct / 50

    def test_empty_test_set_rejected(self):
        model = split_model(ModelSpec((3, 4, 2)), 1, seed=0)
        with pytest.raises(DataError):
            evaluate(model, np.zeros((0, 3), dtype=np.float32), np.zeros(0, dtype=int))


class TestDeterminism:
    def test_identical_seed_and_data_replays_bit_identically(self):
        rng = np.random.default_rng(4)
        inputs = rng.normal(size=(12, 5)).astype(np.float32)
        labels = rng.integers(0, 3, 12)

        def train():
            model = split_model(ModelSpec((5, 7, 3)), 1, seed=77, dtype=np.float32)
            opt_c = sgd_state(model.client, 0.05, 0.9)
            opt_s = sgd_state(model.server, 0.05, 0.9)
            for _ in range(10):
                acts, cc = forward_client(model.client, inputs, "relu")
                _, _, sc = forward_server(model.server, acts, labels)
                sg, ag = backward_server(model.server, sc)
                cg = backward_client(model.client, cc, ag)
                sgd_step(model.server, sg, opt_s)
                sgd_step(model.client, cg, opt_c)
            return flat_params(model)

        assert np.array_equal(train(), train())
