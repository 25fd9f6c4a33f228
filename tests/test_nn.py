"""Neural-network core: exact forward/backward, split execution, SGD."""

import itertools
import tracemalloc

import numpy as np
import pytest

import oracles
from gapsl.errors import ConfigError, DataError, NumericError
from gapsl.nn import (
    Cache,
    DenseLayer,
    ModelSpec,
    backward_client,
    backward_server,
    forward_client,
    forward_hidden,
    forward_server,
    layer_views,
    logits_from_activations,
    sgd_state,
    sgd_step,
    softmax_loss,
    split_model,
)
from oracles import params_arrays


def make_model(dims, cut, seed=0, dtype=np.float64):
    return split_model(ModelSpec(tuple(dims)), cut, seed, dtype=dtype)


def server_forward(layers, acts, labels, activation="relu"):
    """One batch's server forward as the engine runs a client's rows: the
    products, then the softmax and loss. Returns the per-example losses,
    their mean, the mean loss's weights and the cache, probs in it."""
    logits, weights, cache = forward_server(layers, acts, labels, activation)
    cache.probs, per_example = softmax_loss(logits, labels)
    return per_example, float(np.add.reduce(per_example) / len(labels)), weights, cache


def full_forward_loss(model, inputs, labels, activation="relu"):
    acts, _ = forward_client(model.client, inputs, activation)
    _, mean_loss, _, _ = server_forward(model.server, acts, labels, activation)
    return mean_loss


def flat_params(model):
    return model.params


def set_flat_params(model, vec):
    model.params[...] = vec


def evaluate(model, inputs, labels, activation="relu"):
    """Classification accuracy of the split model on a test set."""
    if len(labels) == 0:
        raise DataError("empty test set")
    acts, _ = forward_client(model.client, inputs, activation)
    logits = logits_from_activations(model.server, acts, activation)
    pred = logits.argmax(axis=1)
    return float((pred == labels).sum()) / len(labels)


def analytic_flat_grads(model, inputs, labels, activation="relu"):
    """The whole model's gradient in the layout of ``model.params``."""
    acts, ccache = forward_client(model.client, inputs, activation)
    _, _, weights, scache = server_forward(model.server, acts, labels, activation)
    grads = np.empty_like(model.params)
    cut = model.client_params.size
    agrads = backward_server(model.server, scache, grads[cut:], weights)
    backward_client(model.client, ccache, agrads, grads[:cut])
    return grads


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


class TestForwardServer:
    def test_uniform_logits_loss_is_log_c(self):
        layers = [DenseLayer(np.zeros((4, 5)), np.zeros(5))]
        per_ex, mean_loss, _, _ = server_forward(layers, np.ones((3, 4)), np.array([0, 2, 4]))
        assert np.allclose(per_ex, np.log(5))
        assert abs(mean_loss - np.log(5)) < 1e-12

    def test_saturated_correct_logits_loss_vanishes(self):
        # logit margin of 50 in favor of the true class
        layers = [DenseLayer(np.zeros((2, 3)), np.array([50.0, 0.0, 0.0]))]
        per_ex, mean_loss, _, _ = server_forward(layers, np.zeros((4, 2)), np.zeros(4, dtype=int))
        assert mean_loss < 1e-6

    def test_matches_independent_softmax_ce_oracle(self):
        rng = np.random.default_rng(3)
        layers = [DenseLayer(rng.normal(size=(4, 6)), rng.normal(size=6)),
                  DenseLayer(rng.normal(size=(6, 3)), rng.normal(size=3))]
        acts = rng.normal(size=(5, 4))
        labels = rng.integers(0, 3, size=5)
        per_ex, mean_loss, _, _ = server_forward(layers, acts, labels)
        h = np.maximum(acts @ layers[0].w + layers[0].b, 0)
        logits = h @ layers[1].w + layers[1].b
        expected = [oracles.softmax_ce(list(logits[r]), int(labels[r])) for r in range(5)]
        assert np.allclose(per_ex, expected, atol=1e-6)
        assert abs(mean_loss - np.mean(expected)) < 1e-6

    def test_softmax_rows_sum_to_one_and_loss_nonnegative(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            layers = [DenseLayer(rng.normal(size=(3, 4)), rng.normal(size=4))]
            per_ex, _, _, cache = server_forward(layers, rng.normal(size=(6, 3)), rng.integers(0, 4, 6))
            assert np.allclose(cache.probs.sum(axis=1), 1.0, atol=1e-6)
            assert np.all(per_ex >= 0)


class TestBackwardServer:
    def test_saturated_predictions_give_near_zero_grads(self):
        layers = [DenseLayer(np.zeros((2, 3)), np.array([50.0, 0.0, 0.0]))]
        _, _, weights, cache = server_forward(layers, np.zeros((4, 2)), np.zeros(4, dtype=int))
        grads = np.empty(9)
        agrads = backward_server(layers, cache, grads, weights)
        (grad,) = layer_views(grads, (2, 3))
        assert np.linalg.norm(grad.w) <= 1e-6
        assert np.linalg.norm(grad.b) <= 1e-6
        assert np.linalg.norm(agrads) <= 1e-6

    def test_grad_shapes_mirror_params_and_activations(self):
        model = make_model([5, 7, 6, 3], 1, seed=5)
        rng = np.random.default_rng(0)
        acts, _ = forward_client(model.client, rng.normal(size=(4, 5)), "relu")
        _, _, weights, cache = server_forward(model.server, acts, rng.integers(0, 3, 4))
        grads = np.empty_like(model.server_params)
        agrads = backward_server(model.server, cache, grads, weights)
        for layer, grad in zip(model.server, layer_views(grads, (7, 6, 3)), strict=True):
            assert grad.w.shape == layer.w.shape and grad.b.shape == layer.b.shape
        assert agrads.shape == acts.shape

    def test_gradient_buffer_must_fit_the_layers(self):
        model = make_model([5, 7, 6, 3], 1, seed=5)
        acts, _ = forward_client(model.client, np.zeros((4, 5)), "relu")
        _, _, weights, cache = server_forward(model.server, acts, np.zeros(4, dtype=int))
        for bad in (np.empty(model.server_params.size - 1), np.empty((2, model.server_params.size))):
            with pytest.raises(ConfigError):
                backward_server(model.server, cache, bad, weights)

    def test_loss_weight_scaling_scales_grads_linearly(self):
        rng = np.random.default_rng(9)
        layers = [DenseLayer(rng.normal(size=(3, 5)), rng.normal(size=5)),
                  DenseLayer(rng.normal(size=(5, 4)), rng.normal(size=4))]
        acts = rng.normal(size=(6, 3))
        labels = rng.integers(0, 4, 6)
        _, _, _, cache = server_forward(layers, acts, labels)
        w = rng.uniform(0.1, 1.0, size=6)
        g1, g2 = np.empty((2, 3 * 5 + 5 + 5 * 4 + 4))
        a1 = backward_server(layers, cache, g1, loss_weights=w)
        a2 = backward_server(layers, cache, g2, loss_weights=2 * w)
        assert np.allclose(2 * g1, g2, atol=1e-9)
        assert np.allclose(2 * a1, a2, atol=1e-9)


class TestBackwardClient:
    def test_zero_activation_grads_give_zero_client_grads(self):
        model = make_model([4, 6, 5, 3], 2, seed=3)
        acts, cache = forward_client(model.client, np.random.default_rng(0).normal(size=(3, 4)), "relu")
        grads = np.full_like(model.client_params, np.nan)
        backward_client(model.client, cache, np.zeros_like(acts), grads)
        assert np.all(grads == 0)

    def test_split_forward_equals_unsplit_forward(self):
        # raw layer-stack equivalence, elementwise <= 1e-9 in float64
        rng = np.random.default_rng(17)
        for cut in (1, 2):
            model = make_model([5, 8, 7, 4], cut, seed=int(rng.integers(1 << 30)))
            x = rng.normal(size=(6, 5))
            acts, _ = forward_client(model.client, x, "relu")
            _, _, cache = forward_server(model.server, acts, np.zeros(6, dtype=int))
            split_logits = cache.inputs[-1] @ model.server[-1].w + model.server[-1].b
            a = x
            all_layers = model.client + model.server
            for layer in all_layers[:-1]:
                a = np.maximum(a @ layer.w + layer.b, 0)
            unsplit_logits = a @ all_layers[-1].w + all_layers[-1].b
            assert np.max(np.abs(split_logits - unsplit_logits)) <= 1e-9


class TestEachForwardValueOnce:
    """Backward reads stored outputs and the softmax reduces once; every
    result is bit-identical to the form that recomputes them."""

    @pytest.mark.parametrize("activation", ["relu", "tanh"])
    @pytest.mark.parametrize("batch", [1, 7])
    def test_client_backward_equals_recomputed_derivative(self, activation, batch):
        rng = np.random.default_rng(31)
        model = make_model([6, 9, 8, 5, 4], 3, seed=5, dtype=np.float32)
        x = rng.normal(size=(batch, 6)).astype(np.float32)
        act_grads = rng.normal(size=(batch, 5)).astype(np.float32)
        acts, cache = forward_client(model.client, x, activation)
        params = params_arrays(model.client)
        want_acts, caches = oracles.client_forward(params, x, activation)
        assert acts.dtype == np.float32 and (acts == want_acts).all()
        grads = np.empty_like(model.client_params)
        backward_client(model.client, cache, act_grads, grads)
        got = params_arrays(layer_views(grads, (6, 9, 8, 5)))
        want = oracles.client_backward(params, caches, act_grads, activation)
        assert all(g.dtype == np.float32 and (g == w).all() for g, w in zip(got, want))

    @pytest.mark.parametrize("activation", ["relu", "tanh"])
    @pytest.mark.parametrize("weighted", [False, True])
    @pytest.mark.parametrize(
        "batch,dtype,cut",  # cut 1: three server layers; cut 3: the output layer alone
        [
            pytest.param(
                batch, dtype, cut,
                id=str(batch) if (dtype, cut) == (np.float32, 1) else f"{batch}-{dtype.__name__}-cut{cut}",
            )
            for cut in (1, 3) for dtype in (np.float32, np.float64) for batch in (1, 7, 16)
        ],
    )
    def test_server_pass_equals_two_pass_one_hot_form(self, activation, weighted, batch, dtype, cut):
        # every reduction in the reference goes through numpy's wrapped
        # max/sum/mean; the direct ufunc.reduce calls keep their bits
        rng = np.random.default_rng(32)
        dims = [6, 9, 8, 7, 5]
        model = make_model(dims, cut, seed=6, dtype=dtype)
        acts = rng.normal(size=(batch, dims[cut])).astype(dtype)
        labels = rng.integers(0, 5, batch)
        weights = rng.uniform(0.1, 1.0, batch).astype(dtype) if weighted else None
        per_example, mean_loss, mean_w, cache = server_forward(model.server, acts, labels, activation)
        assert mean_w.dtype == dtype and (mean_w == dtype(1.0 / batch)).all()
        grads = np.empty_like(model.server_params)
        act_grads = backward_server(model.server, cache, grads, mean_w if weights is None else weights)
        want = oracles.server_pass(model.server, acts, labels, activation, weights)
        assert per_example.dtype == dtype and (per_example == want[0]).all()
        assert mean_loss == want[1]
        assert cache.probs.dtype == dtype and (cache.probs == want[2]).all()
        got = layer_views(grads, dims[cut:])
        assert all((g.w == ww).all() and (g.b == wb).all() for g, (ww, wb) in zip(got, want[3], strict=True))
        assert act_grads.dtype == dtype and (act_grads == want[4]).all()

    @pytest.mark.parametrize("activation", ["relu", "tanh"])
    def test_forward_leaves_its_inputs_and_weights_unchanged(self, activation):
        rng = np.random.default_rng(33)
        model = make_model([6, 9, 8, 7, 5], 2, seed=7, dtype=np.float32)
        x = rng.normal(size=(11, 6)).astype(np.float32)
        before = [model.params.copy(), x.copy()]
        acts = forward_hidden(model.client, x, activation)
        assert (acts == forward_client(model.client, x, activation)[0]).all()
        kept = acts.copy()
        logits = logits_from_activations(model.server, acts, activation)
        _, _, cache = forward_server(model.server, kept, np.zeros(11, dtype=int), activation)
        assert (logits == cache.inputs[-1] @ model.server[-1].w + model.server[-1].b).all()
        after = [model.params, x, acts]
        assert all((a == b).all() for a, b in zip(after, before + [kept]))


class TestStackedSoftmaxLoss:
    """One softmax over a round's ``[clients, maxlen, classes]`` logit stack:
    every client's probs and per-example losses are bit-identical to its
    own server pass, whatever the classes' width against the sums' 8-wide
    pairwise unroll, the dtype, the cohort or the batch lengths."""

    @pytest.mark.parametrize("clients", [1, 3, 100])
    @pytest.mark.parametrize("first", [1, 16], ids=["one-row-first", "maxlen-first"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("classes", [2, 5, 8, 9, 16])
    def test_stack_equals_per_client_server_pass(self, classes, dtype, first, clients):
        rng = np.random.default_rng(classes * 1000 + clients)
        model = make_model([6, 7, classes], 1, seed=9, dtype=dtype)
        maxlen = 16
        # lengths mix 1 and maxlen (the first two clients), the rest drawn between
        lengths = [first, 17 - first, *rng.integers(1, maxlen + 1, max(0, clients - 2))][:clients]
        shape = (clients, max(2, *lengths))
        acts = rng.normal(scale=3.0, size=(*shape, 7)).astype(dtype)
        labels = rng.integers(0, classes, shape)
        logits = np.zeros((*shape, classes), dtype=dtype)
        for k, n in enumerate(lengths):
            logits[k, :n] = forward_server(model.server, acts[k, :n], labels[k, :n])[0]
        probs, per_example = softmax_loss(logits, labels)
        assert probs.dtype == dtype and per_example.dtype == dtype and per_example.shape == shape
        for k, n in enumerate(lengths):
            want_loss, _, want_probs, *_ = oracles.server_pass(model.server, acts[k, :n], labels[k, :n], "relu")
            assert (probs[k, :n] == want_probs).all() and (per_example[k, :n] == want_loss).all(), k


class TestStackedServerBackward:
    """One backward over a stack of clients' batches, at least two rows deep
    as the engine builds it: every gradient row and every activation-gradient
    row is bit-identical to the per-client server passes, whose one-row
    products are padded to gemm as the stack's are."""

    @staticmethod
    def stacked_round(model, acts, labels, lengths, activation, weights=None):
        """The engine's server step: each client's products on its rows of
        the stacks into zero-padded stacks, one softmax over the logit
        stack, then one stacked backward over a cache that takes the
        activation and label stacks as they are."""
        dtype, server = acts.dtype, model.server
        logits = np.zeros((*labels.shape, server[-1].w.shape[1]), dtype=dtype)
        stack_weights = np.zeros(labels.shape, dtype=dtype)
        hidden = [np.zeros((*labels.shape, l.w.shape[0]), dtype=dtype) for l in server[1:]]
        for k, n in enumerate(lengths):
            logits[k, :n], stack_weights[k, :n], cache = forward_server(server, acts[k, :n], labels[k, :n], activation)
            assert cache.probs is None and cache.labels is not None  # the products only
            for h, a in zip(hidden, cache.inputs[1:]):
                h[k, :n] = a
        probs, _ = softmax_loss(logits, labels)
        for k, n in enumerate(lengths):
            assert (stack_weights[k, :n] == dtype.type(1.0 / n)).all() and (stack_weights[k, n:] == 0).all()
            if weights is not None:
                stack_weights[k, :n] = weights[k]
        stack = Cache(activation, [acts, *hidden], probs=probs, labels=labels)
        g = np.empty((len(lengths), model.server_params.size), dtype=dtype)
        return g, backward_server(server, stack, g, stack_weights)

    @pytest.mark.parametrize("weighted", [False, True])
    @pytest.mark.parametrize("lengths", [(7, 1, 16, 3, 1, 16), (1, 1, 1)], ids=["mixed", "one-row"])
    @pytest.mark.parametrize("cut", [1, 2])  # cut 1: a hidden server layer; cut 2: the output layer alone
    @pytest.mark.parametrize("activation", ["relu", "tanh"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_stacked_backward_equals_per_client_passes(self, dtype, activation, cut, lengths, weighted):
        rng = np.random.default_rng(34)
        dims = [6, 9, 8, 5]
        model = make_model(dims, cut, seed=8, dtype=dtype)
        shape = (len(lengths), max(2, *lengths))
        # the padding rows hold finite junk and in-range labels: they weigh 0
        acts = rng.normal(size=(*shape, dims[cut])).astype(dtype)
        labels = rng.integers(0, 5, shape)
        batches = [(acts[k, :n].copy(), labels[k, :n].copy()) for k, n in enumerate(lengths)]
        weights = [rng.uniform(0.1, 1.0, n).astype(dtype) for n in lengths] if weighted else None
        g, act_grads = self.stacked_round(model, acts, labels, lengths, activation, weights)
        want_g, want_act_grads = oracles.server_passes(model.server, batches, activation, weights)
        assert g.dtype == dtype and (g == want_g).all()
        assert act_grads.dtype == dtype and act_grads.shape == acts.shape
        for k, n in enumerate(lengths):
            assert (act_grads[k, :n] == want_act_grads[k]).all(), k
            assert (act_grads[k, n:] == 0).all(), k  # the bank backprops the padding rows as they come


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
        model = make_model([4, 6, 5, 3], 2, seed=12)
        inputs = rng.normal(size=(5, 4))
        labels = rng.integers(0, 3, 5)
        theta0 = flat_params(model).copy()
        analytic = analytic_flat_grads(model, inputs, labels, "tanh")

        def loss_at(theta_list):
            set_flat_params(model, np.asarray(theta_list))
            return full_forward_loss(model, inputs, labels, "tanh")

        numeric = oracles.central_difference(loss_at, list(theta0), step=1e-5)
        set_flat_params(model, theta0)
        assert oracles.relative_error(list(analytic), numeric, floor=1e-6) <= 1e-6


class TestSgd:
    def test_plain_step_decrements_by_gradient(self):
        params = np.ones(6)
        layers = layer_views(params, (2, 2))
        g = np.array([0.25] * 4 + [0.5] * 2)
        sgd_step(params, g, sgd_state(layers, lr=1.0, momentum=0.0))
        assert np.allclose(layers[0].w, 0.75)
        assert np.allclose(layers[0].b, 0.5)

    def test_momentum_two_steps_closed_form(self):
        params = np.zeros(2)
        layers = layer_views(params, (1, 1))
        g = np.ones(2)
        state = sgd_state(layers, lr=1.0, momentum=0.9)
        sgd_step(params, g, state)
        sgd_step(params, g, state)
        assert np.allclose(layers[0].w, -(1.0 + 1.9))

    def test_matches_scalar_recursion_oracle(self):
        rng = np.random.default_rng(5)
        params = np.array([rng.normal(), 0.0])
        layers = layer_views(params, (1, 1))
        state = sgd_state(layers, lr=0.3, momentum=0.7)
        p, v = float(layers[0].w[0, 0]), 0.0
        for _ in range(20):
            g = rng.normal()
            sgd_step(params, np.array([g, 0.0]), state)
            v = 0.7 * v + g
            p = p - 0.3 * v
            assert abs(float(layers[0].w[0, 0]) - p) < 1e-9

    def test_non_finite_grad_is_numeric_error_naming_tensor(self):
        # NaN, -inf and +inf each caught by the gradient's extremes; the
        # error names the tensor holding the first non-finite entry, in a
        # part or a bank row, and nothing is updated
        widths = (2, 2, 1)  # layer0.w [0, 4), layer0.b [4, 6), layer1.w [6, 8), layer1.b [8]
        cases = ((None, 0, "layer0.w"), (None, 5, "layer0.b"), (2, 8, "layer1.b"))
        for (clients, offset, name), value in itertools.product(cases, (np.nan, -np.inf, np.inf)):
            lead = () if clients is None else (clients,)
            params = np.zeros((*lead, 9))
            bad = np.zeros_like(params)
            bad.reshape(-1, 9)[-1, offset] = value  # the last client's row in a bank
            with pytest.raises(NumericError, match=rf"tensor {name}\b"):
                sgd_step(params, bad, sgd_state(layer_views(params, widths), lr=0.1, momentum=0.0))
            assert not params.any()

    def test_bank_step_allocates_nothing_the_size_of_params(self):
        # tracemalloc sees numpy's buffers: neither a finiteness mask (a
        # quarter of float32 params) nor a fresh lr * v is allocated
        rng = np.random.default_rng(8)
        widths = (16, 32, 32)
        params = rng.normal(size=(50, 16 * 32 + 32 + 32 * 32 + 32)).astype(np.float32)
        grads = rng.normal(size=params.shape).astype(np.float32)
        state = sgd_state(layer_views(params, widths), lr=0.02, momentum=0.5)
        want_v = 0.5 * state.velocity + grads
        want = params - 0.02 * want_v
        tracemalloc.start()
        try:
            sgd_step(params, grads, state)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < params.nbytes // 8
        assert np.array_equal(state.velocity, want_v) and np.array_equal(params, want)


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
        assert oracles.param_count(model.client) == 4 * 8 + 8 + 8 * 8 + 8  # 112
        assert oracles.param_count(model.server) == 8 * 3 + 3              # 27

    def test_glorot_bounds(self):
        model = split_model(ModelSpec((4, 8, 3)), 1, seed=1)
        a = np.sqrt(6.0 / (4 + 8))
        assert np.all(np.abs(model.client[0].w) <= a)
        assert np.all(model.client[0].b == 0)


class TestEvaluate:
    def test_constant_prediction_on_single_class_set(self):
        model = split_model(ModelSpec((3, 4, 2)), 1, seed=0)
        model.server[-1].b[...] = np.array([10.0, 0.0], dtype=model.params.dtype)
        model.server[-1].w[...] = 0
        inputs = np.random.default_rng(0).normal(size=(10, 3)).astype(model.params.dtype)
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
            sg, cg = np.empty_like(model.server_params), np.empty_like(model.client_params)
            for _ in range(10):
                acts, cc = forward_client(model.client, inputs, "relu")
                _, _, sw, sc = server_forward(model.server, acts, labels)
                ag = backward_server(model.server, sc, sg, sw)
                backward_client(model.client, cc, ag, cg)
                sgd_step(model.server_params, sg, opt_s)
                sgd_step(model.client_params, cg, opt_c)
            return flat_params(model)

        assert np.array_equal(train(), train())
