"""Minimal dense neural-network engine with split execution.

A model is a stack of dense layers cut at an index into a client part and
a server part. Hidden layers apply ReLU or tanh; the final layer emits
logits consumed by softmax cross-entropy. Everything is plain numpy so
gradients are exact and checkable against finite differences. The engine
trains in float32, the wire's precision; :func:`split_model` also builds
float64 models, for tight finite-difference checks.

Both parts share one forward loop and one backprop loop over their hidden
layers; the server part adds its linear output layer and the loss. Each
forward value is computed once: backward takes the activation derivative
from the layer outputs the forward pass stored (tanh' = 1 - a*a,
relu' = [a > 0]), so the cache keeps no hidden pre-activation; every
layer adds its bias and activates in place; the softmax reduces each row
once; and evaluation runs the forward loop without a cache.

Each part's parameters are one flat vector whose layers are views
(:func:`layer_views`). Backward writes each gradient through ``out=`` into
that layout in a buffer the caller owns, and :func:`sgd_step` steps a part
as one array, in place: it checks the gradient by its two extremes and forms
lr*v in a buffer its :class:`SgdState` holds, so a step allocates nothing the
size of the part. Forward reads only the layers, so standalone arrays work too.

The server pass reduces through ``ufunc.reduce`` directly (``np.add.reduce``,
``np.maximum.reduce``): numpy's ``mean``/``sum``/``max`` methods run the same
reductions, with the same bits, behind Python wrappers that cost 3-10 us
per call on 16-row arrays.

The client-side functions (:func:`forward_client`, :func:`backward_client`,
:func:`sgd_step`) also run a whole bank of clients at once: its parameters
are one ``[clients, P]`` matrix, so every view carries a leading client
axis (weights ``[clients, fan_in, fan_out]``, biases ``[clients, 1,
fan_out]``, inputs ``[clients, batch, fan_in]``) and ``np.matmul``
multiplies client by client. :func:`backward_server` takes the same
leading client axis on the server's shared layers: the round's
activations arrive as one ``[clients, maxlen, cut]`` stack, each client's
rows ``[k, :batch]`` run :func:`forward_server` on their own,
:func:`stack_caches` builds one stacked cache around that stack and its
labels (copying in only the probs and a deeper server's hidden inputs),
whose padding rows weigh 0 in the loss, and one backward writes every
client's gradient into its row of a ``[clients, P]`` matrix through
batched ``np.matmul(..., out=)``, bit for bit as one backward per client
on its batch padded to the stack's depth would. The engine pads its
stacks so that every product in them runs gemm (``orchestrator.padded_rows``).

Each shape is checked once, where its data enters the engine: a dataset's
width by ``orchestrator.build_dataset``, every matrix a peer sends by
``transport.expect_matrix``; the engine builds every other matrix itself. So
the functions here take shapes as given, each saying what it assumes, bar a
gradient buffer's leading axes, which ``np.matmul(..., out=)`` would broadcast into.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericError


@dataclass(frozen=True)
class ModelSpec:
    """Layer widths: input, hidden layers, classes (at least three, each >= 1,
    as ``config.validate`` checks). The hidden activation is an argument of each pass."""

    layer_dims: tuple[int, ...]


@dataclass
class DenseLayer:
    w: np.ndarray  # [fan_in, fan_out]; [clients, fan_in, fan_out] in a bank
    b: np.ndarray  # [fan_out]; [clients, 1, fan_out] in a bank


def layer_views(params: np.ndarray, widths: Sequence[int]) -> list[DenseLayer]:
    """The layers of widths ``widths`` as views into ``params``, a part's
    flat vector or a bank's ``[clients, P]`` matrix. This is the layout of
    every parameter and gradient vector: per layer, weights row-major, then bias."""
    lead = params.shape[:-1]
    layers, pos = [], 0
    for fan_in, fan_out in zip(widths[:-1], widths[1:]):
        w = params[..., pos : pos + fan_in * fan_out].reshape(*lead, fan_in, fan_out)
        pos += fan_in * fan_out
        b = params[..., pos : pos + fan_out].reshape(*lead, 1, fan_out) if lead else params[pos : pos + fan_out]
        pos += fan_out
        layers.append(DenseLayer(w, b))
    if pos != params.shape[-1]:
        raise ConfigError(f"{params.shape[-1]} parameters do not fit layer widths {tuple(widths)}, which hold {pos}")
    return layers


def _widths(layers: list[DenseLayer]) -> tuple[int, ...]:
    return (layers[0].w.shape[-2], *(l.w.shape[-1] for l in layers))


@dataclass
class SplitModel:
    """A model cut after layer ``cut_index``: ``params`` holds every
    parameter, the client part's first, and each part is a slice of it
    (``client_params``) with its layers as views (``client``)."""

    spec: ModelSpec
    cut_index: int
    params: np.ndarray

    def __post_init__(self):
        layers = layer_views(self.params, self.spec.layer_dims)
        self.client, self.server = layers[: self.cut_index], layers[self.cut_index :]
        size = sum(l.w.size + l.b.size for l in self.client)
        self.client_params, self.server_params = self.params[:size], self.params[size:]


@dataclass
class Cache:
    """Forward state of one model part, for its backward pass."""

    activation: str
    inputs: list[np.ndarray]  # per layer, its input a_{k-1}; the server part's last is its output layer's
    output: np.ndarray | None = None  # client part only: its top layer's activations
    probs: np.ndarray | None = None   # server part only: softmax rows, [batch, classes] or [clients, maxlen, classes]
    labels: np.ndarray | None = None  # server part only: [batch] or [clients, maxlen]


@dataclass
class SgdState:
    """SGD-with-momentum state of one part's flat parameters: v <- m*v + g;
    p <- p - lr*v. ``widths`` gives their layout, to name a tensor, and
    ``step`` is the buffer, shaped like ``velocity``, that holds lr*v."""

    lr: float
    momentum: float
    velocity: np.ndarray
    widths: tuple[int, ...]
    step: np.ndarray


def _act(z: np.ndarray, activation: str, out: np.ndarray | None = None) -> np.ndarray:
    if activation == "relu":
        return np.maximum(z, 0, out=out)
    return np.tanh(z, out=out)


def _act_grad(a: np.ndarray, activation: str) -> np.ndarray:
    """The activation's derivative, from its output ``a``; relu's is a mask."""
    if activation == "relu":
        return a > 0
    g = a * a
    return np.subtract(1, g, out=g)


def split_model(
    spec: ModelSpec,
    cut_index: int,
    seed: int | np.random.Generator,
    dtype=np.float32,
) -> SplitModel:
    """Build a freshly initialized model split at ``cut_index``.

    Weights are Glorot-uniform (uniform in [-a, a], a = sqrt(6/(fan_in+fan_out)))
    drawn layer by layer from a generator seeded with ``seed``; biases start
    at zero. The same (spec, cut_index, seed) always yields identical bits.
    ``cut_index`` is in [1, len(layer_dims) - 2], as ``config.validate`` checks.
    """
    rng = np.random.default_rng(seed)
    tensors = []
    for fan_in, fan_out in zip(spec.layer_dims[:-1], spec.layer_dims[1:]):
        a = np.sqrt(6.0 / (fan_in + fan_out))
        tensors += [rng.uniform(-a, a, size=fan_in * fan_out).astype(dtype), np.zeros(fan_out, dtype=dtype)]
    return SplitModel(spec, cut_index, np.concatenate(tensors))


def forward_hidden(
    layers: list[DenseLayer], a: np.ndarray, activation: str, inputs: list[np.ndarray] | None = None
) -> np.ndarray:
    """Apply the hidden layers ``layers`` to ``a``, appending each layer's
    input to ``inputs`` when given. Each layer adds its bias and activates
    in place on its own product."""
    for l in layers:
        z = a @ l.w
        z += l.b
        if inputs is not None:
            inputs.append(a)
        a = _act(z, activation, out=z)
    return a


def _backprop(
    layers: list[DenseLayer], inputs: list[np.ndarray], delta: np.ndarray, activation: str, grads: list[DenseLayer]
) -> np.ndarray:
    """Backprop ``delta``, the gradient at the top layer's pre-activation,
    down ``layers``, writing each layer's (dW, db) into ``grads``. Returns
    the gradient at the first layer's pre-activation. Layer k's input is
    layer k-1's output, so it gives the derivative at layer k-1."""
    for k in range(len(layers) - 1, -1, -1):
        np.matmul(inputs[k].swapaxes(-1, -2), delta, out=grads[k].w)
        np.add.reduce(delta, axis=-2, keepdims=True, out=grads[k].b.reshape(*delta.shape[:-2], 1, -1))
        if k:
            delta = delta @ layers[k].w.swapaxes(-1, -2)
            delta *= _act_grad(inputs[k], activation)
    return delta


def _grad_views(layers: list[DenseLayer], cache: Cache, out: np.ndarray) -> list[DenseLayer]:
    """The per-layer views of ``out``, the flat gradient of ``layers``: one
    row per leading index of the cache's inputs (a client of a bank or stack)."""
    if out.shape[:-1] != cache.inputs[0].shape[:-2]:  # matmul would broadcast into a larger buffer
        raise ConfigError(f"gradient buffer of shape {out.shape} does not fit inputs of shape {cache.inputs[0].shape}")
    return layer_views(out, _widths(layers))


def forward_client(
    layers: list[DenseLayer], inputs: np.ndarray, activation: str = "relu"
) -> tuple[np.ndarray, Cache]:
    """Run the client part; returns cut-layer activations and the backward cache.

    ``inputs`` is ``[batch, fan_in]`` for one model and
    ``[clients, batch, fan_in]`` for a bank: the engine indexes them from a
    dataset whose width ``build_dataset`` checks against ``model_dims[0]``.
    """
    cached: list[np.ndarray] = []
    a = forward_hidden(layers, inputs, activation, cached)
    return a, Cache(activation=activation, inputs=cached, output=a)


def forward_server(
    layers: list[DenseLayer],
    activations: np.ndarray,
    labels: np.ndarray,
    activation: str = "relu",
) -> tuple[np.ndarray, float, Cache]:
    """Run the server part and the loss; returns per-example losses, their mean, and the cache.

    ``activations`` is ``[batch, fan_in]``: a bank built it, or ``transport.expect_matrix`` checked a peer's.
    ``labels`` are integers in [0, classes), one per row of ``activations``:
    they index the logits unchecked, since the :class:`~gapsl.data.Dataset`
    they come from checks its labels once, when it is built."""
    batch = activations.shape[0]
    inputs: list[np.ndarray] = []
    a = forward_hidden(layers[:-1], activations, activation, inputs)
    inputs.append(a)
    last = layers[-1]
    logits = a @ last.w
    logits += last.b

    # softmax in one buffer: subtract the row max, exp, divide by the row sum
    top = np.maximum.reduce(logits, axis=1, keepdims=True)
    probs = np.subtract(logits, top)
    np.exp(probs, out=probs)
    total = np.add.reduce(probs, axis=1, keepdims=True)
    probs /= total
    log_z = np.log(total[:, 0]) + top[:, 0]
    per_example = log_z - logits[np.arange(batch), labels]
    cache = Cache(activation=activation, inputs=inputs, probs=probs, labels=labels)
    return per_example, float(np.add.reduce(per_example) / batch), cache


def stack_caches(caches: Sequence[Cache], activations: np.ndarray, labels: np.ndarray) -> tuple[Cache, np.ndarray]:
    """The per-client caches of :func:`forward_server` as one stacked cache,
    for one :func:`backward_server` over every client. Client k's cache
    came from the rows ``[k, :batch]`` of ``activations`` and ``labels``,
    the ``[clients, maxlen, fan_in]`` and ``[clients, maxlen]`` stacks,
    which the stacked cache takes as they are: their padding rows must be
    finite and in range, and weigh 0. The probs and a deeper server's
    hidden inputs are copied into ``[clients, maxlen, ...]`` arrays, padded
    with zero rows. Also returns the ``[clients, maxlen]`` loss weights:
    1/batch on each client's rows, so that each gradient is that of its
    client's mean loss, and 0 on padding. The engine builds the stacks and
    the caches from one index matrix, one cache per row, so they fit."""
    shape = labels.shape
    first = caches[0]
    dtype = first.probs.dtype
    probs = np.zeros((*shape, first.probs.shape[1]), dtype=dtype)
    weights = np.zeros(shape, dtype=dtype)
    hidden = [np.zeros((*shape, a.shape[1]), dtype=dtype) for a in first.inputs[1:]]
    for k, c in enumerate(caches):
        n = len(c.probs)
        probs[k, :n] = c.probs
        weights[k, :n] = 1.0 / n  # the float64 1/batch rounded once, as dtype(1.0 / batch)
        for h, a in zip(hidden, c.inputs[1:]):
            h[k, :n] = a
    return Cache(first.activation, [activations, *hidden], probs=probs, labels=labels), weights


def backward_server(layers: list[DenseLayer], cache: Cache, out: np.ndarray, loss_weights: np.ndarray) -> np.ndarray:
    """Backprop the weighted per-example losses through the server part.

    ``cache`` holds one batch (from :func:`forward_server`) or a stack of
    clients' batches (from :func:`stack_caches`); then every array has a
    leading client axis and ``out`` holds one gradient row per client.
    ``loss_weights`` (``[batch]`` or ``[clients, maxlen]``) weigh each
    example's loss; :func:`stack_caches` gives 1/batch, the mean loss's, and
    0 on padding. Writes the parameter gradient into the flat buffer ``out``
    and returns the gradient w.r.t. the incoming activations.
    """
    grads = _grad_views(layers, cache, out)
    delta = cache.probs.copy()
    rows = delta.reshape(-1, delta.shape[-1])
    rows[np.arange(len(rows)), cache.labels.ravel()] -= 1
    delta = delta * loss_weights[..., None]
    d0 = _backprop(layers, cache.inputs, delta, cache.activation, grads)
    return d0 @ layers[0].w.T


def backward_client(layers: list[DenseLayer], cache: Cache, activation_grads: np.ndarray, out: np.ndarray) -> None:
    """Backprop activation gradients through the client part (one model or
    a bank), writing the parameter gradient into the flat buffer ``out``.
    ``activation_grads`` has the cut activations' shape: the server's
    backward built it, or ``client_loop`` checked the ACT_GRADS frame."""
    grads = _grad_views(layers, cache, out)
    top = cache.output
    delta = activation_grads * _act_grad(top, cache.activation)
    _backprop(layers, cache.inputs, delta, cache.activation, grads)  # the inputs take no gradient


def sgd_state(layers: list[DenseLayer], lr: float, momentum: float) -> SgdState:
    """Zero momentum for the flat parameters that ``layers`` view; ``lr`` > 0
    and ``momentum`` in [0, 1), as ``config.validate`` checks."""
    widths, w = _widths(layers), layers[0].w
    size = sum(fan_in * fan_out + fan_out for fan_in, fan_out in zip(widths, widths[1:]))
    shape = (*w.shape[:-2], size)
    return SgdState(lr, momentum, np.zeros(shape, dtype=w.dtype), widths, np.empty(shape, dtype=w.dtype))


def sgd_step(params: np.ndarray, grads: np.ndarray, state: SgdState) -> None:
    """In-place momentum SGD on one part's flat parameters, or a bank's
    whole matrix at once: v <- m*v + g; p <- p - lr*v. A non-finite
    gradient raises :class:`NumericError` naming the first tensor, in
    layout order, that holds one, before anything is updated. Min and max
    propagate NaN, so the gradient's extremes are finite only when every
    entry is; lr*v goes into ``state.step``, rounded as ``state.lr * v`` is.
    ``grads`` has the shape of ``params``: the engine allocates each
    gradient buffer like the parameters it steps."""
    if not (math.isfinite(np.minimum.reduce(grads, axis=None)) and math.isfinite(np.maximum.reduce(grads, axis=None))):
        layers = layer_views(np.isfinite(grads), state.widths)
        bad = next(f"layer{i}.{n}" for i, l in enumerate(layers) for n in "wb" if not getattr(l, n).all())
        raise NumericError(f"non-finite gradient for tensor {bad}")
    v = state.velocity
    v *= state.momentum
    v += grads
    params -= np.multiply(v, state.lr, out=state.step)


def logits_from_activations(
    layers: list[DenseLayer], activations: np.ndarray, activation: str = "relu"
) -> np.ndarray:
    """Server-part forward without loss bookkeeping (evaluation path)."""
    logits = forward_hidden(layers[:-1], activations, activation) @ layers[-1].w
    logits += layers[-1].b
    return logits
