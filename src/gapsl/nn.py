"""Minimal dense neural-network engine with split execution.

A model is a stack of dense layers cut at an index into a client part and
a server part. Hidden layers apply ReLU or tanh; the final layer emits
logits consumed by softmax cross-entropy. Everything is plain numpy so
gradients are exact and checkable against finite differences.

Two precisions are supported through the ``dtype`` argument of
:func:`split_model`: float32 for experiment runs, float64 for tests that
need tight finite-difference tolerances.

The client-side functions (:func:`forward_client`, :func:`backward_client`,
:func:`sgd_step`) also run a whole bank of clients at once: every array
then carries a leading client axis (weights ``[clients, fan_in, fan_out]``,
biases ``[clients, 1, fan_out]``, inputs ``[clients, batch, fan_in]``) and
``np.matmul`` multiplies client by client.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DataError, NumericError, ProtocolError

ACTIVATIONS = ("relu", "tanh")
LOSSES = ("softmax_cross_entropy",)


@dataclass(frozen=True)
class ModelSpec:
    """Layer widths plus the hidden activation and loss choices."""

    layer_dims: tuple[int, ...]
    activation: str = "relu"
    loss: str = "softmax_cross_entropy"

    def __post_init__(self):
        if len(self.layer_dims) < 3:
            raise ConfigError(f"need >= 3 layer dims for a nontrivial cut, got {self.layer_dims}")
        if any(d < 1 for d in self.layer_dims):
            raise ConfigError(f"layer dims must be >= 1, got {self.layer_dims}")
        if self.activation not in ACTIVATIONS:
            raise ConfigError(f"unknown activation {self.activation!r}, expected one of {ACTIVATIONS}")
        if self.loss not in LOSSES:
            raise ConfigError(f"unknown loss {self.loss!r}, expected one of {LOSSES}")

    @property
    def num_layers(self) -> int:
        return len(self.layer_dims) - 1

    @property
    def num_classes(self) -> int:
        return self.layer_dims[-1]


@dataclass
class DenseLayer:
    w: np.ndarray  # [fan_in, fan_out]; [clients, fan_in, fan_out] in a bank
    b: np.ndarray  # [fan_out]; [clients, 1, fan_out] in a bank


@dataclass
class SplitModel:
    spec: ModelSpec
    cut_index: int
    client: list[DenseLayer]
    server: list[DenseLayer]

    @property
    def dtype(self) -> np.dtype:
        return self.client[0].w.dtype


@dataclass
class LayerCache:
    """Per-layer forward state needed by the backward pass."""

    inputs: np.ndarray    # layer input a_{k-1}
    preact: np.ndarray    # z_k = a_{k-1} @ W + b


@dataclass
class ClientCache:
    activation: str
    layers: list[LayerCache]
    shapes: list[tuple[tuple[int, ...], tuple[int, ...]]]


@dataclass
class ServerCache:
    activation: str
    layers: list[LayerCache]  # hidden server layers plus the final linear layer
    shapes: list[tuple[tuple[int, ...], tuple[int, ...]]]
    probs: np.ndarray         # softmax rows, [batch, classes]
    labels: np.ndarray


@dataclass
class SgdState:
    """SGD-with-momentum state: v <- m*v + g; p <- p - lr*v."""

    lr: float
    momentum: float
    velocity: list[tuple[np.ndarray, np.ndarray]] = field(default_factory=list)


def _act(z: np.ndarray, activation: str) -> np.ndarray:
    if activation == "relu":
        return np.maximum(z, 0)
    return np.tanh(z)


def _act_grad(z: np.ndarray, activation: str) -> np.ndarray:
    if activation == "relu":
        return (z > 0).astype(z.dtype)
    t = np.tanh(z)
    return 1 - t * t


def _layer_shapes(layers: list[DenseLayer]) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    return [(tuple(l.w.shape), tuple(l.b.shape)) for l in layers]


def _check_cache(layers: list[DenseLayer], cached_shapes) -> None:
    if _layer_shapes(layers) != cached_shapes:
        raise ProtocolError(
            "cache does not match these layers; it was produced by a different forward pass"
        )


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
    """
    if not (1 <= cut_index <= spec.num_layers - 1):
        raise ConfigError(
            f"cut_index {cut_index} out of range [1, {spec.num_layers - 1}] for dims {spec.layer_dims}"
        )
    rng = np.random.default_rng(seed)
    layers = []
    for fan_in, fan_out in zip(spec.layer_dims[:-1], spec.layer_dims[1:]):
        a = np.sqrt(6.0 / (fan_in + fan_out))
        w = rng.uniform(-a, a, size=(fan_in, fan_out)).astype(dtype)
        b = np.zeros(fan_out, dtype=dtype)
        layers.append(DenseLayer(w, b))
    return SplitModel(spec=spec, cut_index=cut_index, client=layers[:cut_index], server=layers[cut_index:])


def params_arrays(layers: list[DenseLayer]) -> list[np.ndarray]:
    """Parameter tensors in canonical flattening order: per layer, weights then bias."""
    out = []
    for l in layers:
        out.append(l.w)
        out.append(l.b)
    return out


def grads_arrays(grads: list[tuple[np.ndarray, np.ndarray]]) -> list[np.ndarray]:
    out = []
    for dw, db in grads:
        out.append(dw)
        out.append(db)
    return out


def param_count(layers: list[DenseLayer]) -> int:
    return sum(a.size for a in params_arrays(layers))


def forward_client(
    layers: list[DenseLayer], inputs: np.ndarray, activation: str = "relu"
) -> tuple[np.ndarray, ClientCache]:
    """Run the client part; returns cut-layer activations and the backward cache.

    ``inputs`` is ``[batch, fan_in]`` for one model and
    ``[clients, batch, fan_in]`` for a bank.
    """
    w = layers[0].w
    if inputs.ndim != w.ndim or inputs.shape[:-2] != w.shape[:-2] or inputs.shape[-1] != w.shape[-2]:
        raise ConfigError(f"input shape {inputs.shape} does not match first layer weights {w.shape}")
    a = inputs
    caches = []
    for l in layers:
        z = a @ l.w + l.b
        caches.append(LayerCache(inputs=a, preact=z))
        a = _act(z, activation)
    return a, ClientCache(activation=activation, layers=caches, shapes=_layer_shapes(layers))


def forward_server(
    layers: list[DenseLayer],
    activations: np.ndarray,
    labels: np.ndarray,
    activation: str = "relu",
) -> tuple[np.ndarray, float, ServerCache]:
    """Run the server part and the loss; returns per-example losses, their mean, and the cache."""
    if activations.ndim != 2 or activations.shape[1] != layers[0].w.shape[0]:
        raise ConfigError(
            f"activation shape {activations.shape} does not match server fan-in {layers[0].w.shape[0]}"
        )
    num_classes = layers[-1].w.shape[1]
    labels = np.asarray(labels)
    if labels.shape[0] != activations.shape[0]:
        raise DataError(f"{labels.shape[0]} labels for {activations.shape[0]} examples")
    if labels.size and (labels.min() < 0 or labels.max() >= num_classes):
        raise DataError(f"label out of range [0, {num_classes}): {labels.min()}..{labels.max()}")

    a = activations
    caches = []
    for l in layers[:-1]:
        z = a @ l.w + l.b
        caches.append(LayerCache(inputs=a, preact=z))
        a = _act(z, activation)
    last = layers[-1]
    logits = a @ last.w + last.b
    caches.append(LayerCache(inputs=a, preact=logits))

    shifted = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    probs = exp / exp.sum(axis=1, keepdims=True)
    log_z = np.log(exp.sum(axis=1)) + logits.max(axis=1)
    per_example = log_z - logits[np.arange(len(labels)), labels]
    cache = ServerCache(
        activation=activation, layers=caches, shapes=_layer_shapes(layers), probs=probs, labels=labels
    )
    return per_example, float(per_example.mean()), cache


def backward_server(
    layers: list[DenseLayer],
    cache: ServerCache,
    loss_weights: np.ndarray | None = None,
) -> tuple[list[tuple[np.ndarray, np.ndarray]], np.ndarray]:
    """Backprop the (weighted) per-example losses through the server part.

    ``loss_weights`` defaults to 1/batch for every example, i.e. the
    gradient of the mean loss. Returns per-layer (dW, db) grads plus the
    gradient w.r.t. the incoming activations.
    """
    _check_cache(layers, cache.shapes)
    batch = cache.probs.shape[0]
    if loss_weights is None:
        loss_weights = np.full(batch, 1.0 / batch, dtype=cache.probs.dtype)
    onehot = np.zeros_like(cache.probs)
    onehot[np.arange(batch), cache.labels] = 1
    delta = (cache.probs - onehot) * loss_weights[:, None]

    grads: list[tuple[np.ndarray, np.ndarray]] = [None] * len(layers)  # type: ignore[list-item]
    for k in range(len(layers) - 1, -1, -1):
        lc = cache.layers[k]
        if k < len(layers) - 1:
            delta = delta * _act_grad(lc.preact, cache.activation)
        grads[k] = (lc.inputs.T @ delta, delta.sum(axis=0))
        delta = delta @ layers[k].w.T
    return grads, delta


def backward_client(
    layers: list[DenseLayer],
    cache: ClientCache,
    activation_grads: np.ndarray,
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Backprop activation gradients through the client part (one model or a bank)."""
    _check_cache(layers, cache.shapes)
    last = cache.layers[-1]
    if activation_grads.shape != last.preact.shape:
        raise ProtocolError(
            f"activation grad shape {activation_grads.shape} does not match cut shape {last.preact.shape}"
        )
    delta = activation_grads
    grads: list[tuple[np.ndarray, np.ndarray]] = [None] * len(layers)  # type: ignore[list-item]
    for k in range(len(layers) - 1, -1, -1):
        lc = cache.layers[k]
        delta = delta * _act_grad(lc.preact, cache.activation)
        grads[k] = (lc.inputs.swapaxes(-1, -2) @ delta, delta.sum(axis=-2).reshape(layers[k].b.shape))
        if k:  # the client's inputs take no gradient
            delta = delta @ layers[k].w.swapaxes(-1, -2)
    return grads


def sgd_state(layers: list[DenseLayer], lr: float, momentum: float) -> SgdState:
    if lr <= 0:
        raise ConfigError(f"learning rate must be > 0, got {lr}")
    if not (0 <= momentum < 1):
        raise ConfigError(f"momentum must be in [0, 1), got {momentum}")
    vel = [(np.zeros_like(l.w), np.zeros_like(l.b)) for l in layers]
    return SgdState(lr=lr, momentum=momentum, velocity=vel)


def sgd_step(
    layers: list[DenseLayer],
    grads: list[tuple[np.ndarray, np.ndarray]],
    state: SgdState,
) -> None:
    """In-place momentum SGD update: v <- m*v + g; p <- p - lr*v.

    Elementwise, so a bank steps every client's model in one call.
    """
    if len(grads) != len(layers) or len(state.velocity) != len(layers):
        raise ConfigError("layers, grads and optimizer state have different lengths")
    for i, (l, (dw, db), (vw, vb)) in enumerate(zip(layers, grads, state.velocity)):
        for name, p, g, v in (("w", l.w, dw, vw), ("b", l.b, db, vb)):
            if not np.isfinite(g).all():
                raise NumericError(f"non-finite gradient for tensor layer{i}.{name}")
            v *= state.momentum
            v += g
            p -= state.lr * v


def logits_from_activations(
    layers: list[DenseLayer], activations: np.ndarray, activation: str = "relu"
) -> np.ndarray:
    """Server-part forward without loss bookkeeping (evaluation path)."""
    a = activations
    for l in layers[:-1]:
        a = _act(a @ l.w + l.b, activation)
    return a @ layers[-1].w + layers[-1].b
