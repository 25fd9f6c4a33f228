"""Flat-vector gradient geometry.

Gradients are flattened into 1-D vectors (layers in forward order, each
layer's weights row-major followed by its biases) and compared by angle.
All angle math runs in float64 regardless of the vectors' storage dtype;
cosines are clamped to [-1, 1] before arccos so near-parallel vectors
never produce NaN.

A round compares every gradient with every other, so each vector is cast
to float64 and its squared norm taken once (:class:`GradientVector`);
each angle then costs one cross dot product.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import DegenerateGradientError

# Vectors with norm at or below this are degenerate: their direction is
# meaningless and they are excluded from all scoring and selection.
EPS_NORM = 1e-12


@dataclass
class GradientVector:
    """One client's flattened server-side parameter gradient for a round.

    ``v64`` is ``values`` in float64 and ``sq`` its squared norm <v64, v64>,
    both taken once at construction; ``values`` must not change afterwards.
    """

    client_id: int
    round: int
    values: np.ndarray
    v64: np.ndarray = field(init=False, repr=False)
    sq: float = field(init=False, repr=False)

    def __post_init__(self):
        self.v64 = self.values.astype(np.float64, copy=False)
        self.sq = float(self.v64.dot(self.v64))

    def norm(self) -> float:
        # np.linalg.norm of a real 1-D vector is sqrt(x.dot(x)): same bits
        return math.sqrt(self.sq)

    def is_degenerate(self) -> bool:
        return self.norm() <= EPS_NORM


def flatten(tensors: Sequence[np.ndarray]) -> np.ndarray:
    """Concatenate tensors into one 1-D vector, row-major within each tensor."""
    if not tensors:
        raise ValueError("cannot flatten an empty tensor list")
    return np.concatenate([np.ravel(t, order="C") for t in tensors])


def unflatten(vector: np.ndarray, shapes: Sequence[tuple[int, ...]]) -> list[np.ndarray]:
    """Inverse of :func:`flatten` given the original tensor shapes."""
    out = []
    pos = 0
    for shape in shapes:
        size = int(np.prod(shape)) if shape else 1
        out.append(vector[pos : pos + size].reshape(shape))
        pos += size
    if pos != vector.size:
        raise ValueError(f"vector length {vector.size} does not match shapes (need {pos})")
    return out


def cosine(a: np.ndarray, b: np.ndarray, aa: float | None = None, bb: float | None = None) -> float:
    """Cosine of the angle between two vectors, clamped into [-1, 1].

    The norm product is taken as sqrt(<a,a> * <b,b>) so identical vectors
    land on exactly 1.0 before the clamp. A caller that holds a vector's
    squared norm passes it as ``aa`` / ``bb``; that vector must then already
    be float64 (``GradientVector.v64`` and ``.sq``).
    """
    if aa is None:
        a = a.astype(np.float64, copy=False)
        aa = float(a.dot(a))
    if bb is None:
        b = b.astype(np.float64, copy=False)
        bb = float(b.dot(b))
    if aa <= EPS_NORM * EPS_NORM or bb <= EPS_NORM * EPS_NORM:
        raise DegenerateGradientError(
            f"cosine undefined for near-zero vector (norms {math.sqrt(aa):.3e}, {math.sqrt(bb):.3e})"
        )
    c = float(a.dot(b)) / math.sqrt(aa * bb)
    # min(1.0, max(-1.0, c)) without the builtin calls; NaN still maps to -1.0
    c = c if c > -1.0 else -1.0
    return c if c < 1.0 else 1.0


def angular_deviation(
    a: np.ndarray, b: np.ndarray, aa: float | None = None, bb: float | None = None
) -> float:
    """Angle in [0, pi] between two gradient vectors (``aa``/``bb`` as in :func:`cosine`)."""
    return float(np.arccos(cosine(a, b, aa, bb)))


def pairwise_mean_deviation(vectors: Sequence[np.ndarray | GradientVector]) -> float | None:
    """Mean angle over all distinct pairs, excluding degenerate vectors.

    Takes plain arrays or an already prepared cohort. Returns None when
    fewer than two non-degenerate vectors remain.
    """
    prepared = (
        v if isinstance(v, GradientVector) else GradientVector(i, 0, v) for i, v in enumerate(vectors)
    )
    usable = [(g.v64, g.sq) for g in prepared if not g.is_degenerate()]
    if len(usable) < 2:
        return None
    total = 0.0
    pairs = 0
    for i, (a, aa) in enumerate(usable):
        for b, bb in usable[i + 1 :]:
            total += angular_deviation(a, b, aa, bb)
            pairs += 1
    return total / pairs


def mean_std(values: Sequence[float]) -> tuple[float, float]:
    """Mean and population standard deviation (divide by n) of a sample."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.size == 0:
        raise ValueError("mean_std of an empty sequence")
    return float(np.mean(arr)), float(np.std(arr))
