"""Flat-vector gradient geometry.

Gradients are flattened into 1-D vectors (layers in forward order, each
layer's weights row-major followed by its biases) and compared by angle.
All angle math runs in float64 regardless of the vectors' storage dtype;
cosines are clamped to [-1, 1] before arccos so near-parallel vectors
never produce NaN.

A round compares every gradient with every other, so its cohort is
prepared once (:class:`Cohort`): the usable rows are stacked in float64
and their Gram matrix taken by one product. Each angle then reads its
cross dot product and both squared norms from that Gram: three table
lookups, one square root and one ``math.acos``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .errors import ConfigError, DegenerateGradientError

# Vectors with norm at or below this are degenerate: their direction is
# meaningless and they are excluded from all scoring and selection.
EPS_NORM = 1e-12
_EPS_SQ = EPS_NORM * EPS_NORM


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


class Cohort:
    """One round's gradients, prepared once for every angle the round takes.

    ``vectors`` are the :class:`GradientVector` s in ascending client id
    and ``usable`` the non-degenerate ones, each judged on its own ``sq``.
    ``stack`` holds the usable rows in float64, ``gram`` their Gram matrix
    ``stack @ stack.T`` (one product) and ``diag`` its diagonal as Python
    floats. A loop over the Gram takes one row at a time as a list:
    Python floats are what the per-pair arithmetic wants, and all n² of
    them at once would take 32 bytes each (32 MB at 1000 clients).
    Raises :class:`ConfigError` when the gradients disagree on length.
    """

    def __init__(self, vectors: Iterable[GradientVector]):
        self.vectors = sorted(vectors, key=lambda g: g.client_id)
        shapes = {g.values.shape for g in self.vectors}
        if len(shapes) > 1:
            raise ConfigError(f"cohort gradients disagree on length: {sorted(shapes)}")
        self.by_id = {g.client_id: g for g in self.vectors}
        degenerate = [g.is_degenerate() for g in self.vectors]
        self.usable = [g for g, d in zip(self.vectors, degenerate) if not d]
        self.excluded = tuple(g.client_id for g, d in zip(self.vectors, degenerate) if d)
        width = self.vectors[0].values.size if self.vectors else 0
        self.stack = np.stack([g.v64 for g in self.usable]) if self.usable else np.zeros((0, width))
        self.gram = self.stack @ self.stack.T
        self.diag = self.gram.diagonal().tolist()


def prepared(cohort: Cohort | Iterable[GradientVector]) -> Cohort:
    """``cohort`` itself when already prepared, else its :class:`Cohort`."""
    return cohort if isinstance(cohort, Cohort) else Cohort(cohort)


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


def angular_deviation(
    a: np.ndarray,
    b: np.ndarray,
    aa: float | None = None,
    bb: float | None = None,
    ab: float | None = None,
) -> float:
    """Angle in [0, pi] between two vectors from <a,a>, <b,b> and <a,b>.

    A caller that holds any of the three dot products passes it as ``aa``,
    ``bb`` or ``ab``; the others are taken here in float64, so a vector
    whose squared norm is passed must already be float64
    (``GradientVector.v64`` and ``.sq``). The cosine <a,b> / sqrt(<a,a> *
    <b,b>) is clamped into [-1, 1] before ``math.acos``.

    Taken here by one dot kernel, the three products share one summation
    order, so a vector and its copy or positive power-of-two multiple give
    exactly 0.0. Read from a :class:`Cohort`'s Gram they need not: BLAS
    tiles the product, so a row's cross product with such a twin can round
    one ulp away from the diagonal entries, and ``acos`` turns one ulp of
    cosine below 1 into about 1e-8 rad. Away from parallel the Gram angle
    agrees with a plain-Python float64 loop to about 1e-15 rad.
    """
    if aa is None:
        a = a.astype(np.float64, copy=False)
        aa = float(a.dot(a))
    if bb is None:
        b = b.astype(np.float64, copy=False)
        bb = float(b.dot(b))
    if aa <= _EPS_SQ or bb <= _EPS_SQ:
        raise DegenerateGradientError(
            f"cosine undefined for near-zero vector (norms {math.sqrt(aa):.3e}, {math.sqrt(bb):.3e})"
        )
    if ab is None:
        ab = float(a.dot(b))
    # sqrt(<a,a> * <b,b>), not a product of roots: equal inputs give exactly 1.0
    c = ab / math.sqrt(aa * bb)
    # min(1.0, max(-1.0, c)) without the builtin calls; NaN still maps to -1.0
    c = c if c > -1.0 else -1.0
    return math.acos(c if c < 1.0 else 1.0)


def pairwise_mean_deviation(cohort: Cohort | Sequence[np.ndarray]) -> float | None:
    """Mean angle over all distinct pairs, excluding degenerate vectors.

    Takes a prepared cohort or plain arrays. Returns None when fewer than
    two non-degenerate vectors remain.
    """
    if not isinstance(cohort, Cohort):
        cohort = Cohort(GradientVector(i, 0, v) for i, v in enumerate(cohort))
    rows, gram, diag = [g.v64 for g in cohort.usable], cohort.gram, cohort.diag
    n = len(rows)
    if n < 2:
        return None
    total = 0.0
    for i in range(n):
        a, aa, row = rows[i], diag[i], gram[i].tolist()
        for j in range(i + 1, n):
            total += angular_deviation(a, rows[j], aa, diag[j], row[j])
    return total / (n * (n - 1) // 2)


def mean_std(values: Sequence[float]) -> tuple[float, float]:
    """Mean and population standard deviation (divide by n) of a sample."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.size == 0:
        raise ValueError("mean_std of an empty sequence")
    return float(np.mean(arr)), float(np.std(arr))
