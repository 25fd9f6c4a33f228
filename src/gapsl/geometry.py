"""Flat-vector gradient geometry.

A gradient is a flat vector in :func:`gapsl.nn.layer_views`' layout (per
layer in forward order, weights row-major, then biases), as the server
passes write it into its row of the round's ``g[clients, params]``.
Vectors are compared by angle, in float64 whatever their storage dtype;
cosines are clamped to [-1, 1] so near-parallel vectors never give NaN.

A round's gradients are one ``[clients, params]`` matrix, prepared once
(:class:`Cohort`): its usable rows are stacked in float64 and their Gram
matrix taken by one product. Each angle then reads its cross dot product
and both squared norms from that Gram: three table lookups, one square
root and one ``math.acos``. LGI and GDA run over the cohort's rows and
hold each result once, by row. The id-keyed views read off those rows,
:class:`GradientVector` (one client's record, or the round's leader) and
:func:`prepared` (a cohort of such records) are the API the gates call.

The round statistics call ``ufunc.reduce`` and ``dot`` directly, as
:func:`mean_std` does: ``np.mean``, ``np.std`` and ``np.linalg.norm`` give
the same bits behind Python wrappers that cost 3-10 us per call on
16-row arrays.
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
    """One client's flattened server-side parameter gradient for a round."""

    client_id: int
    round: int
    values: np.ndarray
    # float64 copy and squared norm, taken once: a round's leader is read three times
    v64: np.ndarray = field(init=False, repr=False, compare=False)
    sq: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.v64 = self.values.astype(np.float64, copy=False)
        self.sq = float(self.v64.dot(self.v64))

    def norm(self) -> float:
        # np.linalg.norm of a real 1-D vector is sqrt(x.dot(x)): same bits
        return math.sqrt(self.sq)

    def is_degenerate(self) -> bool:
        return self.norm() <= EPS_NORM


class Cohort:
    """One round's gradients as one matrix, prepared once for every angle
    the round takes.

    ``values[k]`` is the gradient of client ``ids[k]``, ids ascending, and
    ``sq[k]`` its float64 squared norm: one stacked matmul of ``[n, 1, P]``
    by ``[n, P, 1]`` gives every row's ``v.dot(v)``, bit for bit. A row whose
    norm ``sqrt(sq[k])`` is at most ``EPS_NORM`` is degenerate; ``usable``
    lists the other ids and ``usable_rows`` their rows. ``stack`` holds the
    usable rows in float64: the float64 cast of ``values`` itself when every
    row is usable, so it shares ``values``' memory when ``values`` is
    float64. ``gram`` is their Gram matrix ``stack @ stack.T`` (one product)
    and ``diag`` its diagonal as Python floats. A loop over the Gram takes
    one row at a time as a list: Python floats are what the per-pair
    arithmetic wants, and all n² of them at once would take 32 bytes each
    (32 MB at 1000 clients).
    """

    def __init__(self, ids: Sequence[int], values: np.ndarray, round_t: int):
        self.ids = list(ids)
        self.values = values
        self.round = round_t
        v64 = values.astype(np.float64, copy=False)
        sq = (v64[:, None] @ v64[:, :, None]).ravel()
        self.sq = sq.tolist()
        keep = np.sqrt(sq) > EPS_NORM
        self.usable_rows = np.flatnonzero(keep).tolist()
        self.usable = [self.ids[k] for k in self.usable_rows]
        self.stack = v64 if len(self.usable_rows) == len(self.ids) else v64[keep]
        self.gram = self.stack @ self.stack.T
        self.diag = self.gram.diagonal().tolist()


def prepared(cohort: Cohort | Iterable[GradientVector]) -> Cohort:
    """``cohort`` itself when already prepared, else the :class:`Cohort` of
    its gradients. Raises :class:`ConfigError` when they disagree on length."""
    if isinstance(cohort, Cohort):
        return cohort
    vectors = sorted(cohort, key=lambda g: g.client_id)
    shapes = {g.values.shape for g in vectors}
    if len(shapes) > 1:
        raise ConfigError(f"cohort gradients disagree on length: {sorted(shapes)}")
    values = np.stack([g.values for g in vectors]) if vectors else np.zeros((0, 0))
    return Cohort([g.client_id for g in vectors], values, vectors[0].round if vectors else 0)


def angular_deviation(
    a: np.ndarray,
    b: np.ndarray,
    aa: float | None = None,
    bb: float | None = None,
    ab: float | None = None,
) -> float:
    """Angle in [0, pi] between two vectors from <a,a>, <b,b> and <a,b>.

    A caller passes all three float64 dot products as ``aa``, ``bb`` and
    ``ab``, of a :class:`Cohort`'s usable rows and GDA's checked leader, and
    ``a`` and ``b`` are not read; or none: they are taken here in float64,
    and a near-zero vector raises :class:`DegenerateGradientError`. The
    cosine <a,b> / sqrt(<a,a> * <b,b>) is clamped into [-1, 1] before ``math.acos``.

    Taken here by one dot kernel, the three products share one summation
    order, so a vector and its copy or positive power-of-two multiple give
    exactly 0.0. Read from a :class:`Cohort`'s Gram they need not: BLAS
    tiles the product, so a row's cross product with such a twin can round
    one ulp away from the diagonal entries, and ``acos`` turns one ulp of
    cosine below 1 into about 1e-8 rad. Away from parallel the Gram angle
    agrees with a plain-Python float64 loop to about 1e-15 rad.
    """
    if ab is None:
        a, b = a.astype(np.float64, copy=False), b.astype(np.float64, copy=False)
        aa, bb, ab = float(a.dot(a)), float(b.dot(b)), float(a.dot(b))
        if aa <= _EPS_SQ or bb <= _EPS_SQ:
            raise DegenerateGradientError(
                f"cosine undefined for near-zero vector (norms {math.sqrt(aa):.3e}, {math.sqrt(bb):.3e})"
            )
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
        cohort = prepared(GradientVector(i, 0, v) for i, v in enumerate(cohort))
    rows, gram, diag = list(cohort.stack), cohort.gram, cohort.diag
    n = len(rows)
    if n < 2:
        return None
    total = 0.0
    for i in range(n):
        a, aa, row = rows[i], diag[i], gram[i].tolist()
        for j in range(i + 1, n):
            total += angular_deviation(a, rows[j], aa, diag[j], row[j])
    return total / (n * (n - 1) // 2)


def left_sum(values: Iterable[float]) -> float:
    """Add ``values`` one after another from 0.0, without compensation.

    From Python 3.12 the builtin ``sum`` of floats is compensated, so it
    would tie a run's bits to the Python version it replays on.
    """
    total = 0.0
    for x in values:
        total += x
    return total


def mean_std(values: Sequence[float]) -> tuple[float, float]:
    """Mean and population standard deviation (divide by n) of a sample.
    These are the steps ``np.mean`` and ``np.std`` take, so the bits are theirs."""
    arr = np.asarray(values, dtype=np.float64)
    n = arr.size
    if n == 0:
        raise ValueError("mean_std of an empty sequence")
    mean = np.add.reduce(arr) / n
    dev = arr - mean
    dev *= dev
    return float(mean), math.sqrt(np.add.reduce(dev) / n)
