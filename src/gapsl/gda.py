"""Gradient direction alignment.

Given the leader gradient, each client's angular deviation from it is
measured, a mean-minus-scaled-std threshold (clamped into [0, pi/2])
decides which clients participate, as exact arithmetic decides it (see
:func:`filter_clients`), and surviving updates get a direction-aware
treatment: their loss is penalized by lambda*(1 - cos theta) and their
server-side gradient is nudged toward the leader by the first-order
correction

    g~ = g + (lambda_g / ||g||) * (u_leader - cos(theta) * u_g)

which vanishes exactly at alignment. The shift is orthogonal to g, so it
turns g toward the leader by atan(lambda_g * sin(theta) / ||g||^2); the
cosine to the leader rises iff that turn is below 2*theta, always for
theta >= pi/4, and a strong shift on a short g overshoots the leader and
lowers it (see :func:`alignment_correction`). The scalar penalty and the
summed global loss are reported. At lambda = 0 the shift is a signed
zero, so each corrected row equals its gradient.

GDA runs over the cohort's usable rows (``sqrt(sq) > EPS_NORM``, ``Cohort``'s
rule) and the leader that ``lgi.leader_gradient`` checked, so no norm it
divides by is degenerate. It corrects its survivors as one float64 block,
rounded to the gradients' dtype once. :class:`GdaOutcome` holds only the
survivors' rows; the id-keyed views the gates read are built on each read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import Cohort, GradientVector, angular_deviation, left_sum, mean_std, prepared

HALF_PI = math.pi / 2


@dataclass(frozen=True)
class GdaConfig:
    """Threshold sensitivity and penalty coefficient (both >= 0, as
    ``config.validate`` checks them), and an optional fixed threshold."""

    eta: float = 1.0
    lam: float = 5e-4
    threshold_override: float | None = None  # force a fixed threshold (reduction tests)


@dataclass
class GdaOutcome:
    threshold: float
    survivors: tuple[int, ...]  # ascending; the rows below are theirs
    losses: list[float]  # regularized
    global_loss: float
    corrected_rows: np.ndarray  # [survivors, params]
    fallback: bool  # True when no client survived the filter

    @property
    def regularized_losses(self) -> dict[int, float]:
        return dict(zip(self.survivors, self.losses))

    @property
    def corrected(self) -> dict[int, np.ndarray]:
        return dict(zip(self.survivors, self.corrected_rows))


def deviations_to_leader(cohort: Cohort, leader: GradientVector) -> list[float]:
    """Angle against the leader of each usable row, in the cohort's order.

    One product over the usable rows with the leader appended gives every
    <g, leader> and <leader, leader>; each row's squared norm comes from
    the cohort's Gram; ``lgi.leader_gradient`` checked the leader's norm.
    """
    lead = leader.v64
    # two leader columns: numpy hands a one-column product to gemv, which
    # sums in another order than the gemm behind the Gram
    rows = np.vstack([cohort.stack, lead])
    *dots, ll = (rows @ np.stack([lead, lead], axis=1))[:, 0].tolist()
    return [angular_deviation(g, lead, aa, ll, ab) for g, aa, ab in zip(cohort.stack, cohort.diag, dots)]


def adaptive_threshold(deviations: list[float], eta: float) -> float:
    """max(min(mean - eta*std, pi/2), 0) over the round's deviations."""
    mu, nu = mean_std(deviations)
    return max(min(mu - eta * nu, HALF_PI), 0.0)


def threshold_band(n: int, eta: float) -> float:
    """A bound on how far :func:`adaptive_threshold` of n deviations in
    [0, pi] lies from the exact max(min(mu - eta*nu, pi/2), 0).

    With u = 2^-53 and g = gamma_{n+5} = (n+5)u / (1 - (n+5)u), any
    summation order errs by at most gamma_{n-1} * n * pi, so the float
    mean errs by at most g*pi; the float std, of the float mean, by at most
    that plus g*nu (nu <= pi/2), so 2g*pi; eta*nu and mu - eta*nu add a
    rounding each, at most g*pi*eta and g*pi*(1 + eta). The clamp moves
    neither bound. So the error is at most g*pi*(2 + 4*eta), which
    4*pi*(1 + eta)*g covers with room for the rounding of ``d - threshold``.
    It holds for every finite eta >= 0 and every client count.
    """
    m = (n + 5) * 2.0**-53
    return 4.0 * math.pi * (1.0 + eta) * m / (1.0 - m)


def exactly_kept(deviations: list[float], eta: float):
    """The predicate d <= max(min(mu - eta*nu, pi/2), 0) over ``deviations``,
    for d among them, in exact arithmetic: d <= 0, or d <= pi/2 and
    mu - d >= 0 and (mu - d)^2 >= eta^2 * var.

    Every float is an integer over a power of two, so the largest
    denominator D is common to all. With A = d*D, s = sum(A) and n the
    count, n*D*(mu - d) = s - n*A and n^2*D^2*var = n*sum(A^2) - s^2, and
    the last test compares integers.
    """
    ratios = [float(d).as_integer_ratio() for d in deviations]
    den = max(b for _, b in ratios)
    nums = [a * (den // b) for a, b in ratios]
    n, s = len(nums), sum(nums)
    spread = n * sum(a * a for a in nums) - s * s
    p, q = float(eta).as_integer_ratio()

    def kept(d: float) -> bool:
        if d <= 0.0 or d > HALF_PI:
            return d <= 0.0
        a, b = float(d).as_integer_ratio()
        gap = s - n * a * (den // b)
        return gap >= 0 and (gap * q) ** 2 >= p * p * spread

    return kept


def filter_clients(deviations: list[float], threshold: float, eta: float | None = None) -> tuple[int, ...]:
    """Positions of the deviations at or below the threshold, ascending; may be empty.

    Given ``eta``, ``threshold`` is ``adaptive_threshold(deviations, eta)``
    and membership is decided as exact arithmetic decides it: in float for
    a deviation farther than :func:`threshold_band` from the threshold,
    by :func:`exactly_kept` within it. So a 2-client round at eta = 1, whose
    exact threshold is the nearer deviation, keeps that client whenever it
    is within pi/2. Without ``eta`` (a fixed threshold) the float
    comparison decides.
    """
    if eta is None:
        return tuple(k for k, d in enumerate(deviations) if d <= threshold)
    band = threshold_band(len(deviations), eta)
    near = [abs(d - threshold) <= band for d in deviations]
    kept = exactly_kept(deviations, eta) if any(near) else None
    return tuple(k for k, (d, n) in enumerate(zip(deviations, near)) if (kept(d) if n else d < threshold))


def regularized_loss(loss: float, deviation: float, lam: float) -> float:
    """Local loss plus the direction penalty lambda * (1 - cos(theta))."""
    return loss + lam * (1.0 - math.cos(deviation))


def alignment_correction(g: np.ndarray, leader: np.ndarray, lambda_g: float | list[float]) -> np.ndarray:
    """Shift ``g`` toward the leader direction; identity when already aligned.

    With w the unit vector orthogonal to g in the plane of g and the
    leader, the result is ||g|| * u_g + (lambda_g / ||g||) * sin(theta) * w:
    g turned toward the leader by phi = atan(lambda_g * sin(theta) / ||g||^2).
    The angle to the leader becomes |theta - phi|, so for theta in (0, pi)
    the cosine rises iff phi < 2 * theta, and falls when the turn
    overshoots the leader by more than theta.

    ``g`` is one vector or an ``[S, P]`` block with one ``lambda_g`` or S of
    them. A matmul of ``[S, 1, P]`` by ``[S, P, 1]`` takes every row's dot
    product as ``v.dot(w)`` does, so a block equals S one-vector calls bit
    for bit, and its squared norms are those ``GradientVector.sq`` and
    ``Cohort.sq`` hold. ``run_gda`` passes usable rows and the leader
    ``lgi.leader_gradient`` checked, so no norm is degenerate. The result
    keeps the dtype of ``g``; the math runs in float64.
    """
    l64 = leader.astype(np.float64, copy=False)
    ln = math.sqrt(l64.dot(l64))
    rows = g.astype(np.float64, copy=False).reshape(-1, g.shape[-1])
    # the row norms as one column, np.linalg.norm's bits
    gn = np.sqrt((rows[:, None] @ rows[:, :, None])[:, 0])
    u_g = rows / gn
    u_l = l64 / ln
    # g + (lambda_g / ||g||) * (u_l - cos * u_g) in place, each step as the formula rounds it
    shift = (u_g[:, None] @ u_l) * u_g
    np.subtract(u_l, shift, out=shift)
    shift *= np.asarray(lambda_g, dtype=np.float64).reshape(-1, 1) / gn
    shift += rows
    return shift.astype(g.dtype).reshape(g.shape)


def run_gda(
    cohort: Cohort | list[GradientVector],
    losses: dict[int, float] | np.ndarray,
    leader: GradientVector,
    config: GdaConfig,
    rng: np.random.Generator | None = None,
) -> GdaOutcome:
    """One full alignment pass: deviations, threshold, filter, regularize.

    ``losses`` holds the clients' losses by cohort row, or keyed by id.
    Given ``rng``, a uniformly random subset of the usable clients drawn
    from it, as large as the threshold-filtered set, replaces that set (the
    random-survivor ablation); the threshold is still computed and reported.
    The adaptive threshold's members are decided exactly
    (:func:`filter_clients`); a ``threshold_override`` is compared in
    float. The per-client correction strength is lambda_g = lambda * ||g||,
    so the gradient shift has magnitude lambda * sin(theta) whatever ||g||
    is (see :func:`alignment_correction`). ``leader`` is one that
    ``lgi.leader_gradient`` checked, as the engine passes it.
    """
    cohort = prepared(cohort)
    deviations = deviations_to_leader(cohort, leader)
    eta = config.eta if config.threshold_override is None else None
    threshold = config.threshold_override if eta is None else adaptive_threshold(deviations, eta)
    kept = filter_clients(deviations, threshold, eta)  # positions among the usable rows

    if rng is not None:
        kept = tuple(sorted(rng.choice(len(deviations), size=len(kept), replace=False).tolist()))

    rows = [cohort.usable_rows[s] for s in kept]
    survivors = tuple(cohort.ids[k] for k in rows)
    keys = survivors if isinstance(losses, dict) else rows
    penalized = [regularized_loss(losses[key], deviations[s], config.lam) for key, s in zip(keys, kept)]
    # the survivors' float64 rows, as the cohort holds them: rounded to the gradients' dtype once
    lambda_g = [config.lam * math.sqrt(cohort.sq[k]) for k in rows]
    block = alignment_correction(cohort.stack[list(kept)], leader.v64, lambda_g)
    block = block.astype(cohort.values.dtype, copy=False)

    return GdaOutcome(
        threshold=threshold,
        survivors=survivors,
        losses=penalized,
        global_loss=float(left_sum(penalized)),  # the engine's losses are np.float64
        corrected_rows=block,
        fallback=not survivors,
    )
