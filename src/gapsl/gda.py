"""Gradient direction alignment.

Given the leader gradient, each client's angular deviation from it is
measured, a mean-minus-scaled-std threshold (clamped into [0, pi/2])
decides which clients participate, and surviving updates get a
direction-aware treatment: their loss is penalized by lambda*(1 - cos
theta) and their server-side gradient is nudged toward the leader by the
first-order correction

    g~ = g + (lambda_g / ||g||) * (u_leader - cos(theta) * u_g)

which vanishes exactly at alignment. The shift is orthogonal to g, so it
turns g toward the leader by atan(lambda_g * sin(theta) / ||g||^2); the
cosine to the leader rises iff that turn is below 2*theta, always for
theta >= pi/4, and a strong shift on a short g overshoots the leader and
lowers it (see :func:`alignment_correction`). The penalty can also run as a
loss-value-only variant (no gradient shift) for ablations; the scalar
penalty and summed global loss are reported either way.

GDA runs over the cohort's usable rows and corrects its survivors as one
float64 block, read from the cohort's stack and rounded to the gradients'
dtype once; the correction takes the block's and the leader's norms in
the forms the cohort takes them. :class:`GdaOutcome` holds only the
survivors' rows; the id-keyed views the gates read are built on each read.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .errors import CoordinationSkipped
from .geometry import EPS_NORM, Cohort, GradientVector, angular_deviation, left_sum, mean_std, prepared

log = logging.getLogger(__name__)

HALF_PI = math.pi / 2


@dataclass(frozen=True)
class GdaConfig:
    """Threshold sensitivity and penalty coefficient (both >= 0, as
    ``config.validate`` checks them), and realization switches."""

    eta: float = 1.0
    lam: float = 5e-4
    apply_correction: bool = True       # False = loss-value-only ablation variant
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
    the cohort's Gram. Raises :class:`CoordinationSkipped` for a degenerate leader.
    """
    lead = leader.v64
    # two leader columns: numpy hands a one-column product to gemv, which
    # sums in another order than the gemm behind the Gram
    rows = np.vstack([cohort.stack, lead])
    *dots, ll = (rows @ np.stack([lead, lead], axis=1))[:, 0].tolist()
    if math.sqrt(ll) <= EPS_NORM:
        raise CoordinationSkipped("leader gradient is degenerate")
    return [angular_deviation(g, lead, aa, ll, ab) for g, aa, ab in zip(cohort.stack, cohort.diag, dots)]


def adaptive_threshold(deviations: list[float], eta: float) -> float:
    """max(min(mean - eta*std, pi/2), 0) over the round's deviations."""
    mu, nu = mean_std(deviations)
    return max(min(mu - eta * nu, HALF_PI), 0.0)


def filter_clients(deviations: list[float], threshold: float) -> tuple[int, ...]:
    """Positions of the deviations at or below the threshold, ascending; may be empty."""
    return tuple(k for k, d in enumerate(deviations) if d <= threshold)


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
    ``Cohort.sq`` hold. Degenerate rows, or all rows of a degenerate
    leader, pass through unchanged with a warning each. The result keeps
    the dtype of ``g``; the math runs in float64.
    """
    l64 = leader.astype(np.float64, copy=False)
    ln = math.sqrt(l64.dot(l64))
    rows = g.astype(np.float64, copy=False).reshape(-1, g.shape[-1])
    # the row norms as one column, np.linalg.norm's bits
    gn = np.sqrt((rows[:, None] @ rows[:, :, None])[:, 0])
    skip = [k for k, n in enumerate(gn[:, 0].tolist()) if n <= EPS_NORM or ln <= EPS_NORM]
    for k in skip:
        log.warning("alignment correction skipped for near-zero vector (norms %.3e, %.3e)", gn[k, 0], ln)
    if len(skip) == len(gn):
        return g
    if skip:
        gn[skip] = 1.0  # a skipped row is put back below
    u_g = rows / gn
    u_l = l64 / ln
    # g + (lambda_g / ||g||) * (u_l - cos * u_g) in place, each step as the formula rounds it
    shift = (u_g[:, None] @ u_l) * u_g
    np.subtract(u_l, shift, out=shift)
    shift *= np.asarray(lambda_g, dtype=np.float64).reshape(-1, 1) / gn
    shift += rows
    out = shift.astype(g.dtype)
    if skip:
        out[skip] = g.reshape(out.shape)[skip]
    return out.reshape(g.shape)


def run_gda(
    cohort: Cohort | list[GradientVector],
    losses: dict[int, float] | np.ndarray,
    leader: GradientVector,
    config: GdaConfig,
    survivor_mode: str = "threshold",
    rng: np.random.Generator | None = None,
) -> GdaOutcome:
    """One full alignment pass: deviations, threshold, filter, regularize.

    ``losses`` holds the clients' losses by cohort row, or keyed by id.
    ``survivor_mode`` "random" replaces the threshold-filtered set with a
    uniformly random subset of the same size, drawn from ``rng`` (ablation);
    the threshold is still computed and reported. Any other mode keeps the
    filtered set; the engine passes only "threshold". The per-client
    correction strength is lambda_g = lambda * ||g||, so the gradient shift
    has magnitude lambda * sin(theta) whatever ||g|| is, and it raises the
    cosine to the leader iff atan(lambda * sin(theta) / ||g||) < 2 * theta.
    On a short g with a large lambda it can lower it.
    """
    cohort = prepared(cohort)
    deviations = deviations_to_leader(cohort, leader)
    if config.threshold_override is not None:
        threshold = config.threshold_override
    else:
        threshold = adaptive_threshold(deviations, config.eta)
    kept = filter_clients(deviations, threshold)  # positions among the usable rows

    if survivor_mode == "random":
        kept = tuple(sorted(rng.choice(len(deviations), size=len(kept), replace=False).tolist()))

    rows = [cohort.usable_rows[s] for s in kept]
    survivors = tuple(cohort.ids[k] for k in rows)
    keys = survivors if isinstance(losses, dict) else rows
    penalized = [regularized_loss(losses[key], deviations[s], config.lam) for key, s in zip(keys, kept)]
    if config.apply_correction:
        # the survivors' float64 rows, as the cohort holds them: rounded to the gradients' dtype once
        lambda_g = [config.lam * math.sqrt(cohort.sq[k]) for k in rows]
        block = alignment_correction(cohort.stack[list(kept)], leader.v64, lambda_g)
        block = block.astype(cohort.values.dtype, copy=False)
    else:
        block = cohort.values[rows]

    return GdaOutcome(
        threshold=threshold,
        survivors=survivors,
        losses=penalized,
        global_loss=float(left_sum(penalized)),  # the engine's losses are np.float64
        corrected_rows=block,
        fallback=not survivors,
    )
