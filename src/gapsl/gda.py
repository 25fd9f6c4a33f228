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
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, CoordinationSkipped
from .geometry import EPS_NORM, Cohort, GradientVector, angular_deviation, left_sum, mean_std, prepared

log = logging.getLogger(__name__)

HALF_PI = math.pi / 2


@dataclass(frozen=True)
class GdaConfig:
    """Threshold sensitivity, penalty coefficient, and realization switches."""

    eta: float = 1.0
    lam: float = 5e-4
    apply_correction: bool = True       # False = loss-value-only ablation variant
    threshold_override: float | None = None  # force a fixed threshold (reduction tests)

    def __post_init__(self):
        if self.eta < 0:
            raise ConfigError(f"eta must be >= 0, got {self.eta}")
        if self.lam < 0:
            raise ConfigError(f"lambda must be >= 0, got {self.lam}")


@dataclass
class GdaOutcome:
    deviations: dict[int, float]
    threshold: float
    survivors: tuple[int, ...]
    regularized_losses: dict[int, float]
    global_loss: float
    corrected: dict[int, np.ndarray]
    fallback: bool  # True when no client survived the filter


def deviations_to_leader(cohort: Cohort, leader: GradientVector) -> dict[int, float]:
    """Angle of each usable client gradient against the leader.

    One product over the usable rows with the leader appended gives every
    <g, leader> and <leader, leader>; each row's squared norm comes from
    the cohort's Gram.
    """
    if leader.is_degenerate():
        raise CoordinationSkipped("leader gradient is degenerate")
    lead = leader.values.astype(np.float64, copy=False)
    # two leader columns: numpy hands a one-column product to gemv, which
    # sums in another order than the gemm behind the Gram
    rows = np.vstack([cohort.stack, lead])
    *dots, ll = (rows @ np.stack([lead, lead], axis=1))[:, 0].tolist()
    return {
        cid: angular_deviation(g, lead, aa, ll, ab)
        for cid, g, aa, ab in zip(cohort.usable, cohort.stack, cohort.diag, dots)
    }


def adaptive_threshold(deviations: list[float], eta: float) -> float:
    """max(min(mean - eta*std, pi/2), 0) over the round's deviations."""
    mu, nu = mean_std(deviations)
    return max(min(mu - eta * nu, HALF_PI), 0.0)


def filter_clients(deviations: dict[int, float], threshold: float) -> tuple[int, ...]:
    """Clients at or below the threshold, ascending id; may be empty."""
    return tuple(sorted(cid for cid, d in deviations.items() if d <= threshold))


def regularized_loss(loss: float, deviation: float, lam: float) -> float:
    """Local loss plus the direction penalty lambda * (1 - cos(theta))."""
    return loss + lam * (1.0 - math.cos(deviation))


def alignment_correction(
    g: np.ndarray, leader: np.ndarray, lambda_g: float
) -> np.ndarray:
    """Shift ``g`` toward the leader direction; identity when already aligned.

    With w the unit vector orthogonal to g in the plane of g and the
    leader, the result is ||g|| * u_g + (lambda_g / ||g||) * sin(theta) * w:
    g turned toward the leader by phi = atan(lambda_g * sin(theta) / ||g||^2).
    The angle to the leader becomes |theta - phi|, so for theta in (0, pi)
    the cosine rises iff phi < 2 * theta, and falls when the turn
    overshoots the leader by more than theta.

    Degenerate inputs pass through unchanged with a warning. The result
    keeps the dtype of ``g``; the math runs in float64.
    """
    g64 = g.astype(np.float64, copy=False)
    l64 = leader.astype(np.float64, copy=False)
    gn = math.sqrt(g64.dot(g64))  # np.linalg.norm's bits, without its wrapper
    ln = math.sqrt(l64.dot(l64))
    if gn <= EPS_NORM or ln <= EPS_NORM:
        log.warning("alignment correction skipped for near-zero vector (norms %.3e, %.3e)", gn, ln)
        return g
    u_g = g64 / gn
    u_l = l64 / ln
    cos_theta = float(np.dot(u_g, u_l))
    shifted = g64 + (lambda_g / gn) * (u_l - cos_theta * u_g)
    return shifted.astype(g.dtype)


def global_loss(regularized: dict[int, float], survivors: tuple[int, ...]) -> float:
    """Sum of the regularized losses over the surviving clients."""
    return float(left_sum(regularized[cid] for cid in survivors))


def run_gda(
    cohort: Cohort | list[GradientVector],
    losses: dict[int, float],
    leader: GradientVector,
    config: GdaConfig,
    survivor_mode: str = "threshold",
    rng: np.random.Generator | None = None,
) -> GdaOutcome:
    """One full alignment pass: deviations, threshold, filter, regularize.

    ``survivor_mode`` "random" replaces the threshold-filtered set with a
    uniformly random subset of the same size (ablation); the threshold is
    still computed and reported. The per-client correction strength is
    lambda_g = lambda * ||g||, so the gradient shift has magnitude
    lambda * sin(theta) whatever ||g|| is, and it raises the cosine to the
    leader iff atan(lambda * sin(theta) / ||g||) < 2 * theta. On a short g
    with a large lambda it can lower it.
    """
    cohort = prepared(cohort)
    deviations = deviations_to_leader(cohort, leader)
    if config.threshold_override is not None:
        threshold = config.threshold_override
    else:
        threshold = adaptive_threshold(list(deviations.values()), config.eta)
    survivors = filter_clients(deviations, threshold)

    if survivor_mode == "random":
        if rng is None:
            raise ConfigError("random survivor mode needs an rng")
        pool = sorted(deviations)
        picked = rng.choice(len(pool), size=len(survivors), replace=False)
        survivors = tuple(sorted(pool[i] for i in picked))
    elif survivor_mode != "threshold":
        raise ConfigError(f"unknown survivor mode {survivor_mode!r}")

    regularized: dict[int, float] = {}
    corrected: dict[int, np.ndarray] = {}
    for cid, k in zip(survivors, cohort.rows(survivors)):
        regularized[cid] = regularized_loss(losses[cid], deviations[cid], config.lam)
        g = cohort.values[k]
        if config.apply_correction:
            lambda_g = config.lam * math.sqrt(cohort.sq[k])
            corrected[cid] = alignment_correction(g, leader.values, lambda_g)
        else:
            corrected[cid] = g

    return GdaOutcome(
        deviations=deviations,
        threshold=threshold,
        survivors=survivors,
        regularized_losses=regularized,
        global_loss=global_loss(regularized, survivors),
        corrected=corrected,
        fallback=not survivors,
    )
