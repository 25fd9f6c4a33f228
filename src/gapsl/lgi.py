"""Leader gradient identification.

The rule follows the paper's abstract: "LGI dynamically selects a set of
directionally consistent client gradients to construct a leader gradient
that captures the global convergence trend." Each round the server scores
every client's server-side gradient by its mean angular deviation against
the rest of the cohort, and adapts the selection ratio from the score
dispersion and training progress. It then selects the set: one that stays,
on average, at least as directionally consistent as the cohort, and whose
mean gradient stays closest to the global trend, the sum of every usable
gradient. The mean of the set's gradients is the leader gradient that
anchors the alignment stage.

Keeping only the top of a per-client consistency ranking leaves out,
round after round, the clients that alone hold a class: their gradients
point away from everyone else's. The leader then follows the majority
classes rather than the cohort, and on the desk benchmark it does worse
than a random set of the same size. The set rule drops a client only
when the trend can spare it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, CoordinationSkipped
from .geometry import EPS_NORM, GradientVector, angular_deviation, mean_std


@dataclass(frozen=True)
class LgiConfig:
    """Selection-ratio bounds (percent) and the total round budget."""

    total_rounds: int
    k_min: float = 20.0
    k_max: float = 80.0

    def __post_init__(self):
        if not (0 < self.k_min <= self.k_max <= 100):
            raise ConfigError(f"need 0 < k_min <= k_max <= 100, got {self.k_min}, {self.k_max}")
        if self.total_rounds < 1:
            raise ConfigError(f"total_rounds must be >= 1, got {self.total_rounds}")


@dataclass
class LgiState:
    """Running extremes of the score dispersion, tracked across rounds."""

    nu_min: float | None = None
    nu_max: float | None = None
    round: int = 0


@dataclass
class ScoreSet:
    """Per-client consistency scores; degenerate clients are listed separately."""

    round: int
    scores: dict[int, float]
    excluded: tuple[int, ...] = ()


@dataclass
class LgiOutcome:
    scores: ScoreSet
    k_percent: float
    selected: tuple[int, ...]
    leader: GradientVector


def consistency_scores(cohort: list[GradientVector], round_t: int = 0) -> ScoreSet:
    """Score each client by its mean angular deviation from every other client.

    Near-zero gradients are excluded from scoring entirely. Raises
    :class:`CoordinationSkipped` when fewer than two usable gradients remain.
    """
    usable = [g for g in cohort if not g.is_degenerate()]
    excluded = tuple(g.client_id for g in cohort if g.is_degenerate())
    if len(usable) < 2:
        raise CoordinationSkipped(
            f"only {len(usable)} usable gradients in a cohort of {len(cohort)}"
        )
    rows = [(g.client_id, g.v64, g.sq) for g in usable]
    scores: dict[int, float] = {}
    for cid, a, aa in rows:
        total = 0.0
        for other, b, bb in rows:
            if other != cid:
                total += angular_deviation(a, b, aa, bb)
        scores[cid] = total / (len(rows) - 1)
    return ScoreSet(round=round_t, scores=scores, excluded=excluded)


def selection_ratio(state: LgiState, config: LgiConfig, scores: ScoreSet) -> float:
    """Adapt the selection percentage from score dispersion and progress.

    The dispersion extremes are updated with the current value first, then
    the ratio interpolates between k_min and k_max with the product of the
    time fraction t/T and the relative stability of the current dispersion.
    When no dispersion range has opened yet (always true in round one) the
    stability factor is taken as 1, leaving the pure temporal schedule.
    """
    if not (1 <= state.round <= config.total_rounds):
        raise ConfigError(
            f"round {state.round} outside [1, {config.total_rounds}]"
        )
    _, nu = mean_std(list(scores.scores.values()))
    state.nu_min = nu if state.nu_min is None else min(state.nu_min, nu)
    state.nu_max = nu if state.nu_max is None else max(state.nu_max, nu)

    span = state.nu_max - state.nu_min
    stability = 1.0 if span <= 0 else (state.nu_max - nu) / span
    t_frac = state.round / config.total_rounds
    k = config.k_min + t_frac * stability * (config.k_max - config.k_min)
    return min(config.k_max, max(config.k_min, k))


def selection_count(k_percent: float, cohort_size: int) -> int:
    return max(1, math.ceil(k_percent * cohort_size / 100.0))


def select_top(scores: ScoreSet, k_percent: float, cohort_size: int) -> tuple[int, ...]:
    """Client ids holding the ceil(k% * cohort) smallest scores, never empty.

    Ties break toward the smaller client id so reruns are reproducible.
    """
    count = min(selection_count(k_percent, cohort_size), len(scores.scores))
    ranked = sorted(scores.scores.items(), key=lambda kv: (kv[1], kv[0]))
    return tuple(sorted(cid for cid, _ in ranked[:count]))


def select_consistent(
    cohort: list[GradientVector], scores: ScoreSet, k_percent: float, cohort_size: int
) -> tuple[int, ...]:
    """The ceil(k% * cohort) clients whose gradients form the leader.

    Start from every scored client and drop one client at a time until
    ceil(k% * cohort) remain. A client may be dropped only if the clients
    left stay, on average, at least as directionally consistent as the
    cohort: their mean score must not exceed the cohort's mean score. The
    least consistent client left always qualifies. Among the clients that
    qualify, drop the one whose removal leaves the mean of the remaining
    gradients at the smallest angle to the global trend, the sum of every
    scored gradient; ties drop the smaller client id. A remaining set whose
    gradients cancel has no direction and ranks below every other.

    When the trend itself is degenerate there is nothing to follow, and
    the selection falls back to :func:`select_top`.
    """
    ids = sorted(scores.scores)
    count = min(selection_count(k_percent, cohort_size), len(ids))
    if count == len(ids):
        return tuple(ids)
    by_id = {g.client_id: g for g in cohort}
    stack = np.stack([by_id[cid].v64 for cid in ids])
    trend = stack.sum(axis=0)
    trend_norm = float(np.linalg.norm(trend))
    if trend_norm <= EPS_NORM:
        return select_top(scores, k_percent, cohort_size)

    # one drop per step over arrays this short: Python floats are cheaper
    # than a dozen numpy calls per step
    gram = (stack @ stack.T).tolist()
    toward_trend = (stack @ trend).tolist()    # <g_i, trend>
    to_kept = list(toward_trend)               # <g_i, sum of kept>
    along = kept_sq = trend_norm * trend_norm  # <sum of kept, trend>, ||sum of kept||^2
    score = [scores.scores[cid] for cid in ids]
    cohort_mean = sum(score) / len(score)
    kept = list(range(len(ids)))
    while len(kept) > count:
        kept_score = sum(score[i] for i in kept)
        worst = max(score[i] for i in kept)
        drop, drop_cos = None, -math.inf
        for j in kept:
            if (kept_score - score[j]) / (len(kept) - 1) > cohort_mean and score[j] != worst:
                continue
            rest_sq = kept_sq - 2.0 * to_kept[j] + gram[j][j]
            cos = -2.0
            if rest_sq > EPS_NORM * EPS_NORM:
                cos = (along - toward_trend[j]) / (math.sqrt(rest_sq) * trend_norm)
            if cos > drop_cos:
                drop, drop_cos = j, cos
        kept.remove(drop)
        along -= toward_trend[drop]
        kept_sq += gram[drop][drop] - 2.0 * to_kept[drop]
        to_kept = [a - b for a, b in zip(to_kept, gram[drop])]
    return tuple(ids[i] for i in kept)


def leader_gradient(cohort: list[GradientVector], selected: tuple[int, ...]) -> GradientVector:
    """Unweighted mean of the selected gradients, reduced in ascending id order."""
    if not selected:
        raise CoordinationSkipped("empty selection, no leader gradient")
    by_id = {g.client_id: g for g in cohort}
    stack = np.stack([by_id[cid].values for cid in sorted(selected)])
    return GradientVector(client_id=-1, round=cohort[0].round, values=stack.mean(axis=0))


def run_lgi(
    cohort: list[GradientVector],
    state: LgiState,
    config: LgiConfig,
    round_t: int,
    mode: str = "consistent",
    rng: np.random.Generator | None = None,
) -> LgiOutcome:
    """One full identification pass: score, adapt ratio, select, average.

    ``mode`` picks the cohort used for the leader: "consistent" is the
    normal selection of :func:`select_consistent`, "all" keeps every usable
    client (no ratio adaptation), "random" keeps the adaptive count but
    draws the members uniformly from ``rng``. The latter two exist for
    ablations.
    """
    lengths = {g.values.shape for g in cohort}
    if len(lengths) > 1:
        raise ConfigError(f"cohort gradients disagree on length: {sorted(lengths)}")
    scores = consistency_scores(cohort, round_t)

    if mode == "all":
        selected = tuple(sorted(scores.scores))
        k_percent = 100.0
    else:
        state.round = round_t
        k_percent = selection_ratio(state, config, scores)
        if mode == "consistent":
            selected = select_consistent(cohort, scores, k_percent, len(cohort))
        elif mode == "random":
            if rng is None:
                raise ConfigError("random selection mode needs an rng")
            count = min(selection_count(k_percent, len(cohort)), len(scores.scores))
            pool = sorted(scores.scores)
            picked = rng.choice(len(pool), size=count, replace=False)
            selected = tuple(sorted(pool[i] for i in picked))
        else:
            raise ConfigError(f"unknown selection mode {mode!r}")

    return LgiOutcome(
        scores=scores,
        k_percent=k_percent,
        selected=selected,
        leader=leader_gradient(cohort, selected),
    )
