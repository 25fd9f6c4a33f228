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

import bisect
import math
from dataclasses import dataclass

import numpy as np

from .errors import CoordinationSkipped
from .geometry import EPS_NORM, Cohort, GradientVector, angular_deviation, left_sum, mean_std, prepared


@dataclass(frozen=True)
class LgiConfig:
    """Selection-ratio bounds (percent, 0 < k_min <= k_max <= 100) and the
    total round budget (>= 1), as ``config.validate`` checks them."""

    total_rounds: int
    k_min: float = 20.0
    k_max: float = 80.0


@dataclass
class LgiState:
    """Running extremes of the score dispersion, tracked across rounds."""

    nu_min: float | None = None
    nu_max: float | None = None
    round: int = 0


@dataclass
class ScoreSet:
    """Per-client consistency scores, keyed by client id."""

    round: int
    scores: dict[int, float]

    @property
    def by_row(self) -> list[float]:  # by ascending id: the cohort's usable-row order
        return [s for _, s in sorted(self.scores.items())]


@dataclass
class LgiOutcome:
    scores: ScoreSet
    k_percent: float
    selected: tuple[int, ...]
    leader: GradientVector


def consistency_scores(cohort: Cohort) -> ScoreSet:
    """Score each client by its mean angular deviation from every other client.

    Near-zero gradients are excluded from scoring entirely. Every angle
    reads its dot products from the cohort's Gram. Raises
    :class:`CoordinationSkipped` when fewer than two usable gradients remain.
    """
    if len(cohort.usable) < 2:
        raise CoordinationSkipped(
            f"only {len(cohort.usable)} usable gradients in a cohort of {len(cohort.ids)}"
        )
    rows, gram, diag = list(cohort.stack), cohort.gram, cohort.diag
    n = len(rows)
    by_row = []
    for i in range(n):
        a, aa, row = rows[i], diag[i], gram[i].tolist()
        total = 0.0
        for j in range(n):
            if j != i:
                total += angular_deviation(a, rows[j], aa, diag[j], row[j])
        by_row.append(total / (n - 1))
    return ScoreSet(cohort.round, dict(zip(cohort.usable, by_row)))


def selection_ratio(state: LgiState, config: LgiConfig, scores: ScoreSet) -> float:
    """Adapt the selection percentage from score dispersion and progress.

    The dispersion extremes are updated with the current value first, then
    the ratio interpolates between k_min and k_max with the product of the
    time fraction t/T and the relative stability of the current dispersion
    (1 until a dispersion range opens, as in round one), clamped into
    [k_min, k_max]. The engine passes its rounds t = 1..T.
    """
    _, nu = mean_std(scores.by_row)
    state.nu_min = nu if state.nu_min is None else min(state.nu_min, nu)
    state.nu_max = nu if state.nu_max is None else max(state.nu_max, nu)

    span = state.nu_max - state.nu_min
    stability = 1.0 if span <= 0 else (state.nu_max - nu) / span
    t_frac = state.round / config.total_rounds
    k = config.k_min + t_frac * stability * (config.k_max - config.k_min)
    return min(config.k_max, max(config.k_min, k))


def selection_count(k_percent: float, cohort_size: int) -> int:
    return max(1, math.ceil(k_percent * cohort_size / 100.0))


def select_consistent(cohort: Cohort, scores: ScoreSet, k_percent: float) -> tuple[int, ...]:
    """The rows, ascending, of the ceil(k% * cohort) clients that form the leader.

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
    the selection keeps the ceil(k% * cohort) smallest scores, ties going
    to the smaller client id. ``scores`` holds one score per usable
    client, as :func:`consistency_scores` builds it.
    """
    rows = cohort.usable_rows  # ascending, as are their ids
    count = min(selection_count(k_percent, len(cohort.ids)), len(rows))
    if count == len(rows):
        return tuple(rows)
    score = scores.by_row
    kept = list(range(len(rows)))                  # ascending rows
    by_score = sorted(kept, key=score.__getitem__)  # the same rows, ascending scores; ties keep row order
    stack, gram, diag = cohort.stack, cohort.gram, cohort.diag
    trend = np.add.reduce(stack, axis=0)
    trend_norm = math.sqrt(trend.dot(trend))
    if trend_norm <= EPS_NORM:
        return tuple(rows[i] for i in sorted(by_score[:count]))

    # one drop per step over arrays this short: Python floats are cheaper
    # than a dozen numpy calls per step. Only the dots to the kept sum are
    # updated as one array per drop, then read back as floats.
    kept_dots = stack @ trend                  # <g_i, sum of kept>
    toward_trend = kept_dots.tolist()          # <g_i, trend>
    to_kept = list(toward_trend)               # kept_dots as Python floats
    along = kept_sq = trend_norm * trend_norm  # <sum of kept, trend>, ||sum of kept||^2
    cohort_mean = left_sum(score) / len(score)
    floor, sqrt = EPS_NORM * EPS_NORM, math.sqrt  # locals: the loop below runs O(n^2) times
    while len(kept) > count:
        kept_score, rest = left_sum(map(score.__getitem__, kept)), len(kept) - 1
        worst = score[by_score[-1]]

        def may_drop(j: int) -> bool:
            return not (kept_score - score[j]) / rest > cohort_mean or score[j] == worst

        # With kept_score and rest fixed, (kept_score - s) / rest never rises
        # as s rises (rounding to nearest is monotone), so the rows that may
        # drop are a tail of by_score: found by bisection, scored in row order
        tail = by_score[bisect.bisect_left(by_score, True, key=may_drop) :]
        drop, drop_cos = None, -math.inf
        for j in sorted(tail):
            rest_sq = kept_sq - 2.0 * to_kept[j] + diag[j]
            cos = -2.0
            if rest_sq > floor:
                cos = (along - toward_trend[j]) / (sqrt(rest_sq) * trend_norm)
            if cos > drop_cos:
                drop, drop_cos = j, cos
        kept.remove(drop)
        by_score.remove(drop)
        along -= toward_trend[drop]
        kept_sq += diag[drop] - 2.0 * to_kept[drop]
        kept_dots -= gram[drop]
        to_kept = kept_dots.tolist()
    return tuple(rows[i] for i in kept)


def leader_gradient(cohort: Cohort, rows: tuple[int, ...]) -> GradientVector:
    """Unweighted mean of the gradients in ``rows``, reduced in ascending row order.

    ``rows`` is not empty: ``selection_count`` is at least 1 and
    :func:`consistency_scores` found two usable rows. Raises
    :class:`CoordinationSkipped` when they cancel, the one check GDA relies on.
    """
    values = np.add.reduce(cohort.values[sorted(rows)], axis=0) / len(rows)
    leader = GradientVector(client_id=-1, round=cohort.round, values=values)
    if leader.is_degenerate():
        raise CoordinationSkipped("leader gradient is degenerate")
    return leader


def run_lgi(
    cohort: Cohort | list[GradientVector],
    state: LgiState,
    config: LgiConfig,
    round_t: int,
    rng: np.random.Generator | None = None,
) -> LgiOutcome:
    """One full identification pass: score, adapt ratio, select, average.

    The leader is the mean of the set :func:`select_consistent` selects;
    given ``rng``, of the adaptive count of usable clients drawn from it
    uniformly instead (the random-selection ablation). ``selected`` names
    the selected rows' clients. Raises :class:`ConfigError` when the
    gradients disagree on length.
    """
    cohort = prepared(cohort)
    scores = consistency_scores(cohort)
    state.round = round_t
    k_percent = selection_ratio(state, config, scores)
    if rng is None:
        rows = select_consistent(cohort, scores, k_percent)
    else:
        usable = cohort.usable_rows
        count = min(selection_count(k_percent, len(cohort.ids)), len(usable))
        picked = rng.choice(len(usable), size=count, replace=False)
        rows = tuple(sorted(usable[i] for i in picked))

    return LgiOutcome(
        scores=scores,
        k_percent=k_percent,
        selected=tuple(cohort.ids[k] for k in rows),
        leader=leader_gradient(cohort, rows),
    )
