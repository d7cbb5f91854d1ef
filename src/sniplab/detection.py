"""Per-stage utility distribution of a trustworthy agent and Wald's SPRT.

A trustworthy agent's stage utility takes one of nine values (for generic
spread and risk aversion): 0, -gamma*(2-s), s, -gamma*(1-s), s+1, 2s, 2-s,
1-s and -gamma*s.  ``utility_distribution`` builds their probabilities from
the payoff table, weighting each cell's columns by the race outcomes of
``race.mixed_race``, and takes each value from ``utility.payoffs``, which the
simulator pays.  An independent enumeration over (event, role, race composition)
checks it in the tests.

Knowing the distribution under compliance (no deceptive agents, H0) and under
a posited number of sure snipers (H1), both on the same support, an agent
monitors its own utility stream with Wald's sequential probability ratio
test.  ``monitor_stream`` tabulates log P(u | H1) / P(u | H0) once per support
point (+-inf where only one law allows the outcome), adds the entry of each
observed utility to a running sum, and stops as soon as the sum leaves the
interval between the two thresholds derived from the admissible error rates.
Every utility the engine pays is ``==`` a support point and is looked up in a
table keyed by the support values; anything else (a stream file's value that
matches only to ``SUPPORT_TOL``, a value merged into a nearby support point)
falls back to ``UtilityDistribution.index_of``'s tolerance scan, which also
refuses values off the support.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Iterable

from . import race, utility
from .params import GameParams, ValidationError, derive
from .race import Population

log = logging.getLogger(__name__)

# Two support points closer than this are the same outcome (merged mass).
SUPPORT_TOL = 1e-9

CONTINUE = "continue"
ACCEPT_H0 = "accept_h0"
REJECT_H0 = "reject_h0"
UNDECIDED = "undecided"

_MISS = object()  # a utility that is not exactly a support point


@dataclass(frozen=True)
class UtilityDistribution:
    """Discrete utility distribution on a merged, sorted support."""

    support: tuple[float, ...]
    probs: tuple[float, ...]

    def index_of(self, u: float) -> int:
        """Index of the support point matching u to SUPPORT_TOL."""
        for i, v in enumerate(self.support):
            if abs(v - u) <= SUPPORT_TOL:
                return i
        raise ValidationError(
            f"utility {u!r} matches no support point of the monitored game"
        )


def _merged(pairs: Iterable[tuple[float, float]]) -> UtilityDistribution:
    merged: list[tuple[float, float]] = []
    for value, prob in sorted(pairs):
        if merged and abs(merged[-1][0] - value) <= SUPPORT_TOL:
            merged[-1] = (merged[-1][0], merged[-1][1] + prob)
        else:
            merged.append((value, prob))
    support, probs = zip(*merged)
    return UtilityDistribution(support=support, probs=probs)


def utility_distribution(
    params: GameParams, p: float, pop: Population, s: float
) -> UtilityDistribution:
    """Stage-utility distribution of a trustworthy agent, from PAYOFF_TABLE.

    The agent is market maker with probability 1/H and bandit otherwise; the
    other trustworthy agents snipe with probability p, the deceptive ones for
    sure.  In each race cell the maker's loss column carries the loss of
    race.mixed_race(p, pop) and the sniper column p times its win.  Support
    values are ``utility.payoffs``, the utilities the engine pays; values
    that collide (degenerate s or gamma) are merged.
    """
    if pop.total != params.H:
        raise ValidationError(f"population of {pop.total} does not match H={params.H}")
    if not 0.0 <= s <= 1.0:
        raise ValidationError(f"spread must lie in [0, 1] (got {s})")
    d = derive(params)
    h = pop.total
    win, loss = race.mixed_race(p, pop)
    win *= p
    pairs = []
    for ev, (mm_loses, sniper, mm_wins) in zip(
        utility.PAYOFF_TABLE, utility.payoffs(s, params.gamma)
    ):
        pe = utility.first_event_prob(ev, d) * utility.second_event_prob(ev.second, d)
        lose, snipe = (loss, win) if ev.has_race else (0.0, 0.0)
        pairs += [
            (mm_loses, pe / h * lose),
            (mm_wins, pe / h * (1.0 - lose)),
            (sniper, pe * (h - 1) / h * snipe),
            (0.0, pe * (h - 1) / h * (1.0 - snipe)),
        ]
    return _merged(pairs)


# ---------------------------------------------------------------------------
# Wald's sequential probability ratio test
# ---------------------------------------------------------------------------


def sprt_thresholds(err_i: float, err_ii: float) -> tuple[float, float]:
    """Wald's stopping thresholds (a, b) for the given error rates.

    err_i bounds the probability of rejecting a compliant game (type I),
    err_ii of accepting a non-compliant one (type II); both must lie in
    (0, 1/2), which makes a < 0 < b.
    """
    for name, value in (("err_i", err_i), ("err_ii", err_ii)):
        if not 0.0 < value < 0.5:
            raise ValidationError(f"{name} must lie in (0, 1/2) (got {value})")
    a = -math.log((1.0 - err_i) / err_ii)
    b = math.log((1.0 - err_ii) / err_i)
    return a, b


@dataclass(frozen=True)
class MonitorResult:
    """Outcome of monitoring a finite utility stream.

    decision is "undecided" when the stream ran out first; trajectory holds
    one (stage, utility, log_ratio, statistic, decision) row per observation.
    """

    decision: str
    stopped_at: int | None
    statistic: float
    trajectory: list[tuple[int, float, float, float, str]]


def monitor_stream(
    stream: Iterable[float],
    dist0: UtilityDistribution,
    dist1: UtilityDistribution,
    err_i: float,
    err_ii: float,
) -> MonitorResult:
    """Wald's SPRT over a utility stream, keeping the full trajectory.

    dist0 and dist1 are the laws under H0 and H1 on one shared support.  The
    stream is read one utility at a time and no further than the decision.
    """
    if dist0.support != dist1.support:
        raise ValidationError("the H0 and H1 utility laws must share one support")
    lower, upper = sprt_thresholds(err_i, err_ii)
    # log P(u | H1) / P(u | H0) per support point; None where both are zero
    ratios: list[float | None] = []
    for p0, p1 in zip(dist0.probs, dist1.probs):
        if p0 == 0.0:
            ratios.append(None if p1 == 0.0 else math.inf)
        else:
            ratios.append(-math.inf if p1 == 0.0 else math.log(p1 / p0))
    # consecutive support points lie more than SUPPORT_TOL apart, so an exact
    # hit is the point the scan would match
    exact = dict(zip(dist0.support, ratios))
    statistic = 0.0
    trajectory: list[tuple[int, float, float, float, str]] = []
    for t, u in enumerate(stream, 1):
        ratio = exact.get(u, _MISS)
        if ratio is _MISS:
            try:
                ratio = ratios[dist0.index_of(u)]
            except ValidationError as exc:
                raise ValidationError(f"stage {t}: {exc}") from exc
        if ratio is None:
            raise ValidationError(
                f"stage {t}: utility {u!r} impossible under both hypotheses"
            )
        if ratio == math.inf:
            log.warning("outcome %r impossible under H0: forcing rejection", u)
        elif ratio == -math.inf:
            log.warning("outcome %r impossible under H1: forcing acceptance", u)
        previous = statistic
        statistic += ratio
        if statistic < lower:
            decision = ACCEPT_H0
        elif statistic > upper:
            decision = REJECT_H0
        else:
            decision = CONTINUE
        trajectory.append((t, u, statistic - previous, statistic, decision))
        if decision != CONTINUE:
            return MonitorResult(decision, t, statistic, trajectory)
    if not trajectory:
        raise ValidationError("cannot monitor an empty utility stream")
    return MonitorResult(UNDECIDED, None, statistic, trajectory)
