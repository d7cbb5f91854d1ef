"""Per-stage utility distribution of a trustworthy agent and Wald's SPRT.

A trustworthy agent's stage utility takes one of nine values (for generic
spread and risk aversion): 0, -gamma*(2-s), s, -gamma*(1-s), s+1, 2s, 2-s,
1-s and -gamma*s.  Their probabilities follow from the event table combined
with the mixed-population race probabilities; ``utility_distribution`` uses
the closed expressions, ``utility_distribution_enum`` recomputes them by
direct enumeration over (event, role, race composition) with binomial entry
counts and is the arbiter wherever the closed expressions are in doubt.

Knowing the distribution under compliance (no deceptive agents, H0) and under
a posited number of sure snipers (H1), an agent monitors his own utility
stream with Wald's sequential probability ratio test: the running sum of
log-likelihood ratios is compared against two thresholds derived from the
admissible error rates.
"""

from __future__ import annotations

import csv
import logging
import math
from dataclasses import dataclass, replace
from typing import Iterable

from . import race, utility
from .params import GameParams, ValidationError, derive
from .race import Population, _binom_pmf

log = logging.getLogger(__name__)

# Two support points closer than this are the same outcome (merged mass).
SUPPORT_TOL = 1e-9

CONTINUE = "continue"
ACCEPT_H0 = "accept_h0"
REJECT_H0 = "reject_h0"
UNDECIDED = "undecided"


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
    """Closed-form stage-utility distribution for a trustworthy agent.

    The agent is market maker with probability 1/H and bandit otherwise; the
    other trustworthy agents snipe with probability p, the deceptive ones for
    sure.  Outcomes whose support values collide (degenerate s or gamma) are
    merged.
    """
    if pop.total != params.H:
        raise ValidationError(f"population of {pop.total} does not match H={params.H}")
    if not 0.0 <= s <= 1.0:
        raise ValidationError(f"spread must lie in [0, 1] (got {s})")
    d = derive(params)
    h = pop.total
    gamma = params.gamma
    loss = race.mm_loss_prob_mixed(p, pop)
    win = p * race.win_prob_given_entry_mixed(p, pop)
    ab, mb, beta = d.alpha_bar, d.mu_bar, d.beta
    quiet2 = 1.0 - 2.0 * (ab + mb)  # no second event
    mm_w = 1.0 / h
    b_w = (h - 1) / h
    pairs = [
        (
            0.0,
            mm_w * beta * (1.0 - 2.0 * mb) * (1.0 - loss)
            + b_w * (1.0 - beta * win * d.m),
        ),
        (-gamma * (2.0 - s), mm_w * ab * beta * loss),
        (s, mm_w * (ab * beta * loss + (1.0 - beta) * (1.0 - 2.0 * ab - mb))),
        (
            -gamma * (1.0 - s),
            mm_w * (ab * (1.0 - beta) + beta * loss * quiet2 + beta * mb),
        ),
        (s + 1.0, mm_w * (beta * mb * (1.0 - loss) + ab * (1.0 - beta))),
        (2.0 * s, mm_w * mb * (beta * loss + (1.0 - beta))),
        (2.0 - s, b_w * ab * beta * win),
        (1.0 - s, b_w * beta * win * (1.0 - 2.0 * ab - mb)),
        # both news-reversal orderings (good-bad and bad-good) contribute
        # alpha_bar*beta/2 each, so the sniper's loss outcome carries the
        # full factor alpha_bar*beta
        (-gamma * s, b_w * ab * beta * win),
    ]
    return _merged(pairs)


def utility_distribution_enum(
    params: GameParams, p: float, pop: Population, s: float
) -> UtilityDistribution:
    """Brute-force distribution by enumeration over (event, role, composition).

    Uses only the payoff table, the event probabilities and binomial entry
    counts; independent of the closed probability expressions and of the
    mixed race-probability functions.
    """
    if pop.total != params.H:
        raise ValidationError(f"population of {pop.total} does not match H={params.H}")
    d = derive(params)
    h = pop.total
    ht, hd = pop.trustworthy, pop.deceptive
    gamma = params.gamma
    pairs: list[tuple[float, float]] = []
    mm_start, entry_as_mm = _binom_pmf(ht - 1, p)
    trusty_start, entry_mm_trusty = _binom_pmf(ht - 2, p) if ht >= 2 else (0, [])
    rogue_start, entry_mm_rogue = _binom_pmf(ht - 1, p)
    for ev in utility.PAYOFF_TABLE:
        pe = utility.event_probability(ev, params)
        mm_lose = utility.evaluate(ev.mm_if_loses, s, gamma)
        if not ev.has_race:
            pairs.append((mm_lose, pe / h))
            pairs.append((0.0, pe * (h - 1) / h))
            continue
        snip = utility.evaluate(ev.sniper, s, gamma)
        mm_win = utility.evaluate(ev.mm_if_wins, s, gamma)
        # as market maker: field is hd sure snipers + Bin(ht-1, p)
        for k, w in enumerate(entry_as_mm, mm_start):
            field = 1 + hd + k
            pairs.append((mm_lose, pe / h * w * (field - 1) / field))
            pairs.append((mm_win, pe / h * w / field))
        # as bandit: enter with probability p, then the market maker is
        # trustworthy or deceptive and the rest of the field is binomial
        pairs.append((0.0, pe * (h - 1) / h * (1.0 - p)))
        if ht >= 2:
            branch = pe * (h - 1) / h * p * (ht - 1) / (h - 1)
            for k, w in enumerate(entry_mm_trusty, trusty_start):
                field = 2 + hd + k
                pairs.append((snip, branch * w / field))
                pairs.append((0.0, branch * w * (field - 1) / field))
        if hd >= 1:
            branch = pe * (h - 1) / h * p * hd / (h - 1)
            for k, w in enumerate(entry_mm_rogue, rogue_start):
                field = 2 + (hd - 1) + k
                pairs.append((snip, branch * w / field))
                pairs.append((0.0, branch * w * (field - 1) / field))
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
class SprtState:
    """Running log-likelihood-ratio statistic with its decision thresholds."""

    statistic: float
    t: int
    lower: float
    upper: float
    decision: str = CONTINUE

    @classmethod
    def start(cls, err_i: float, err_ii: float) -> "SprtState":
        a, b = sprt_thresholds(err_i, err_ii)
        return cls(statistic=0.0, t=0, lower=a, upper=b)


def log_likelihood_ratio(
    u: float, dist0: UtilityDistribution, dist1: UtilityDistribution
) -> float:
    """log P(u | H1) / P(u | H0); +-inf when the outcome is impossible under
    exactly one hypothesis."""
    p0 = dist0.probs[dist0.index_of(u)]
    p1 = dist1.probs[dist1.index_of(u)]
    if p0 == 0.0 and p1 == 0.0:
        raise ValidationError(f"utility {u!r} impossible under both hypotheses")
    if p0 == 0.0:
        log.warning("outcome %r impossible under H0: forcing rejection", u)
        return math.inf
    if p1 == 0.0:
        log.warning("outcome %r impossible under H1: forcing acceptance", u)
        return -math.inf
    return math.log(p1 / p0)


def sprt_step(
    state: SprtState,
    u: float,
    dist0: UtilityDistribution,
    dist1: UtilityDistribution,
) -> SprtState:
    """Advance the test by one observed utility."""
    if state.decision != CONTINUE:
        raise ValidationError("sprt state is frozen once a decision is reached")
    statistic = state.statistic + log_likelihood_ratio(u, dist0, dist1)
    if statistic < state.lower:
        decision = ACCEPT_H0
    elif statistic > state.upper:
        decision = REJECT_H0
    else:
        decision = CONTINUE
    return replace(state, statistic=statistic, t=state.t + 1, decision=decision)


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
    """Fold sprt_step over a utility stream, keeping the full trajectory."""
    state = SprtState.start(err_i, err_ii)
    trajectory: list[tuple[int, float, float, float, str]] = []
    for u in stream:
        previous = state.statistic
        try:
            state = sprt_step(state, u, dist0, dist1)
        except ValidationError as exc:
            raise ValidationError(f"stage {state.t + 1}: {exc}") from exc
        trajectory.append(
            (state.t, u, state.statistic - previous, state.statistic, state.decision)
        )
        if state.decision != CONTINUE:
            return MonitorResult(state.decision, state.t, state.statistic, trajectory)
    if not trajectory:
        raise ValidationError("cannot monitor an empty utility stream")
    return MonitorResult(UNDECIDED, None, state.statistic, trajectory)


def write_trajectory_csv(path: str, result: MonitorResult) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["stage", "utility", "log_ratio", "S", "decision"])
        for stage, u, ratio, s_val, decision in result.trajectory:
            writer.writerow([stage, repr(u), repr(ratio), repr(s_val), decision])
