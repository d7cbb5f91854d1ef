"""Payoff table, stage-utility law, expected-utility lines and indifference.

A stage is labelled by a two-event code: the trigger (NG/NB = good/bad news,
LA/LB = liquidity trader on ask/bid) followed by the event inside the race
window (same codes, or NO for nothing).  News triggers start a race; liquidity
triggers do not.  The 20 cells are stored as data: each utility expression is
a coefficient tuple on (1, s, gamma, gamma*s) with the risk-aversion inflation
of negative payoffs already applied, spreads and utilities in units of the
jump size.

Risk aversion acts on a cell's net payoff: a cell whose trades sum to a loss
is multiplied by gamma as a whole, one that sums to a gain is not.  This
differs from inflating each losing trade separately in one place only, the
market maker's loss column of NG-LB and NB-LA.  There he loses one trade to
the sniper, -(1-s), and gains on the liquidity trader's, 1+s; the cell nets
2s, whereas a per-trade reading would give (1+s) - gamma*(1-s).  The
per-trade reading puts the sure-to-probabilistic threshold at 2.51502 instead
of 2.60384 for alpha=0.45, mu=0.5, delta=0.5, H=5 (tests/test_acceptance.py).

``utility_distribution`` is the one law of an agent's stage utility in a
roster, for either class: its ``mean`` is the analytic mean that
``simulate`` reports, and ``detection``'s SPRT compares two such laws.

Expected utilities for both roles are affine in the spread s, so they are
summarised by their endpoints: the bandit line runs from A = E U_B(0) to
B = E U_B(1), the market-maker line from C = E U_M(0) to D = E U_M(1).
``slope_kernel(d, n)(gamma)`` is the one form of the lines: a kernel that
writes A..D and their p-derivatives once and returns the slope of u* that
``transitions`` finds roots on, or (A, B, C, D), whose crossing
``intersection`` finds.  Its products of d alone are formed once per
``derive`` and n, those of gamma alone once per gamma, so a gamma sweep builds
one.  An event's probability is
``first_event_prob(ev, d) * second_event_prob(ev.second, d)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import MethodType
from typing import Iterable, Iterator

from . import race
from .params import DerivedParams, GameParams, ValidationError, derive
from .race import Population

# Utility expressions as coefficients on (1, s, gamma, gamma*s).
Expr = tuple[float, float, float, float]

_ZERO: Expr = (0, 0, 0, 0)
_S: Expr = (0, 1, 0, 0)
_2S: Expr = (0, 2, 0, 0)
_ONE_MINUS_S: Expr = (1, -1, 0, 0)
_TWO_MINUS_S: Expr = (2, -1, 0, 0)
_ONE_PLUS_S: Expr = (1, 1, 0, 0)
_NEG_G_ONE_MINUS_S: Expr = (0, 0, -1, 1)   # -gamma*(1-s)
_NEG_G_TWO_MINUS_S: Expr = (0, 0, -2, 1)   # -gamma*(2-s)
_NEG_GS: Expr = (0, 0, 0, -1)              # -gamma*s


def evaluate(expr: Expr, s: float, gamma: float) -> float:
    c0, cs, cg, cgs = expr
    return c0 + cs * s + cg * gamma + cgs * gamma * s


@dataclass(frozen=True)
class EventSpec:
    """One stage-event cell: utilities for the three race outcomes.

    For liquidity-trigger (no-race) events the two market-maker columns
    coincide and the sniper column is zero.
    """

    first: str
    second: str
    mm_if_loses: Expr
    sniper: Expr
    mm_if_wins: Expr

    @property
    def code(self) -> str:
        return f"{self.first}-{self.second}"

    @property
    def has_race(self) -> bool:
        return self.first in ("NG", "NB")


def _quiet_row(first: str, second: str, mm: Expr) -> EventSpec:
    return EventSpec(first, second, mm, _ZERO, mm)


PAYOFF_TABLE: tuple[EventSpec, ...] = (
    EventSpec("NG", "NG", _NEG_G_TWO_MINUS_S, _TWO_MINUS_S, _ZERO),
    EventSpec("NG", "NB", _S, _NEG_GS, _ZERO),
    EventSpec("NG", "LA", _NEG_G_ONE_MINUS_S, _ZERO, _NEG_G_ONE_MINUS_S),
    EventSpec("NG", "LB", _2S, _ONE_MINUS_S, _ONE_PLUS_S),
    EventSpec("NG", "NO", _NEG_G_ONE_MINUS_S, _ONE_MINUS_S, _ZERO),
    EventSpec("NB", "NG", _S, _NEG_GS, _ZERO),
    EventSpec("NB", "NB", _NEG_G_TWO_MINUS_S, _TWO_MINUS_S, _ZERO),
    EventSpec("NB", "LA", _2S, _ONE_MINUS_S, _ONE_PLUS_S),
    EventSpec("NB", "LB", _NEG_G_ONE_MINUS_S, _ZERO, _NEG_G_ONE_MINUS_S),
    EventSpec("NB", "NO", _NEG_G_ONE_MINUS_S, _ONE_MINUS_S, _ZERO),
    _quiet_row("LA", "NG", _NEG_G_ONE_MINUS_S),
    _quiet_row("LA", "NB", _ONE_PLUS_S),
    _quiet_row("LA", "LA", _S),
    _quiet_row("LA", "LB", _2S),
    _quiet_row("LA", "NO", _S),
    _quiet_row("LB", "NG", _ONE_PLUS_S),
    _quiet_row("LB", "NB", _NEG_G_ONE_MINUS_S),
    _quiet_row("LB", "LA", _2S),
    _quiet_row("LB", "LB", _S),
    _quiet_row("LB", "NO", _S),
)


def payoffs(s: float, gamma: float) -> list[tuple[float, float, float]]:
    """Each cell's (maker loses or no race, sniper, maker wins) utilities at
    spread s and risk aversion gamma, in PAYOFF_TABLE order: the values the
    engine pays and the monitor's law is built on.  An overflow is refused."""
    values = [(evaluate(ev.mm_if_loses, s, gamma), evaluate(ev.sniper, s, gamma),
               evaluate(ev.mm_if_wins, s, gamma)) for ev in PAYOFF_TABLE]
    if not all(math.isfinite(v) for row in values for v in row):
        raise ValidationError(f"a payoff at spread {s}, gamma {gamma} is not finite")
    return values


def second_event_prob(second: str, d: DerivedParams) -> float:
    if second in ("NG", "NB"):
        return d.alpha_bar
    if second in ("LA", "LB"):
        return d.mu_bar
    return 1.0 - 2.0 * (d.alpha_bar + d.mu_bar)


def first_event_prob(ev: EventSpec, d: DerivedParams) -> float:
    return d.beta / 2 if ev.has_race else (1.0 - d.beta) / 2


# ---------------------------------------------------------------------------
# Stage-utility law
# ---------------------------------------------------------------------------

TRUSTWORTHY = "trustworthy"
DECEPTIVE = "deceptive"

# Two support points closer than this are the same outcome (merged mass).
SUPPORT_TOL = 1e-9


@dataclass(frozen=True)
class UtilityDistribution:
    """Discrete utility distribution on a merged, sorted support."""

    support: tuple[float, ...]
    probs: tuple[float, ...]

    @property
    def mean(self) -> float:
        """Sum of value times probability over the support, in its order (sum
        adds left to right up to Python 3.11)."""
        return sum(value * prob for value, prob in zip(self.support, self.probs))

    def index_of(self, u: float) -> int:
        """Index of the support point matching u to SUPPORT_TOL."""
        for i, v in enumerate(self.support):
            if abs(v - u) <= SUPPORT_TOL:
                return i
        raise ValidationError(
            f"utility {u!r} matches no support point of the monitored game"
        )


def _merged(pairs: Iterable[tuple[float, float]]) -> UtilityDistribution:
    """Law of (utility, probability) pairs: masses added in ascending order of
    (utility, probability), points within SUPPORT_TOL merged into the lowest.
    Grouped by utility, not sorted as one list: a list of 80 pairs fragmented
    the C heap (7 MB more peak RSS in a third of campaign benchmark runs)."""
    groups: dict[float, list[float]] = {}
    for value, prob in pairs:
        groups.setdefault(value, []).append(prob)
    merged: list[tuple[float, float]] = []
    for value in sorted(groups):
        for prob in sorted(groups[value]):
            if merged and abs(merged[-1][0] - value) <= SUPPORT_TOL:
                merged[-1] = (merged[-1][0], merged[-1][1] + prob)
            else:
                merged.append((value, prob))
    support, probs = zip(*merged)
    return UtilityDistribution(support=support, probs=probs)


def utility_distribution(params: GameParams, p: float, pop: Population, s: float,
                         agent_class: str = TRUSTWORTHY) -> UtilityDistribution:
    """Stage-utility law of an agent of agent_class in pop, from PAYOFF_TABLE.

    The agent is market maker with probability 1/H and bandit otherwise; the
    trustworthy agents snipe with probability p, the deceptive ones for sure.
    Its race is ``race.mixed_race`` of its rivals, which a deceptive agent
    shares with a trustworthy one in the roster of one more trustworthy and
    one fewer deceptive agent.  A race cell's maker-loss column carries the
    loss, its sniper column the win times the agent's entry probability, p
    or 1.  Support values are ``payoffs``, the utilities the engine pays;
    values that collide (degenerate s or gamma) are merged.
    """
    if pop.total != params.H:
        raise ValidationError(f"population of {pop.total} does not match H={params.H}")
    if not 0.0 <= s <= 1.0:
        raise ValidationError(f"spread must lie in [0, 1] (got {s})")
    if agent_class == TRUSTWORTHY:
        entry, rivals = p, pop
    elif agent_class == DECEPTIVE:
        if pop.deceptive < 1:
            raise ValidationError(f"the roster of {pop.total} has no deceptive agent")
        entry, rivals = 1.0, Population(pop.trustworthy + 1, pop.deceptive - 1)
    else:
        raise ValidationError(f"unknown agent class {agent_class!r}")
    d = derive(params)
    h = pop.total
    win, loss = race.mixed_race(p, rivals)
    win *= entry

    def pairs() -> Iterator[tuple[float, float]]:
        for ev, (mm_loses, sniper, mm_wins) in zip(PAYOFF_TABLE, payoffs(s, params.gamma)):
            pe = first_event_prob(ev, d) * second_event_prob(ev.second, d)
            lose, snipe = (loss, win) if ev.has_race else (0.0, 0.0)
            yield mm_loses, pe / h * lose
            yield mm_wins, pe / h * (1.0 - lose)
            yield sniper, pe * (h - 1) / h * snipe
            yield 0.0, pe * (h - 1) / h * (1.0 - snipe)

    return _merged(pairs())


# ---------------------------------------------------------------------------
# Expected-utility lines
# ---------------------------------------------------------------------------


def slope_kernel(d: DerivedParams, n_agents: int):
    """bind(gamma) -> kernel(p, h=None, dh=None, lines=False) of the
    homogeneous game.

    With h, dh = race.mm_loss(p, n_agents) unless given, and q = gamma - 1.0
    (d.q's bits at d's gamma; nothing else in d depends on gamma), a kernel
    returns N'Q - NQ' of u* = N/Q, N = A*D - B*C, Q = (A - C) + (D - B), with
    ``intersection``'s operations; or (A, B, C, D) if lines.  The win is
    h/(n-1), each bandit being as likely to have beaten the market maker.
    d's fields and the products free of h, dh and q are formed once per
    slope_kernel; q and the products of q alone once per bind.  bind gives
    them to the kernel as its first argument, by a method
    (``types.MethodType``) rather than a closure: K(gamma) binds a new gamma
    at every step, and a method is the cheaper of the two to make.
    """
    m, beta, alpha_bar, mu_bar, theta_bar = d.m, d.beta, d.alpha_bar, d.mu_bar, d.theta_bar
    m_beta, one_mu = m * beta, 1.0 + mu_bar
    bandits = n_agents - 1

    def kernel(of_q: tuple[float, ...], p: float, h: float | None = None,
               dh: float | None = None, lines: bool = False):
        if h is None:
            h, dh = race.mm_loss(p, n_agents)
        aq, naq, bx, q_theta, naqb = of_q
        factor = beta * (h / bandits)
        a = m * factor
        b = naq * factor
        c = -(q_theta + bx * h)
        dd = one_mu - beta * (m + aq * h)
        if lines:
            return a, b, c, dd
        dwin = dh / bandits  # (p*g(p))'
        da, db, dc, dD = m_beta * dwin, naqb * dwin, -bx * dh, naqb * dh
        num = a * dd - b * c
        den = (a - c) + (dd - b)
        return (da * dd + a * dD - db * c - b * dc) * den - num * (da - dc + dD - db)

    def bind(gamma: float):
        q = gamma - 1.0
        aq = alpha_bar * q
        bx = beta * (m * (q + 1) - mu_bar * q)
        return MethodType(kernel, (aq, -aq, bx, q * theta_bar, -aq * beta))

    return bind


PARALLEL_TOL = 1e-12


@dataclass(frozen=True)
class IndifferencePoint:
    """Intersection of the bandit and market-maker utility lines."""

    s_star: float
    u_star: float


def intersection(a: float, b: float, c: float, d: float) -> tuple[float, float]:
    """(s_star, u_star) where the lines (A, B, C, D) of a ``slope_kernel``
    cross: both roles earn u_star at spread s_star."""
    denom = (a - c) + (d - b)
    if abs(denom) < PARALLEL_TOL:
        raise ValidationError(
            f"utility lines are parallel to within {PARALLEL_TOL}"
        )
    return (a - c) / denom, (a * d - b * c) / denom


def bandit_zero_crossing(params: GameParams) -> float:
    """Spread at which the bandit's expected utility crosses zero.

    The root of A(1-s) + Bs with A = m*beta*p*g and B = -alpha_bar*q*beta*p*g
    is A/(A-B) = m/(m + alpha_bar*q): the common factor beta*p*g cancels, so
    the crossing does not depend on the sniping probability, and since B <= 0
    the root lies in (0, 1].
    """
    d = derive(params)
    return d.m / (d.m + d.alpha_bar * d.q)


# ---------------------------------------------------------------------------
# Payoff-table export
# ---------------------------------------------------------------------------


# The text of each utility expression, as payoff_table.csv shows it.
_EXPR_TEXT: dict[Expr, str] = {
    _ZERO: "0",
    _S: "s",
    _2S: "2*s",
    _ONE_MINUS_S: "1-s",
    _TWO_MINUS_S: "2-s",
    _ONE_PLUS_S: "1+s",
    _NEG_G_ONE_MINUS_S: "-gamma*(1-s)",
    _NEG_G_TWO_MINUS_S: "-gamma*(2-s)",
    _NEG_GS: "-gamma*s",
}


def payoff_table_rows(params: GameParams) -> list[dict[str, object]]:
    """The full event table with numeric probabilities and symbolic utilities."""
    d = derive(params)
    rows: list[dict[str, object]] = []
    for ev in PAYOFF_TABLE:
        rows.append(
            {
                "event": ev.code,
                "prob_first": first_event_prob(ev, d),
                "prob_second": second_event_prob(ev.second, d),
                "u_mm_loses": _EXPR_TEXT[ev.mm_if_loses],
                "u_sniper": _EXPR_TEXT[ev.sniper],
                "u_mm_wins": _EXPR_TEXT[ev.mm_if_wins],
            }
        )
    return rows
