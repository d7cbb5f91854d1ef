"""Per-event payoff table, expected-utility lines and the point of indifference.

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

Expected utilities for both roles are affine in the spread s, so they are
summarised by their endpoints: the bandit line runs from A = E U_B(0) to
B = E U_B(1), the market-maker line from C = E U_M(0) to D = E U_M(1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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

_TABLE_BY_CODE = {ev.code: ev for ev in PAYOFF_TABLE}


def payoffs(s: float, gamma: float) -> list[tuple[float, float, float]]:
    """Each cell's (maker loses or no race, sniper, maker wins) utilities at
    spread s and risk aversion gamma, in PAYOFF_TABLE order: the values the
    engine pays and the monitor's law is built on.  An overflow is refused."""
    values = [(evaluate(ev.mm_if_loses, s, gamma), evaluate(ev.sniper, s, gamma),
               evaluate(ev.mm_if_wins, s, gamma)) for ev in PAYOFF_TABLE]
    if not all(math.isfinite(v) for row in values for v in row):
        raise ValidationError(f"a payoff at spread {s}, gamma {gamma} is not finite")
    return values


def event_by_code(code: str) -> EventSpec:
    try:
        return _TABLE_BY_CODE[code]
    except KeyError:
        raise ValidationError(f"unknown event code {code!r}") from None


def second_event_prob(second: str, d: DerivedParams) -> float:
    if second in ("NG", "NB"):
        return d.alpha_bar
    if second in ("LA", "LB"):
        return d.mu_bar
    return 1.0 - 2.0 * (d.alpha_bar + d.mu_bar)


def first_event_prob(ev: EventSpec, d: DerivedParams) -> float:
    return d.beta / 2 if ev.has_race else (1.0 - d.beta) / 2


def event_probability(event: EventSpec | str, params: GameParams) -> float:
    """Probability of a two-event code; the twenty of them sum to one."""
    ev = event_by_code(event) if isinstance(event, str) else event
    d = derive(params)
    return first_event_prob(ev, d) * second_event_prob(ev.second, d)


# ---------------------------------------------------------------------------
# Expected-utility lines
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class UtilityEndpoints:
    """Endpoints of the two expected-utility lines over s in [0, 1].

    bandit0/bandit1: bandit line at s = 0 and s = 1 (A and B)
    mm0/mm1: market-maker line at s = 0 and s = 1 (C and D)
    """

    bandit0: float
    bandit1: float
    mm0: float
    mm1: float


def endpoint_values(
    win_unconditional: float, mm_loss: float, d: DerivedParams, q: float
) -> tuple[float, float, float, float]:
    """(A, B, C, D) from the two race probabilities at excess risk aversion q
    (d.q at d's own gamma; nothing else in d depends on gamma).

    win_unconditional is the agent's unconditional per-race win probability
    (entry probability times conditional win probability); mm_loss is the
    probability the market maker he might become would lose the race.
    """
    factor = d.beta * win_unconditional
    return (
        d.m * factor,
        -d.alpha_bar * q * factor,
        -(q * d.theta_bar + d.beta * (d.m * (q + 1) - d.mu_bar * q) * mm_loss),
        (1.0 + d.mu_bar) - d.beta * (d.m + d.alpha_bar * q * mm_loss),
    )


def endpoints_from_race_probs(
    win_unconditional: float, mm_loss: float, d: DerivedParams
) -> UtilityEndpoints:
    """The utility endpoints from the two race probabilities (see endpoint_values)."""
    return UtilityEndpoints(*endpoint_values(win_unconditional, mm_loss, d, d.q))


def endpoints(p: float, pop: Population, params: GameParams) -> UtilityEndpoints:
    """Utility-line endpoints for a trustworthy agent in the given population.

    With no deceptive agents this reduces to the homogeneous game's endpoints
    built from mm_loss_prob and win_prob_given_entry.
    """
    if pop.total != params.H:
        raise ValidationError(
            f"population of {pop.total} does not match H={params.H}"
        )
    d = derive(params)
    win = p * race.win_prob_given_entry_mixed(p, pop)
    loss = race.mm_loss_prob_mixed(p, pop)
    return endpoints_from_race_probs(win, loss, d)


def utility_line(ep: UtilityEndpoints, who: str, s: float) -> float:
    """Evaluate one expected-utility line at spread s."""
    if who == "bandit":
        return ep.bandit0 * (1.0 - s) + ep.bandit1 * s
    if who == "mm":
        return ep.mm0 * (1.0 - s) + ep.mm1 * s
    raise ValidationError(f"unknown line {who!r}")


class ParallelLinesError(ValidationError):
    """The two utility lines are (numerically) parallel: the parameters have
    no point of indifference."""


PARALLEL_TOL = 1e-12


@dataclass(frozen=True)
class IndifferencePoint:
    """Intersection of the bandit and market-maker utility lines.

    playable is True when the common utility is strictly positive, i.e. the
    spread s_star is worth quoting for every agent regardless of role.
    """

    s_star: float
    u_star: float
    playable: bool


def indifference(ep: UtilityEndpoints) -> IndifferencePoint:
    """Intersection of the two lines: both roles earn u_star at spread s_star."""
    a, b, c, d = ep.bandit0, ep.bandit1, ep.mm0, ep.mm1
    denom = (a - c) + (d - b)
    if abs(denom) < PARALLEL_TOL:
        raise ParallelLinesError(
            f"utility lines are parallel to within {PARALLEL_TOL}"
        )
    s_star = (a - c) / denom
    u_star = (a * d - b * c) / denom
    return IndifferencePoint(s_star=s_star, u_star=u_star, playable=u_star > 0)


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


def _poly_str(const: float, slope: float) -> str:
    """Render const + slope*s compactly, e.g. '2-s', 's', '0', '1+s'."""

    def num(x: float) -> str:
        return str(int(x)) if float(x).is_integer() else repr(x)

    if slope == 0:
        return num(const)
    s_term = "s" if abs(slope) == 1 else f"{num(abs(slope))}*s"
    if const == 0:
        return s_term if slope > 0 else f"-{s_term}"
    sign = "+" if slope > 0 else "-"
    return f"{num(const)}{sign}{s_term}"


def expr_str(expr: Expr) -> str:
    """Human-readable form of a utility expression."""
    c0, cs, cg, cgs = expr
    if cg == 0 and cgs == 0:
        return _poly_str(c0, cs)
    if c0 == 0 and cs == 0:
        # gamma * (cg + cgs*s); table entries are -gamma*(positive payoff)
        inner = _poly_str(-cg, -cgs)
        return f"-gamma*({inner})" if inner != "s" else "-gamma*s"
    return f"{_poly_str(c0, cs)}+gamma*({_poly_str(cg, cgs)})"


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
                "u_mm_loses": expr_str(ev.mm_if_loses),
                "u_sniper": expr_str(ev.sniper),
                "u_mm_wins": expr_str(ev.mm_if_wins),
            }
        )
    return rows
