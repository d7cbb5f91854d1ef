"""Risk-aversion thresholds and the optimal sniping probability.

The point of indifference (s*, u*) moves as the common sniping probability p
changes, and u*(p) = N(p)/Q(p) with N = A*D - B*C and Q = A - C + D - B built
from the utility-line endpoints.  The slope of u* at the two ends of [0, 1]
defines two thresholds in the risk aversion gamma:

* ``gamma_to_probabilistic``: above it, the slope at p = 1 is negative and
  backing off from sure sniping raises u*; found by bisection on the slope
  numerator K(gamma) = N'(1)Q(1) - N(1)Q'(1), which has a unique zero
  crossing above 1 (positive at 1, eventually negative, concave to the
  right of 1).
* ``gamma_to_no_sniping``: above it, u*(p) <= 0 for every p and staying out
  of races is best; closed form 1 + sqrt((1 - mu_bar) Z / (alpha_bar *
  theta_bar)) with Z = 1 + mu_bar - beta (1 - mu_bar), equivalently the
  gamma at which N'(0) crosses zero.

Between the two thresholds ``optimal_sniping`` maximises u*(p) by
golden-section search, guarded by a slope-sign pre-scan against
non-unimodal surprises.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

from . import race, utility
from .params import DerivedParams, GameParams, ValidationError, derive
from .utility import IndifferencePoint, UtilityEndpoints

log = logging.getLogger(__name__)

GAMMA_TOL = 1e-9   # bisection tolerance on gamma roots
P_TOL = 1e-6       # golden-section tolerance on p
# An optimised u* at or below this is numerically indistinguishable from the
# no-sniping payoff of zero, so the regime is classified as no-sniping.
PLAYABLE_TOL = 1e-12

SURE = "sure"
PROBABILISTIC = "probabilistic"
NO_SNIPING = "no_sniping"

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class Thresholds:
    """Risk-aversion levels at which the optimal sniping behaviour changes."""

    to_probabilistic: float
    to_no_sniping: float


@dataclass(frozen=True)
class SnipingRegime:
    """Classification of a parameter set with its optimal play.

    p_star is present only in the probabilistic regime; u_star and s_star are
    the utility and spread of the optimal point of indifference (p = 1 when
    sure, p = 0 with zero utility when not sniping).
    """

    kind: str
    p_star: float | None
    u_star: float
    s_star: float


def _endpoints(h: float, d: DerivedParams, n_agents: int) -> UtilityEndpoints:
    """Utility-line endpoints from h, the market maker's race-loss probability."""
    win = h / (n_agents - 1)  # p * g(p)
    return utility.endpoints_from_race_probs(win, h, d)


def _homogeneous_endpoints(p: float, params: GameParams) -> UtilityEndpoints:
    return _endpoints(race.mm_loss_prob(p, params.H), derive(params), params.H)


def indifference_at(p: float, params: GameParams) -> IndifferencePoint:
    """Point of indifference (s*(p), u*(p)) for the homogeneous game."""
    return utility.indifference(_homogeneous_endpoints(p, params))


def _slope_terms(p: float, params: GameParams) -> tuple[float, float]:
    """N'(p)Q(p) - N(p)Q'(p), which shares the sign of du*/dp, and Q(p)."""
    d = derive(params)
    h = race.mm_loss_prob(p, params.H)
    dh = race.mm_loss_prob_deriv(p, params.H)
    dwin = dh / (params.H - 1)  # (p*g(p))'
    ep = _endpoints(h, d, params.H)
    a, b, c, dd = ep.bandit0, ep.bandit1, ep.mm0, ep.mm1
    da = d.m * d.beta * dwin
    db = -d.alpha_bar * d.q * d.beta * dwin
    dc = -d.beta * (d.m * (d.q + 1) - d.mu_bar * d.q) * dh
    dD = -d.alpha_bar * d.q * d.beta * dh
    n = a * dd - b * c
    q_ = (a - c) + (dd - b)
    dn = da * dd + a * dD - db * c - b * dc
    dq = da - dc + dD - db
    return dn * q_ - n * dq, q_


def _slope_numerator(p: float, params: GameParams) -> float:
    """N'(p)Q(p) - N(p)Q'(p); shares the sign of du*/dp."""
    return _slope_terms(p, params)[0]


def indifference_slope(p: float, params: GameParams) -> float:
    """du*/dp, assembled analytically from the endpoint derivatives."""
    k, q_ = _slope_terms(p, params)
    if abs(q_) < utility.PARALLEL_TOL:
        raise utility.ParallelLinesError("degenerate utility lines")
    return k / (q_ * q_)


def _with_gamma(params: GameParams, gamma: float) -> GameParams:
    return GameParams(
        H=params.H, alpha=params.alpha, mu=params.mu,
        delta=params.delta, gamma=gamma, sigma=params.sigma,
    )


def gamma_to_no_sniping(params: GameParams) -> float:
    """Risk aversion above which not sniping at all is optimal (closed form).

    Independent of H and of params.gamma.
    """
    d = derive(params)
    z = 1.0 + d.mu_bar - d.beta * (1.0 - d.mu_bar)
    return 1.0 + math.sqrt((1.0 - d.mu_bar) * z / (d.alpha_bar * d.theta_bar))


def gamma_to_no_sniping_by_slope(params: GameParams) -> float:
    """Numeric cross-check on gamma_to_no_sniping: root of the p=0 slope.

    Bisects the slope numerator at p = 0 (which is N'(0) * Q(0), Q(0) > 0)
    over gamma; must agree with the closed form to ~1e-8.
    """
    f = lambda g: _slope_numerator(0.0, _with_gamma(params, g))
    lo, hi = 1.0, 2.0
    while f(hi) > 0:
        hi *= 2.0
        if hi > 1e9:
            raise ValidationError("no-sniping threshold not bracketed")
    while hi - lo > GAMMA_TOL:
        mid = (lo + hi) / 2
        if f(mid) > 0:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


def gamma_to_probabilistic(params: GameParams) -> float:
    """Risk aversion above which probabilistic sniping beats sure sniping.

    The unique gamma >= 1 at which the p = 1 slope numerator
    K(gamma) = N'(1)Q(1) - N(1)Q'(1) crosses zero, located by bisection; K is
    evaluated numerically rather than through expanded cubic coefficients.
    Returns 1.0 (with a warning) if K(1) <= 0, i.e. probabilistic sniping is
    already optimal at minimal risk aversion.
    """
    k = lambda g: _slope_numerator(1.0, _with_gamma(params, g))
    if k(1.0) <= 0:
        log.warning(
            "probabilistic sniping already optimal at gamma = 1 for %s", params
        )
        return 1.0
    hi = max(2.0, 10.0 * gamma_to_no_sniping(params))
    while k(hi) >= 0:
        hi *= 2.0
        if hi > 1e9:
            raise ValidationError("sure-to-probabilistic threshold not bracketed")
    lo = 1.0
    while hi - lo > GAMMA_TOL:
        mid = (lo + hi) / 2
        if k(mid) > 0:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


def thresholds(params: GameParams) -> Thresholds:
    return Thresholds(
        to_probabilistic=gamma_to_probabilistic(params),
        to_no_sniping=gamma_to_no_sniping(params),
    )


def _golden_max(f, lo: float, hi: float, tol: float) -> float:
    """Golden-section maximiser on [lo, hi] to width tol."""
    x1 = hi - _INVPHI * (hi - lo)
    x2 = lo + _INVPHI * (hi - lo)
    f1, f2 = f(x1), f(x2)
    while hi - lo > tol:
        if f1 < f2:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + _INVPHI * (hi - lo)
            f2 = f(x2)
        else:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - _INVPHI * (hi - lo)
            f1 = f(x1)
    return (lo + hi) / 2


def optimal_sniping(params: GameParams) -> SnipingRegime:
    """Classify the regime and, when probabilistic, find argmax_p u*(p).

    A 21-point sign scan of du*/dp guards the unimodality assumption behind
    golden-section search; if several descending brackets appear, each is
    searched and the best candidate wins.
    """
    th = thresholds(params)
    if params.gamma < th.to_probabilistic:
        point = indifference_at(1.0, params)
        return SnipingRegime(SURE, None, point.u_star, point.s_star)
    if params.gamma >= th.to_no_sniping:
        point = indifference_at(0.0, params)
        return SnipingRegime(NO_SNIPING, None, 0.0, point.s_star)

    f = lambda p: indifference_at(p, params).u_star
    grid = [i / 20 for i in range(21)]
    slopes = [indifference_slope(p, params) for p in grid]
    brackets = [
        (grid[i], grid[i + 1])
        for i in range(20)
        if slopes[i] > 0 >= slopes[i + 1]
    ]
    if not brackets:
        brackets = [(0.0, 1.0)]
    elif len(brackets) > 1:
        log.warning(
            "u*(p) not unimodal for %s: %d descending brackets %s; taking the best",
            params, len(brackets), brackets,
        )
    candidates = []
    for blo, bhi in brackets:
        # widen to the neighbours so the maximiser is interior to the bracket
        lo = max(0.0, blo - 0.05)
        hi = min(1.0, bhi + 0.05)
        p_opt = _golden_max(f, lo, hi, P_TOL)
        candidates.append((f(p_opt), p_opt))
    u_star, p_star = max(candidates)
    if u_star <= PLAYABLE_TOL:
        point = indifference_at(0.0, params)
        return SnipingRegime(NO_SNIPING, None, 0.0, point.s_star)
    point = indifference_at(p_star, params)
    return SnipingRegime(PROBABILISTIC, p_star, point.u_star, point.s_star)


def regime_sweep(gammas, params: GameParams) -> list[dict[str, object]]:
    """Classify each gamma on a grid; rows ordered by gamma as given.

    Columns: gamma, regime, p_star (1 when sure, 0 when not sniping), s_star,
    u_sure = u*(1) and u_opt, the utility of the optimal regime.
    """
    rows = []
    for gamma in gammas:
        p = _with_gamma(params, gamma)
        regime = optimal_sniping(p)
        if regime.kind == SURE:
            p_star = 1.0
        elif regime.kind == NO_SNIPING:
            p_star = 0.0
        else:
            p_star = regime.p_star
        rows.append(
            {
                "gamma": gamma,
                "regime": regime.kind,
                "p_star": p_star,
                "s_star": regime.s_star,
                "u_sure": indifference_at(1.0, p).u_star,
                "u_opt": regime.u_star,
            }
        )
    return rows
