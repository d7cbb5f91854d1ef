"""Risk-aversion thresholds and the optimal sniping probability.

The point of indifference (s*, u*) moves as the common sniping probability p
changes, and u*(p) = N(p)/Q(p) with N = A*D - B*C and Q = A - C + D - B built
from the utility-line endpoints.  The slope of u* at the two ends of [0, 1]
defines two thresholds in the risk aversion gamma:

* ``Thresholds.to_probabilistic``: above it, the slope at p = 1 is negative
  and backing off from sure sniping raises u*; the zero crossing of the slope
  numerator K(gamma) = N'(1)Q(1) - N(1)Q'(1), which is unique above 1
  (positive at 1, eventually negative, concave to the right of 1).
* ``Thresholds.to_no_sniping``: above it, u*(p) <= 0 for every p and
  staying out of races is best; closed form 1 + sqrt((1 - mu_bar) Z /
  (alpha_bar * theta_bar)) with Z = 1 + mu_bar - beta (1 - mu_bar),
  independent of H and of gamma, equivalently the gamma at which N'(0)
  crosses zero (the tests find that root numerically as a check on the
  closed form).

Between the two thresholds ``optimal_sniping`` scans the sign of du*/dp on a
grid of [0, 1] and takes p* as the zero of the analytic slope numerator
N'(p)Q(p) - N(p)Q'(p) inside each descending sign change, guarding against
non-unimodal surprises.  The grid is ``_SCAN_GRID``, 21 points 0.05 apart,
with the points p = c/n, c in ``_NP_POINTS``, added inside its first cell
(0, 0.05).  At H in the thousands p* lies near 0.85/n, so those points
bracket it on the n*p scale, where the first cell alone is about 600 times
too wide at H = 10^4; at n <= 16 none falls inside the cell, and the grid is
``_SCAN_GRID`` alone.  Every c is at least ``race.CLOSED_FORM_MIN_NP``, so
the points and the root's iterates between them race on the O(1) closed
forms rather than on the binomial sums below the cutoff; points below it cost
more time than they save.

Both zeros in this module, p* and K(gamma), are found by one bracketed
root-finder, ``_root``: regula falsi with the Illinois step, run to float
precision, with a next-float probe where the secant point rounds onto an end
of the bracket.  Each evaluation is float arithmetic on h = mm_loss_prob(p,
n) and its derivative (``_slope_kernel``); K(gamma)'s race values are fixed,
while a p* step makes its two race calls.  The scan's race values depend on n
alone: ``_scan_race`` computes them once per n and keeps those of the last n.
So the rows of a gamma sweep, which share H, scan by kernel arithmetic alone
and race only their p* steps and points of indifference.  An H sweep gives
every row a new n, so its rows race the scan every time.  The timings of
these steps are recorded in BENCH_21.json and BENCH_22.json.  The iterates
are part of the output: an Anderson-Bjorck step in place of the Illinois one
moved the last bits of p* in 60 and 62 of 400 random settings and saved
0.2-2.9 % of the evaluations, so that step was not taken.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from . import race, utility
from .params import DerivedParams, GameParams, ValidationError, derive
from .utility import IndifferencePoint

# An optimised u* at or below this is numerically indistinguishable from the
# no-sniping payoff of zero, so the regime is classified as no-sniping.
PLAYABLE_TOL = 1e-12

# du*/dp is scanned for sign changes on these points of [0, 1] ...
_SCAN_GRID = tuple(i / 20 for i in range(21))
# ... and on p = c/n for these c, where c/n < 0.05 (see the module docstring);
# each c must be at least race.CLOSED_FORM_MIN_NP
_NP_POINTS = (0.8, 1.0, 2.0, 4.0, 8.0)

SURE = "sure"
PROBABILISTIC = "probabilistic"
NO_SNIPING = "no_sniping"


@dataclass(frozen=True)
class Thresholds:
    """Risk-aversion levels at which the optimal sniping behaviour changes."""

    to_probabilistic: float
    to_no_sniping: float


@dataclass(frozen=True)
class SnipingRegime:
    """Classification of a parameter set with its optimal play.

    p_star is the probability to play: 1.0 when sure, p* when probabilistic,
    0.0 when not sniping; u_star and s_star are the utility and spread of the
    point of indifference at p_star (zero utility when not sniping).
    """

    kind: str
    p_star: float
    u_star: float
    s_star: float


def _root(f, lo: float, hi: float, flo: float, fhi: float) -> float:
    """Zero of f on a bracket with flo = f(lo) > 0 >= f(hi) = fhi, to float
    precision; the caller has evaluated f at both ends.

    Regula falsi with the Illinois step (Dowell & Jarratt 1971): when the
    same end of the bracket is replaced twice running, the value kept at the
    other end is halved, which makes the convergence superlinear.  A secant
    point that rounds onto an end means the zero lies within rounding of that
    end, so the float next to it is probed, which closes the bracket if the
    sign changes there; if it does not, the next such point is replaced by
    the midpoint, so probes and midpoints alternate and the bracket never
    shrinks ulp by ulp.  Stops when f is exactly zero or lo and hi are
    adjacent floats, and returns the end with f <= 0.
    """
    side = 0
    probe = True
    while True:
        x = lo + (hi - lo) * (flo / (flo - fhi))
        if not lo < x < hi:
            if probe:
                x = math.nextafter(lo, hi) if x <= lo else math.nextafter(hi, lo)
            else:
                x = lo + (hi - lo) / 2
            probe = not probe
            if not lo < x < hi:
                return hi
        fx = f(x)
        if fx > 0:
            lo, flo = x, fx
            if side > 0:
                fhi /= 2
            side = 1
        elif fx == 0:
            return x
        else:
            hi, fhi = x, fx
            if side < 0:
                flo /= 2
            side = -1


def _point(p: float, d: DerivedParams, n_agents: int) -> IndifferencePoint:
    """Point of indifference of the homogeneous game at sniping probability p."""
    h = race.mm_loss_prob(p, n_agents)  # the market maker loses the race
    return utility.indifference(*utility.endpoint_values(h / (n_agents - 1), h, d, d.q))


def indifference_at(p: float, params: GameParams) -> IndifferencePoint:
    """Point of indifference (s*(p), u*(p)) for the homogeneous game."""
    return _point(p, derive(params), params.H)


def _slope_kernel(h: float, dh: float, d: DerivedParams, q: float,
                  n_agents: int) -> tuple[float, float]:
    """N'Q - NQ' and Q from h = mm_loss_prob(p, n), dh = mm_loss_prob_deriv(p, n)
    and the excess risk aversion q, in float arithmetic alone."""
    dwin = dh / (n_agents - 1)  # (p*g(p))'
    a, b, c, dd = utility.endpoint_values(h / (n_agents - 1), h, d, q)
    da = d.m * d.beta * dwin
    db = -d.alpha_bar * q * d.beta * dwin
    dc = -d.beta * (d.m * (q + 1) - d.mu_bar * q) * dh
    dD = -d.alpha_bar * q * d.beta * dh
    n = a * dd - b * c
    q_ = (a - c) + (dd - b)
    dn = da * dd + a * dD - db * c - b * dc
    dq = da - dc + dD - db
    return dn * q_ - n * dq, q_


def _slope_terms(p: float, d: DerivedParams, n_agents: int) -> tuple[float, float]:
    """N'(p)Q(p) - N(p)Q'(p), which shares the sign of du*/dp, and Q(p)."""
    h = race.mm_loss_prob(p, n_agents)
    return _slope_kernel(h, race.mm_loss_prob_deriv(p, n_agents), d, d.q, n_agents)


@functools.lru_cache(maxsize=1)
def _scan_race(n_agents: int) -> tuple[tuple[float, float, float], ...]:
    """(p, mm_loss_prob, mm_loss_prob_deriv) at each scan point p for n agents.

    The points are ``_SCAN_GRID`` with p = c/n, c in ``_NP_POINTS``, added
    inside its first cell (0, 0.05), in increasing order; at n <= 16 none
    falls there.  The values depend on n alone, so a gamma sweep, whose rows
    share H, computes them once.  One entry is enough: an H sweep changes n
    on every row.
    """
    cell = _SCAN_GRID[1]
    grid = sorted([*_SCAN_GRID, *(c / n_agents for c in _NP_POINTS if c / n_agents < cell)])
    return tuple(
        (p, race.mm_loss_prob(p, n_agents), race.mm_loss_prob_deriv(p, n_agents))
        for p in grid
    )


def _no_sniping(d: DerivedParams, params: GameParams) -> float:
    z = 1.0 + d.mu_bar - d.beta * (1.0 - d.mu_bar)
    scale = d.alpha_bar * d.theta_bar  # underflows to 0 at tiny rates
    ratio = (1.0 - d.mu_bar) * z / scale if scale > 0 else math.inf
    if ratio == math.inf:
        raise ValidationError(f"the no-sniping threshold overflows for {params}")
    return 1.0 + math.sqrt(ratio)


def thresholds(params: GameParams) -> Thresholds:
    """Both risk-aversion thresholds, from one ``derive`` of params.

    ``Thresholds.to_no_sniping`` is the module's closed form; where it
    overflows, a ValidationError is raised before K is searched.
    to_probabilistic is the unique gamma >= 1 at which the p = 1 slope
    numerator K(gamma) = N'(1)Q(1) - N(1)Q'(1) crosses zero; K is evaluated
    numerically rather than through expanded cubic coefficients, and the
    search is bracketed by ten times to_no_sniping.  K(1) > 0 over the valid
    parameters (tests/test_transitions.py draws them from H up to 10**6 and
    rates down to 1e-12); a K(1) that underflows to zero is refused.
    """
    d, n = derive(params), params.H
    no_sniping = _no_sniping(d, params)
    # the race values at p = 1 do not depend on gamma; gamma - 1.0 has the
    # bits of derive(replace(params, gamma=gamma)).q
    h, dh = race.mm_loss_prob(1.0, n), race.mm_loss_prob_deriv(1.0, n)
    k = lambda g: _slope_kernel(h, dh, d, g - 1.0, n)[0]
    if not (k_lo := k(1.0)) > 0:
        raise ValidationError(f"K(1) = {k_lo} is not positive (underflow) for {params}")
    hi = max(2.0, 10.0 * no_sniping)
    while (k_hi := k(hi)) >= 0:
        hi *= 2.0
        if hi > 1e9:
            raise ValidationError("sure-to-probabilistic threshold not bracketed")
    return Thresholds(_root(k, 1.0, hi, k_lo, k_hi), no_sniping)


def _classify(params: GameParams, d: DerivedParams, th: Thresholds) -> SnipingRegime:
    """The regime of params, given its derived quantities and its thresholds.

    Between the thresholds, each descending sign change of du*/dp on the
    scan grid of ``_scan_race`` brackets a local maximum of u*; ``_root``
    locates each on the slope numerator and the best candidate wins.
    """
    n = params.H
    if params.gamma < th.to_probabilistic:
        point = _point(1.0, d, n)
        return SnipingRegime(SURE, 1.0, point.u_star, point.s_star)
    if params.gamma < th.to_no_sniping:
        scan = _scan_race(n)
        slopes = [_slope_kernel(h, dh, d, d.q, n)[0] for _, h, dh in scan]
        brackets = [
            (scan[i][0], scan[i + 1][0], slopes[i], slopes[i + 1])
            for i in range(len(scan) - 1)
            if slopes[i] > 0 >= slopes[i + 1]
        ]
        if len(brackets) > 1:
            import logging  # only here: the commands that never warn skip its import

            logging.getLogger(__name__).warning(
                "u*(p) not unimodal for %s: %d descending brackets %s; taking the best",
                params, len(brackets), [b[:2] for b in brackets],
            )
        # without a sign change (gamma within rounding of a threshold) the
        # maximum lies at an end of [0, 1]
        slope = lambda p: _slope_terms(p, d, n)[0]
        roots = [_root(slope, *b) for b in brackets] or [0.0, 1.0]
        p_star, point = max(((p, _point(p, d, n)) for p in roots), key=lambda c: c[1].u_star)
        if point.u_star > PLAYABLE_TOL:
            return SnipingRegime(PROBABILISTIC, p_star, point.u_star, point.s_star)
    point = _point(0.0, d, n)
    return SnipingRegime(NO_SNIPING, 0.0, 0.0, point.s_star)


def optimal_sniping(params: GameParams) -> SnipingRegime:
    """Classify the regime and, when probabilistic, find argmax_p u*(p)."""
    return _classify(params, derive(params), thresholds(params))


def regime_row(params: GameParams, th: Thresholds) -> dict[str, object]:
    """Classify params against its thresholds: one row of a regime sweep.

    Columns: gamma, regime, p_star (see ``SnipingRegime``), s_star,
    u_sure = u*(1), u_opt, the utility of the optimal regime, and the two
    thresholds gamma_probabilistic and gamma_no_sniping.  ``th`` must be
    ``thresholds(params)``, or those of a parameter set that differs from
    params only in gamma: the thresholds do not depend on gamma, so a sweep
    over gamma computes them once.
    """
    d = derive(params)
    regime = _classify(params, d, th)
    return {
        "gamma": params.gamma,
        "regime": regime.kind,
        "p_star": regime.p_star,
        "s_star": regime.s_star,
        # a sure regime is the point at p = 1 already
        "u_sure": regime.u_star if regime.kind == SURE else _point(1.0, d, params.H).u_star,
        "u_opt": regime.u_star,
        "gamma_probabilistic": th.to_probabilistic,
        "gamma_no_sniping": th.to_no_sniping,
    }
