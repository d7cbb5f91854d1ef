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

Between the thresholds u* has one interior maximum, at the zero p* of the
slope numerator N'(p)Q(p) - N(p)Q'(p).  In exact arithmetic: A..D are affine
in h = race.mm_loss(p, n)[0], which strictly increases on [0, 1], so the
numerator is h'(p) P(h) with P = N_h Q - N Q_h quadratic in h.  P > 0 at
p = 0 (gamma below to_no_sniping) and P < 0 at p = 1 (above
to_probabilistic), and a quadratic with opposite signs at two points has
exactly one root between them.  tests/test_transitions.py checks the one sign
change in floats on a fine grid over the valid parameter space.  So
``optimal_sniping`` bisects a fixed grid, keeping slope(lo) > 0 >= slope(hi),
down to the one cell where the sign changes, the cell a scan of every point
would find; where the two ends give no bracket (gamma within rounding of a
threshold), the better end of [0, 1] is taken.  The grid is ``_SCAN_GRID``,
21 points 0.05 apart, with p = c/n, c in ``_NP_POINTS``, added inside its
first cell (0, 0.05): at H in the thousands p* lies near 0.85/n, and that
cell is about 600 times too wide at H = 10^4 (at n <= 16 no c/n falls in
it).  Every c is at least ``race.CLOSED_FORM_MIN_NP``, so the points and the
root's iterates between them race on the O(1) closed forms; c = 0.5 added two
series calls and 4-8 % to each row of an H sweep at 2,000-10,000, and
bracketed no p*.

Both zeros, p* and K(gamma), are found by one root-finder, ``_root``: regula
falsi with the Illinois step to float precision, with a next-float probe
where the secant point rounds onto an end of the bracket.  Each evaluation is
one call of a ``utility.slope_kernel`` built once per ``derive`` and n and
bound to a gamma: float arithmetic on (h, h') = race.mm_loss(p, n), one race
call per p* step.  K is bracketed by [1, max(2, to_no_sniping)], whose upper
end doubles until K < 0 there (15.1 K evaluations per row of an H sweep at
the Fig. 7 rates and gamma 4, against 21.2 on [1, 10 to_no_sniping];
BENCH_29.json).

``regime_rows`` gives the rows of a sweep over gamma: one ``derive``, one
kernel, one ``thresholds`` and one grid serve them all, and each row binds
the kernel to its gamma; an H, rate or ``analyze`` row, and
``optimal_sniping``, are such a sweep's one row.  K's race values at p = 1
serve every point at p = 1 and the bisection's upper end.  The sweep races
a grid point when a bisection first asks for it and keeps its values, so a
gamma sweep races each grid point at most once, and an H-sweep row races
p = 0 and about five of its 26 points (BENCH_31.json; timings in
BENCH_21.json, BENCH_22.json and BENCH_30.json).  Nothing is kept between
sweeps.
The iterates are part of the output: an Anderson-Bjorck step in place of the
Illinois one moved the last bits of p* in 60 and 62 of 400 random settings
and saved 0.2-2.9 % of the evaluations, so that step was not taken.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import race, utility
from .params import DerivedParams, GameParams, ValidationError, check_gamma, derive

# An optimised u* at or below this is numerically indistinguishable from the
# no-sniping payoff of zero, so the regime is classified as no-sniping.
PLAYABLE_TOL = 1e-12

# p* is bracketed by bisection over these points of [0, 1] ...
_SCAN_GRID = tuple(i / 20 for i in range(21))
# ... and p = c/n for these c, where c/n < 0.05 (see the module docstring);
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


def _point(kernel, p: float, h: float | None = None,
           dh: float | None = None) -> tuple[float, float]:
    """(s*, u*) of the point of indifference on the lines of a bound
    ``utility.slope_kernel``, at the race values h, dh of p if given."""
    return utility.intersection(*kernel(p, h, dh, lines=True))


def indifference_at(p: float, params: GameParams) -> utility.IndifferencePoint:
    """Point of indifference (s*(p), u*(p)) for the homogeneous game."""
    kernel = utility.slope_kernel(derive(params), params.H)(params.gamma)
    return utility.IndifferencePoint(*_point(kernel, p))


def _grid(n_agents: int) -> list[float]:
    """The bisection's grid for n agents: ``_SCAN_GRID`` with the points c/n,
    c in ``_NP_POINTS``, inside its first cell, in increasing order."""
    cell = _SCAN_GRID[1]
    return sorted([*_SCAN_GRID, *(c / n_agents for c in _NP_POINTS if c / n_agents < cell)])


def _no_sniping(d: DerivedParams, params: GameParams) -> float:
    z = 1.0 + d.mu_bar - d.beta * (1.0 - d.mu_bar)
    scale = d.alpha_bar * d.theta_bar  # underflows to 0 at tiny rates
    ratio = (1.0 - d.mu_bar) * z / scale if scale > 0 else math.inf
    if ratio == math.inf:
        raise ValidationError(f"the no-sniping threshold overflows for {params}")
    return 1.0 + math.sqrt(ratio)


def _shared(params: GameParams):
    """(d, bind, one) of params: d = derive(params), bind its
    ``utility.slope_kernel`` and one = (1.0, h, h') its race values at p = 1,
    which K(gamma) and the point of indifference at p = 1 share."""
    d, n = derive(params), params.H
    return d, utility.slope_kernel(d, n), (1.0, *race.mm_loss(1.0, n))


def thresholds(params: GameParams, shared=None) -> Thresholds:
    """Both risk-aversion thresholds, from one ``derive`` of params, or from
    ``_shared(params)`` if given: a caller that classifies params too passes
    it, so that both share one derive and one kernel.

    ``Thresholds.to_no_sniping`` is the module's closed form; where it
    overflows, a ValidationError is raised before K is searched.
    to_probabilistic is the unique gamma >= 1 at which the p = 1 slope
    numerator K(gamma) = N'(1)Q(1) - N(1)Q'(1) crosses zero; K is evaluated
    numerically rather than through expanded cubic coefficients, and the
    search is bracketed by to_no_sniping (see the module docstring).  K(1) > 0
    over the valid parameters (tests/test_transitions.py draws them from H up
    to 10**6 and rates down to 1e-12); a K(1) that underflows to zero is
    refused.
    """
    d, bind, (_, h, dh) = shared or _shared(params)
    no_sniping = _no_sniping(d, params)
    # K is the kernel at p = 1 as a function of gamma: the race values do not
    # depend on gamma, and bind's gamma - 1.0 has the bits of
    # derive(replace(params, gamma=gamma)).q
    k = lambda g: bind(g)(1.0, h, dh)
    if not (k_lo := k(1.0)) > 0:
        raise ValidationError(f"K(1) = {k_lo} is not positive (underflow) for {params}")
    hi = max(2.0, no_sniping)
    while (k_hi := k(hi)) >= 0:
        hi *= 2.0
        if hi > 1e9:
            raise ValidationError("sure-to-probabilistic threshold not bracketed")
    return Thresholds(_root(k, 1.0, hi, k_lo, k_hi), no_sniping)


def _classify(gamma: float, kernel, one, th: Thresholds, grid: list[float],
              at) -> tuple[str, float, float, float]:
    """(kind, p_star, u_star, s_star), ``SnipingRegime``'s fields, at risk
    aversion gamma, given the ``utility.slope_kernel`` bound at gamma, the
    race values one at p = 1, the thresholds, and a sweep's ``_grid`` with
    at(i), the (p, h, h') of its point i.  Between the thresholds the
    bisection of the module docstring brackets p* for ``_root``."""
    if gamma < th.to_probabilistic:
        s_star, u_star = _point(kernel, *one)
        return SURE, 1.0, u_star, s_star
    if gamma < th.to_no_sniping:
        lo, hi = 0, len(grid) - 1
        flo, fhi = kernel(*at(lo)), kernel(*one)
        if flo > 0 >= fhi:
            while hi - lo > 1:
                mid = (lo + hi) // 2
                if (f := kernel(*at(mid))) > 0:
                    lo, flo = mid, f
                else:
                    hi, fhi = mid, f
            p_star = _root(kernel, grid[lo], grid[hi], flo, fhi)
            s_star, u_star = _point(kernel, p_star)
        else:
            # no sign change (gamma within rounding of a threshold): the
            # maximum lies at an end of [0, 1], p = 0 where the two tie
            ends = [(0.0, *_point(kernel, *at(0))), (1.0, *_point(kernel, *one))]
            p_star, s_star, u_star = max(ends, key=lambda end: end[2])
        if u_star > PLAYABLE_TOL:
            return PROBABILISTIC, p_star, u_star, s_star
    return NO_SNIPING, 0.0, 0.0, _point(kernel, *at(0))[0]


def optimal_sniping(params: GameParams) -> SnipingRegime:
    """Classify the regime and, when probabilistic, find argmax_p u*(p): the
    row of params in ``regime_rows``."""
    row = regime_rows(params)(params.gamma)
    return SnipingRegime(row["regime"], row["p_star"], row["u_opt"], row["s_star"])


def regime_rows(params: GameParams):
    """row(gamma): one row of a regime sweep over gamma, at params' other
    fields.

    Columns: gamma, regime, p_star (see ``SnipingRegime``), s_star,
    u_sure = u*(1), u_opt, the utility of the optimal regime, and the two
    thresholds gamma_probabilistic and gamma_no_sniping.  The thresholds do
    not depend on gamma, and neither do the slope kernel's products of the
    rates or the grid's race values, so every row shares one ``derive``, one
    kernel, one ``thresholds`` and one ``_grid``, whose points are raced when
    a row first asks for them; a row checks its gamma by ``GameParams``' rule
    and binds the kernel to it.  ``regime_rows(params)(params.gamma)`` is the
    row of params itself.
    """
    shared = _shared(params)
    _, bind, one = shared
    th = thresholds(params, shared)
    grid = _grid(params.H)
    raced = [None] * len(grid)

    def at(i: int) -> tuple[float, float, float]:
        if raced[i] is None:
            raced[i] = (grid[i], *race.mm_loss(grid[i], params.H))
        return raced[i]

    def row(gamma: float) -> dict[str, object]:
        check_gamma(gamma)
        kernel = bind(gamma)
        kind, p_star, u_star, s_star = _classify(gamma, kernel, one, th, grid, at)
        return {
            "gamma": gamma,
            "regime": kind,
            "p_star": p_star,
            "s_star": s_star,
            # a sure regime is the point at p = 1 already
            "u_sure": u_star if kind == SURE else _point(kernel, *one)[1],
            "u_opt": u_star,
            "gamma_probabilistic": th.to_probabilistic,
            "gamma_no_sniping": th.to_no_sniping,
        }

    return row
