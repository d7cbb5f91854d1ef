"""Cross-check oracles: second computations of quantities sniplab computes.

Each function recomputes, by a different route, something the package has one
implementation of, and the tests compare the two:

* ``full_length_pmf`` -- the mass of Bin(n, p) on all of 0..n, zeros included,
  with neither tail cut; every enumeration below sums over it, so none of them
  shares the window of ``race._binom_pmf``;
* ``binom_pmf_two_lists`` -- ``race._binom_pmf``'s window built as two lists,
  one per side of the mode, joined by slicing: the weights, in order, that
  the one-list build must reproduce;
* ``mm_loss_prob_enum`` and ``win_prob_given_entry_enum`` -- the homogeneous
  race probabilities as plain binomial expectations, without the closed forms
  (p times the second is the package's mm_loss_prob / (n-1));
* ``race_reference`` -- the two homogeneous race functions in ``decimal``
  arithmetic at 80 or more digits, the exact value that tests/test_race.py
  measures each function's error in ulps against;
* ``mm_loss_prob_0_1_0`` and ``mm_loss_prob_deriv_0_1_0`` -- the two race
  functions as sniplab 0.1.0 computed them, with (1-p)**n and the cutoff at
  n*p = 1; patched into ``race``, they reproduce that version's outputs;
* ``mm_loss_prob_0_5_0`` and ``mm_loss_prob_deriv_0_5_0`` -- the two race
  functions as sniplab 0.2.0 to 0.5.0 computed them, with binomial sums over
  ``race._binom_pmf``'s windows below n*p = 0.75; patched into ``race``, they
  reproduce those versions' outputs;
* ``mm_loss_prob_0_6_0`` and ``mm_loss_prob_deriv_0_6_0`` -- the two race
  functions as sniplab 0.6.0 computed them, each with its own checks, n*p,
  log1p(-p) and cutoff branch; ``race.mm_loss`` must give their bits;
* ``mm_loss_of`` -- a stand-in for ``race.mm_loss`` made of two such
  functions; patched into ``race``, it puts an old version's race forms in
  every race call of ``transitions``;
* ``endpoint_values_0_6_0`` and ``slope_kernel_0_6_0`` -- the utility lines
  and the slope kernel as sniplab 0.3.0 to 0.6.0 assembled them, from any
  two race probabilities and a separate endpoint call;
  ``utility.slope_kernel`` must give their bits;
* ``series_0_7_0`` -- ``race._series`` of sniplab 0.6.0 and 0.7.0, one call
  per series; the one-loop form must give their bits;
* ``slope_kernel_0_7_0``, ``thresholds_0_7_0``, ``scan_0_7_0`` and
  ``regime_row_0_7_0`` -- the kernel, thresholds, scan and regime row of
  sniplab 0.7.0, which built a GameParams, a ``derive`` and a kernel for
  every row of a gamma sweep, formed q's products at every kernel call and
  raced every point of its 21 + 5-point scan; the sweep's shared kernel and
  bisection must give their rows bit for bit;
* ``thresholds_0_6_0`` -- ``transitions.thresholds`` of sniplab 0.6.0, which
  bracketed K(gamma) by [1, 10 to_no_sniping]; ``slope_kernel_error`` bounds
  the rounding error of the kernel, from which tests/test_cli.py derives how
  far 0.7.0's to_probabilistic may lie from it;
* ``root_0_2_0`` -- ``transitions._root`` as sniplab 0.1.0 and 0.2.0 ran it,
  with a midpoint wherever the secant point rounds onto an end; patched into
  ``transitions`` with no n*p scan points, it reproduces 0.2.0's outputs;
* ``win_prob_given_entry_mixed_two_urn`` -- the win probability of an
  entered bandit from its rival field, conditioning on the market maker's
  type; it checks race.mixed_race from a trustworthy and from a deceptive
  agent's viewpoint;
* ``win_prob_given_entry_deceptive_0_3_0`` -- a deceptive agent's win
  probability as sniplab 0.3.0 computed it; patched into the deceptive
  class's race, it reproduces that version's summary.csv;
* ``mixed_race_reference`` -- race.mixed_race's two expectations in
  ``decimal`` arithmetic at 60 or more digits, against which
  tests/test_race.py bounds its error in ulps;
* ``analytic_mean_0_4_0`` -- a class's mean stage utility as sniplab 0.4.0
  computed it, from the utility lines; patched into ``utility``, it
  reproduces the summary.csv of 0.3.0 and 0.4.0;
* ``utility_mean_reference`` -- the mean of ``utility.utility_distribution``
  in exact rational arithmetic, against which tests/test_utility.py bounds
  ``UtilityDistribution.mean``;
* ``utility_distribution_enum`` -- a class's stage-utility law by
  enumeration over (event, role, race composition), without the mixed race
  probabilities;
* ``slope_numerator`` -- the slope numerator N'Q - NQ' assembled as it was
  before ``transitions`` evaluated it from two race values: a fresh
  ``derive``, then ``endpoint_values_0_6_0`` at ``d.q``, then the
  derivative terms; the package's kernel must give the same bits;
* ``gamma_to_probabilistic_by_reference`` -- the sure-to-probabilistic
  threshold by the package's bracket, [1, max(2, to_no_sniping)], and
  root-finder on that reference;
* ``gamma_to_no_sniping_by_slope`` -- the no-sniping threshold as the root of
  the p = 0 slope, against its closed form ``Thresholds.to_no_sniping``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import replace
from decimal import Decimal, localcontext
from fractions import Fraction

from sniplab import race, utility
from sniplab.params import DerivedParams, GameParams, ValidationError, derive
from sniplab.race import Population, _check_n, _check_p
from sniplab.transitions import (NO_SNIPING, PLAYABLE_TOL, PROBABILISTIC, SURE, Thresholds,
                                  _no_sniping, _root)
from sniplab.utility import DECEPTIVE, TRUSTWORTHY, UtilityDistribution, _merged


def full_length_pmf(n: int, p: float) -> list[float]:
    """Mass of Bin(n, p) on all of 0..n, zeros included, by the ratio recurrence
    of race._binom_pmf; each side stops only where a term underflows to 0."""
    q = 1.0 - p
    mode = min(n, int((n + 1) * p))
    w = [0.0] * (n + 1)
    w[mode] = 1.0
    for k in range(mode, n):
        nxt = w[k] * ((n - k) * p / ((k + 1) * q))
        if nxt == 0.0:
            break
        w[k + 1] = nxt
    for k in range(mode, 0, -1):
        nxt = w[k] * (k * q / ((n - k + 1) * p))
        if nxt == 0.0:
            break
        w[k - 1] = nxt
    total = sum(w)
    return [x / total for x in w]


def binom_pmf_two_lists(n: int, p: float) -> enumerate:
    """The (k, mass at k) pairs of race._binom_pmf, from an upper list and a
    lower list, each starting at the mode, joined as down[:0:-1] + up."""
    q = 1.0 - p
    mode = min(n, int((n + 1) * p))
    up = [1.0]  # mass at mode, mode + 1, ...
    if mode < n:
        cut = (n - mode) * p / ((mode + 1) * q) * 2.0**-56  # up[1] * 2**-56
        term = 1.0
        for k in range(mode, n):
            term *= (n - k) * p / ((k + 1) * q)
            if term <= cut:
                break
            up.append(term)
    down = [1.0]  # mass at mode, mode - 1, ...
    term = 1.0
    for k in range(mode, 0, -1):
        term *= k * q / ((n - k + 1) * p)
        if term == 0.0:
            break
        down.append(term)
    w = down[:0:-1] + up
    total = sum(w)
    return enumerate([x / total for x in w], mode + 1 - len(down))


def full_length_expect(n: int, p: float, f) -> float:
    """E[f(N)] for N ~ Bin(n, p), summed over full_length_pmf in order of k."""
    return sum(w * f(k) for k, w in enumerate(full_length_pmf(n, p)))


def mm_loss_prob_enum(p: float, n_agents: int) -> float:
    """Exact binomial-expectation form of mm_loss_prob, E[N/(1+N)], N~Bin(n-1,p)."""
    _check_p(p)
    _check_n(n_agents)
    return full_length_expect(n_agents - 1, p, lambda k: k / (k + 1))


def win_prob_given_entry_enum(p: float, n_agents: int) -> float:
    """Probability a racing bandit wins, given he entered: E[1/(2+N)],
    N~Bin(n-2,p), summed over the full mass function.  p times it is the
    unconditional win probability, which the package takes as
    race.mm_loss_prob(p, n) / (n-1)."""
    _check_p(p)
    _check_n(n_agents)
    return full_length_expect(n_agents - 2, p, lambda k: 1 / (k + 2))


def race_reference(p: float, n_agents: int, digits: int = 80) -> dict[str, Decimal]:
    """mm_loss_prob and mm_loss_prob_deriv at (p, n), keyed by name, to
    ``digits`` digits.

    The closed forms of race's module docstring with (1-p)^n taken as an
    exact-exponent ``decimal`` power of the float p converted exactly.  The
    working precision adds the digits that the evaluation loses: 1 - p rounded
    to it carries one unit in its last place, which the power multiplies by n
    (len(str(n)) digits), and the numerators cancel to about (n p)^2 of 1,
    which 3 log10(1/(n p)) digits cover with a factor n p to spare.  p = 0,
    where the forms are 0/0, gives the exact values.
    """
    _check_p(p)
    _check_n(n_agents)
    n = n_agents
    if p == 0.0:
        h, dh = Decimal(0), Decimal(n - 1) / 2
    else:
        extra = len(str(n)) + 3 * max(0, math.ceil(-math.log10(n * p)))
        with localcontext() as ctx:
            ctx.prec = digits + 10 + extra
            x, m = Decimal(p), Decimal(n)
            h = ((1 - x) ** n - (1 - m * x)) / (m * x)
            dh = (1 - (1 - x) ** (n - 1) * (m * x + 1 - x)) / (m * x * x)
    with localcontext() as ctx:
        ctx.prec = digits
        return {"mm_loss_prob": +h, "mm_loss_prob_deriv": +dh}


def mm_loss_prob_0_1_0(p: float, n_agents: int) -> float:
    """race.mm_loss_prob of sniplab 0.1.0: the binomial sum below n*p = 1, and
    ((1-p)**n - (1 - n p)) / (n p) at and above."""
    n = n_agents
    if n * p < 1.0:
        return sum([w * (k / (k + 1)) for k, w in race._binom_pmf(n - 1, p)])
    return ((1.0 - p) ** n - (1.0 - n * p)) / (n * p)


def mm_loss_prob_deriv_0_1_0(p: float, n_agents: int) -> float:
    """race.mm_loss_prob_deriv of sniplab 0.1.0, as mm_loss_prob_0_1_0."""
    n = n_agents
    if n * p < 1.0:
        return (n - 1) * sum([w * (1 / ((k + 1) * (k + 2))) for k, w in race._binom_pmf(n - 2, p)])
    return (1.0 - (1.0 - p) ** (n - 1) * (n * p + 1.0 - p)) / (n * p * p)


def mm_loss_prob_0_5_0(p: float, n_agents: int) -> float:
    """race.mm_loss_prob of sniplab 0.2.0 to 0.5.0: the binomial sum
    E[N/(1+N)], N ~ Bin(n-1, p), below n*p = 0.75, and the log1p closed form
    at and above."""
    _check_p(p)
    _check_n(n_agents)
    n = n_agents
    z = n * p
    if z < 0.75:
        return sum([w * (k / (k + 1)) for k, w in race._binom_pmf(n - 1, p)])
    return (math.expm1(n * (math.log1p(-p) if p < 1.0 else -math.inf)) + z) / z


def mm_loss_prob_deriv_0_5_0(p: float, n_agents: int) -> float:
    """race.mm_loss_prob_deriv of sniplab 0.2.0 to 0.5.0: (n-1) E[1/((1+N)(2+N))],
    N ~ Bin(n-2, p), below n*p = 0.75, and the closed form at and above."""
    _check_p(p)
    _check_n(n_agents)
    n = n_agents
    if n * p < 0.75:
        return (n - 1) * sum([w * (1 / ((k + 1) * (k + 2))) for k, w in race._binom_pmf(n - 2, p)])
    y = (n - 1) * (math.log1p(-p) if p < 1.0 else -math.inf)
    return -(math.expm1(y) + (n - 1) * p * math.exp(y)) / (n * p * p)


def series_0_7_0(t: float, n: int, p: float, deriv: bool) -> float:
    """race._series of sniplab 0.6.0 and 0.7.0: the series of h, or of h' if
    deriv, from its k = 2 term t; a race call summed the two one after the
    other.  ``race._series`` must give their bits from one loop."""
    terms, cut = [t], t * 2.0**-56
    for k in range(2, n):
        t *= (k - n) * p * k / (k * k - 1) if deriv else (k - n) * p / (k + 1)
        if -cut <= t <= cut:
            break
        terms.append(t)
    return sum(terms[::-1])


def mm_loss_prob_0_6_0(p: float, n_agents: int) -> float:
    """race.mm_loss_prob of sniplab 0.6.0: the alternating series below
    n*p = race.CLOSED_FORM_MIN_NP and the log1p closed form at and above."""
    _check_p(p)
    _check_n(n_agents)
    n = n_agents
    z = n * p
    if z < race.CLOSED_FORM_MIN_NP:
        return series_0_7_0((n - 1) * p / 2, n, p, False)
    return (math.expm1(n * (math.log1p(-p) if p < 1.0 else -math.inf)) + z) / z


def mm_loss_prob_deriv_0_6_0(p: float, n_agents: int) -> float:
    """race.mm_loss_prob_deriv of sniplab 0.6.0, as mm_loss_prob_0_6_0."""
    _check_p(p)
    _check_n(n_agents)
    n = n_agents
    if n * p < race.CLOSED_FORM_MIN_NP:
        return series_0_7_0((n - 1) / 2, n, p, True)
    y = (n - 1) * (math.log1p(-p) if p < 1.0 else -math.inf)
    return -(math.expm1(y) + (n - 1) * p * math.exp(y)) / (n * p * p)


def mm_loss_of(loss, deriv):
    """A function of (p, n) -> (loss(p, n), deriv(p, n)), the shape of
    race.mm_loss, from two race functions of an old version."""
    return lambda p, n_agents: (loss(p, n_agents), deriv(p, n_agents))


def endpoint_values_0_6_0(
    win_unconditional: float, mm_loss: float, d: DerivedParams, q: float
) -> tuple[float, float, float, float]:
    """utility.endpoint_values of sniplab 0.3.0 to 0.6.0: (A, B, C, D) from the
    agent's unconditional win and the market maker's loss at excess risk
    aversion q."""
    factor = d.beta * win_unconditional
    return (
        d.m * factor,
        -d.alpha_bar * q * factor,
        -(q * d.theta_bar + d.beta * (d.m * (q + 1) - d.mu_bar * q) * mm_loss),
        (1.0 + d.mu_bar) - d.beta * (d.m + d.alpha_bar * q * mm_loss),
    )


def slope_kernel_0_6_0(h: float, dh: float, d: DerivedParams, q: float,
                       n_agents: int) -> tuple[float, float]:
    """transitions._slope_kernel of sniplab 0.3.0 to 0.6.0: N'Q - NQ' and Q
    from h, its p-derivative dh and the excess risk aversion q."""
    dwin = dh / (n_agents - 1)  # (p*g(p))'
    a, b, c, dd = endpoint_values_0_6_0(h / (n_agents - 1), h, d, q)
    da = d.m * d.beta * dwin
    db = -d.alpha_bar * q * d.beta * dwin
    dc = -d.beta * (d.m * (q + 1) - d.mu_bar * q) * dh
    dD = -d.alpha_bar * q * d.beta * dh
    n = a * dd - b * c
    q_ = (a - c) + (dd - b)
    dn = da * dd + a * dD - db * c - b * dc
    dq = da - dc + dD - db
    return dn * q_ - n * dq, q_


def thresholds_0_6_0(params: GameParams) -> Thresholds:
    """transitions.thresholds of sniplab 0.6.0: K(gamma) on
    slope_kernel_0_6_0 at p = 1, bracketed by [1, max(2, 10 to_no_sniping)]
    and then doubled."""
    d, n = derive(params), params.H
    no_sniping = _no_sniping(d, params)
    h, dh = mm_loss_prob_0_6_0(1.0, n), mm_loss_prob_deriv_0_6_0(1.0, n)
    k = lambda g: slope_kernel_0_6_0(h, dh, d, g - 1.0, n)[0]
    if not (k_lo := k(1.0)) > 0:
        raise ValidationError(f"K(1) = {k_lo} is not positive (underflow) for {params}")
    hi = max(2.0, 10.0 * no_sniping)
    while (k_hi := k(hi)) >= 0:
        hi *= 2.0
        if hi > 1e9:
            raise ValidationError("sure-to-probabilistic threshold not bracketed")
    return Thresholds(_root(k, 1.0, hi, k_lo, k_hi), no_sniping)


def slope_kernel_0_7_0(d: DerivedParams, n_agents: int):
    """utility.slope_kernel of sniplab 0.7.0: kernel(gamma, p, h=None, dh=None,
    lines=False), which formed q and its products at every call."""
    m, beta, alpha_bar, mu_bar, theta_bar = d.m, d.beta, d.alpha_bar, d.mu_bar, d.theta_bar
    m_beta, one_mu = m * beta, 1.0 + mu_bar
    bandits = n_agents - 1

    def kernel(gamma, p, h=None, dh=None, lines=False):
        if h is None:
            h, dh = race.mm_loss(p, n_agents)
        q = gamma - 1.0
        aq = alpha_bar * q
        bx = beta * (m * (q + 1) - mu_bar * q)
        factor = beta * (h / bandits)
        a = m * factor
        b = -aq * factor
        c = -(q * theta_bar + bx * h)
        dd = one_mu - beta * (m + aq * h)
        if lines:
            return a, b, c, dd
        dwin, naqb = dh / bandits, -aq * beta
        da, db, dc, dD = m_beta * dwin, naqb * dwin, -bx * dh, naqb * dh
        num = a * dd - b * c
        den = (a - c) + (dd - b)
        return (da * dd + a * dD - db * c - b * dc) * den - num * (da - dc + dD - db)

    return kernel


def thresholds_0_7_0(params: GameParams) -> Thresholds:
    """transitions.thresholds of sniplab 0.7.0: K(gamma) on
    slope_kernel_0_7_0 at p = 1 through a keyword partial, bracketed by
    [1, max(2, to_no_sniping)] and then doubled."""
    d, n = derive(params), params.H
    no_sniping = _no_sniping(d, params)
    h, dh = race.mm_loss(1.0, n)
    k = functools.partial(slope_kernel_0_7_0(d, n), p=1.0, h=h, dh=dh)
    if not (k_lo := k(1.0)) > 0:
        raise ValidationError(f"K(1) = {k_lo} is not positive (underflow) for {params}")
    hi = max(2.0, no_sniping)
    while (k_hi := k(hi)) >= 0:
        hi *= 2.0
        if hi > 1e9:
            raise ValidationError("sure-to-probabilistic threshold not bracketed")
    return Thresholds(_root(k, 1.0, hi, k_lo, k_hi), no_sniping)


def scan_0_7_0(n_agents: int) -> list[tuple[float, float, float]]:
    """(p, h, h') of race.mm_loss at every point of the scan of sniplab 0.3.0
    to 0.7.0: 21 points 0.05 apart, with p = c/n for c in 0.8, 1, 2, 4 and 8
    added inside the first cell (0, 0.05), in increasing order."""
    grid = [i / 20 for i in range(21)]
    grid += [c / n_agents for c in (0.8, 1.0, 2.0, 4.0, 8.0) if c / n_agents < grid[1]]
    return [(p, *race.mm_loss(p, n_agents)) for p in sorted(grid)]


def regime_row_0_7_0(params: GameParams, th: Thresholds) -> dict[str, object]:
    """transitions.regime_row of sniplab 0.7.0, with its _classify: a fresh
    derive and slope_kernel_0_7_0 for every row, the slope at every point of
    ``scan_0_7_0`` and a root in every descending sign change, and the points
    at p = 1 and p = 0 raced anew; the warning on a scan that is not unimodal
    is left out."""
    kernel = slope_kernel_0_7_0(derive(params), params.H)
    gamma = params.gamma
    point = lambda p: utility.IndifferencePoint(  # noqa: E731
        *utility.intersection(*kernel(gamma, p, lines=True)))
    if gamma < th.to_probabilistic:
        kind, p_star, at = SURE, 1.0, point(1.0)
    else:
        kind = NO_SNIPING
        if gamma < th.to_no_sniping:
            scan = scan_0_7_0(params.H)
            slopes = [kernel(gamma, p, h, dh) for p, h, dh in scan]
            brackets = [
                (scan[i][0], scan[i + 1][0], slopes[i], slopes[i + 1])
                for i in range(len(scan) - 1)
                if slopes[i] > 0 >= slopes[i + 1]
            ]
            slope = functools.partial(kernel, gamma)
            roots = [_root(slope, *b) for b in brackets] or [0.0, 1.0]
            p_star, at = max(((p, point(p)) for p in roots), key=lambda c: c[1].u_star)
            if at.u_star > PLAYABLE_TOL:
                kind = PROBABILISTIC
        if kind == NO_SNIPING:
            p_star, at = 0.0, utility.IndifferencePoint(point(0.0).s_star, 0.0)
    return {
        "gamma": gamma,
        "regime": kind,
        "p_star": p_star,
        "s_star": at.s_star,
        "u_sure": at.u_star if kind == SURE else point(1.0).u_star,
        "u_opt": at.u_star,
        "gamma_probabilistic": th.to_probabilistic,
        "gamma_no_sniping": th.to_no_sniping,
    }


def slope_kernel_error(gamma: float, h: float, dh: float, d: DerivedParams,
                       n_agents: int) -> float:
    """A bound on |fl(K) - K| for the slope numerator K of
    utility.slope_kernel at (gamma, h, dh), K taken in exact arithmetic on
    the same float inputs.

    A running error bound (Higham 2002, sec. 3.3) over the kernel's
    operations in their order: each value carries a bound e on its distance
    from the exact value, a product x*y adds |x| e_y + |y| e_x + e_x e_y, a
    sum e_x + e_y, a quotient by the exact n - 1 e_x/(n - 1), and every
    rounding u/(1 - u) of the rounded result, u = 2**-53.  The inputs, and
    q = gamma - 1.0 (exact for 1 <= gamma < 2**53), carry no error.
    """
    u = 2.0**-53 / (1 - 2.0**-53)

    def mul(x, y):
        v = x[0] * y[0]
        return v, abs(x[0]) * y[1] + abs(y[0]) * x[1] + x[1] * y[1] + u * abs(v)

    def add(x, y, sign=1.0):
        v = x[0] + sign * y[0]
        return v, x[1] + y[1] + u * abs(v)

    def neg(x):
        return -x[0], x[1]

    exact = lambda v: (v, 0.0)  # noqa: E731
    bandits = n_agents - 1
    m, beta, alpha_bar = exact(d.m), exact(d.beta), exact(d.alpha_bar)
    mu_bar, theta_bar = exact(d.mu_bar), exact(d.theta_bar)
    q = exact(gamma - 1.0)
    win = (h / bandits, u * abs(h / bandits))
    dwin = (dh / bandits, u * abs(dh / bandits))
    hh, dhh = exact(h), exact(dh)
    m_beta = mul(m, beta)
    aq = mul(alpha_bar, q)
    bx = mul(beta, add(mul(m, add(q, exact(1.0))), mul(mu_bar, q), -1.0))
    factor = mul(beta, win)
    a = mul(m, factor)
    b = mul(neg(aq), factor)
    c = neg(add(mul(q, theta_bar), mul(bx, hh)))
    dd = add(add(exact(1.0), mu_bar), mul(beta, add(m, mul(aq, hh))), -1.0)
    naqb = mul(neg(aq), beta)
    da, db = mul(m_beta, dwin), mul(naqb, dwin)
    dc, dD = mul(neg(bx), dhh), mul(naqb, dhh)
    num = add(mul(a, dd), mul(b, c), -1.0)
    den = add(add(a, c, -1.0), add(dd, b, -1.0))
    dnum = add(add(add(mul(da, dd), mul(a, dD)), mul(db, c), -1.0), mul(b, dc), -1.0)
    dden = add(add(add(da, dc, -1.0), dD), db, -1.0)
    return add(mul(dnum, den), mul(num, dden), -1.0)[1]


def root_0_2_0(f, lo: float, hi: float, flo: float, fhi: float) -> float:
    """transitions._root of sniplab 0.2.0: regula falsi with the Illinois step,
    and the midpoint in place of every secant point that rounds onto an end."""
    side = 0
    while True:
        x = lo + (hi - lo) * (flo / (flo - fhi))
        if not lo < x < hi:
            x = lo + (hi - lo) / 2
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


def win_prob_given_entry_mixed_two_urn(p: float, at_p: int, sure: int) -> float:
    """Win probability of a bandit that entered, given its rivals: at_p agents
    that enter with probability p and ``sure`` that enter for sure; the
    cross-check on the win of race.mixed_race.

    Conditions on the market maker, uniform among the rivals.  If it is one
    of the at_p, the field is the bandit, the maker, the ``sure`` snipers and
    Bin(at_p - 1, p) entrants; if it is a sure sniper, the bandit, the
    maker, the other sure - 1 and Bin(at_p, p) entrants.  A trustworthy agent
    in (H_t, H_d) has the rivals (H_t - 1, H_d), a deceptive one
    (H_t, H_d - 1).  Requires at_p >= 1, so that both urns are defined.
    """
    _check_p(p)
    if at_p < 1:
        raise ValidationError(f"two-urn form needs a rival that enters at p (got {at_p})")
    others = at_p + sure
    result = at_p / others * full_length_expect(at_p - 1, p, lambda k: 1 / (2 + sure + k))
    if sure > 0:
        result += sure / others * full_length_expect(at_p, p, lambda k: 1 / (1 + sure + k))
    return result


def win_prob_given_entry_deceptive_0_3_0(p: float, rivals: Population) -> float:
    """A deceptive agent's win probability as sniplab 0.3.0 computed it, on
    race._binom_pmf's windows.  ``rivals`` is the roster that
    utility.utility_distribution passes to race.mixed_race for that agent:
    its own roster (H_t, H_d) with one deceptive agent turned trustworthy.

    0.3.0 conditioned on the market maker's type, in (H_t, H_d): trustworthy
    with weight H_t/(H-1) and field 1 + H_d + Bin(H_t - 1, p), deceptive with
    weight (H_d - 1)/(H-1) and field H_d + Bin(H_t, p); the operations are
    0.3.0's, in that order.
    """
    ht, hd = rivals.trustworthy - 1, rivals.deceptive + 1
    h_minus_1 = rivals.total - 1
    mm_trusty = sum(w / (1 + hd + k) for k, w in race._binom_pmf(ht - 1, p))
    result = ht / h_minus_1 * mm_trusty
    if hd >= 2:
        mm_deceptive = sum(w / (hd + k) for k, w in race._binom_pmf(ht, p))
        result += (hd - 1) / h_minus_1 * mm_deceptive
    return result


def mixed_race_reference(p: float, pop: Population, digits: int = 60) -> dict[str, Decimal]:
    """race.mixed_race's win given entry and loss at (p, pop), keyed "win" and
    "loss", to ``digits`` digits.

    The two expectations of mixed_race's docstring over N ~ Bin(m, p),
    m = H_t - 1, in ``decimal`` arithmetic with p converted exactly: the mass
    starts at (1-p)^m at k = 0 and follows the ratio recurrence over all of
    0..m, with no window and no normalisation.  Each of the m steps rounds
    at the working precision, which adds len(str(m)) digits to cover them.
    """
    _check_p(p)
    m, hd = pop.trustworthy - 1, pop.deceptive
    with localcontext() as ctx:
        ctx.prec = digits + 10 + len(str(m))
        x = Decimal(p)
        q = 1 - x
        if q == 0:
            mass = [Decimal(0)] * m + [Decimal(1)]
        else:
            mass = [q**m]
            for k in range(m):
                mass.append(mass[-1] * (m - k) * x / ((k + 1) * q))
        win = sum(
            w * (Decimal(k) / (1 + k + hd) + Decimal(m - k) / (2 + k + hd) + Decimal(hd) / (1 + k + hd))
            for k, w in enumerate(mass)
        ) / (pop.total - 1)
        loss = sum(w * (hd + k) / (1 + hd + k) for k, w in enumerate(mass))
    with localcontext() as ctx:
        ctx.prec = digits
        return {"win": +win, "loss": +loss}


def rivals_of(agent_class: str, p: float, pop: Population) -> tuple[int, int, float]:
    """(rivals that enter at p, rivals that enter for sure, own entry
    probability) of an agent of agent_class in pop: its race is
    race.mixed_race's in Population(at_p + 1, sure)."""
    if agent_class == TRUSTWORTHY:
        return pop.trustworthy - 1, pop.deceptive, p
    if agent_class == DECEPTIVE and pop.deceptive >= 1:
        return pop.trustworthy, pop.deceptive - 1, 1.0
    raise ValidationError(f"no {agent_class!r} agent in {pop}")


def analytic_mean_0_4_0(
    agent_class: str, p: float, s: float, pop: Population, params: GameParams
) -> float:
    """simulator.analytic_mean_utility of sniplab 0.4.0: the class's
    market-maker and bandit utility lines at spread s, weighted by the uniform
    1/H chance of being selected as market maker, with the race of
    utility.utility_distribution."""
    if pop.total != params.H:
        raise ValidationError(f"population of {pop.total} does not match H={params.H}")
    at_p, sure, entry = rivals_of(agent_class, p, pop)
    win, loss = race.mixed_race(p, Population(at_p + 1, sure))
    win *= entry
    d = derive(params)
    a, b, c, dd = endpoint_values_0_6_0(win, loss, d, d.q)
    h = pop.total
    return ((c * (1.0 - s) + dd * s) + (h - 1) * (a * (1.0 - s) + b * s)) / h


def utility_mean_reference(
    params: GameParams, p: float, pop: Population, s: float, agent_class: str = TRUSTWORTHY
) -> Fraction:
    """Exact mean stage utility of an agent of agent_class in pop.

    The sum over PAYOFF_TABLE of each cell's probability times its expected
    utility, in ``Fraction`` arithmetic: the derived alpha_bar, mu_bar and
    beta, the spread, gamma and p are taken as the exact rationals of their
    floats, each utility expression is evaluated exactly, and the race is
    ``mixed_race_reference`` of the agent's rivals, 60 digits taken as exact.
    """
    at_p, sure, entry = rivals_of(agent_class, p, pop)
    exact = mixed_race_reference(p, Population(at_p + 1, sure))
    win, loss = Fraction(exact["win"]) * Fraction(entry), Fraction(exact["loss"])
    d = derive(params)
    alpha_bar, mu_bar, beta = Fraction(d.alpha_bar), Fraction(d.mu_bar), Fraction(d.beta)
    x, g = Fraction(s), Fraction(params.gamma)
    h = pop.total

    def value(expr: utility.Expr) -> Fraction:
        c0, cs, cg, cgs = expr
        return c0 + cs * x + cg * g + cgs * g * x

    total = Fraction(0)
    for ev in utility.PAYOFF_TABLE:
        first = beta / 2 if ev.has_race else (1 - beta) / 2
        second = {"NG": alpha_bar, "NB": alpha_bar, "LA": mu_bar, "LB": mu_bar}.get(
            ev.second, 1 - 2 * (alpha_bar + mu_bar)
        )
        if ev.has_race:
            maker = loss * value(ev.mm_if_loses) + (1 - loss) * value(ev.mm_if_wins)
            total += first * second * (maker + (h - 1) * win * value(ev.sniper)) / h
        else:
            total += first * second * value(ev.mm_if_loses) / h
    return total


def utility_distribution_enum(
    params: GameParams, p: float, pop: Population, s: float, agent_class: str = TRUSTWORTHY
) -> UtilityDistribution:
    """Brute-force law of an agent of agent_class, by enumeration over
    (event, role, composition).

    Uses only the payoff table, the event probabilities and binomial entry
    counts; independent of the closed probability expressions and of the
    mixed race-probability functions.  The agent's rivals are at_p agents
    that enter with probability p and ``sure`` that enter for sure: (H_t - 1,
    H_d) for a trustworthy agent, which itself enters at p, and (H_t,
    H_d - 1) for a deceptive one, which enters for sure.
    """
    if pop.total != params.H:
        raise ValidationError(f"population of {pop.total} does not match H={params.H}")
    at_p, sure, entry = rivals_of(agent_class, p, pop)
    d = derive(params)
    h = pop.total
    gamma = params.gamma
    pairs: list[tuple[float, float]] = []
    entry_as_mm = full_length_pmf(at_p, p)
    entry_mm_trusty = full_length_pmf(at_p - 1, p) if at_p >= 1 else []
    for ev in utility.PAYOFF_TABLE:
        pe = utility.first_event_prob(ev, d) * utility.second_event_prob(ev.second, d)
        mm_lose = utility.evaluate(ev.mm_if_loses, s, gamma)
        if not ev.has_race:
            pairs.append((mm_lose, pe / h))
            pairs.append((0.0, pe * (h - 1) / h))
            continue
        snip = utility.evaluate(ev.sniper, s, gamma)
        mm_win = utility.evaluate(ev.mm_if_wins, s, gamma)
        # as market maker: the field is the sure rivals + Bin(at_p, p)
        for k, w in enumerate(entry_as_mm):
            field = 1 + sure + k
            pairs.append((mm_lose, pe / h * w * (field - 1) / field))
            pairs.append((mm_win, pe / h * w / field))
        # as bandit: enter with the own entry probability, then the market
        # maker is one of the rivals at p or a sure one, and the rest of the
        # field is binomial
        pairs.append((0.0, pe * (h - 1) / h * (1.0 - entry)))
        if at_p >= 1:
            branch = pe * (h - 1) / h * entry * at_p / (h - 1)
            for k, w in enumerate(entry_mm_trusty):
                field = 2 + sure + k
                pairs.append((snip, branch * w / field))
                pairs.append((0.0, branch * w * (field - 1) / field))
        if sure >= 1:
            branch = pe * (h - 1) / h * entry * sure / (h - 1)
            for k, w in enumerate(entry_as_mm):
                field = 2 + (sure - 1) + k
                pairs.append((snip, branch * w / field))
                pairs.append((0.0, branch * w * (field - 1) / field))
    return _merged(pairs)


def slope_numerator(p: float, params: GameParams) -> float:
    """N'(p)Q(p) - N(p)Q'(p) at params, from race.mm_loss, a fresh derive and
    the endpoints from endpoint_values_0_6_0 at d.q."""
    d, n = derive(params), params.H
    h, dh = race.mm_loss(p, n)
    dwin = dh / (n - 1)  # (p*g(p))'
    a, b, c, dd = endpoint_values_0_6_0(h / (n - 1), h, d, d.q)
    da = d.m * d.beta * dwin
    db = -d.alpha_bar * d.q * d.beta * dwin
    dc = -d.beta * (d.m * (d.q + 1) - d.mu_bar * d.q) * dh
    dD = -d.alpha_bar * d.q * d.beta * dh
    num = a * dd - b * c
    den = (a - c) + (dd - b)
    dnum = da * dd + a * dD - db * c - b * dc
    dden = da - dc + dD - db
    return dnum * den - num * dden


def slope_numerator_in_gamma(params: GameParams, p: float = 1.0):
    """gamma -> slope_numerator(p, params at that gamma), each gamma through
    dataclasses.replace and so through GameParams' validation."""
    return lambda g: slope_numerator(p, replace(params, gamma=g))


def gamma_to_probabilistic_by_reference(params: GameParams, no_sniping: float) -> float:
    """The sure-to-probabilistic threshold found as the package finds it, with
    _root on the same bracket, but on slope_numerator_in_gamma; no_sniping is
    the no-sniping threshold, which sets the first upper end."""
    k = slope_numerator_in_gamma(params)
    if k(1.0) <= 0:
        return 1.0
    hi = max(2.0, no_sniping)
    while k(hi) >= 0:
        hi *= 2.0
        if hi > 1e9:
            raise ValidationError("sure-to-probabilistic threshold not bracketed")
    return _root(k, 1.0, hi, k(1.0), k(hi))


def gamma_to_no_sniping_by_slope(params: GameParams) -> float:
    """Numeric cross-check on Thresholds.to_no_sniping: root of the p=0 slope.

    The zero over gamma of the slope numerator at p = 0 (which is
    N'(0) * Q(0), Q(0) > 0); must agree with the closed form to ~1e-8.
    """
    f = slope_numerator_in_gamma(params, 0.0)
    hi = 2.0
    while f(hi) > 0:
        hi *= 2.0
        if hi > 1e9:
            raise ValidationError("no-sniping threshold not bracketed")
    return _root(f, 1.0, hi, f(1.0), f(hi))
