import math
import random
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from sniplab import race
from sniplab import transitions as tr
from sniplab import utility
from sniplab.params import GameParams, ValidationError
from sniplab.race import Population

import oracles


def mm_loss_prob(p, n_agents):
    """h of race.mm_loss: the market maker loses the race."""
    return race.mm_loss(p, n_agents)[0]


def mm_loss_prob_deriv(p, n_agents):
    """h' of race.mm_loss: the derivative of h in p."""
    return race.mm_loss(p, n_agents)[1]


def central_diff(f, x, step=1e-6):
    return (f(x + step) - f(x - step)) / (2 * step)


def mixed_sums(n, p):
    """Every binomial sum of race over Bin(n, p): mixed_race at H_t = n + 1,
    H_d 0-3, which is also a deceptive agent's race at H_t = n, H_d 1-4."""
    values = []
    for hd in range(4):
        if n + 1 + hd >= 3:
            values += race.mixed_race(p, Population(n + 1, hd))
    return values


def deceptive_race(p, pop):
    """A deceptive agent's race in pop: a trustworthy agent's in the roster
    with one deceptive agent turned trustworthy, which has the same rivals."""
    return race.mixed_race(p, Population(pop.trustworthy + 1, pop.deceptive - 1))


def mixed_summands(n, hd):
    """mixed_race's win and loss summands f(k) at H_t = n + 1 and H_d = hd,
    on k = 0..n as a numpy array each, in mixed_race's float operations."""
    k = np.arange(n + 1, dtype=float)
    return {
        "win": k / (1 + k + hd) + (n - k) / (2 + k + hd) + hd / (1 + k + hd),
        "loss": (hd + k) / (1 + hd + k),
    }


def exact_expect(m, p, f):
    """E[f(N)] for N ~ Bin(m, p), summed in exact rational arithmetic."""
    q = 1 - p
    return sum(math.comb(m, k) * p**k * q ** (m - k) * f(k) for k in range(m + 1))


@st.composite
def pmf_arguments(draw):
    """(n, p) for Bin(n, p): n on 1..10,000 and p at an end of [0, 1],
    log-uniform down to 1e-300, or a few ulps from k/n or from k/(n+1), where
    the mode steps."""
    n = draw(st.integers(1, 10_000))
    kind = draw(st.sampled_from(["end", "log", "near"]))
    if kind == "end":
        return n, draw(st.sampled_from([0.0, 1.0]))
    if kind == "log":
        return n, 10.0 ** draw(st.floats(-300.0, 0.0))
    p = draw(st.integers(0, n)) / draw(st.sampled_from([n, n + 1]))
    for _ in range(draw(st.integers(0, 3))):
        p = math.nextafter(p, draw(st.sampled_from([0.0, 1.0])))
    return n, p


class TestHomogeneous:
    def test_mm_loss_known_points(self):
        assert mm_loss_prob(1.0, 5) == pytest.approx(0.8, abs=1e-15)
        assert mm_loss_prob(0.0, 5) == 0.0
        # one opponent enters w.p. 1/2 and then wins a two-way race w.p. 1/2
        assert mm_loss_prob(0.5, 2) == pytest.approx(0.25, abs=1e-15)

    def test_mm_loss_deriv_known_points(self):
        assert mm_loss_prob_deriv(1.0, 5) == pytest.approx(0.2, abs=1e-15)
        assert mm_loss_prob_deriv(0.0, 5) == pytest.approx(2.0, abs=1e-15)
        fd = central_diff(lambda p: mm_loss_prob(p, 4), 0.5)
        assert mm_loss_prob_deriv(0.5, 4) == pytest.approx(fd, abs=1e-6)

    def test_win_prob_known_points(self):
        # a given bandit enters and wins w.p. p E[1/(2+N)], N ~ Bin(n-2, p),
        # which the package takes as mm_loss_prob / (n-1)
        assert mm_loss_prob(1.0, 5) / 4 == pytest.approx(0.2, abs=1e-15)
        assert mm_loss_prob(0.0, 7) / 6 == 0.0
        # N ~ Bin(1, 1/2): (1/2) ((1/2)(1/2) + (1/2)(1/3))
        assert mm_loss_prob(0.5, 3) / 2 == pytest.approx(5 / 24, abs=1e-15)

    def test_win_prob_deriv_known_points(self):
        # d/dp of p g(p), with g(p) = E[1/(2+N)], is g(0) = 1/2 at p = 0 and
        # g(1) + g'(1) = 1/n - (n-2)/(n(n-1)) at p = 1; the package takes it as
        # mm_loss_prob_deriv / (n-1)
        assert mm_loss_prob_deriv(1.0, 4) / 3 == pytest.approx(1 / 12, abs=1e-15)
        assert mm_loss_prob_deriv(0.0, 2) / 1 == 0.5
        fd = central_diff(lambda p: p * oracles.win_prob_given_entry_enum(p, 6), 0.3)
        assert mm_loss_prob_deriv(0.3, 6) / 5 == pytest.approx(fd, abs=1e-6)

    @pytest.mark.parametrize("n", range(2, 13))
    def test_closed_forms_match_enumeration(self, n):
        for p in np.linspace(0.0, 1.0, 11):
            p = float(p)
            assert mm_loss_prob(p, n) == pytest.approx(
                oracles.mm_loss_prob_enum(p, n), abs=1e-12
            )
            assert mm_loss_prob(p, n) / (n - 1) == pytest.approx(
                p * oracles.win_prob_given_entry_enum(p, n), abs=1e-12
            )

    @given(
        st.floats(min_value=1e-9, max_value=1.0),
        st.integers(min_value=2, max_value=12),
    )
    # the closed form of mm_loss_prob would lose four digits to cancellation here
    @example(p=1e-6, n=2)
    def test_unconditional_win_identity(self, p, n):
        # p * win_prob == mm_loss / (n - 1): each of the n-1 bandits is equally
        # likely to be the one who beat the market maker
        assert math.isclose(
            p * oracles.win_prob_given_entry_enum(p, n),
            mm_loss_prob(p, n) / (n - 1),
            rel_tol=0,
            abs_tol=1e-12,
        )

    @pytest.mark.parametrize("n", [2, 3, 5, 9])
    def test_monotonicity(self, n):
        grid = np.linspace(0.001, 1.0, 50)
        loss = [mm_loss_prob(float(p), n) for p in grid]
        assert all(b > a for a, b in zip(loss, loss[1:]))
        assert all(0 <= v <= (n - 1) / n for v in loss)

    def test_series_matches_closed_form_near_switch(self):
        # just above p = 0 the probability follows its two-term series about
        # p = 0, whose remainder is O(n^3 p^3); the evaluation there must not
        # add cancellation noise on top
        for n in (3, 5, 12):
            for p in (2e-6, 5e-6):
                series_loss = (n - 1) / 2 * p - (n - 1) * (n - 2) / 6 * p * p
                assert mm_loss_prob(p, n) == pytest.approx(series_loss, abs=1e-8)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 8, 13, 21, 50])
    def test_exact_near_zero(self, n):
        # the closed forms cancel catastrophically for small n*p; every value
        # and derivative must still match exact rational arithmetic
        for p in (1e-6, 1.01e-6, 3e-6, 1e-5, 1e-4, 1e-3, 1e-2):
            x = Fraction(p)
            exact = {
                mm_loss_prob: exact_expect(n - 1, x, lambda k: Fraction(k, k + 1)),
                mm_loss_prob_deriv: (n - 1)
                * exact_expect(n - 2, x, lambda k: Fraction(1, (k + 1) * (k + 2))),
            }
            for fn, value in exact.items():
                got = fn(p, n)
                assert abs(Fraction(got) - value) <= Fraction(1, 10**12) * abs(value), (
                    fn.__name__, p, got, float(value)
                )

    @pytest.mark.parametrize("n", [1, 3, 10, 100, 1000, 10_000])
    def test_windowed_sum_matches_full_length(self, n, monkeypatch):
        # the window drops only upper-tail terms below half an ulp of every
        # running sum (see race._binom_pmf), so mixed_race, its one caller,
        # keeps every bit; that needs 0 <= f(k) <= 2 f(mode+1) beyond the
        # mode for each summand f, checked here on all of mode+1..n
        rng = random.Random(n)
        fixed = (0.0, 1e-9, 1e-6, 0.1 / n, 0.5 / n, 0.85 / n, 0.9 / n, 2.0 / n, 0.3, 0.9, 1.0)
        band = tuple(rng.random() / n for _ in range(4))  # n*p < 1
        for p in fixed + band:
            p = min(p, 1.0)
            windowed = mixed_sums(n, p)
            with monkeypatch.context() as m:
                full_length = lambda size, prob: enumerate(oracles.full_length_pmf(size, prob))
                m.setattr(race, "_binom_pmf", full_length)
                full = mixed_sums(n, p)
            assert windowed == full, (n, p)
            mode = min(n, int((n + 1) * p))
            for hd in range(4):
                for name, f in mixed_summands(n, hd).items():
                    beyond = f[mode + 1:]
                    assert np.all(beyond >= 0) and np.all(beyond <= 2 * f[min(n, mode + 1)]), (
                        n, p, hd, name)

    def test_upper_tail_is_cut(self):
        # for mixed_race at H_t in the thousands and H_t p about 0.85, only
        # ~18 of ~170 nonzero terms can reach a float sum
        assert len(list(race._binom_pmf(9999, 0.85e-4))) <= 25

    @settings(derandomize=True, database=None, deadline=None, max_examples=300)
    @given(pmf_arguments())
    @example((1, 0.5))
    @example((10_000, 0.5))
    def test_pmf_weights_match_two_list_build(self, args):
        # the one-list window gives the same pairs (k, weight), in the same
        # order and with the same normalisation, as two lists joined by slicing
        n, p = args
        assert list(race._binom_pmf(n, p)) == list(oracles.binom_pmf_two_lists(n, p))

    def test_homogeneous_solve_at_large_h(self):
        params = GameParams(H=5000, alpha=0.45, mu=0.3, delta=0.5, gamma=3.0)
        regime = tr.optimal_sniping(params)
        assert regime.kind == tr.PROBABILISTIC
        assert 0.0 < regime.p_star < 1e-3 and regime.u_star > 0.0
        p = regime.p_star
        assert race.mixed_race(p, Population(5000, 0))[1] == pytest.approx(
            mm_loss_prob(p, 5000), rel=1e-12
        )

    def test_domain_errors(self):
        with pytest.raises(ValidationError):
            mm_loss_prob(-0.1, 5)
        with pytest.raises(ValidationError):
            mm_loss_prob_deriv(1.2, 5)
        with pytest.raises(ValidationError):
            mm_loss_prob(0.5, 1)


# ---------------------------------------------------------------------------
# Precision contract: every homogeneous race function against the decimal
# reference, in ulps of the exact value.
# ---------------------------------------------------------------------------

RACE_FUNCTIONS = {
    "mm_loss_prob": mm_loss_prob,
    "mm_loss_prob_deriv": mm_loss_prob_deriv,
}
# the suprema over the valid range of the first-order bounds derived in
# TestPrecision's docstring, rounded up; in units of u = 2**-53, so in ulps
CLOSED_FORM_BOUNDS = {
    "mm_loss_prob": 25,
    "mm_loss_prob_deriv": 29,
}
SERIES_BOUNDS = {
    "mm_loss_prob": 5,
    "mm_loss_prob_deriv": 8,
}


def ulps_off(got, exact):
    """|got - exact| in ulps of the float nearest the exact value."""
    if exact == 0:
        return 0.0 if got == 0.0 else math.inf
    return float(abs(Decimal(got) - exact) / Decimal(math.ulp(float(exact))))


def closed_form_bounds(p, n):
    """First-order error bounds, in u, of the two closed forms at (p, n)."""
    log_q = math.log1p(-p) if p < 1.0 else -math.inf
    z, w = n * p, (n - 1) * p
    t, y = n * log_q, (n - 1) * log_q
    e, ey = math.exp(t), math.exp(y)
    te, ye = (0.0, 0.0) if p == 1.0 else (-t * e, -y * ey)  # |t| e^t and |y| e^y
    s = e - 1.0 + z  # numerator of mm_loss_prob
    m = 1.0 - ey * (1.0 + w)  # minus the numerator of its derivative
    b_h = (3 * te + 2 * (1 - e) + z) / s + 3
    b_dh = (3 * ye + 2 * (1 - ey) + w * (4 * ey + 3 * ye)) / m + 4
    return {"mm_loss_prob": b_h, "mm_loss_prob_deriv": b_dh}


def _running_sum_bound(n, p, f, scaled, f_u=2):
    """First-order error bound, in u, of sum(w * f(k)) over race._binom_pmf(n, p),
    times or divided by an integer when scaled, relative to the exact
    expectation; f_u bounds the relative rounding of each term w * f(k)."""
    pairs = list(race._binom_pmf(n, p))
    mode = min(n, int((n + 1) * p))
    steps = [5.0 * abs(k - mode) for k, _ in pairs]  # recurrence roundings

    def accumulation(terms):  # sum of min(u S_j, t_j) over the additions, in u
        total, bound = 0.0, 0.0
        for j, t in enumerate(terms):
            total += t
            if j:
                bound += min(total, t * 2.0**53)
        return bound

    weights = [w for _, w in pairs]
    e_total = (sum(w * a for w, a in zip(weights, steps)) + accumulation(weights)) / sum(weights)
    terms = [w * f(k) for k, w in pairs]
    exact = sum(terms)
    if exact == 0.0:
        return 0.0
    err = sum(t * (a + e_total + 1 + f_u) for t, a in zip(terms, steps)) + accumulation(terms)
    return err / exact + 1 + scaled  # + the tail beyond the window, + the scaling


def _series_bound(p, n, deriv):
    """First-order error bound, in u, of race's series for mm_loss_prob (deriv
    false) or its derivative at (p, n), relative to the exact value."""
    t = (n - 1) / 2 if deriv else (n - 1) * p / 2
    terms, cut = [t], t * 2.0**-56
    for k in range(2, n):  # the terms as race forms them
        t *= (k - n) * p * k / (k * k - 1) if deriv else (k - n) * p / (k + 1)
        if -cut <= t <= cut:
            break
        terms.append(t)
    if terms[0] == 0.0:
        return 0.0  # p = 0: h is the exact 0
    first, step = (0, 4) if deriv else (1, 3)  # roundings of the first term, of each ratio
    err = sum(abs(t) * (first + step * j) for j, t in enumerate(terms))
    total = 0.0
    for j, t in enumerate(reversed(terms)):  # the additions, smallest first
        total += t
        if j:
            err += min(abs(total), abs(t) * 2.0**53)
    return (err + abs(terms[0]) / 8) / abs(total)  # + the tail, under 2**-56 of the first


def series_bounds(p, n):
    """First-order error bounds, in u, of the two series at (p, n)."""
    return {"mm_loss_prob": _series_bound(p, n, False),
            "mm_loss_prob_deriv": _series_bound(p, n, True)}


def mixed_bounds(p, pop):
    """First-order error bounds, in u, of mixed_race's win and loss at (p, pop)."""
    ht, hd = pop.trustworthy, pop.deceptive
    f_win = lambda k: k / (1 + k + hd) + (ht - 1 - k) / (2 + k + hd) + hd / (1 + k + hd)
    return {
        "win": _running_sum_bound(ht - 1, p, f_win, 1, f_u=4),
        "loss": _running_sum_bound(ht - 1, p, lambda k: (hd + k) / (1 + hd + k), 0),
    }


@st.composite
def closed_form_arguments(draw):
    """(p, n) with n from 2 to 2**53 - 1, log-uniform, and n*p >= 3/4: n*p
    log-uniform on [3/4, 96] or p = 1."""
    n = min(2**53 - 1, max(2, int(2.0 ** draw(st.floats(1.0, 53.0)))))
    if draw(st.booleans()):
        n = draw(st.integers(2, 2**53 - 1))
    if draw(st.integers(0, 9)) == 0:
        return 1.0, n
    p = min(1.0, 0.75 * 2.0 ** draw(st.floats(0.0, 7.0)) / n)
    while n * p < race.CLOSED_FORM_MIN_NP:
        p = math.nextafter(p, 1.0)
    return p, n


@st.composite
def series_arguments(draw):
    """(p, n) with n from 2 to 2**53 - 1, log-uniform, and n*p < 3/4: p = 0,
    p log-uniform down to 1e-300, or n*p uniform on [0.5, 3/4), where the
    series' bounds peak."""
    n = min(2**53 - 1, max(2, int(2.0 ** draw(st.floats(1.0, 53.0)))))
    if draw(st.booleans()):
        n = draw(st.integers(2, 2**53 - 1))
    kind = draw(st.sampled_from(["zero", "log", "top"]))
    if kind == "zero":
        return 0.0, n
    if kind == "log":
        p = 10.0 ** draw(st.floats(-300.0, math.log10(0.75 / n)))
    else:
        p = draw(st.floats(0.5, 0.75)) / n
    while n * p >= race.CLOSED_FORM_MIN_NP:
        p = math.nextafter(p, 0.0)
    return p, n


@st.composite
def series_domain(draw):
    """(p, n) with n from 2 to 2**53 - 1, or from 2 to 64, and p uniform on
    [0, 3/(4n)), 0 or subnormal: every p that mm_loss takes to the series."""
    n = draw(st.one_of(st.integers(2, 64), st.integers(2, 2**53 - 1)))
    c = st.floats(0.0, race.CLOSED_FORM_MIN_NP, exclude_max=True)
    p = draw(st.one_of(c.map(lambda c: c / n), st.floats(0.0, 2.2250738585072014e-308),
                       st.just(0.0)))
    while n * p >= race.CLOSED_FORM_MIN_NP:
        p = math.nextafter(p, 0.0)
    return p, n


@st.composite
def mixed_arguments(draw):
    """(p, pop) with m = H_t - 1 from 0 to 9,999, log-uniform, H_d from 0 to
    60 or, half the time, from 0 to 2 (at H_d = 0 the loss is small at small
    p), and p at an end of [0, 1], log-uniform down to 1e-300, uniform, or a
    few ulps from k/m or k/(m+1), where the mode steps."""
    m = int(10.0 ** draw(st.floats(0.0, 4.0))) - 1
    hd = draw(st.one_of(st.integers(0, 2), st.integers(0, 60)))
    pop = Population(m + 1, max(hd, 2 - m))
    kind = draw(st.sampled_from(["end", "log", "uniform", "near"]))
    if kind == "end":
        return draw(st.sampled_from([0.0, 1.0])), pop
    if kind == "log":
        return 10.0 ** draw(st.floats(-300.0, 0.0)), pop
    if kind == "uniform":
        return draw(st.floats(0.0, 1.0)), pop
    p = draw(st.integers(0, m)) / max(1, draw(st.sampled_from([m, m + 1])))
    for _ in range(draw(st.integers(0, 3))):
        p = math.nextafter(p, draw(st.sampled_from([0.0, 1.0])))
    return p, pop


class TestPrecision:
    """Each homogeneous race function within its stated error bound, in ulps
    of the exact value from ``oracles.race_reference``, and mixed_race within
    its derived bound, in ulps of ``oracles.mixed_race_reference``.

    The bounds are first-order running-error bounds, in units of
    u = 2**-53: a result within K u relative lies within K ulps.  Each
    +, -, * and / rounds with relative error at most u; log1p, expm1 and exp
    are taken to be within 1 ulp, 2u relative (glibc's documented maxima);
    n < 2**53 and the small integers are exact floats.

    Closed forms, with z = n p, t = n log1p(-p) and e = e^t (the exact
    (1-p)^n), S = e - 1 + z the numerator of mm_loss_prob.  t carries 3u
    (log1p, then * n), which expm1 turns into |t| e 3u absolute; expm1
    adds 2u of |e - 1|, the rounded z adds z u, the sum u of S, and the
    division by the rounded z two more:

        mm_loss_prob:   (3 |t| e + 2 (1 - e) + z) / S + 3

    With w = (n-1) p, y = (n-1) log1p(-p) and M = 1 - e^y (1 + w), the
    derivative's numerator up to sign: expm1(y) as above, and exp(y) (2u plus 3|y|u from
    y) times w (u, and u for the product); the sum adds u of M and n p p and
    its quotient three:

        mm_loss_prob_deriv:   (3 |y| e^y + 2 (1 - e^y) + w e^y (4 + 3 |y|)) / M + 4

    Each falls as n p grows, so its supremum over n p >= 3/4 lies at
    n p = 3/4: 24.8 (at n = 2) and 29.0 (as n grows), stated as 25 and 29.

    Series, below the cutoff: race sums t_k = (-1)^k C(n,k)/n p^(k-1) for
    mm_loss_prob and (-1)^k C(n,k) (k-1)/n p^(k-2) for its derivative over
    k >= 2.  The first term (n-1) p/2 rounds once and (n-1)/2 is exact;
    each later term is the last times a ratio with 3 roundings ((k-n) p,
    the quotient by k+1 and the product) or 4 (one more factor k), so t_k
    carries 1 + 3 (k-2) u or 4 (k-2) u.  The terms are added smallest
    first.  Plain left-to-right addition makes each step's error at most
    min(u |S_j|, |t_j|) for partial sum S_j and term t_j, since the old sum
    is itself a candidate for the rounded result.  The tail past the cut,
    under the first dropped term, is at most 2**-56 of the first.  These
    bounds depend on the terms, so ``series_bounds`` computes them from
    them.  The size of the ratio is below r = n p/3 for mm_loss_prob and
    2 n p/3 for its derivative, below 1/4 and 1/2 under the cutoff; the
    terms alternate and fall, so sum |t| / |sum t| <= 1/(1-r)^2 and no
    sum cancels much.  With |t_k| <= r^(k-2) t_2 this gives at most 5.5
    and 20.3 at r = 1/4 and 1/2; the bounds computed from the terms peak
    at n p just below 3/4 as n grows: 4.54 and 7.82, stated as 5 and 8.

    mixed_race's two sums run over one window of Bin(H_t - 1, p) at every p.
    Each weight is 1.0 at the mode m times |k - m| ratios of the recurrence,
    each with 5 roundings (1 - p, two products, the quotient and the running
    product): 5 |k - m| u.  The normalising total adds its weighted error
    and its accumulation, the division by it u, and the window's dropped
    tail, a few times 2**-56 of the sum, at most u; ``_running_sum_bound``
    adds them up.  Its loss term w * (H_d + k) / (1 + H_d + k) rounds twice,
    2u.  Its win term adds three nonnegative quotients, u each, with two
    additions, u each of a nonnegative partial sum, so f(k) carries 3u and
    w f(k) 4u; the division by H - 1 adds u.  Away from the ends of [0, 1]
    the weights' 5 |k - m| u dominates: the bounds grow as the spread of
    Bin(H_t - 1, p) and reach about 1,220 u at H_t - 1 = 10^4 and p = 1/2.
    No constant is stated for them; the test checks each drawn error against
    the bound there.

    Each test checks, at every drawn (p, n), that the measured error lies
    within the first-order bound there and that the bound lies within the
    stated one.  The errors measured are well inside: over 4,000 random
    (p, n) per band of width 0.05 in n p, n log-uniform from 2 to
    2**53 - 1 (BENCH_27.json), the closed forms of mm_loss_prob and its
    derivative stayed within 6.49 and 7.53 ulps at n p in [3/4, 1.05), and
    the series within 1.65 and 1.63 at n p < 3/4, where the binomial sums
    of sniplab 0.2.0 to 0.5.0 reached 6.8 and 9.24.  The (1-p)**n forms of
    sniplab 0.1.0 were off by up to 2.8e6 ulps at n p in [1, 2) for n from
    2,000 to 10^6.
    """

    @settings(derandomize=True, database=None, deadline=None, max_examples=1000)
    @given(closed_form_arguments())
    @example((0.375, 2))  # n p = 3/4 at the smallest n: the bounds on h peak
    @example((0.25, 3))  # n p = 3/4 at n = 3
    @example((0.75 / (2**53 - 1), 2**53 - 1))
    @example((0.85 / 2000, 2000))  # near p* of the Fig. 7 rates at gamma 4
    @example((1.0, 2**53 - 1))
    def test_closed_forms_within_bounds(self, args):
        p, n = args
        assert n * p >= race.CLOSED_FORM_MIN_NP
        exact = oracles.race_reference(p, n)
        for name, bound in closed_form_bounds(p, n).items():
            err = ulps_off(RACE_FUNCTIONS[name](p, n), exact[name])
            assert err <= bound <= CLOSED_FORM_BOUNDS[name], (name, p, n, err, bound)

    @settings(derandomize=True, database=None, deadline=None, max_examples=1000)
    @given(series_arguments())
    # the series' bounds peak
    @example((math.nextafter(0.75, 0.0) / (2**53 - 1), 2**53 - 1))
    @example((1e-300, 3))
    @example((0.0, 2**53 - 1))
    @example((0.3, 2))  # one term
    def test_sums_within_bounds(self, args):
        p, n = args
        assert n * p < race.CLOSED_FORM_MIN_NP
        exact = oracles.race_reference(p, n)
        for name, bound in series_bounds(p, n).items():
            err = ulps_off(RACE_FUNCTIONS[name](p, n), exact[name])
            assert err <= bound <= SERIES_BOUNDS[name], (name, p, n, err, bound)

    @settings(derandomize=True, database=None, deadline=None, max_examples=1000)
    @given(st.one_of(series_arguments(), series_domain()))
    @example((0.0, 2))
    @example((5e-324, 5))  # the least subnormal p: h underflows at its first term
    @example((2.2250738585072014e-308, 3))
    @example((math.nextafter(0.75, 0.0) / (2**53 - 1), 2**53 - 1))
    @example((math.nextafter(0.25, 0.0), 3))
    def test_one_loop_series_is_the_two_call_form(self, args):
        # race._series forms h and h' in one loop, which shares (k - n) p and
        # stops each series at its own cut; it gives the bits of 0.7.0's two
        # calls (oracles.series_0_7_0), over the whole domain of the series
        p, n = args
        assert n * p < race.CLOSED_FORM_MIN_NP
        old = (oracles.series_0_7_0((n - 1) * p / 2, n, p, False),
               oracles.series_0_7_0((n - 1) / 2, n, p, True))
        assert [v.hex() for v in race._series(n, p)] == [v.hex() for v in old], (p, n)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 13, 2000, 10**4, 10**9, 2**40 + 1, 2**53 - 1])
    def test_series_meets_closed_form_at_cutoff(self, n, monkeypatch):
        # at the last p below the cutoff and the first at it, the series and
        # the closed forms agree within the sum of their bounds, so the
        # switch between them adds no step beyond their stated errors
        at = race.CLOSED_FORM_MIN_NP / n
        while n * at < race.CLOSED_FORM_MIN_NP:
            at = math.nextafter(at, 1.0)
        while n * math.nextafter(at, 0.0) >= race.CLOSED_FORM_MIN_NP:
            at = math.nextafter(at, 0.0)
        below = math.nextafter(at, 0.0)
        for p in (below, at):
            forms = {}
            for form, cutoff in (("series", math.inf), ("closed", 0.0)):
                monkeypatch.setattr(race, "CLOSED_FORM_MIN_NP", cutoff)
                forms[form] = {name: fn(p, n) for name, fn in RACE_FUNCTIONS.items()}
            monkeypatch.undo()
            for name, bound in series_bounds(p, n).items():
                bound += closed_form_bounds(p, n)[name]
                got = forms["series"][name]
                err = abs(Fraction(got) - Fraction(forms["closed"][name])) / Fraction(math.ulp(got))
                assert err <= bound, (name, n, p, float(err), bound)

    @settings(derandomize=True, database=None, deadline=None, max_examples=150)
    @given(mixed_arguments())
    @example((0.5, Population(10_001, 0)))  # the bounds peak near p = 1/2
    @example((0.3, Population(10_001, 60)))
    @example((0.0, Population(1, 2)))  # H_t - 1 = 0: one term
    @example((1.0, Population(10_001, 3)))
    @example((1e-9, Population(101, 0)))  # a loss of about 5e-8
    def test_mixed_race_within_bounds(self, args):
        p, pop = args
        exact = oracles.mixed_race_reference(p, pop)
        got = dict(zip(("win", "loss"), race.mixed_race(p, pop)))
        for name, bound in mixed_bounds(p, pop).items():
            err = ulps_off(got[name], exact[name])
            assert err <= bound, (name, p, pop, err, bound)

    @pytest.mark.parametrize("pop", [Population(1, 2), Population(3, 0), Population(4, 1),
                                     Population(9, 5)])
    def test_mixed_reference_matches_exact_sums(self, pop):
        # the mixed reference against exact rational expectations
        ht, hd = pop.trustworthy, pop.deceptive
        for p in (1e-300, 1e-6, 0.1, 0.375, 0.9, 1.0):
            x = Fraction(p)
            exact = {
                "win": exact_expect(ht - 1, x, lambda k: Fraction(k, 1 + k + hd)
                                    + Fraction(ht - 1 - k, 2 + k + hd) + Fraction(hd, 1 + k + hd))
                / (pop.total - 1),
                "loss": exact_expect(ht - 1, x, lambda k: Fraction(hd + k, 1 + hd + k)),
            }
            reference = oracles.mixed_race_reference(p, pop)
            for name, value in exact.items():
                got = Fraction(reference[name])
                assert abs(got - value) <= Fraction(1, 10**58) * abs(value), (name, pop, p)

    @pytest.mark.parametrize("n", [2, 3, 5, 12])
    def test_reference_matches_exact_sums(self, n):
        # the reference's closed forms against exact rational expectations
        for p in (1e-300, 1e-6, 0.1, 0.375, 0.9, 1.0):
            x = Fraction(p)
            exact = {
                "mm_loss_prob": exact_expect(n - 1, x, lambda k: Fraction(k, k + 1)),
                "mm_loss_prob_deriv": (n - 1)
                * exact_expect(n - 2, x, lambda k: Fraction(1, (k + 1) * (k + 2))),
            }
            reference = oracles.race_reference(p, n)
            for name, value in exact.items():
                got = Fraction(reference[name])
                assert abs(got - value) <= Fraction(1, 10**78) * abs(value), (name, n, p)

    @pytest.mark.parametrize("n", [3, 2000, 10**9, 2**53 - 1])
    def test_reference_is_stable_in_precision(self, n):
        # 40 more digits move no value beyond its 78th digit
        for z in (1e-250, 1e-3, 0.75, 1.0, 30.0):
            p = min(1.0, z / n)
            at_80 = oracles.race_reference(p, n)
            at_120 = oracles.race_reference(p, n, digits=120)
            for name, value in at_80.items():
                assert abs(value - at_120[name]) <= abs(at_120[name]) * Decimal("1e-78"), (name, n, z)


class TestPopulation:
    def test_invariants(self):
        Population(3, 0)
        Population(1, 2)
        with pytest.raises(ValidationError):
            Population(0, 3)
        with pytest.raises(ValidationError):
            Population(1, 1)
        with pytest.raises(ValidationError):
            Population(3, -1)


class TestMixed:
    @pytest.mark.parametrize("p", [0.0, 0.2, 0.7, 1.0])
    @pytest.mark.parametrize("n", [3, 5, 8])
    def test_reduction_to_homogeneous(self, p, n):
        win, loss = race.mixed_race(p, Population(n, 0))
        assert loss == pytest.approx(mm_loss_prob(p, n), abs=1e-12)
        assert win == pytest.approx(oracles.win_prob_given_entry_enum(p, n), abs=1e-12)

    def test_mm_loss_mixed_known_points(self):
        # one sure sniper, no trustworthy entrants: two-way race
        assert race.mixed_race(0.0, Population(2, 1))[1] == pytest.approx(0.5)
        assert race.mixed_race(1.0, Population(3, 2))[1] == pytest.approx(0.8)

    def test_win_prob_mixed_sure_sniping(self):
        for pop in (Population(3, 1), Population(1, 3), Population(4, 4)):
            win, loss = race.mixed_race(1.0, pop)
            assert win == pytest.approx(1 / pop.total, abs=1e-12)
            assert loss == pytest.approx((pop.total - 1) / pop.total, abs=1e-12)

    @pytest.mark.parametrize("pop", [Population(2, 1), Population(3, 1),
                                     Population(4, 2), Population(6, 3)])
    def test_two_urn_form_agrees(self, pop):
        # the two-urn form takes the rival field, so it checks the trustworthy
        # viewpoint and the deceptive one with its own rival counts
        two_urn = oracles.win_prob_given_entry_mixed_two_urn
        ht, hd = pop.trustworthy, pop.deceptive
        for p in np.linspace(0.0, 1.0, 9):
            p = float(p)
            assert race.mixed_race(p, pop)[0] == pytest.approx(
                two_urn(p, ht - 1, hd), abs=1e-12
            )
            assert deceptive_race(p, pop)[0] == pytest.approx(
                two_urn(p, ht, hd - 1), abs=1e-12
            )

    def test_two_urn_needs_two_trustworthy(self):
        # a trustworthy agent in (1, 2) has no rival that enters at p
        with pytest.raises(ValidationError):
            oracles.win_prob_given_entry_mixed_two_urn(0.5, 0, 2)

    def test_win_prob_mixed_monte_carlo(self):
        # simulate the race-composition process seen by a racing trustworthy
        # bandit: market maker uniform among the others, deceptive agents all
        # race, remaining trustworthy agents race w.p. p
        pop = Population(3, 1)
        p = 0.5
        n = 10_000_000
        rng = np.random.default_rng(20240811)
        mm_deceptive = rng.random(n) < pop.deceptive / (pop.total - 1)
        k_trusty_mm = rng.binomial(pop.trustworthy - 2, p, size=n)
        k_rogue_mm = rng.binomial(pop.trustworthy - 1, p, size=n)
        field = np.where(
            mm_deceptive,
            2 + (pop.deceptive - 1) + k_rogue_mm,
            2 + pop.deceptive + k_trusty_mm,
        )
        wins = rng.random(n) < 1.0 / field
        estimate = wins.mean()
        se = math.sqrt(estimate * (1 - estimate) / n)
        assert abs(race.mixed_race(p, pop)[0] - estimate) < 3 * se


class TestDeceptiveViewpoint:
    def test_single_rogue_reduces_to_homogeneous(self):
        # the lone deceptive market maker faces H-1 probabilistic snipers
        pop = Population(4, 1)
        for p in (0.0, 0.3, 1.0):
            win, loss = deceptive_race(p, pop)
            assert loss == pytest.approx(mm_loss_prob(p, 5), abs=1e-12)
            assert win == pytest.approx(oracles.win_prob_given_entry_enum(p, 5), abs=1e-12)

    def test_sure_sniping_uniform(self):
        for pop in (Population(3, 1), Population(2, 2), Population(3, 3)):
            win, loss = deceptive_race(1.0, pop)
            assert win == pytest.approx(1 / pop.total, abs=1e-12)
            assert loss == pytest.approx((pop.total - 1) / pop.total, abs=1e-12)

    def test_requires_deceptive_agent(self):
        params = GameParams(H=4, alpha=0.45, mu=0.3, delta=0.5, gamma=3.0)
        with pytest.raises(ValidationError, match="no deceptive agent"):
            utility.utility_distribution(params, 0.5, Population(4, 0), 0.5, utility.DECEPTIVE)

    def test_deceptive_monte_carlo(self):
        pop = Population(3, 2)
        p = 0.4
        n = 2_000_000
        rng = np.random.default_rng(7)
        mm_deceptive = rng.random(n) < (pop.deceptive - 1) / (pop.total - 1)
        k_trusty_mm = rng.binomial(pop.trustworthy, p, size=n)
        k_rogue_mm = rng.binomial(pop.trustworthy - 1, p, size=n)
        field = np.where(
            mm_deceptive,
            pop.deceptive + k_trusty_mm,
            1 + pop.deceptive + k_rogue_mm,
        )
        wins = rng.random(n) < 1.0 / field
        estimate = wins.mean()
        se = math.sqrt(estimate * (1 - estimate) / n)
        got = deceptive_race(p, pop)[0]
        assert abs(got - estimate) < 3 * se


@given(
    st.floats(min_value=0.01, max_value=0.99),
    st.integers(min_value=2, max_value=10),
)
@settings(max_examples=60)
def test_derivatives_match_finite_differences(p, n):
    fd_loss = central_diff(lambda x: mm_loss_prob(x, n), p)
    assert math.isclose(mm_loss_prob_deriv(p, n), fd_loss, rel_tol=0, abs_tol=1e-6)


@given(
    st.integers(min_value=1, max_value=40),
    st.integers(min_value=0, max_value=20),
    st.floats(min_value=-9.0, max_value=0.0),
)
@example(ht=40, hd=20, log10_p=-9.0)
@example(ht=1, hd=2, log10_p=0.0)
@settings(max_examples=100, deadline=None)
def test_mixed_match_exact_sums(ht, hd, log10_p):
    # both viewpoints' race probabilities against exact rational sums; the win
    # probabilities by the two-urn route, conditioning on the maker's type,
    # and the deceptive agent's in its own roster, not the shifted one
    assume(ht + hd >= 3)
    pop = Population(ht, hd)
    p = 10.0**log10_p
    x = Fraction(p)
    others = pop.total - 1
    got = dict(zip(("win", "loss"), race.mixed_race(p, pop)))
    exact = {
        "loss": exact_expect(ht - 1, x, lambda k: Fraction(hd + k, 1 + hd + k)),
        "win": (
            Fraction(ht - 1, others) * exact_expect(ht - 2, x, lambda k: Fraction(1, 2 + hd + k))
            + Fraction(hd, others) * exact_expect(ht - 1, x, lambda k: Fraction(1, 1 + hd + k))
        ),
    }
    if hd:
        got["deceptive win"], got["deceptive loss"] = deceptive_race(p, pop)
        exact["deceptive loss"] = exact_expect(ht, x, lambda k: Fraction(hd - 1 + k, hd + k))
        exact["deceptive win"] = (
            Fraction(ht, others) * exact_expect(ht - 1, x, lambda k: Fraction(1, 1 + hd + k))
            + Fraction(hd - 1, others) * exact_expect(ht, x, lambda k: Fraction(1, hd + k))
        )
    for name, value in exact.items():
        assert abs(Fraction(got[name]) - value) <= Fraction(1, 10**12) * value, (
            name, got[name], float(value)
        )
