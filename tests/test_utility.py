import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sniplab import race, utility
from sniplab.params import GameParams, ValidationError, derive
from sniplab.race import Population
from sniplab.utility import (
    PAYOFF_TABLE,
    bandit_zero_crossing,
    evaluate,
    first_event_prob,
    intersection,
    payoff_table_rows,
    second_event_prob,
)

import oracles
from test_race import mixed_bounds

FIG_PARAMS = dict(H=5, alpha=0.45, mu=0.5, delta=0.5)


def params(gamma=2.0, **overrides):
    kwargs = dict(FIG_PARAMS, gamma=gamma)
    kwargs.update(overrides)
    return GameParams(**kwargs)


BY_CODE = {ev.code: ev for ev in PAYOFF_TABLE}


def event_prob(ev, pr):
    d = derive(pr)
    return first_event_prob(ev, d) * second_event_prob(ev.second, d)


def lines(p_snipe, pr):
    """(A, B, C, D) of a trustworthy agent among H trustworthy agents: the
    lines of utility.slope_kernel at the market maker's loss from the mixed
    race, of which each of the H - 1 bandits wins an equal share."""
    loss = race.mixed_race(p_snipe, Population(pr.H, 0))[1]
    return utility.slope_kernel(derive(pr), pr.H)(pr.gamma)(p_snipe, h=loss, lines=True)


def line_at(at0, at1, s):
    """A utility line with values at0 at s = 0 and at1 at s = 1, at spread s."""
    return at0 * (1.0 - s) + at1 * s


valid_params_st = st.builds(
    lambda h, a, m, frac, g: GameParams(
        H=h, alpha=a, mu=m, delta=frac / (a + m), gamma=g
    ),
    st.integers(min_value=3, max_value=10),
    st.floats(min_value=0.05, max_value=4.0),
    st.floats(min_value=0.05, max_value=4.0),
    st.floats(min_value=0.05, max_value=0.95),
    st.floats(min_value=1.0, max_value=12.0),
)


# ---------------------------------------------------------------------------
# first-principles payoff oracle: position * value + income, negative payoffs
# inflated by gamma.  Derived from the game mechanics alone, independent of
# the encoded table.
# ---------------------------------------------------------------------------


def oracle_payoffs(first, second, s):
    """Return (mm_if_loses, sniper_if_mm_loses, mm_if_wins) raw payoffs.

    Value convention: intrinsic value starts at 0; each news event moves it
    by +-1 (sigma units).  The market maker quotes one unit at each of +-s
    for the whole stage; a consumed side is gone.  A second-event liquidity
    trader arrives while the race is still running, so he beats the racers
    to the quote; the race resolves last.  A winning market maker cancels
    only the stale news-side quote.
    """
    news = {"NG": 1, "NB": -1}
    value = news.get(first, 0) + news.get(second, 0)

    def lt_trade(event, sides):
        # LA: LT buys at the ask (+s): MM position -1, income +s
        # LB: LT sells at the bid (-s): MM position +1, income +s
        if event == "LA" and sides.pop("ask", None):
            return -1, s
        if event == "LB" and sides.pop("bid", None):
            return 1, s
        return 0, 0.0

    if first in ("NG", "NB"):
        w = news[first]
        snipe_side = "ask" if first == "NG" else "bid"

        def play(mm_loses):
            sides = {"ask": True, "bid": True}
            pos2, inc2 = lt_trade(second, sides)
            mm_pos, mm_inc = pos2, inc2
            sniper_payoff = 0.0
            if mm_loses:
                if sides.pop(snipe_side, None):
                    # sniper buys the stale ask (+s) after good news or
                    # sells the stale bid (-s) after bad news
                    sniper_payoff = w * value - s
                    mm_pos -= w
                    mm_inc += s
            # a winning market maker cancels the news-side quote: no trade
            return mm_pos * value + mm_inc, sniper_payoff

        mm_lose, sniper = play(mm_loses=True)
        mm_win, _ = play(mm_loses=False)
        return mm_lose, sniper, mm_win

    # liquidity trigger: no race, LT events hit the maker while sides last
    sides = {"ask": True, "bid": True}
    pos1, inc1 = lt_trade(first, sides)
    pos2, inc2 = lt_trade(second, sides)
    mm = (pos1 + pos2) * value + inc1 + inc2
    return mm, 0.0, mm


def inflate(payoff, gamma):
    return gamma * payoff if payoff < 0 else payoff


class TestPayoffTable:
    def test_topology(self):
        assert len(PAYOFF_TABLE) == 20
        assert len({ev.code for ev in PAYOFF_TABLE}) == 20
        for ev in PAYOFF_TABLE:
            if not ev.has_race:
                assert ev.sniper == (0, 0, 0, 0)
                assert ev.mm_if_wins == ev.mm_if_loses

    @pytest.mark.parametrize("s", [0.0, 0.25, 0.6, 1.0])
    @pytest.mark.parametrize("gamma", [1.0, 2.5])
    def test_matches_first_principles_payoffs(self, s, gamma):
        # recomputing every cell from position/value/income resolves the
        # table against the mechanics, cell by cell
        for ev in PAYOFF_TABLE:
            mm_lose, sniper, mm_win = oracle_payoffs(ev.first, ev.second, s)
            assert evaluate(ev.mm_if_loses, s, gamma) == pytest.approx(
                inflate(mm_lose, gamma), abs=1e-12
            ), ev.code
            assert evaluate(ev.sniper, s, gamma) == pytest.approx(
                inflate(sniper, gamma), abs=1e-12
            ), ev.code
            assert evaluate(ev.mm_if_wins, s, gamma) == pytest.approx(
                inflate(mm_win, gamma), abs=1e-12
            ), ev.code

    def test_reference_cells(self):
        s, gamma = 0.3, 2.0
        assert evaluate(BY_CODE["NG-LA"].mm_if_loses, s, gamma) == pytest.approx(
            -2.0 * (1 - s)
        )
        assert evaluate(BY_CODE["NG-NG"].sniper, s, gamma) == pytest.approx(2 - s)
        assert evaluate(BY_CODE["LA-LB"].mm_if_loses, s, gamma) == pytest.approx(2 * s)
        for code in ("NG-LA", "NB-LB"):  # the sniper takes nothing from a spent quote
            assert evaluate(BY_CODE[code].sniper, s, gamma) == 0.0


class TestEventProbability:
    def test_reference_cells(self):
        p = params()
        d = derive(p)
        assert event_prob(BY_CODE["NG-LA"], p) == pytest.approx(d.beta / 2 * d.mu_bar)
        assert event_prob(BY_CODE["NB-NO"], p) == pytest.approx(
            d.beta / 2 * (1 - 2 * (d.alpha_bar + d.mu_bar))
        )

    @given(valid_params_st)
    @settings(max_examples=200)
    def test_closure(self, p):
        total = sum(event_prob(ev, p) for ev in PAYOFF_TABLE)
        assert math.isclose(total, 1.0, rel_tol=0, abs_tol=1e-14)


# ---------------------------------------------------------------------------
# expected-utility oracle: direct sums over the event table with the race
# split, independent of the endpoint formulas
# ---------------------------------------------------------------------------


def oracle_expected_utilities(s, p_snipe, params_):
    d = derive(params_)
    h = oracles.mm_loss_prob_enum(p_snipe, params_.H)
    g = oracles.win_prob_given_entry_enum(p_snipe, params_.H)
    race_lose = race_win = quiet = 0.0
    bandit = 0.0
    for ev in PAYOFF_TABLE:
        p2 = utility.second_event_prob(ev.second, d)
        if ev.has_race:
            race_lose += p2 * evaluate(ev.mm_if_loses, s, params_.gamma) / 2
            race_win += p2 * evaluate(ev.mm_if_wins, s, params_.gamma) / 2
            bandit += p2 * evaluate(ev.sniper, s, params_.gamma) / 2
        else:
            quiet += p2 * evaluate(ev.mm_if_loses, s, params_.gamma) / 2
    mm = d.beta * (h * race_lose + (1 - h) * race_win) + (1 - d.beta) * quiet
    return mm, d.beta * p_snipe * g * bandit


class TestEndpoints:
    @pytest.mark.parametrize("p_snipe", [0.05, 0.3, 0.7, 1.0])
    @pytest.mark.parametrize("gamma", [1.0, 2.515, 4.0])
    def test_lines_match_direct_sums(self, p_snipe, gamma):
        pr = params(gamma=gamma)
        a, b, c, dd = lines(p_snipe, pr)
        for s in (0.0, 0.25, 0.5, 0.75, 1.0):
            mm, bandit = oracle_expected_utilities(s, p_snipe, pr)
            assert line_at(c, dd, s) == pytest.approx(mm, abs=1e-12)
            assert line_at(a, b, s) == pytest.approx(bandit, abs=1e-12)

    def test_no_deceptive_reduction(self):
        pr = params(gamma=3.0)
        d = derive(pr)
        a, b, c, dd = lines(0.4, pr)
        pg = race.mm_loss(0.4, pr.H)[0] / (pr.H - 1)
        h = race.mm_loss(0.4, pr.H)[0]
        assert a == pytest.approx(d.m * d.beta * pg, abs=1e-14)
        assert b == pytest.approx(-d.alpha_bar * d.q * d.beta * pg, abs=1e-14)
        assert c == pytest.approx(
            -(d.q * d.theta_bar + d.beta * (d.m * pr.gamma - d.mu_bar * d.q) * h),
            abs=1e-14,
        )
        assert dd == pytest.approx(
            (1 + d.mu_bar) - d.beta * (d.m + d.alpha_bar * d.q * h), abs=1e-14
        )

    def test_risk_neutral_bandit_endpoint(self):
        assert lines(1.0, params(gamma=1.0))[1] == 0.0

    def test_no_sniping_endpoints(self):
        pr = params(gamma=3.0)
        d = derive(pr)
        a, b, c, dd = lines(0.0, pr)
        assert a == 0.0
        assert b == 0.0
        assert c == pytest.approx(-d.q * d.theta_bar, abs=1e-15)
        assert dd == pytest.approx((1 + d.mu_bar) - d.beta * d.m, abs=1e-15)

    @pytest.mark.parametrize("p_snipe", [0.2, 0.8])
    def test_monotone_in_gamma(self, p_snipe):
        eps = 1e-4
        lo = lines(p_snipe, params(gamma=2.0))
        hi = lines(p_snipe, params(gamma=2.0 + eps))
        assert hi[0] == lo[0]  # dA/dgamma = 0
        assert hi[1] < lo[1]
        assert hi[2] < lo[2]
        assert hi[3] < lo[3]

    @pytest.mark.parametrize("gamma", [1.5, 3.0])
    def test_monotone_in_p(self, gamma):
        pr = params(gamma=gamma)
        lo = lines(0.4, pr)
        hi = lines(0.4 + 1e-4, pr)
        assert hi[0] > lo[0]
        assert hi[1] < lo[1]
        assert hi[2] < lo[2]
        assert hi[3] < lo[3]

    def test_population_mismatch(self):
        for cls in (utility.TRUSTWORTHY, utility.DECEPTIVE):
            with pytest.raises(ValidationError, match="does not match"):
                utility.utility_distribution(params(), 0.5, Population(3, 0), 0.5, cls)


class TestIndifference:
    def test_intersection_at_left_endpoint(self):
        s_star, u_star = intersection(0.4, -1.0, 0.4, 1.0)
        assert s_star == 0.0
        assert u_star == pytest.approx(0.4)

    def test_symmetric_toy(self):
        s_star, u_star = intersection(1.0, 0.0, 0.0, 1.0)
        assert s_star == pytest.approx(0.5)
        assert u_star == pytest.approx(0.5)

    def test_parallel_lines_error(self):
        # parameters without a point of indifference are invalid input: exit 2
        with pytest.raises(ValidationError, match="parallel"):
            intersection(1.0, 1.0, 0.0, 0.0)

    @given(
        valid_params_st,
        st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=200)
    def test_lines_agree_at_intersection(self, pr, p_snipe):
        a, b, c, dd = lines(p_snipe, pr)
        assert a >= 0.0 >= b
        s_star, _ = intersection(a, b, c, dd)
        assert abs(line_at(a, b, s_star) - line_at(c, dd, s_star)) < 1e-12


class TestBanditZeroCrossing:
    def test_risk_neutral(self):
        assert bandit_zero_crossing(params(gamma=1.0)) == 1.0

    def test_reference_value_and_line_root(self):
        pr = params(gamma=3.0)
        expected = 0.875 / (0.875 + 0.1125 * 2.0)
        got = bandit_zero_crossing(pr)
        assert got == pytest.approx(expected, abs=1e-15)
        # cross-check: bisection on the evaluated bandit line
        for p_snipe in (0.3, 0.9):
            a, b, _, _ = lines(p_snipe, pr)
            lo, hi = 0.0, 1.0
            for _ in range(100):
                mid = (lo + hi) / 2
                if line_at(a, b, mid) > 0:
                    lo = mid
                else:
                    hi = mid
            assert got == pytest.approx((lo + hi) / 2, abs=1e-12)

    @given(valid_params_st)
    def test_independent_of_p_by_construction(self, pr):
        # the crossing depends on gamma and the rates only; evaluating the
        # line roots at two sniping probabilities must give the same spread
        if pr.gamma == 1.0:
            return
        a1, b1, _, _ = lines(0.25, pr)
        a2, b2, _, _ = lines(0.75, pr)
        root1 = a1 / (a1 - b1)
        root2 = a2 / (a2 - b2)
        assert math.isclose(root1, root2, rel_tol=0, abs_tol=1e-14)


class TestCsvExport:
    def test_payoff_table_rows(self):
        rows = payoff_table_rows(params())
        assert len(rows) == 20
        by_event = {r["event"]: r for r in rows}
        assert by_event["NG-NG"]["u_mm_loses"] == "-gamma*(2-s)"
        assert by_event["NG-NG"]["u_sniper"] == "2-s"
        assert by_event["NG-NB"]["u_sniper"] == "-gamma*s"
        assert by_event["LA-LB"]["u_mm_loses"] == "2*s"
        assert by_event["LB-NG"]["u_mm_loses"] == "1+s"
        total = sum(r["prob_first"] * r["prob_second"] for r in rows)
        assert total == pytest.approx(1.0, abs=1e-14)


U = 2.0**-53


def mean_error_bound(pr, p, pop, s, agent_class):
    """First-order bound on the error of utility_distribution(...).mean
    against oracles.utility_mean_reference: (31 + e) u A, with e and A as in
    TestMeanPrecision."""
    at_p, sure, entry = oracles.rivals_of(agent_class, p, pop)
    rivals = Population(at_p + 1, sure)
    e = max(1.0, *mixed_bounds(p, rivals).values())
    win, loss = race.mixed_race(p, rivals)
    d, h, g = derive(pr), pop.total, pr.gamma

    def size(expr):  # M(v): the utility with its terms' magnitudes added
        c0, cs, cg, cgs = expr
        return abs(c0) + abs(cs) * s + abs(cg) * g + abs(cgs) * g * s

    a = 0.0
    for ev in PAYOFF_TABLE:
        first = d.beta / 2 if ev.has_race else (1 - d.beta) / 2
        second = 1.0 if ev.second == "NO" else second_event_prob(ev.second, d)
        pe = first * second
        if ev.has_race:
            a += pe / h * (size(ev.mm_if_loses) * loss + size(ev.mm_if_wins))
            a += pe * (h - 1) / h * size(ev.sniper) * win * entry
        else:
            a += pe / h * size(ev.mm_if_loses)
    return (31 + e) * U * a


class TestMeanPrecision:
    """UtilityDistribution.mean within a derived bound of the exact mean.

    The exact mean is oracles.utility_mean_reference: the derived params,
    s, gamma and p as exact rationals, the race from mixed_race_reference.
    The bound is first order, in u = 2**-53; each +, -, * and / rounds with
    relative error at most u, and the small integers are exact.

    A bound of the form K u sum |v| q cannot hold with a constant K, as
    three differences of rounded terms cancel: -gamma*(1-s), formed as
    -gamma + gamma*s, is off by up to u gamma however small it is;
    1 - 2 (alpha_bar + mu_bar), the probability of no second event, by up to
    u; and 1 - loss, of the race's few-ulp error in a loss near 1.  So each
    is measured by its magnitude: M(v) = |c0| + |cs| s + |cg| gamma +
    |cgs| gamma s for a utility with coefficients (c0, cs, cg, cgs), 1 for
    the other two and for 1 - win.  A is the sum over the law's cells of
    M(v) times the cell's probability with those magnitudes, and A >= sum
    |v| q.  Counting the roundings on the way to each term:

    * a utility rounds at most twice (c0 + cs s, or gamma s and the sum), so
      is within 2u M(v);
    * a cell's probability pe/H or pe (H-1)/H carries 3u (the first event's
      1 - beta, the second's u of magnitude 1, and the product) and 1u or
      2u for the scaling, 5u at most;
    * the race value carries e u, the larger of mixed_race's running bounds
      on its win and its loss (test_race.mixed_bounds), and the win 1u more
      for the entry weight p; 1 - loss and 1 - win are within
      (e + 1) u of magnitude 1; the product with the cell's probability
      adds u;
    * merging sums at most 14 probabilities into one nonzero support point
      (10 in general, 14 at s = 1/2, where s meets 1 - s): 13u, since each
      addition of nonnegative terms rounds by u of the sum;
    * the product v q adds u, and the mean's left-to-right sum of at most
      nine products 8u of sum |v| q <= A.

    In all, 2 + 5 + (e + 1) + 1 + 13 + 1 + 8 = 31 + e.  The bound takes the
    law's points as exact sums: two payoffs that differ but lie within
    SUPPORT_TOL would be merged at one of their values, so each draw checks
    that the support has one point per distinct payoff.

    Measured over 5,779 laws (3,000 rosters drawn as below, both classes):
    the mean was at most 7.6 u sum |v| q off, and at most 0.057 of the
    bound; A reached 19 sum |v| q.  sniplab 0.4.0's form from the utility
    lines (oracles.analytic_mean_0_4_0) was at most 6.3 u sum |v| q off; the
    law's mean was the closer in 2,156 laws, the old form in 2,484, and
    1,139 were ties.  Neither form is the more accurate in general.
    """

    CASES = [
        (GameParams(H=5, alpha=0.45, mu=0.3, delta=0.5, gamma=3.0), 0.2035691573361233,
         Population(4, 1), 0.6064860601438494),
        (GameParams(H=4, alpha=0.45, mu=0.3, delta=0.5, gamma=3.0), 1.0, Population(2, 2), 0.5),
        (GameParams(H=40, alpha=1.5, mu=0.2, delta=0.55, gamma=7.9), 0.0, Population(1, 39), 1.0),
        (GameParams(H=3, alpha=0.05, mu=0.05, delta=9.0, gamma=1.0), 0.5, Population(2, 1), 0.0),
    ]

    @staticmethod
    def _check(pr, p, pop, s):
        values = {v for row in utility.payoffs(s, pr.gamma) for v in row} | {0.0}
        for cls in (utility.TRUSTWORTHY, utility.DECEPTIVE)[: 1 + (pop.deceptive > 0)]:
            law = utility.utility_distribution(pr, p, pop, s, cls)
            assert len(law.support) == len(values)  # no two payoffs merged inexactly
            exact = oracles.utility_mean_reference(pr, p, pop, s, cls)
            err = float(abs(Fraction(law.mean) - exact))
            assert err <= mean_error_bound(pr, p, pop, s, cls), (pr, p, pop, s, cls, err)

    @pytest.mark.parametrize("case", CASES, ids=["readme", "sure-half", "no-entry", "quiet"])
    def test_mean_at_edges(self, case):
        self._check(*case)

    def test_mean_within_bound_on_random_rosters(self):
        rng = np.random.default_rng(20261020)
        for _ in range(300):
            h = int(rng.integers(3, 41))
            hd = int(rng.integers(0, h))
            alpha, mu = rng.uniform(0.05, 2.0, size=2)
            pr = GameParams(H=h, alpha=float(alpha), mu=float(mu),
                            delta=float(rng.uniform(0.1, 0.9) / (alpha + mu)),
                            gamma=float(rng.uniform(1.0, 8.0)))
            self._check(pr, float(rng.uniform(0, 1)), Population(h - hd, hd),
                        float(rng.uniform(0, 1)))
