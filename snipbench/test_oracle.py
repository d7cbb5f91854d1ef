"""Tests of the benchmark's oracle: python3 -m pytest snipbench"""

import math
import sys
from fractions import Fraction
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from oracle import Binomial, Oracle, Rates, cell_value, event_prob, has_race  # noqa: E402
from sniplab.utility import PAYOFF_TABLE  # noqa: E402
from workloads import binomial_upper  # noqa: E402

FIG7 = Rates(H=5, alpha=0.45, mu=0.5, delta=0.5, gamma=3.0)
CANDIDATE_H4 = Rates(H=4, alpha=0.45, mu=0.3, delta=0.5, gamma=3.0)


@pytest.fixture(scope="module")
def oracle():
    return Oracle(PAYOFF_TABLE)


def test_fig7_thresholds(oracle):
    assert oracle.gamma_to_probabilistic(FIG7) == pytest.approx(2.60384, abs=1e-5)
    assert oracle.gamma_to_no_sniping(FIG7) == pytest.approx(7.8313, abs=5e-5)


def test_no_sniping_closed_form_matches_u_star(oracle):
    """Just below the closed-form threshold some p pays; just above none does."""
    g2 = oracle.gamma_to_no_sniping(FIG7)
    below = oracle.argmax_p(FIG7.with_gamma(g2 - 1e-3))
    assert oracle.u_star(below, FIG7.with_gamma(g2 - 1e-3)) > 0
    above = FIG7.with_gamma(g2 + 1e-3)
    assert oracle.u_star(oracle.argmax_p(above), above) <= 1e-15


@pytest.mark.parametrize("n,p", [(7, 0.3), (40, 1e-6), (2000, 1e-4), (9000, 0.9999)])
def test_binomial_weights_against_exact_fractions(n, p):
    w = Binomial().pmf(n, p)
    mode = int((n + 1) * p)
    ks = range(max(0, mode - 12), min(n, mode + 12) + 1)
    q = Fraction(p)
    exact = {k: math.comb(n, k) * q**k * (1 - q) ** (n - k) for k in ks}
    assert max(abs(w[k] / float(exact[k]) - 1) for k in ks) < 1e-12


def test_u_star_against_a_direct_sum(oracle):
    """u*(p) against the expected utility summed cell by cell with exact weights."""
    r, p = FIG7, 0.37
    h = r.H
    pmf = lambda n: [math.comb(n, k) * p**k * (1 - p) ** (n - k) for k in range(n + 1)]
    win = p * sum(w / (2 + k) for k, w in enumerate(pmf(h - 2)))
    loss = sum(w * k / (1 + k) for k, w in enumerate(pmf(h - 1)))

    def lines(s):
        bandit = mm = 0.0
        for ev in PAYOFF_TABLE:
            pe = event_prob(ev, r)
            v = lambda e: cell_value(e, s, r.gamma)
            if has_race(ev):
                bandit += pe * win * v(ev.sniper)
                mm += pe * (loss * v(ev.mm_if_loses) + (1 - loss) * v(ev.mm_if_wins))
            else:
                mm += pe * v(ev.mm_if_loses)
        return bandit, mm

    (a, c), (b, d) = lines(0.0), lines(1.0)
    s_star = (a - c) / ((a - c) + (d - b))
    assert oracle.u_star(p, r) == pytest.approx(a + (b - a) * s_star, rel=1e-13)


def test_stage_distribution_is_a_distribution_with_nine_outcomes(oracle):
    p, s = 0.3, 0.6
    for trusty, rogue in ((3, 0), (2, 1)):
        support, probs = oracle.stage_distribution(CANDIDATE_H4, p, s, p, trusty, rogue)
        assert len(support) == 9
        assert sum(probs) == pytest.approx(1.0, abs=1e-14)
        assert min(probs) > 0


def test_class_means_sum_to_the_zero_sum_total(oracle):
    """Market maker and winning sniper trade with each other; what the agents
    earn together is what they take from liquidity traders less news losses,
    which does not depend on who wins a race.  So the H class means add up to
    the same total whatever the mix of compliant and deceptive agents."""
    r = Rates(H=5, alpha=0.45, mu=0.3, delta=0.5, gamma=1.0)
    p, s = 0.3, 0.6
    totals = []
    for hd in (0, 1, 2):
        ht = 5 - hd
        total = ht * oracle.class_mean(r, p, s, False, ht, hd)
        if hd:
            total += hd * oracle.class_mean(r, p, s, True, ht, hd)
        totals.append(total)
    assert totals[1] == pytest.approx(totals[0], rel=1e-12)
    assert totals[2] == pytest.approx(totals[0], rel=1e-12)


def test_wald_expected_sample_sizes(oracle):
    p = oracle.argmax_p(CANDIDATE_H4)
    s = oracle.indifference(p, CANDIDATE_H4)[0]
    d0 = oracle.stage_distribution(CANDIDATE_H4, p, s, p, 3, 0)
    d1 = oracle.stage_distribution(CANDIDATE_H4, p, s, p, 2, 1)
    n0, n1 = oracle.wald_expected_n(d0, d1, 0.05, 0.05)
    assert n0 == pytest.approx(381, abs=1)
    assert n1 == pytest.approx(345, abs=1)


def test_binomial_upper_bound():
    # for X ~ Bin(200, 0.05), P(X >= 23) is about 1.9e-4 and P(X >= 24) below 1e-4
    assert binomial_upper(200, 0.05, 1e-4) == 23
    assert binomial_upper(10, 0.5, 1.0) == 0


def test_sprt_stops_at_the_first_crossing():
    # bounds log(0.05/0.95) = -2.944 and +2.944
    table = {0.0: -1.0, 1.0: 2.0}
    path, decision, stop = Oracle.sprt(table, [1.0, 0.0, 1.0, 1.0, 0.0], 0.05, 0.05)
    assert (path, decision, stop) == ([2.0, 1.0, 3.0], "reject_h0", 3)
    path, decision, stop = Oracle.sprt(table, [0.0, 0.0, 0.0, 1.0], 0.05, 0.05)
    assert (path, decision, stop) == ([-1.0, -2.0, -3.0], "accept_h0", 3)
    assert Oracle.sprt(table, [0.0, 1.0], 0.05, 0.05) == ([-1.0, 1.0], "undecided", None)
