import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from sniplab import race
from sniplab import transitions as tr
from sniplab.params import GameParams, ValidationError
from sniplab.race import Population

import oracles


def central_diff(f, x, step=1e-6):
    return (f(x + step) - f(x - step)) / (2 * step)


def race_sums(n, p):
    """Every binomial sum of race over Bin(n, p): the homogeneous functions at
    the agent count whose sum runs over Bin(n, p) (below CLOSED_FORM_MIN_NP,
    or at every p with it set to inf), and the mixed-population functions at
    H_t = n, H_d 0-3."""
    values = [
        race.mm_loss_prob(p, n + 1),
        race.mm_loss_prob_deriv(p, n + 2),
        race.win_prob_given_entry(p, n + 2),
        race.win_prob_given_entry_deriv(p, n + 3),
    ]
    for hd in range(4):
        if n + hd < 3:
            continue
        pop = Population(n, hd)
        values += [race.mm_loss_prob_mixed(p, pop), race.win_prob_given_entry_mixed(p, pop)]
        if hd:
            values += [
                race.mm_loss_prob_mixed_deceptive(p, pop),
                race.win_prob_given_entry_mixed_deceptive(p, pop),
            ]
    return values


def oracle_sums(n, p):
    """The four homogeneous sums of race_sums, as oracles.full_length_expect
    of f passed as a function."""
    expect = oracles.full_length_expect
    return [
        expect(n, p, lambda k: k / (k + 1)),
        (n + 1) * expect(n, p, lambda k: 1 / ((k + 1) * (k + 2))),
        expect(n, p, lambda k: 1 / (k + 2)),
        -(n + 1) * expect(n, p, lambda k: 1 / ((k + 2) * (k + 3))),
    ]


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
        assert race.mm_loss_prob(1.0, 5) == pytest.approx(0.8, abs=1e-15)
        assert race.mm_loss_prob(0.0, 5) == 0.0
        # one opponent enters w.p. 1/2 and then wins a two-way race w.p. 1/2
        assert race.mm_loss_prob(0.5, 2) == pytest.approx(0.25, abs=1e-15)

    def test_mm_loss_deriv_known_points(self):
        assert race.mm_loss_prob_deriv(1.0, 5) == pytest.approx(0.2, abs=1e-15)
        assert race.mm_loss_prob_deriv(0.0, 5) == pytest.approx(2.0, abs=1e-15)
        fd = central_diff(lambda p: race.mm_loss_prob(p, 4), 0.5)
        assert race.mm_loss_prob_deriv(0.5, 4) == pytest.approx(fd, abs=1e-6)

    def test_win_prob_known_points(self):
        assert race.win_prob_given_entry(1.0, 5) == pytest.approx(0.2, abs=1e-15)
        assert race.win_prob_given_entry(0.0, 7) == 0.5
        # N ~ Bin(1, 1/2): E[1/(2+N)] = (1/2)(1/2) + (1/2)(1/3)
        assert race.win_prob_given_entry(0.5, 3) == pytest.approx(5 / 12, abs=1e-15)

    def test_win_prob_deriv_known_points(self):
        assert race.win_prob_given_entry_deriv(1.0, 4) == pytest.approx(-1 / 6, abs=1e-15)
        assert race.win_prob_given_entry_deriv(0.0, 2) == 0.0
        fd = central_diff(lambda p: race.win_prob_given_entry(p, 6), 0.3)
        assert race.win_prob_given_entry_deriv(0.3, 6) == pytest.approx(fd, abs=1e-6)

    @pytest.mark.parametrize("n", range(2, 13))
    def test_closed_forms_match_enumeration(self, n):
        for p in np.linspace(0.0, 1.0, 11):
            p = float(p)
            assert race.mm_loss_prob(p, n) == pytest.approx(
                oracles.mm_loss_prob_enum(p, n), abs=1e-12
            )
            assert race.win_prob_given_entry(p, n) == pytest.approx(
                oracles.win_prob_given_entry_enum(p, n), abs=1e-12
            )

    @given(
        st.floats(min_value=1e-9, max_value=1.0),
        st.integers(min_value=2, max_value=12),
    )
    # the closed form lost four digits to cancellation here
    @example(p=1e-6, n=2)
    def test_unconditional_win_identity(self, p, n):
        # p * win_prob == mm_loss / (n - 1): each of the n-1 bandits is equally
        # likely to be the one who beat the market maker
        assert math.isclose(
            p * race.win_prob_given_entry(p, n),
            race.mm_loss_prob(p, n) / (n - 1),
            rel_tol=0,
            abs_tol=1e-12,
        )

    @pytest.mark.parametrize("n", [2, 3, 5, 9])
    def test_monotonicity(self, n):
        grid = np.linspace(0.001, 1.0, 50)
        loss = [race.mm_loss_prob(float(p), n) for p in grid]
        win = [race.win_prob_given_entry(float(p), n) for p in grid]
        assert all(b > a for a, b in zip(loss, loss[1:]))
        if n > 2:
            assert all(b < a for a, b in zip(win, win[1:]))
        assert all(0 <= v <= (n - 1) / n for v in loss)
        assert all(1 / n <= v <= 0.5 for v in win)

    def test_series_matches_closed_form_near_switch(self):
        # just above p = 0 both probabilities follow their two-term series
        # about p = 0, whose remainder is O(n^3 p^3); the evaluation there must
        # not add cancellation noise on top
        for n in (3, 5, 12):
            for p in (2e-6, 5e-6):
                series_loss = (n - 1) / 2 * p - (n - 1) * (n - 2) / 6 * p * p
                assert race.mm_loss_prob(p, n) == pytest.approx(series_loss, abs=1e-8)
                series_win = 0.5 - (n - 2) / 6 * p
                assert race.win_prob_given_entry(p, n) == pytest.approx(
                    series_win, abs=1e-8
                )

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 8, 13, 21, 50])
    def test_exact_near_zero(self, n):
        # the closed forms cancel catastrophically for small n*p; every value
        # and derivative must still match exact rational arithmetic
        for p in (1e-6, 1.01e-6, 3e-6, 1e-5, 1e-4, 1e-3, 1e-2):
            x = Fraction(p)
            exact = {
                race.mm_loss_prob: exact_expect(n - 1, x, lambda k: Fraction(k, k + 1)),
                race.mm_loss_prob_deriv: (n - 1)
                * exact_expect(n - 2, x, lambda k: Fraction(1, (k + 1) * (k + 2))),
                race.win_prob_given_entry: exact_expect(n - 2, x, lambda k: Fraction(1, k + 2)),
            }
            if n > 2:
                exact[race.win_prob_given_entry_deriv] = -(n - 2) * exact_expect(
                    n - 3, x, lambda k: Fraction(1, (k + 2) * (k + 3))
                )
            for fn, value in exact.items():
                got = fn(p, n)
                assert abs(Fraction(got) - value) <= Fraction(1, 10**12) * abs(value), (
                    fn.__name__, p, got, float(value)
                )

    @pytest.mark.parametrize("n", [1, 3, 10, 100, 1000, 10_000])
    def test_windowed_sum_matches_full_length(self, n, monkeypatch):
        # the window drops only upper-tail terms below half an ulp of every
        # running sum (see race._binom_pmf), so every bit is kept; and the
        # homogeneous sums, f written inline, are those of f as a function
        rng = random.Random(n)
        fixed = (0.0, 1e-9, 1e-6, 0.1 / n, 0.5 / n, 0.85 / n, 0.9 / n, 2.0 / n, 0.3, 0.9, 1.0)
        band = tuple(rng.random() / n for _ in range(4))  # n*p < 1, where the sums run
        monkeypatch.setattr(race, "CLOSED_FORM_MIN_NP", math.inf)  # sums at every p
        for p in fixed + band:
            p = min(p, 1.0)
            windowed = race_sums(n, p)
            with monkeypatch.context() as m:
                full_length = lambda size, prob: enumerate(oracles.full_length_pmf(size, prob))
                m.setattr(race, "_binom_pmf", full_length)
                full = race_sums(n, p)
            assert windowed == full, (n, p)
            assert windowed[:4] == oracle_sums(n, p), (n, p)

    def test_upper_tail_is_cut(self):
        # near p* at H in the thousands, only ~18 of ~170 nonzero terms can
        # reach a float sum
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
        assert race.mm_loss_prob_mixed(p, Population(5000, 0)) == pytest.approx(
            race.mm_loss_prob(p, 5000), rel=1e-12
        )

    def test_domain_errors(self):
        with pytest.raises(ValidationError):
            race.mm_loss_prob(-0.1, 5)
        with pytest.raises(ValidationError):
            race.win_prob_given_entry(1.2, 5)
        with pytest.raises(ValidationError):
            race.mm_loss_prob(0.5, 1)


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
        pop = Population(n, 0)
        assert race.mm_loss_prob_mixed(p, pop) == pytest.approx(
            race.mm_loss_prob(p, n), abs=1e-12
        )
        assert race.win_prob_given_entry_mixed(p, pop) == pytest.approx(
            race.win_prob_given_entry(p, n), abs=1e-12
        )

    def test_mm_loss_mixed_known_points(self):
        # one sure sniper, no trustworthy entrants: two-way race
        assert race.mm_loss_prob_mixed(0.0, Population(2, 1)) == pytest.approx(0.5)
        assert race.mm_loss_prob_mixed(1.0, Population(3, 2)) == pytest.approx(0.8)

    def test_win_prob_mixed_sure_sniping(self):
        for pop in (Population(3, 1), Population(1, 3), Population(4, 4)):
            assert race.win_prob_given_entry_mixed(1.0, pop) == pytest.approx(
                1 / pop.total, abs=1e-12
            )
            assert race.mm_loss_prob_mixed(1.0, pop) == pytest.approx(
                (pop.total - 1) / pop.total, abs=1e-12
            )

    @pytest.mark.parametrize("pop", [Population(2, 1), Population(3, 1),
                                     Population(4, 2), Population(6, 3)])
    def test_two_urn_form_agrees(self, pop):
        for p in np.linspace(0.0, 1.0, 9):
            assert race.win_prob_given_entry_mixed(float(p), pop) == pytest.approx(
                oracles.win_prob_given_entry_mixed_two_urn(float(p), pop), abs=1e-12
            )

    def test_two_urn_needs_two_trustworthy(self):
        with pytest.raises(ValidationError):
            oracles.win_prob_given_entry_mixed_two_urn(0.5, Population(1, 2))

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
        assert abs(race.win_prob_given_entry_mixed(p, pop) - estimate) < 3 * se


class TestDeceptiveViewpoint:
    def test_single_rogue_reduces_to_homogeneous(self):
        # the lone deceptive market maker faces H-1 probabilistic snipers
        pop = Population(4, 1)
        for p in (0.0, 0.3, 1.0):
            assert race.mm_loss_prob_mixed_deceptive(p, pop) == pytest.approx(
                race.mm_loss_prob(p, 5), abs=1e-12
            )
            assert race.win_prob_given_entry_mixed_deceptive(p, pop) == pytest.approx(
                race.win_prob_given_entry(p, 5), abs=1e-12
            )

    def test_sure_sniping_uniform(self):
        for pop in (Population(3, 1), Population(2, 2), Population(3, 3)):
            assert race.win_prob_given_entry_mixed_deceptive(1.0, pop) == pytest.approx(
                1 / pop.total, abs=1e-12
            )
            assert race.mm_loss_prob_mixed_deceptive(1.0, pop) == pytest.approx(
                (pop.total - 1) / pop.total, abs=1e-12
            )

    def test_requires_deceptive_agent(self):
        with pytest.raises(ValidationError):
            race.mm_loss_prob_mixed_deceptive(0.5, Population(4, 0))

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
        got = race.win_prob_given_entry_mixed_deceptive(p, pop)
        assert abs(got - estimate) < 3 * se


@given(
    st.floats(min_value=0.01, max_value=0.99),
    st.integers(min_value=2, max_value=10),
)
@settings(max_examples=60)
def test_derivatives_match_finite_differences(p, n):
    fd_loss = central_diff(lambda x: race.mm_loss_prob(x, n), p)
    fd_win = central_diff(lambda x: race.win_prob_given_entry(x, n), p)
    assert math.isclose(race.mm_loss_prob_deriv(p, n), fd_loss, rel_tol=0, abs_tol=1e-6)
    assert math.isclose(
        race.win_prob_given_entry_deriv(p, n), fd_win, rel_tol=0, abs_tol=1e-6
    )


@given(
    st.integers(min_value=1, max_value=40),
    st.integers(min_value=0, max_value=20),
    st.floats(min_value=-9.0, max_value=0.0),
)
@example(ht=40, hd=20, log10_p=-9.0)
@example(ht=1, hd=2, log10_p=0.0)
@settings(max_examples=100, deadline=None)
def test_mixed_match_exact_sums(ht, hd, log10_p):
    # every mixed race probability against an exact rational sum; the win
    # probabilities by the two-urn route, conditioning on the maker's type
    assume(ht + hd >= 3)
    pop = Population(ht, hd)
    p = 10.0**log10_p
    x = Fraction(p)
    others = pop.total - 1
    exact = {
        race.mm_loss_prob_mixed: exact_expect(
            ht - 1, x, lambda k: Fraction(hd + k, 1 + hd + k)
        ),
        race.win_prob_given_entry_mixed: (
            Fraction(ht - 1, others) * exact_expect(ht - 2, x, lambda k: Fraction(1, 2 + hd + k))
            + Fraction(hd, others) * exact_expect(ht - 1, x, lambda k: Fraction(1, 1 + hd + k))
        ),
    }
    if hd:
        exact[race.mm_loss_prob_mixed_deceptive] = exact_expect(
            ht, x, lambda k: Fraction(hd - 1 + k, hd + k)
        )
        exact[race.win_prob_given_entry_mixed_deceptive] = (
            Fraction(ht, others) * exact_expect(ht - 1, x, lambda k: Fraction(1, 1 + hd + k))
            + Fraction(hd - 1, others) * exact_expect(ht, x, lambda k: Fraction(1, hd + k))
        )
    for fn, value in exact.items():
        got = fn(p, pop)
        assert abs(Fraction(got) - value) <= Fraction(1, 10**12) * value, (
            fn.__name__, got, float(value)
        )
