import logging
import math
import random
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sniplab import race
from sniplab import transitions as tr
from sniplab import utility
from sniplab.params import DerivedParams, GameParams, ValidationError, derive

import oracles

FIG = dict(H=5, alpha=0.45, mu=0.5, delta=0.5)
SCAN_GRID = [i / 20 for i in range(21)]  # where optimal_sniping scans du*/dp ...
NP_POINTS = (0.8, 1.0, 2.0, 4.0, 8.0)  # ... with c/H for these c inside (0, 0.05)


def scan_grid(h):
    """The scan points of optimal_sniping at H = h, in increasing order."""
    return sorted(SCAN_GRID + [c / h for c in NP_POINTS if c / h < SCAN_GRID[1]])


def slope_numerator(p, pr):
    """N'(p)Q(p) - N(p)Q'(p) at pr, which shares the sign of du*/dp."""
    return tr._slope_terms(p, derive(pr), pr.H)[0]


def slope(p, pr):
    """du*/dp at pr, as (N'Q - NQ')/Q^2 from the kernel that decides p*."""
    k, q = tr._slope_terms(p, derive(pr), pr.H)
    return k / (q * q)


def params(gamma, **overrides):
    kwargs = dict(FIG, gamma=gamma)
    kwargs.update(overrides)
    return GameParams(**kwargs)


@pytest.fixture(scope="module")
def fig_thresholds():
    return tr.thresholds(params(gamma=3.0))


class TestSlope:
    @pytest.mark.parametrize("gamma", [1.2, 2.6, 4.5, 7.0])
    def test_matches_finite_differences(self, gamma):
        pr = params(gamma)
        step = 1e-6
        for p in np.linspace(0.01, 0.99, 15):
            p = float(p)
            fd = (
                tr.indifference_at(p + step, pr).u_star
                - tr.indifference_at(p - step, pr).u_star
            ) / (2 * step)
            assert slope(p, pr) == pytest.approx(fd, abs=1e-6)

    def test_p_zero_utility(self):
        pr = params(3.0)
        point = tr.indifference_at(0.0, pr)
        assert point.u_star == pytest.approx(0.0, abs=1e-15)
        d = derive(pr)
        _, _, c, dd = utility.endpoint_values(0.0, race.mm_loss_prob(0.0, pr.H), d, d.q)
        assert point.s_star == pytest.approx(-c / (dd - c), abs=1e-12)


class TestThresholds:
    def test_no_sniping_closed_form_value(self, fig_thresholds):
        # four-significant-figure reference value for these rates
        assert fig_thresholds.to_no_sniping == pytest.approx(7.8313, abs=5e-4)

    def test_no_sniping_closed_form_vs_slope_root(self, fig_thresholds):
        numeric = oracles.gamma_to_no_sniping_by_slope(params(3.0))
        assert fig_thresholds.to_no_sniping == pytest.approx(numeric, abs=1e-8)

    def test_no_sniping_symmetric_rates(self):
        pr = GameParams(H=4, alpha=0.4, mu=0.4, delta=0.5, gamma=2.0)
        got = tr.thresholds(pr).to_no_sniping
        assert got == pytest.approx(oracles.gamma_to_no_sniping_by_slope(pr), abs=1e-8)

    @pytest.mark.parametrize("alpha", [1e-154, 1e-300])
    def test_no_sniping_overflow_refused(self, alpha):
        # alpha_bar * theta_bar underflows (1e-300) or its inverse overflows
        pr = GameParams(H=5, alpha=alpha, mu=0.5, delta=0.5, gamma=3.5)
        with pytest.raises(ValidationError, match="threshold overflows"):
            tr.thresholds(pr).to_no_sniping

    def test_thresholds_large_but_finite(self):
        # both thresholds grow like 1 / alpha as alpha -> 0, up to alpha = 1e-150
        scaled = [
            (alpha * th.to_no_sniping, alpha * th.to_probabilistic)
            for alpha in (1e-50, 1e-150)
            for th in [tr.thresholds(GameParams(H=5, alpha=alpha, mu=0.5, delta=0.5,
                                                gamma=3.5))]
        ]
        assert scaled[1] == pytest.approx(scaled[0], rel=1e-9)

    @settings(derandomize=True, database=None, deadline=None, max_examples=200)
    @given(st.integers(3, 10**6), st.floats(-12.0, 1.0), st.floats(-12.0, 1.0),
           st.floats(-6.0, -0.001))
    def test_slope_numerator_positive_at_gamma_one(self, h, log_alpha, log_mu, log_latency):
        # thresholds refuses K(1) <= 0: over valid rates K(1) is positive, and
        # it reaches zero only where it underflows (alpha near 1e-320)
        alpha, mu = 10.0**log_alpha, 10.0**log_mu
        pr = GameParams(H=h, alpha=alpha, mu=mu, delta=10.0**log_latency / (alpha + mu),
                        gamma=1.0)
        h1, dh1 = race.mm_loss_prob(1.0, h), race.mm_loss_prob_deriv(1.0, h)
        assert tr._slope_kernel(h1, dh1, derive(pr), 0.0, h)[0] > 0

    def test_non_positive_slope_numerator_refused(self, monkeypatch):
        monkeypatch.setattr(tr, "_slope_kernel", lambda *args: (0.0, 1.0))
        with pytest.raises(ValidationError, match=r"K\(1\) = 0.0 is not positive"):
            tr.thresholds(params(3.0))

    def test_no_sniping_is_h_free(self):
        for h in (3, 5, 9):
            assert tr.thresholds(params(3.0, H=h)).to_no_sniping == pytest.approx(
                tr.thresholds(params(3.0)).to_no_sniping, abs=1e-14
            )

    def test_probabilistic_threshold_zeroes_the_slope(self, fig_thresholds):
        gk = fig_thresholds.to_probabilistic
        assert abs(slope(1.0, params(gk))) < 1e-8
        # independent bracket: the finite-difference slope at p=1 flips sign
        step = 1e-6
        for gamma, sign in ((gk - 0.01, 1), (gk + 0.01, -1)):
            pr = params(gamma)
            fd = (
                tr.indifference_at(1.0, pr).u_star
                - tr.indifference_at(1.0 - step, pr).u_star
            ) / step
            assert math.copysign(1, fd) == sign

    def test_slope_zero_at_no_sniping_threshold(self, fig_thresholds):
        gl = fig_thresholds.to_no_sniping
        assert abs(slope_numerator(0.0, params(gl))) < 1e-8

    def test_order(self, fig_thresholds):
        assert 1 <= fig_thresholds.to_probabilistic <= fig_thresholds.to_no_sniping

    def test_order_on_rate_grid(self):
        # the two thresholds keep their order across the (alpha, mu) plane
        for alpha in np.linspace(0.1, 1.0, 10):
            for mu in np.linspace(0.1, 1.0, 10):
                if (alpha + mu) * 0.5 >= 1:
                    continue
                pr = GameParams(H=5, alpha=float(alpha), mu=float(mu),
                                delta=0.5, gamma=2.0)
                th = tr.thresholds(pr)
                assert th.to_probabilistic <= th.to_no_sniping + 1e-9

    def test_slope_numerator_shape(self, fig_thresholds):
        # positive at gamma=1, negative far out, concave to the right of 1
        k = lambda g: slope_numerator(1.0, params(g))
        assert k(1.0) > 0
        hi = 10 * fig_thresholds.to_no_sniping
        assert k(hi) < 0
        for a, b in ((1.0, 3.0), (2.0, 6.0), (1.5, hi)):
            mid = (a + b) / 2
            assert k(mid) >= (k(a) + k(b)) / 2 - 1e-15


class TestOptimalSniping:
    def test_sure_regime(self):
        regime = tr.optimal_sniping(params(1.7575))
        assert regime.kind == tr.SURE
        assert regime.p_star == 1.0
        assert regime.u_star == pytest.approx(
            tr.indifference_at(1.0, params(1.7575)).u_star
        )

    def test_probabilistic_regime(self):
        regime = tr.optimal_sniping(params(3.5))
        assert regime.kind == tr.PROBABILISTIC
        assert 0 < regime.p_star < 1
        u_sure = tr.indifference_at(1.0, params(3.5)).u_star
        assert regime.u_star > u_sure > 0

    def test_no_sniping_regime(self):
        regime = tr.optimal_sniping(params(7.8313))
        assert regime.kind == tr.NO_SNIPING
        assert regime.p_star == 0.0
        assert regime.u_star == 0.0
        regime = tr.optimal_sniping(params(9.0))
        assert regime.kind == tr.NO_SNIPING

    def test_classification_flips_at_threshold(self, fig_thresholds):
        gk = fig_thresholds.to_probabilistic
        assert tr.optimal_sniping(params(gk - 1e-4)).kind == tr.SURE
        assert tr.optimal_sniping(params(gk + 1e-4)).kind == tr.PROBABILISTIC

    @pytest.mark.parametrize("gamma", [2.8, 3.5, 5.0, 7.0])
    def test_grid_dominance(self, gamma):
        regime = tr.optimal_sniping(params(gamma))
        assert regime.kind == tr.PROBABILISTIC
        for p in np.linspace(0.0, 1.0, 11):
            assert regime.u_star >= tr.indifference_at(float(p), params(gamma)).u_star - 1e-9

    @pytest.mark.parametrize(
        "pr",
        [params(gamma) for gamma in (2.7, 3.5, 7.0, 7.83)]
        + [GameParams(H=h, alpha=0.45, mu=0.3, delta=0.5, gamma=3.0) for h in (2000, 10000)],
        ids=["H5-g2.7", "H5-g3.5", "H5-g7.0", "H5-g7.83", "H2000-g3", "H10000-g3"],
    )
    def test_p_star_is_the_slope_root_to_float_precision(self, pr):
        # p* must sit within 1e-12 relative of the zero of du*/dp
        regime = tr.optimal_sniping(pr)
        assert regime.kind == tr.PROBABILISTIC
        p = regime.p_star
        assert slope_numerator(p * (1 - 1e-12), pr) > 0
        assert slope_numerator(p * (1 + 1e-12), pr) <= 0

    def test_non_unimodal_scan_warns_once_and_takes_the_best(self, monkeypatch, caplog):
        # a decoy descending bracket (0.97, 0.99) after the true scan: its ends
        # carry the race values of p = 0 (slope > 0) and p = 1 (slope < 0), but
        # du*/dp < 0 inside it, so its root lies at 0.97, below u*(p*)
        pr = params(3.5)
        expected = tr.optimal_sniping(pr)
        scan = tr._scan_race(pr.H)
        decoy = ((0.97, *scan[0][1:]), (0.99, *scan[-1][1:]))
        monkeypatch.setattr(tr, "_scan_race", lambda n: scan + decoy)
        with caplog.at_level(logging.WARNING, logger=tr.__name__):
            regime = tr.optimal_sniping(pr)
        warnings = [r.getMessage() for r in caplog.records if r.name == tr.__name__]
        assert len(warnings) == 1
        assert "not unimodal" in warnings[0]
        assert "2 descending brackets" in warnings[0] and "(0.97, 0.99)" in warnings[0]
        assert regime == expected
        assert tr.indifference_at(0.97, pr).u_star < regime.u_star

    def test_utility_vanishes_at_upper_threshold(self, fig_thresholds):
        gl = fig_thresholds.to_no_sniping
        regime = tr.optimal_sniping(params(gl - 1e-6))
        assert regime.u_star < 1e-6


class TestRegimeSweep:
    def test_sweep_structure(self):
        gammas = [1.5, 2.0, 3.0, 4.0, 5.5, 7.0, 8.0, 9.0]
        th = tr.thresholds(params(3.0))
        rows = [tr.regime_row(params(g), th) for g in gammas]
        assert [r["gamma"] for r in rows] == gammas
        assert rows[0]["regime"] == tr.SURE
        assert rows[-1]["regime"] == tr.NO_SNIPING
        p_stars = [r["p_star"] for r in rows]
        assert p_stars[0] == 1.0 and p_stars[-1] == 0.0
        assert all(b <= a + 1e-6 for a, b in zip(p_stars, p_stars[1:]))
        for r in rows:
            assert r["u_opt"] >= r["u_sure"] - 1e-12
            if r["regime"] == tr.SURE:
                assert r["u_opt"] == pytest.approx(r["u_sure"], abs=1e-12)


    def test_sure_row_races_p_one_once(self, monkeypatch):
        # u_sure is the sure regime's own point, not a second race at p = 1
        pr = params(1.7575)
        th = tr.thresholds(pr)  # outside the count: it races p = 1
        loss_ps = []
        monkeypatch.setattr(race, "mm_loss_prob", recording(loss_ps, race.mm_loss_prob))
        row = tr.regime_row(pr, th)
        assert row["regime"] == tr.SURE
        assert loss_ps == [1.0]
        assert row["u_sure"] == row["u_opt"] == tr.indifference_at(1.0, pr).u_star


def recording(log, fn, position=0):
    """fn, appending its argument at position to log on every call."""
    def wrapper(*args):
        log.append(args[position])
        return fn(*args)
    return wrapper


class TestSlopeKernel:
    def test_kernel_is_the_reference_assembly_bit_for_bit(self):
        # the float kernel against a fresh derive, endpoint_values and the
        # derivative terms, by ==: at p = 0 and 1, n*p < 1 (binomial sums) and
        # any p, and in gamma through the sure-to-probabilistic threshold
        # H log-uniform on 3..10,000, gamma on [1, 60], (alpha + mu) delta < 1
        rng = random.Random(2024)
        settings = [GameParams(H=10_000, alpha=0.45, mu=0.3, delta=0.5, gamma=3.0)]
        while len(settings) < 151:
            alpha, mu, delta = rng.uniform(0.01, 2), rng.uniform(0.01, 2), rng.uniform(0.01, 1)
            if (alpha + mu) * delta < 1:
                h = int(math.exp(rng.uniform(math.log(3), math.log(10_000))))
                gamma = 1.0 + 59.0 * rng.random() ** 2
                settings.append(GameParams(H=h, alpha=alpha, mu=mu, delta=delta, gamma=gamma))
        for pr in settings:
            d, n = derive(pr), pr.H
            for p in (0.0, 1.0, 0.85 / n, rng.random() / n, rng.random()):
                assert tr._slope_terms(p, d, n)[0] == oracles.slope_numerator(p, pr), (pr, p)
            th = tr.thresholds(pr)
            reference = oracles.gamma_to_probabilistic_by_reference(pr, th.to_no_sniping)
            assert th.to_probabilistic == reference, pr

    def test_probabilistic_row_work_counts(self, monkeypatch):
        # counts that host noise cannot move, over one h-sweep row at H = 2,000:
        # one derive per entry point, the no-sniping closed form once, the
        # scan's race values once per grid point, each root slope once per p,
        # p* raced twice
        pr = GameParams(H=2000, alpha=0.45, mu=0.3, delta=0.5, gamma=3.0)
        built, derived, closed, kernel_qs, slope_ps = [], [], [], [], []
        loss_ps, deriv_ps = [], []
        for cls in (GameParams, DerivedParams):
            monkeypatch.setattr(cls, "__post_init__", recording(built, cls.__post_init__))
        monkeypatch.setattr(tr, "derive", recording(derived, derive))
        monkeypatch.setattr(tr, "_no_sniping", recording(closed, tr._no_sniping))
        monkeypatch.setattr(tr, "_slope_kernel", recording(kernel_qs, tr._slope_kernel, 3))
        monkeypatch.setattr(tr, "_slope_terms", recording(slope_ps, tr._slope_terms))
        monkeypatch.setattr(race, "mm_loss_prob", recording(loss_ps, race.mm_loss_prob))
        monkeypatch.setattr(race, "mm_loss_prob_deriv",
                            recording(deriv_ps, race.mm_loss_prob_deriv))
        th = tr.thresholds(pr)
        threshold_qs = list(kernel_qs)  # K(gamma) takes q = gamma - 1
        del deriv_ps[:]  # thresholds races p = 1 for K(gamma)
        tr._scan_race.cache_clear()  # an earlier test may have scanned H = 2,000
        row = tr.regime_row(pr, th)
        assert row["regime"] == tr.PROBABILISTIC
        # thresholds and regime_row
        assert [type(obj).__name__ for obj in built] == ["DerivedParams"] * 2
        assert len(derived) == 2
        assert len(closed) == 1
        assert len(threshold_qs) == len(set(threshold_qs)) > 0
        # the scan races each point of the per-H grid once; the root's slopes
        # lie off the grid
        grid = scan_grid(2000)
        assert len(grid) == len(SCAN_GRID) + len(NP_POINTS)
        assert sorted(p for p in deriv_ps if p in grid) == grid
        assert len(slope_ps) == len(set(slope_ps)) > 0
        assert set(grid).isdisjoint(slope_ps)
        assert len(deriv_ps) == len(grid) + len(slope_ps)
        assert loss_ps.count(row["p_star"]) <= 2

    def test_gamma_sweep_races_the_scan_once(self, monkeypatch):
        # 20 probabilistic rows at one H race the 21 scan points once in all,
        # not once per row (420 calls)
        pr = params(3.0)
        th = tr.thresholds(pr)  # outside the count: it races p = 1
        deriv_ps = []
        monkeypatch.setattr(race, "mm_loss_prob_deriv",
                            recording(deriv_ps, race.mm_loss_prob_deriv))
        tr._scan_race.cache_clear()
        rows = [tr.regime_row(replace(pr, gamma=3.0 + 0.2 * i), th) for i in range(20)]
        assert {row["regime"] for row in rows} == {tr.PROBABILISTIC}
        assert sum(p in SCAN_GRID for p in deriv_ps) == 21

    @pytest.mark.parametrize("h", [2000, 5000, 10000])
    def test_large_h_p_star_builds_few_windows(self, h, monkeypatch):
        # near p* at H in the thousands n p is about 0.85, above
        # race.CLOSED_FORM_MIN_NP, so the root's iterates take the closed
        # forms: a cold optimal_sniping builds at most 8 binomial windows,
        # where a cutoff at n p = 1 built 23-39.  Counts, not timings, so the
        # guard does not depend on the host's speed
        windows = []
        monkeypatch.setattr(race, "_binom_pmf", recording(windows, race._binom_pmf))
        tr._scan_race.cache_clear()
        regime = tr.optimal_sniping(GameParams(H=h, alpha=0.45, mu=0.5, delta=0.5, gamma=4.0))
        assert regime.kind == tr.PROBABILISTIC
        assert 0.75 < h * regime.p_star < 1.0
        assert 0 < len(windows) <= 8

    def test_h_sweep_p_star_work(self, monkeypatch):
        # over an H sweep at the Fig. 7 rates and gamma 4, where p* lies near
        # 0.85/H, the scan points c/H bracket p* on the n*p scale: a cold
        # optimal_sniping takes at most 14 p* slope evaluations (34 on average
        # and up to 62 when the bracket was [0, 0.05]), and its only binomial
        # windows are the scan's two race sums at p = 0; every other race
        # call, the root's iterates included, is a closed form.  Counts, not
        # timings, so the guard does not depend on the host's speed
        for h in range(2000, 10001, 500):
            slope_ps, windows = [], []
            with monkeypatch.context() as m:
                m.setattr(tr, "_slope_terms", recording(slope_ps, tr._slope_terms))
                m.setattr(race, "_binom_pmf", recording(windows, race._binom_pmf, 1))
                tr._scan_race.cache_clear()
                regime = tr.optimal_sniping(params(4.0, H=h))
            assert regime.kind == tr.PROBABILISTIC, h
            assert 0 < len(slope_ps) <= 14, (h, len(slope_ps))
            assert windows in ([0.0], [0.0, 0.0]), (h, windows)

    def test_scan_grid_per_h(self):
        # at H = 5 no point c/H falls inside (0, 0.05): a gamma sweep at the
        # paper's H scans the 21 points of _SCAN_GRID alone
        tr._scan_race.cache_clear()
        assert [p for p, _, _ in tr._scan_race(5)] == list(tr._SCAN_GRID) == SCAN_GRID
        for h in (16, 17, 160, 161, 2000, 10**6):
            assert [p for p, _, _ in tr._scan_race(h)] == scan_grid(h), h
        assert len(scan_grid(16)) == 21 and len(scan_grid(161)) == 26
        # every point c/H races on the closed forms: n*p rounds to no less
        # than the cutoff (0.75/H would round below it at H = 5,000)
        assert 5000 * (0.75 / 5000) < race.CLOSED_FORM_MIN_NP
        for h in [*range(17, 20_001), 2**31 - 1, 2**53 - 1]:
            assert min(h * (c / h) for c in tr._NP_POINTS) >= race.CLOSED_FORM_MIN_NP, h

    def test_scan_cache_is_keyed_by_h(self):
        # the scan's race values depend on H alone: rows with other rates at
        # a cached H, and rows after another H, equal rows from an empty cache
        settings = [
            GameParams(H=5, alpha=0.45, mu=0.5, delta=0.5, gamma=3.0),
            GameParams(H=5, alpha=0.3, mu=0.4, delta=0.6, gamma=3.0),
            GameParams(H=7, alpha=0.6, mu=0.2, delta=0.7, gamma=3.0),
            GameParams(H=5, alpha=0.5, mu=0.1, delta=0.8, gamma=3.0),
        ]
        cases = []
        for pr in settings:
            th = tr.thresholds(pr)
            mid = (th.to_probabilistic + th.to_no_sniping) / 2
            cases.append((replace(pr, gamma=mid), th))
        tr._scan_race.cache_clear()
        rows = [tr.regime_row(pr, th) for pr, th in cases]
        assert tr._scan_race.cache_info()[:2] == (1, 3)  # (hits, misses): H 5, 5, 7, 5
        assert {row["regime"] for row in rows} == {tr.PROBABILISTIC}
        for (pr, th), row in zip(cases, rows):
            tr._scan_race.cache_clear()
            assert tr.regime_row(pr, th) == row, pr
