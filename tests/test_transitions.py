import math
import random
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import Phase, given, settings, strategies as st

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


def bisection_path(grid, p_star):
    """The grid indices at which a bisection of grid, from its two ends,
    takes the slope on its way to the cell of p_star: the cell whose lower
    end lies below p_star and whose upper end does not."""
    cell = max(i for i, p in enumerate(grid) if p < p_star)
    lo, hi, path = 0, len(grid) - 1, []
    while hi - lo > 1:
        mid = (lo + hi) // 2
        path.append(mid)
        lo, hi = (mid, hi) if mid <= cell else (lo, mid)
    return path


def slope_numerator(p, pr):
    """N'(p)Q(p) - N(p)Q'(p) at pr, which shares the sign of du*/dp."""
    return utility.slope_kernel(derive(pr), pr.H)(pr.gamma)(p)


def slope(p, pr):
    """du*/dp at pr, as (N'Q - NQ')/Q^2 from the kernel that decides p*, with
    Q = (A - C) + (D - B) from the kernel's lines."""
    kernel = utility.slope_kernel(derive(pr), pr.H)(pr.gamma)
    a, b, c, dd = kernel(p, lines=True)
    q = (a - c) + (dd - b)
    return kernel(p) / (q * q)


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
        _, _, c, dd = utility.slope_kernel(derive(pr), pr.H)(pr.gamma)(0.0, lines=True)
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
        h1, dh1 = race.mm_loss(1.0, h)
        assert utility.slope_kernel(derive(pr), h)(1.0)(1.0, h1, dh1) > 0

    def test_non_positive_slope_numerator_refused(self, monkeypatch):
        monkeypatch.setattr(utility, "slope_kernel",
                            lambda d, n: lambda gamma: lambda *args, **kw: 0.0)
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

    # no explain phase: tracing every line of a failing example took minutes
    @settings(derandomize=True, database=None, deadline=None, max_examples=150,
              phases=[Phase.explicit, Phase.generate, Phase.shrink])
    @given(st.floats(math.log(3), math.log(1e7)), st.floats(-6.0, 0.5), st.floats(-6.0, 0.5),
           st.floats(1e-6, 0.998),
           st.lists(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
                    min_size=1, max_size=4))
    def test_slope_changes_sign_once_and_rows_are_full_scan_rows(self, log_h, log_alpha,
                                                                 log_mu, load, fractions):
        # u*(p) is unimodal between the thresholds (the module docstring
        # derives it): on a fine grid of p the slope numerator is > 0 up to
        # one point and <= 0 after it, so the bisection's cell is the scan's,
        # and every row equals the row of 0.7.0's full 21 + 5-point scan bit
        # for bit; at gammas strictly between the thresholds and within
        # 1e-12 of each
        h = max(3, round(math.exp(log_h)))
        alpha, mu = 10.0**log_alpha, 10.0**log_mu
        pr = GameParams(H=h, alpha=alpha, mu=mu, delta=load / (alpha + mu), gamma=3.0)
        th = oracles.thresholds_0_7_0(pr)
        lo, hi = th.to_probabilistic, th.to_no_sniping
        gammas = [lo + f * (hi - lo) for f in fractions]
        gammas += [g for t in (lo, hi) for g in (t - 1e-12, t + 1e-12) if g >= 1.0]
        fine = sorted({*np.linspace(0.0, 1.0, 201).tolist(),
                       *np.logspace(-9.0, math.log10(0.05), 60).tolist(),
                       *(c / h for c in np.linspace(0.05, 40.0, 60).tolist() if c / h < 1.0)})
        race_values = [(p, *race.mm_loss(p, h)) for p in fine]
        row = tr.regime_rows(pr)
        hexed = lambda r: {k: v.hex() if isinstance(v, float) else v  # noqa: E731
                           for k, v in r.items()}
        for gamma in gammas:
            kernel = utility.slope_kernel(derive(pr), h)(gamma)
            signs = [kernel(*values) > 0 for values in race_values]
            assert signs == sorted(signs, reverse=True), (pr, gamma)
            old = oracles.regime_row_0_7_0(replace(pr, gamma=gamma), th)
            assert hexed(row(gamma)) == hexed(old), (pr, gamma)

    def test_utility_vanishes_at_upper_threshold(self, fig_thresholds):
        gl = fig_thresholds.to_no_sniping
        regime = tr.optimal_sniping(params(gl - 1e-6))
        assert regime.u_star < 1e-6


class TestRegimeSweep:
    def test_sweep_structure(self):
        gammas = [1.5, 2.0, 3.0, 4.0, 5.5, 7.0, 8.0, 9.0]
        rows = list(map(tr.regime_rows(params(3.0)), gammas))
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

    # no explain phase: tracing every line of a failing example took minutes
    @settings(derandomize=True, database=None, deadline=None, max_examples=60,
              phases=[Phase.explicit, Phase.generate, Phase.shrink])
    @given(st.integers(3, 10**4), st.floats(0.01, 2.0), st.floats(0.01, 2.0),
           st.floats(0.01, 0.998), st.floats(0.0, 1.0),
           st.lists(st.floats(-1e-9, 1e-9), min_size=4, max_size=12))
    def test_shared_kernel_rows_are_0_7_0_rows(self, h, alpha, mu, load, phase, offsets):
        # the rows of one shared kernel, bound to each gamma, against 0.7.0's
        # per-row path (a GameParams, a derive and a kernel per row), bit for
        # bit, on a random grid through both thresholds and at gammas within
        # 1e-9 of each
        pr = GameParams(H=h, alpha=alpha, mu=mu, delta=load / (alpha + mu), gamma=3.0)
        th = oracles.thresholds_0_7_0(pr)
        near = [t + o for t in (th.to_probabilistic, th.to_no_sniping) for o in [0.0, *offsets]]
        step = 1.5 * th.to_no_sniping / 40
        gammas = [1.0 + step * (i + phase) for i in range(40)] + near
        row = tr.regime_rows(pr)
        hexed = lambda r: {k: v.hex() if isinstance(v, float) else v  # noqa: E731
                           for k, v in r.items()}
        for gamma in gammas:
            old = oracles.regime_row_0_7_0(replace(pr, gamma=gamma), th)
            assert hexed(row(gamma)) == hexed(old), gamma

    def test_sure_row_races_p_one_once(self, monkeypatch):
        # u_sure is the sure regime's own point, whose race values at p = 1
        # are those K(gamma) made for the thresholds, and no grid point is
        # raced: one race call in all
        pr = params(1.7575)
        loss_ps = []
        monkeypatch.setattr(race, "mm_loss", recording(loss_ps, race.mm_loss))
        row = tr.regime_rows(pr)(pr.gamma)
        assert row["regime"] == tr.SURE
        assert loss_ps == [1.0]
        assert row["u_sure"] == row["u_opt"] == tr.indifference_at(1.0, pr).u_star


def recording(log, fn, position=0):
    """fn, appending its argument at position to log on every call."""
    def wrapper(*args):
        log.append(args[position])
        return fn(*args)
    return wrapper


def recording_kernels(log, factory):
    """utility.slope_kernel, whose kernels append (gamma, args, kwargs) to log
    on every call."""
    def build(d, n_agents):
        bind = factory(d, n_agents)

        def bound(gamma):
            kernel = bind(gamma)

            def recorded(*args, **kwargs):
                log.append((gamma, args, kwargs))
                return kernel(*args, **kwargs)
            return recorded
        return bound
    return build


def kernel_calls(log, gammas):
    """The p of each kernel call in log, by kind: "K" a K(gamma) step at p = 1
    (its gamma instead), "scan" a scan point, "root" a p* step and "point" a
    point of indifference; gammas are the rows', and a call bound to any
    other gamma is a K step."""
    kinds = {"K": [], "scan": [], "root": [], "point": []}
    for gamma, args, kwargs in log:
        if gamma not in gammas:
            assert args[0] == 1.0 and len(args) == 3 and not kwargs
            kinds["K"].append(gamma)
        elif kwargs:
            assert kwargs == {"lines": True} and len(args) in (1, 3)
            kinds["point"].append(args[0])
        else:
            kinds["scan" if len(args) == 3 else "root"].append(args[0])
    return kinds


def below_cutoff(log, fn):
    """race.mm_loss, appending p to log on every call with n*p below
    race.CLOSED_FORM_MIN_NP, where it sums the series."""
    def wrapper(p, n_agents):
        if n_agents * p < race.CLOSED_FORM_MIN_NP:
            log.append(p)
        return fn(p, n_agents)
    return wrapper


class TestSlopeKernel:
    def test_kernel_is_the_reference_assembly_bit_for_bit(self):
        # the float kernel against a fresh derive, endpoint_values and the
        # derivative terms, by ==: at p = 0 and 1, n*p < 1 (the series) and
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
            kernel, n = utility.slope_kernel(derive(pr), pr.H)(pr.gamma), pr.H
            for p in (0.0, 1.0, 0.85 / n, rng.random() / n, rng.random()):
                assert kernel(p) == oracles.slope_numerator(p, pr), (pr, p)
            th = tr.thresholds(pr)
            reference = oracles.gamma_to_probabilistic_by_reference(pr, th.to_no_sniping)
            assert th.to_probabilistic == reference, pr

    @settings(derandomize=True, database=None, deadline=None, max_examples=400)
    @given(st.data(), st.floats(-12.0, 1.0), st.floats(-12.0, 1.0), st.floats(-6.0, -0.001),
           st.floats(1.0, 60.0))
    def test_race_and_kernel_match_0_6_0_bit_for_bit(self, data, log_alpha, log_mu,
                                                      log_latency, gamma):
        # race.mm_loss gives the bits of 0.6.0's two race functions, and the
        # kernel those of 0.6.0's endpoint_values and _slope_kernel: at p = 0,
        # p = 1, the floats on either side of the cutoff and anywhere, at the
        # row's gamma and, at p = 1, at any gamma of K's search
        n = data.draw(st.one_of(st.integers(2, 2**53 - 1),
                                st.floats(1.0, 53.0).map(lambda e: max(2, int(2.0**e)))))
        at = race.CLOSED_FORM_MIN_NP / n
        while n * at < race.CLOSED_FORM_MIN_NP:
            at = math.nextafter(at, 1.0)
        while n * math.nextafter(at, 0.0) >= race.CLOSED_FORM_MIN_NP:
            at = math.nextafter(at, 0.0)
        p = data.draw(st.sampled_from([0.0, 1.0, math.nextafter(at, 0.0), min(at, 1.0),
                                       data.draw(st.floats(0.0, 1.0))]))
        alpha, mu = 10.0**log_alpha, 10.0**log_mu
        pr = GameParams(H=3, alpha=alpha, mu=mu, delta=10.0**log_latency / (alpha + mu),
                        gamma=gamma)
        d = derive(pr)  # d does not depend on H
        bits = lambda values: [float(v).hex() for v in values]  # noqa: E731
        old = oracles.mm_loss_prob_0_6_0(p, n), oracles.mm_loss_prob_deriv_0_6_0(p, n)
        assert bits(race.mm_loss(p, n)) == bits(old)
        h, dh = old
        bind = utility.slope_kernel(d, n)
        assert bits([bind(gamma)(p)]) == bits([oracles.slope_kernel_0_6_0(h, dh, d, d.q, n)[0]])
        lines = oracles.endpoint_values_0_6_0(h / (n - 1), h, d, d.q)
        assert bits(bind(gamma)(p, lines=True)) == bits(lines)
        h1, dh1 = race.mm_loss(1.0, n)
        g = data.draw(st.floats(1.0, 1e9))
        assert bits([bind(g)(1.0, h1, dh1)]) == bits(
            [oracles.slope_kernel_0_6_0(h1, dh1, d, g - 1.0, n)[0]])

    def test_probabilistic_row_work_counts(self, monkeypatch):
        # counts that host noise cannot move, over one h-sweep row at H = 2,000:
        # one derive and one kernel for the thresholds and the row, the
        # no-sniping closed form once, K's race values at p = 1 once (the
        # bisection's upper end and the point at p = 1 share them), the grid's
        # race values at p = 0 and at each bisection step once, each root
        # slope once per p, p* raced twice
        pr = GameParams(H=2000, alpha=0.45, mu=0.3, delta=0.5, gamma=3.0)
        built, derived, closed, kernels, calls, race_ps = [], [], [], [], [], []
        for cls in (GameParams, DerivedParams):
            monkeypatch.setattr(cls, "__post_init__", recording(built, cls.__post_init__))
        monkeypatch.setattr(tr, "derive", recording(derived, derive))
        monkeypatch.setattr(tr, "_no_sniping", recording(closed, tr._no_sniping))
        monkeypatch.setattr(utility, "slope_kernel",
                            recording(kernels, recording_kernels(calls, utility.slope_kernel)))
        monkeypatch.setattr(race, "mm_loss", recording(race_ps, race.mm_loss))
        row = tr.regime_rows(pr)(pr.gamma)
        assert row["regime"] == tr.PROBABILISTIC
        kinds = kernel_calls(calls, {pr.gamma})
        assert [type(obj).__name__ for obj in built] == ["DerivedParams"]
        assert len(derived) == len(kernels) == len(closed) == 1
        assert len(kinds["K"]) == len(set(kinds["K"])) > 0
        # the grid's slopes are its ends, then the bisection's steps toward
        # the cell of p*: 5 of the 24 inner points; the root's slopes lie off
        # the grid; the point at p* races its own p
        grid = scan_grid(2000)
        assert len(grid) == len(SCAN_GRID) + len(NP_POINTS)
        steps = [grid[i] for i in bisection_path(grid, row["p_star"])]
        assert len(steps) == 5
        assert kinds["scan"] == [0.0, 1.0, *steps]
        assert race_ps[:len(steps) + 2] == [1.0, 0.0, *steps]
        assert len(kinds["root"]) == len(set(kinds["root"])) > 0
        assert set(grid).isdisjoint(kinds["root"])
        assert kinds["point"] == [row["p_star"], 1.0]
        assert len(race_ps) == 2 + len(steps) + len(kinds["root"]) + 1
        assert race_ps.count(row["p_star"]) <= 2

    def test_gamma_sweep_races_the_scan_once(self, monkeypatch):
        # 20 probabilistic rows at one H race each grid point at most once in
        # all: p = 0 and the union of the rows' bisection steps, 11 of the 21
        # points (the full scan raced all 21 once, and 420 calls once per
        # row); p = 1 is K(gamma)'s; each row's point at p* races its own p,
        # and its u_sure point takes K(gamma)'s race values at p = 1
        pr = params(3.0)
        gammas = [3.0 + 0.2 * i for i in range(20)]
        race_ps, calls = [], []
        monkeypatch.setattr(race, "mm_loss", recording(race_ps, race.mm_loss))
        monkeypatch.setattr(utility, "slope_kernel", recording_kernels(calls, utility.slope_kernel))
        rows = list(map(tr.regime_rows(pr), gammas))
        assert {row["regime"] for row in rows} == {tr.PROBABILISTIC}
        points = kernel_calls(calls, set(gammas))["point"]
        assert points.count(1.0) == 20
        steps = {SCAN_GRID[i] for row in rows for i in bisection_path(SCAN_GRID, row["p_star"])}
        raced = [p for p in race_ps if p in SCAN_GRID]
        assert sorted(raced) == sorted({0.0, 1.0, *steps}) and len(raced) == 12
        # over the 641 rows of a gamma sweep through both thresholds, each
        # grid point is raced once, and the only race calls at p = 0
        # and p = 1 are K's and the grid's: the sure rows' points, the
        # probabilistic rows' u_sure and the bisection's upper end take K's
        # race values at p = 1, and the no-sniping rows' points the grid's
        # at p = 0 (0.7.0 made 643 at p = 1 and 95 at p = 0)
        del race_ps[:]
        rows = list(map(tr.regime_rows(pr), (1.0 + 0.0125 * i for i in range(641))))
        assert {row["regime"] for row in rows} == {tr.SURE, tr.PROBABILISTIC, tr.NO_SNIPING}
        assert [p for p in race_ps if p in (0.0, 1.0)] == [1.0, 0.0]
        raced = [p for p in race_ps if p in SCAN_GRID]
        assert sorted(raced) == SCAN_GRID  # p = 1 by K, every other point once

    @pytest.mark.parametrize("h", [2000, 5000, 10000])
    def test_large_h_p_star_builds_few_windows(self, h, monkeypatch):
        # near p* at H in the thousands n p is about 0.85, above
        # race.CLOSED_FORM_MIN_NP, so the root's iterates take the closed
        # forms: a cold optimal_sniping makes one race call below the
        # cutoff, which costs one step per series term, the grid's at p = 0,
        # where a cutoff at n p = 1 made 23-39.  Counts, not timings, so the
        # guard does not depend on the host's speed
        series = []
        monkeypatch.setattr(race, "mm_loss", below_cutoff(series, race.mm_loss))
        regime = tr.optimal_sniping(GameParams(H=h, alpha=0.45, mu=0.5, delta=0.5, gamma=4.0))
        assert regime.kind == tr.PROBABILISTIC
        assert 0.75 < h * regime.p_star < 1.0
        assert series == [0.0]

    def test_h_sweep_p_star_work(self, monkeypatch):
        # over an H sweep at the Fig. 7 rates and gamma 4, where p* lies
        # near 0.85/H (n p* in (0.75, 1), above race.CLOSED_FORM_MIN_NP), the
        # scan points c/H bracket p* on the n*p scale: a cold optimal_sniping
        # takes at most 14 p* slope evaluations (34 on average and up to 62
        # when the bracket was [0, 0.05]), and its only race call below the
        # cutoff, where the race sums one series term per step, is the scan's
        # at p = 0; every other race call, the root's iterates included, is a
        # closed form (a cutoff at n p = 1 made 23-39 below it).  Counts, not
        # timings, so the guard does not depend on the host's speed
        for h in range(2000, 10001, 500):
            calls, series = [], []
            with monkeypatch.context() as m:
                m.setattr(utility, "slope_kernel", recording_kernels(calls, utility.slope_kernel))
                m.setattr(race, "mm_loss", below_cutoff(series, race.mm_loss))
                regime = tr.optimal_sniping(params(4.0, H=h))
            assert regime.kind == tr.PROBABILISTIC, h
            assert 0.75 < h * regime.p_star < 1.0, (h, regime.p_star)
            slope_ps = kernel_calls(calls, {4.0})["root"]
            assert 0 < len(slope_ps) <= 14, (h, len(slope_ps))
            assert series == [0.0], (h, series)

    def test_h_sweep_threshold_work(self, monkeypatch):
        # K(gamma) is bracketed by [1, max(2, to_no_sniping)], where 0.6.0 took
        # [1, 10 to_no_sniping]: over the 16 rows H = 2,000-9,500 of an H
        # sweep at the Fig. 7 rates and gamma 4, a threshold takes 15.1 K
        # evaluations on average (241 in all), against 21.2 (339) with the
        # wider bracket.  A row makes 33.2 kernel calls, its two points of
        # indifference included, and 17.1 race calls, each of h and h' at
        # once (531 and 274 in all): the bisection takes the slope at p = 0,
        # at p = 1 from K's race values and at 5 of the 24 inner grid points,
        # where the full scan of 0.7.0 took all 26 (835 and 594; 610 race
        # calls before u_sure shared K's race values at p = 1); 0.6.0 made
        # 56.3 slope kernel calls and 74.3 race calls, 38.1 of h and 36.1 of
        # h'.  Counts, not timings, so the guard does not depend on the
        # host's speed
        k_steps, old_steps, kernels, races = [], [], [], []
        for h in range(2000, 9501, 500):
            pr = params(4.0, H=h)
            calls, race_ps = [], []
            with monkeypatch.context() as m:
                m.setattr(utility, "slope_kernel", recording_kernels(calls, utility.slope_kernel))
                m.setattr(race, "mm_loss", recording(race_ps, race.mm_loss))
                row = tr.regime_rows(pr)(pr.gamma)
            assert row["regime"] == tr.PROBABILISTIC, h
            k_steps.append(len(kernel_calls(calls, {pr.gamma})["K"]))
            kernels.append(len(calls))
            races.append(len(race_ps))
            old = []
            with monkeypatch.context() as m:
                m.setattr(oracles, "slope_kernel_0_6_0",
                          recording(old, oracles.slope_kernel_0_6_0, 3))
                oracles.thresholds_0_6_0(pr)
            old_steps.append(len(old))
        assert sum(old_steps) == 339
        assert sum(k_steps) <= 241 and max(k_steps) < min(old_steps)
        assert sum(kernels) <= 531 and sum(races) <= 274

    def test_scan_grid_per_h(self):
        # at H = 5 no point c/H falls inside (0, 0.05): a gamma sweep at the
        # paper's H bisects the 21 points of _SCAN_GRID alone
        assert tr._grid(5) == SCAN_GRID
        assert list(tr._SCAN_GRID) == SCAN_GRID
        for h in (16, 17, 160, 161, 2000, 10**6):
            assert tr._grid(h) == scan_grid(h), h
        assert len(scan_grid(16)) == 21 and len(scan_grid(161)) == 26
        # every point c/H races on the closed forms: n*p rounds to no less
        # than the cutoff (0.75/H would round below it at H = 5,000)
        assert 5000 * (0.75 / 5000) < race.CLOSED_FORM_MIN_NP
        for h in [*range(17, 20_001), 2**31 - 1, 2**53 - 1]:
            assert min(h * (c / h) for c in tr._NP_POINTS) >= race.CLOSED_FORM_MIN_NP, h
