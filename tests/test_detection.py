import logging
import math
from itertools import islice

import numpy as np
import pytest

from sniplab import detection as det, race, simulator as sim, transitions as tr, utility
from sniplab.params import GameParams, ValidationError, derive
from sniplab.race import Population

import oracles

MIX = GameParams(H=4, alpha=0.45, mu=0.3, delta=0.5, gamma=3.0)


def random_setup(rng):
    h = int(rng.integers(3, 9))
    hd = int(rng.integers(0, h - 1))
    alpha = rng.uniform(0.05, 2.0)
    mu = rng.uniform(0.05, 2.0)
    delta = rng.uniform(0.1, 0.9) / (alpha + mu)
    params = GameParams(
        H=h, alpha=alpha, mu=mu, delta=delta, gamma=rng.uniform(1.0, 8.0)
    )
    return (
        params,
        float(rng.uniform(0, 1)),
        Population(h - hd, hd),
        float(rng.uniform(0, 1)),
    )


class TestUtilityDistribution:
    def test_closure_over_random_draws(self):
        rng = np.random.default_rng(101)
        for _ in range(1000):
            params, p, pop, s = random_setup(rng)
            dist = det.utility_distribution(params, p, pop, s)
            assert math.isclose(sum(dist.probs), 1.0, rel_tol=0, abs_tol=1e-12)
            assert all(prob >= 0 for prob in dist.probs)

    def test_nine_support_points_generic(self):
        dist = det.utility_distribution(MIX, 0.3, Population(3, 1), 0.37)
        assert len(dist.support) == 9

    def test_degenerate_support_merged(self):
        # s = 1/2 collides s with 1-s, s+1 with 2-s, and -gamma*s with
        # -gamma*(1-s): nine values fold into six
        dist = det.utility_distribution(MIX, 0.3, Population(3, 1), 0.5)
        assert len(dist.support) == 6
        assert math.isclose(sum(dist.probs), 1.0, rel_tol=0, abs_tol=1e-12)

    def test_matches_enumeration(self):
        rng = np.random.default_rng(202)
        for _ in range(120):
            params, p, pop, s = random_setup(rng)
            closed = det.utility_distribution(params, p, pop, s)
            enum = oracles.utility_distribution_enum(params, p, pop, s)
            assert closed.support == pytest.approx(enum.support, abs=1e-12)
            assert closed.probs == pytest.approx(enum.probs, abs=1e-10)

    def test_support_holds_every_paid_utility_exactly(self):
        # the engine pays utility.payoffs and the law is built on them: the law
        # must hold those very floats, not values within SUPPORT_TOL of them
        rng = np.random.default_rng(303)
        for _ in range(300):
            params, p, pop, s = random_setup(rng)
            agents = sim.compliance_roster(pop, p, s)
            run = sim.run_repeated(agents, params, 1024, seed=int(rng.integers(2**32)))
            support = det.utility_distribution(params, p, pop, s).support
            paid = set(np.unique(run.utilities).tolist())
            assert paid <= set(support), (params, p, pop, s, paid - set(support))
            table = utility.payoffs(s, params.gamma)
            merged = []
            for value in sorted({0.0, *(v for row in table for v in row)}):
                if not merged or value - merged[-1] > det.SUPPORT_TOL:
                    merged.append(value)
            assert support == tuple(merged)
            chunks = sim._stage_chunks(agents, params, np.random.default_rng(0))
            next(chunks)
            engine, want = chunks.gi_frame.f_locals["table"], np.array(table)
            assert (engine.shape, engine.tobytes()) == (want.shape, want.tobytes())

    def test_sniper_loss_outcome_carries_full_news_mass(self):
        # the two reversal orderings both contribute; the halved variant is
        # rejected by the enumeration
        params, p, pop, s = MIX, 0.35, Population(3, 1), 0.4
        d = derive(params)
        win = p * race.win_prob_given_entry_mixed(p, pop)
        full = (params.H - 1) / params.H * d.alpha_bar * d.beta * win
        enum = oracles.utility_distribution_enum(params, p, pop, s)
        idx = enum.index_of(-params.gamma * s)
        assert enum.probs[idx] == pytest.approx(full, abs=1e-14)
        assert abs(enum.probs[idx] - full / 2) > 1e-4

    def test_compliance_reduction_sure_sniping(self):
        # with everyone sniping for sure, every nonzero sniper outcome must
        # aggregate the event table with the homogeneous race probabilities:
        # P(v) = (H-1)/H * g(1) * sum of P(event) over events paying v
        params = GameParams(H=5, alpha=0.45, mu=0.5, delta=0.5, gamma=2.0)
        s = 0.4
        dist = det.utility_distribution(params, 1.0, Population(5, 0), s)
        g = race.win_prob_given_entry(1.0, params.H)
        expected: dict[float, float] = {}
        for ev in utility.PAYOFF_TABLE:
            if not ev.has_race:
                continue
            value = utility.evaluate(ev.sniper, s, params.gamma)
            if value != 0.0:
                expected[value] = expected.get(value, 0.0) + utility.event_probability(
                    ev, params
                )
        assert len(expected) == 3
        for value, mass in expected.items():
            got = dist.probs[dist.index_of(value)]
            assert got == pytest.approx(
                (params.H - 1) / params.H * g * mass, abs=1e-12
            )

    def test_population_mismatch(self):
        with pytest.raises(ValidationError):
            det.utility_distribution(MIX, 0.5, Population(4, 1), 0.5)


class TestSprtThresholds:
    def test_symmetric(self):
        a, b = det.sprt_thresholds(0.05, 0.05)
        assert a == pytest.approx(-math.log(19), abs=1e-12)
        assert b == pytest.approx(math.log(19), abs=1e-12)

    def test_asymmetric(self):
        a, b = det.sprt_thresholds(0.01, 0.10)
        assert a == pytest.approx(-math.log(0.99 / 0.10), abs=1e-12)
        assert b == pytest.approx(math.log(0.90 / 0.01), abs=1e-12)

    def test_near_uninformative(self):
        a, b = det.sprt_thresholds(0.4999, 0.4999)
        assert -0.001 < a < 0 < b < 0.001

    @pytest.mark.parametrize("bad", [0.0, 0.5, 0.7, -0.1])
    def test_domain(self, bad):
        with pytest.raises(ValidationError):
            det.sprt_thresholds(bad, 0.05)
        with pytest.raises(ValidationError):
            det.sprt_thresholds(0.05, bad)


def scan_fold(stream, dist0, dist1, err_i, err_ii):
    """Wald's SPRT with every observation mapped through index_of: the
    reference for monitor_stream's exact-match table."""
    lower, upper = det.sprt_thresholds(err_i, err_ii)
    statistic, trajectory = 0.0, []
    for t, u in enumerate(stream, 1):
        try:
            i = dist0.index_of(u)
        except ValidationError as exc:
            raise ValidationError(f"stage {t}: {exc}") from exc
        p0, p1 = dist0.probs[i], dist1.probs[i]
        if p0 == p1 == 0.0:
            raise ValidationError(
                f"stage {t}: utility {u!r} impossible under both hypotheses"
            )
        previous = statistic
        if p0 == 0.0:
            statistic += math.inf
        else:
            statistic += -math.inf if p1 == 0.0 else math.log(p1 / p0)
        if statistic < lower:
            decision = det.ACCEPT_H0
        elif statistic > upper:
            decision = det.REJECT_H0
        else:
            decision = det.CONTINUE
        trajectory.append((t, u, statistic - previous, statistic, decision))
        if decision != det.CONTINUE:
            return det.MonitorResult(decision, t, statistic, trajectory)
    return det.MonitorResult(det.UNDECIDED, None, statistic, trajectory)


@pytest.fixture(scope="module")
def dists():
    regime = tr.optimal_sniping(MIX)
    d0 = det.utility_distribution(MIX, regime.p_star, Population(4, 0), regime.s_star)
    d1 = det.utility_distribution(MIX, regime.p_star, Population(3, 1), regime.s_star)
    return regime, d0, d1


class TestSprtStep:
    """One observation of monitor_stream, and the laws it accepts."""

    def test_equal_likelihood_no_move(self, dists):
        _, d0, _ = dists
        result = det.monitor_stream([d0.support[0]], d0, d0, 0.05, 0.05)
        assert result.trajectory == [(1, d0.support[0], 0.0, 0.0, det.CONTINUE)]
        assert result.statistic == 0.0

    def test_unmatched_utility(self, dists):
        _, d0, d1 = dists
        with pytest.raises(ValidationError, match="stage 1"):
            det.monitor_stream([123.456], d0, d1, 0.05, 0.05)

    def test_zero_probability_forces_decision(self, caplog):
        # when the null posits no sniping at all, a sniper outcome is
        # impossible under H0 but not under the alternative: observing one
        # must end the test at once, and symmetrically for an outcome only
        # the null allows
        s = 0.4
        d0 = det.utility_distribution(MIX, 0.0, Population(4, 0), s)
        d1 = det.utility_distribution(MIX, 0.5, Population(3, 1), s)
        cases = [(d0, d1, det.REJECT_H0, math.inf, "H0: forcing rejection"),
                 (d1, d0, det.ACCEPT_H0, -math.inf, "H1: forcing acceptance")]
        for null, alt, decision, statistic, message in cases:
            caplog.clear()
            with caplog.at_level(logging.WARNING, logger=det.__name__):
                result = det.monitor_stream([2.0 - s] * 3, null, alt, 0.05, 0.05)
            assert (result.decision, result.stopped_at) == (decision, 1)
            assert result.statistic == statistic
            assert result.trajectory == [(1, 2.0 - s, statistic, statistic, decision)]
            assert [r.getMessage() for r in caplog.records] == [
                f"outcome {2.0 - s!r} impossible under {message}"
            ]

    def test_impossible_under_both_hypotheses(self):
        # a monitored agent that never snipes cannot earn a sniper's utility
        s = 0.4
        d0 = det.utility_distribution(MIX, 0.0, Population(4, 0), s)
        d1 = det.utility_distribution(MIX, 0.0, Population(3, 1), s)
        with pytest.raises(ValidationError, match="stage 2: .* impossible under both"):
            det.monitor_stream([0.0, 2.0 - s], d0, d1, 0.05, 0.05)

    def test_laws_on_different_supports_refused(self):
        d0 = det.utility_distribution(MIX, 0.3, Population(4, 0), 0.4)
        d1 = det.utility_distribution(MIX, 0.3, Population(3, 1), 0.37)
        stream = iter([0.0])
        with pytest.raises(ValidationError, match="one support"):
            det.monitor_stream(stream, d0, d1, 0.05, 0.05)
        assert next(stream) == 0.0  # refused before any observation was read


class TestMonitorStream:
    def test_empty_stream(self, dists):
        _, d0, d1 = dists
        with pytest.raises(ValidationError):
            det.monitor_stream([], d0, d1, 0.05, 0.05)

    def test_constant_stream_deterministic_stopping(self, dists):
        _, d0, d1 = dists
        # feed the most H1-favouring outcome repeatedly
        ratios = [
            math.log(p1 / p0) for p0, p1 in zip(d0.probs, d1.probs) if p0 and p1
        ]
        values = [u for u, p0, p1 in zip(d0.support, d0.probs, d1.probs) if p0 and p1]
        best = max(range(len(ratios)), key=lambda i: ratios[i])
        _, b = det.sprt_thresholds(0.05, 0.05)
        expected_stop = math.floor(b / ratios[best]) + 1
        result = det.monitor_stream(
            [values[best]] * (expected_stop + 5), d0, d1, 0.05, 0.05
        )
        assert result.decision == det.REJECT_H0
        assert result.stopped_at == expected_stop

    def test_truncated_stream_undecided(self, dists):
        _, d0, d1 = dists
        result = det.monitor_stream([d0.support[0]] * 2, d0, d1, 0.05, 0.05)
        assert result.decision == det.UNDECIDED
        assert result.stopped_at is None
        assert len(result.trajectory) == 2

    def test_additivity(self, dists):
        _, d0, d1 = dists
        rng = np.random.default_rng(5)
        stream = list(rng.choice(d0.support, p=d0.probs, size=40))
        folded = det.monitor_stream(stream, d0, d1, 0.01, 0.01)
        statistic = 0.0
        for u in stream[: len(folded.trajectory)]:
            i = d0.index_of(u)
            statistic += math.log(d1.probs[i] / d0.probs[i])
        assert folded.statistic == statistic  # exact, same left-to-right sum
        assert folded.trajectory[-1][3] == statistic

    def test_deceptive_stream_rejected(self, dists):
        regime, d0, d1 = dists
        agents = sim.compliance_roster(Population(3, 1), regime.p_star, regime.s_star)
        rng = np.random.default_rng(20240812)
        stream = (
            out.utilities[0]
            for out in islice(sim.stage_stream(agents, MIX, rng), 20_000)
        )
        result = det.monitor_stream(stream, d0, d1, 0.05, 0.05)
        assert result.decision == det.REJECT_H0
        assert result.stopped_at < 20_000
        # trajectory rises towards the upper threshold on average
        assert result.trajectory[-1][3] > 0

    def test_compliant_stream_accepted(self, dists):
        regime, d0, d1 = dists
        agents = sim.compliance_roster(Population(4, 0), regime.p_star, regime.s_star)
        # seed drawn from a range where ~90% of streams accept; the error
        # rates themselves are covered by the acceptance suite
        rng = np.random.default_rng(20240814)
        stream = (
            out.utilities[0]
            for out in islice(sim.stage_stream(agents, MIX, rng), 50_000)
        )
        result = det.monitor_stream(stream, d0, d1, 0.05, 0.05)
        assert result.decision == det.ACCEPT_H0

    def test_unmatched_reports_stage(self, dists):
        _, d0, d1 = dists
        for bad in (42.0, d0.support[-1] + 2e-9, math.nan, math.inf):
            stream = [d0.support[0], d0.support[0], bad]
            with pytest.raises(ValidationError, match="stage 3: utility .* no support"):
                det.monitor_stream(stream, d0, d1, 0.05, 0.05)

    def test_table_matches_scan_fold(self):
        # merged supports (s at or within 1e-12 of 0 or 1) make the engine pay
        # values that match a support point only to SUPPORT_TOL, and some
        # observations are moved by 4e-10 or replaced by an off-support value
        rng = np.random.default_rng(404)
        edges = [0.0, 1.0, 1e-12, 1.0 - 1e-12]
        for k in range(200):
            params, p, pop, s = random_setup(rng)
            if k % 2:
                s = edges[k // 2 % 4]
            h0, h1 = Population(params.H, 0), Population(params.H - 1, 1)
            d0 = det.utility_distribution(params, p, h0, s)
            d1 = det.utility_distribution(params, p, h1, s)
            agents = sim.compliance_roster(pop, p, s)
            run = sim.run_repeated(agents, params, 300, seed=int(rng.integers(2**32)))
            stream = run.utilities[:, 0] + rng.choice(
                [0.0, 4e-10, -4e-10], p=[0.9, 0.05, 0.05], size=300
            )
            if k % 10 == 0:
                stream[rng.integers(300)] = rng.choice([math.nan, 3.5, -0.5])
            err_i, err_ii = rng.uniform(1e-4, 0.2, size=2)
            outcomes = []
            for fold in (det.monitor_stream, scan_fold):
                try:
                    outcomes.append(repr(fold(stream.tolist(), d0, d1, err_i, err_ii)))
                except ValidationError as exc:
                    outcomes.append(str(exc))
            assert outcomes[0] == outcomes[1], (params, p, pop, s)

    def test_near_value_folds_like_exact(self, dists):
        regime, d0, d1 = dists
        agents = sim.compliance_roster(Population(3, 1), regime.p_star, regime.s_star)
        rng = np.random.default_rng(8)
        stages = islice(sim.stage_stream(agents, MIX, rng), 3000)
        exact = [out.utilities[0] for out in stages]
        near = [u + (5e-10 if t % 2 else -5e-10) for t, u in enumerate(exact)]
        a = det.monitor_stream(exact, d0, d1, 0.05, 0.05)
        b = det.monitor_stream(near, d0, d1, 0.05, 0.05)
        assert (b.decision, b.stopped_at) == (a.decision, a.stopped_at)
        assert b.statistic == a.statistic
        assert [row[2:] for row in b.trajectory] == [row[2:] for row in a.trajectory]

    def test_negative_zero_folds_like_zero(self, dists):
        _, d0, d1 = dists
        a = det.monitor_stream([0.0] * 3, d0, d1, 0.05, 0.05)
        b = det.monitor_stream([-0.0, 0.0, -0.0], d0, d1, 0.05, 0.05)
        assert repr(b.statistic) == repr(a.statistic)
        assert repr([row[2:] for row in b.trajectory]) == repr(
            [row[2:] for row in a.trajectory]
        )

    @pytest.mark.parametrize("pop", [Population(4, 0), Population(3, 1)], ids=["H0", "H1"])
    def test_engine_utilities_need_no_scan(self, dists, monkeypatch, pop):
        # every utility the engine pays is exactly a support point, so the
        # exact-match table serves each observation of a long stream
        regime, d0, d1 = dists

        def no_scan(self, u):
            raise AssertionError(f"index_of scanned for {u!r}")

        monkeypatch.setattr(det.UtilityDistribution, "index_of", no_scan)
        agents = sim.compliance_roster(pop, regime.p_star, regime.s_star)
        rng = np.random.default_rng(12)
        stages = islice(sim.stage_stream(agents, MIX, rng), 2000)
        stream = (out.utilities[0] for out in stages)
        result = det.monitor_stream(stream, d0, d1, 1e-100, 1e-100)  # never stops
        assert result.decision == det.UNDECIDED
        assert len(result.trajectory) == 2000
