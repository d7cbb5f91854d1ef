import csv
import math
from dataclasses import replace
from itertools import islice

import numpy as np
import pytest

from sniplab import race, simulator as sim, streams, transitions as tr, utility
from sniplab.params import GameParams, ValidationError, derive
from sniplab.race import Population
from sniplab.simulator import AgentConfig

FIG7 = GameParams(H=5, alpha=0.45, mu=0.5, delta=0.5, gamma=3.5)
MIX = GameParams(H=4, alpha=0.45, mu=0.3, delta=0.5, gamma=3.0)


def roster(pop, p, spread):
    return sim.compliance_roster(pop, p, spread)


def _game(h):
    return GameParams(H=h, alpha=0.45, mu=0.3, delta=0.5, gamma=3.0)


TIED_AT_ZERO = (
    AgentConfig(0.5, 0.0),
    AgentConfig(0.7, 0.0),
    AgentConfig(0.3, 0.6),
    AgentConfig(1.0, 0.0),
)


def reference_stages(agents, params, n_stages, seed):
    """RNG contract 2 stage by stage in plain Python, from one (n, H+4) draw:
    (event index, market maker, winner or -1, utilities) per stage."""
    h, gamma = len(agents), params.gamma
    d = derive(params)
    cut1 = [d.beta / 2, d.beta, d.beta + (1 - d.beta) / 2]
    cut2 = [d.alpha_bar, 2 * d.alpha_bar, 2 * d.alpha_bar + d.mu_bar,
            2 * (d.alpha_bar + d.mu_bar)]
    s = min(a.spread for a in agents)
    candidates = [i for i, a in enumerate(agents) if a.spread == s]
    stages = []
    for u in np.random.default_rng(seed).random((n_stages, h + 4)).tolist():
        mm = candidates[int(u[0] * len(candidates))]
        first = sum(u[1] >= c for c in cut1)
        event = 5 * first + sum(u[2] >= c for c in cut2)
        ev = utility.PAYOFF_TABLE[event]
        winner = -1
        if first < 2:  # news trigger: a race
            entrants = [mm] + [
                j for j in range(h) if j != mm and u[3 + j] < agents[j].snipe_prob
            ]
            winner = entrants[int(u[h + 3] * len(entrants))]
        utilities = [0.0] * h
        if winner == mm:
            utilities[mm] = utility.evaluate(ev.mm_if_wins, s, gamma)
        else:
            utilities[mm] = utility.evaluate(ev.mm_if_loses, s, gamma)
        if winner not in (-1, mm):
            utilities[winner] = utility.evaluate(ev.sniper, s, gamma)
        stages.append((event, mm, winner, utilities))
    return stages


class TestPlayStage:
    """How one stage is played, read from run_repeated's arrays."""

    def test_no_snipers_news_trigger(self):
        agents = roster(Population(5, 0), 0.0, 0.5)
        run = sim.run_repeated(agents, FIG7, 3000, seed=0)
        news = run.events < 10  # NG or NB trigger
        assert news.any()
        assert (run.winners[news] == run.mm_ids[news]).all()

    def test_lt_trigger_no_race(self):
        agents = roster(Population(5, 0), 1.0, 0.5)
        run = sim.run_repeated(agents, FIG7, 3000, seed=1)
        quiet = run.events >= 10  # LA or LB trigger
        assert quiet.any()
        assert (run.winners[quiet] == -1).all()
        bandits = run.utilities[quiet].copy()
        bandits[np.arange(int(quiet.sum())), run.mm_ids[quiet]] = 0.0
        assert (bandits == 0.0).all()

    def test_min_spread_poster_becomes_mm(self):
        agents = (
            AgentConfig(0.5, 0.7),
            AgentConfig(0.5, 0.3),
            AgentConfig(0.5, 0.7),
        )
        pr = GameParams(H=3, alpha=0.45, mu=0.5, delta=0.5, gamma=2.0)
        run = sim.run_repeated(agents, pr, 3000, seed=2)
        assert (run.mm_ids == 1).all()

    def test_agent_validation(self):
        with pytest.raises(ValidationError):
            AgentConfig(1.5, 0.5)
        with pytest.raises(ValidationError):
            AgentConfig(0.5, -0.1)
        with pytest.raises(ValidationError, match="at least 3 agents"):
            sim.run_repeated((AgentConfig(1, 0.5),) * 2, FIG7, 10, 0)

    @pytest.mark.parametrize(
        "agents",
        [roster(Population(4, 1), 0.4, 0.6), TIED_AT_ZERO],
        ids=["H5-4+1", "tied-min-spread-0"],
    )
    def test_matches_reference_stages(self, agents):
        params = _game(len(agents))
        run = sim.run_repeated(agents, params, 2500, seed=13)
        for t, (event, mm, winner, utilities) in enumerate(
            reference_stages(agents, params, 2500, seed=13)
        ):
            assert (run.events[t], run.mm_ids[t], run.winners[t]) == (event, mm, winner)
            assert run.utilities[t].tolist() == utilities


@pytest.fixture(scope="module")
def long_mix_run():
    agents = roster(Population(3, 1), 0.4, 0.6)
    return agents, sim.run_repeated(agents, MIX, 4000, seed=31)


class TestRunRepeated:
    def test_bounds(self):
        agents = roster(Population(5, 0), 0.3, 0.5)
        with pytest.raises(ValidationError):
            sim.run_repeated(agents, FIG7, 0, seed=1)
        run = sim.run_repeated(agents, FIG7, 1, seed=1)
        assert run.utilities.shape == (1, 5)

    def test_bit_identical_reruns(self):
        agents = roster(Population(4, 1), 0.3, 0.5)
        pr = GameParams(H=5, alpha=0.45, mu=0.3, delta=0.5, gamma=3.0)
        a = sim.run_repeated(agents, pr, 4000, seed=123)
        b = sim.run_repeated(agents, pr, 4000, seed=123)
        assert np.array_equal(a.utilities, b.utilities)
        assert np.array_equal(a.events, b.events)
        assert np.array_equal(a.mm_ids, b.mm_ids)
        assert np.array_equal(a.winners, b.winners)
        c = sim.run_repeated(agents, pr, 4000, seed=124)
        assert not np.array_equal(a.utilities, c.utilities)

    def test_stream_is_a_prefix_of_the_run(self):
        # 2,500 stages span six chunks of the engine (64, 128, ..., 1,024, 1,024)
        agents = roster(Population(3, 1), 0.4, 0.6)
        run = sim.run_repeated(agents, MIX, 2500, seed=9)
        stream = sim.stage_stream(agents, MIX, np.random.default_rng(9))
        for t, out in enumerate(islice(stream, 2500)):
            assert out.utilities == run.utilities[t].tolist()

    @pytest.mark.parametrize(
        "n_stages", [1, 63, 64, 65, 191, 192, 193, 1983, 1984, 1985, 3009]
    )
    def test_chunk_boundaries_do_not_shift_the_draws(self, long_mix_run, n_stages):
        # chunks end after 64, 192, 448, 960, 1,984 and 3,008 stages
        agents, full = long_mix_run
        run = sim.run_repeated(agents, MIX, n_stages, seed=31)
        for name in ("utilities", "events", "mm_ids", "winners"):
            got, want = getattr(run, name), getattr(full, name)[:n_stages]
            assert (got.dtype, got.tobytes()) == (want.dtype, want.tobytes()), name
        stream = sim.stage_stream(agents, MIX, np.random.default_rng(31))
        outs = list(islice(stream, n_stages))
        assert [o.utilities for o in outs] == run.utilities.tolist()

    def test_totals_are_stagewise_sums(self):
        agents = roster(Population(5, 0), 0.3, 0.5)
        run = sim.run_repeated(agents, FIG7, 2000, seed=3)
        assert run.race_wins.tolist() == [int((run.winners == a).sum()) for a in range(5)]
        assert run.race_wins.sum() == (run.winners >= 0).sum()

    def test_no_race_stage_only_mm_paid(self):
        agents = roster(Population(5, 0), 0.7, 0.5)
        run = sim.run_repeated(agents, FIG7, 5000, seed=4)
        quiet = run.winners < 0
        nonzero = run.utilities[quiet] != 0.0
        assert (nonzero.sum(axis=1) <= 1).all()
        rows = np.nonzero(nonzero)
        assert (run.mm_ids[quiet][rows[0]] == rows[1]).all()

    def test_race_stage_pays_only_mm_and_winner(self):
        agents = roster(Population(4, 1), 0.6, 0.5)
        pr = GameParams(H=5, alpha=0.45, mu=0.3, delta=0.5, gamma=3.0)
        run = sim.run_repeated(agents, pr, 5000, seed=6)
        races = run.winners >= 0
        nonzero = run.utilities[races] != 0.0
        allowed = np.zeros_like(nonzero)
        idx = np.arange(int(races.sum()))
        allowed[idx, run.mm_ids[races]] = True
        allowed[idx, run.winners[races]] = True
        assert not (nonzero & ~allowed).any()


@pytest.fixture(scope="module")
def big_run():
    regime = tr.optimal_sniping(FIG7)
    agents = roster(Population(5, 0), regime.p_star, regime.s_star)
    return regime, sim.run_repeated(agents, FIG7, 200_000, seed=20240810)


class TestEmpiricalFrequencies:
    def test_event_frequencies(self, big_run):
        _, run = big_run
        n = len(run.utilities)
        counts = np.bincount(run.events, minlength=20)
        for idx, ev in enumerate(utility.PAYOFF_TABLE):
            prob = utility.event_probability(ev, FIG7)
            se = math.sqrt(prob * (1 - prob) / n)
            assert abs(counts[idx] / n - prob) < 4 * se, ev.code

    def test_race_entry_frequency(self, big_run):
        # agent 0's entries into the races another agent makes, from the
        # entry mask of the engine's chunks
        regime, _ = big_run
        agents = roster(Population(5, 0), regime.p_star, regime.s_star)
        chunks = sim._stage_chunks(agents, FIG7, np.random.default_rng(77))
        entered = total = 0
        for _, mm_ids, winners, _, entries in islice(chunks, 40):
            others = (winners >= 0) & (mm_ids != 0)
            total += int(others.sum())
            entered += int(entries[others, 0].sum())
        p = regime.p_star
        se = math.sqrt(p * (1 - p) / total)
        assert abs(entered / total - p) < 4 * se

    def test_mm_loses_frequency(self, big_run):
        regime, run = big_run
        races = run.winners >= 0
        lost = races & (run.winners != run.mm_ids)
        loss_prob = race.mm_loss_prob_mixed(regime.p_star, Population(5, 0))
        n = int(races.sum())
        se = math.sqrt(loss_prob * (1 - loss_prob) / n)
        assert abs(lost.sum() / n - loss_prob) < 4 * se


class TestAnalyticMeanUtility:
    def test_homogeneous_reduction_to_indifference(self):
        regime = tr.optimal_sniping(FIG7)
        got = sim.analytic_mean_utility(
            sim.TRUSTWORTHY, regime.p_star, regime.s_star, Population(5, 0), FIG7
        )
        assert got == pytest.approx(regime.u_star, abs=1e-12)

    def test_sure_sniping_reduction(self):
        point = tr.indifference_at(1.0, FIG7)
        got = sim.analytic_mean_utility(
            sim.TRUSTWORTHY, 1.0, point.s_star, Population(5, 0), FIG7
        )
        assert got == pytest.approx(point.u_star, abs=1e-12)

    def test_simulation_agreement_mixed(self):
        # one deceptive agent: both class means within 3 standard errors
        regime = tr.optimal_sniping(MIX)
        pop = Population(3, 1)
        agents = roster(pop, regime.p_star, regime.s_star)
        run = sim.run_repeated(agents, MIX, 100_000, seed=11)
        means = run.utilities.mean(axis=0)
        ses = run.utilities.std(axis=0, ddof=1) / math.sqrt(len(run.utilities))
        u_t = sim.analytic_mean_utility(
            sim.TRUSTWORTHY, regime.p_star, regime.s_star, pop, MIX
        )
        u_d = sim.analytic_mean_utility(
            sim.DECEPTIVE, regime.p_star, regime.s_star, pop, MIX
        )
        for i in range(3):
            assert abs(means[i] - u_t) < 3 * ses[i]
        assert abs(means[3] - u_d) < 3 * ses[3]

    def test_unknown_class(self):
        with pytest.raises(ValidationError):
            sim.analytic_mean_utility("rogue", 0.5, 0.5, Population(4, 1), FIG7)


def reference_write_stream_csv(path, run):
    """Row-by-row csv.writer stream writer: the bytes write_stream_csv must match."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["stage", "agent_id", "role", "event", "utility"])
        codes = [ev.code for ev in utility.PAYOFF_TABLE]
        for t in range(len(run.utilities)):
            mm = run.mm_ids[t]
            code = codes[run.events[t]]
            for a in range(run.utilities.shape[1]):
                writer.writerow(
                    [
                        t,
                        a,
                        "mm" if a == mm else "bandit",
                        code,
                        repr(float(run.utilities[t, a])),
                    ]
                )


class TestStreamCsv:
    def test_roundtrip(self, tmp_path):
        agents = roster(Population(3, 1), 0.4, 0.6)
        run = sim.run_repeated(agents, MIX, 50, seed=5)
        path = tmp_path / "stream.csv"
        sim.write_stream_csv(str(path), run)
        for agent_id in (0, 3):
            stream = list(streams.iter_stream_csv(str(path), agent_id))
            assert stream == [float(u) for u in run.utilities[:, agent_id]]
        with pytest.raises(ValidationError):
            list(streams.iter_stream_csv(str(path), 9))

    @pytest.mark.parametrize(
        "agents, n_stages",
        [
            (roster(Population(3, 0), 0.5, 0.4), 3000),
            (roster(Population(4, 1), 0.4, 0.6), 3000),
            (roster(Population(200, 0), 0.02, 0.3), 2000),
            (TIED_AT_ZERO, 3000),
        ],
        ids=["H3", "H5-4+1", "H200", "tied-min-spread-0"],
    )
    def test_matches_reference_writer(self, tmp_path, agents, n_stages):
        run = sim.run_repeated(agents, _game(len(agents)), n_stages, seed=8)
        if agents is TIED_AT_ZERO:  # the market maker is drawn among three
            assert set(run.mm_ids.tolist()) == {0, 1, 3}
        got, want = tmp_path / "got.csv", tmp_path / "want.csv"
        sim.write_stream_csv(str(got), run)
        reference_write_stream_csv(str(want), run)
        assert got.read_bytes() == want.read_bytes()

    def test_any_run_matches_reference_writer(self, tmp_path, monkeypatch):
        # values run_repeated never writes, in every cell, across many chunks
        run = sim.run_repeated(roster(Population(4, 1), 0.4, 0.6), _game(5), 400, seed=2)
        rng = np.random.default_rng(3)
        odd = np.array([0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, 1e16, 0.1])
        utilities = odd[rng.integers(len(odd), size=run.utilities.shape)]
        run = replace(
            run,
            utilities=utilities,
            events=rng.integers(20, size=400).astype(np.int8),
            mm_ids=rng.integers(5, size=400).astype(np.int16),
        )
        monkeypatch.setattr(sim, "_CHUNK_ROWS", 12)  # two stages a chunk
        got, want = tmp_path / "got.csv", tmp_path / "want.csv"
        sim.write_stream_csv(str(got), run)
        reference_write_stream_csv(str(want), run)
        assert got.read_bytes() == want.read_bytes()
        assert b",-0.0\n" in got.read_bytes()
