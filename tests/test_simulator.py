import csv
import math
from dataclasses import replace
from itertools import islice

import numpy as np
import pytest

from sniplab import race, simulator as sim, streams, transitions as tr, utility
from sniplab.params import GameParams, ValidationError, derive
from sniplab.race import Population

FIG7 = GameParams(H=5, alpha=0.45, mu=0.5, delta=0.5, gamma=3.5)
MIX = GameParams(H=4, alpha=0.45, mu=0.3, delta=0.5, gamma=3.0)


def roster(pop, p, spread):
    return sim.compliance_roster(pop, p, spread)


def _game(h):
    return GameParams(H=h, alpha=0.45, mu=0.3, delta=0.5, gamma=3.0)


def reference_stages(agents, params, n_stages, seed):
    """RNG contract 2 stage by stage in plain Python, from one (n, H+4) draw:
    (event index, market maker, winner or -1, utilities) per stage."""
    h, gamma, s = agents.pop.total, params.gamma, agents.spread
    snipe_probs = [agents.p] * agents.pop.trustworthy + [1.0] * agents.pop.deceptive
    d = derive(params)
    cut1 = [d.beta / 2, d.beta, d.beta + (1 - d.beta) / 2]
    cut2 = [d.alpha_bar, 2 * d.alpha_bar, 2 * d.alpha_bar + d.mu_bar,
            2 * (d.alpha_bar + d.mu_bar)]
    stages = []
    for u in np.random.default_rng(seed).random((n_stages, h + 4)).tolist():
        mm = int(u[0] * h)
        first = sum(u[1] >= c for c in cut1)
        event = 5 * first + sum(u[2] >= c for c in cut2)
        ev = utility.PAYOFF_TABLE[event]
        winner = -1
        if first < 2:  # news trigger: a race
            entrants = [mm] + [
                j for j in range(h) if j != mm and u[3 + j] < snipe_probs[j]
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

    def test_agent_validation(self):
        with pytest.raises(ValidationError, match=r"snipe_prob must lie in \[0, 1\] \(got 1.5\)"):
            roster(Population(4, 1), 1.5, 0.5)
        with pytest.raises(ValidationError, match=r"spread must lie in \[0, 1\] \(got -0.1\)"):
            roster(Population(4, 1), 0.5, -0.1)
        with pytest.raises(ValidationError, match="snipe_prob"):
            roster(Population(4, 1), math.nan, 0.5)
        with pytest.raises(ValidationError, match="at least 3 agents"):
            roster(Population(1, 1), 1.0, 0.5)

    def test_agent_ids_past_int16(self):
        # 33,000 agents: ids above 32,767 used to wrap in int16 arrays, and a
        # stage to pay another agent than its recorded maker; seed 15 draws
        # two makers above 32,767 in one chunk of 64 stages
        h, spread = 33_000, 0.5
        params = _game(h)
        run = sim.run_repeated(roster(Population(h, 0), 0.0001, spread), params, 64, seed=15)
        for ids in (run.mm_ids, run.winners[run.winners >= 0]):
            assert ((0 <= ids) & (ids < h)).all()
        assert (run.mm_ids >= 2**15).any()  # the draws reach the ids that wrapped
        table = utility.payoffs(spread, params.gamma)
        for event, mm, winner, utilities in zip(run.events, run.mm_ids, run.winners,
                                                run.utilities):
            want = np.zeros(h)
            want[mm] = table[event][2 if winner == mm else 0]
            if winner not in (-1, mm):
                want[winner] = table[event][1]
            assert np.array_equal(utilities, want)

    @pytest.mark.parametrize(
        "agents",
        [
            roster(Population(4, 1), 0.4, 0.6),
            roster(Population(5, 0), 0.0, 0.5),  # no entrant in any chunk
            roster(Population(5, 0), 1.0, 0.5),  # every agent enters
            roster(Population(3, 0), 0.5, 0.4),
            roster(Population(199, 1), 0.02, 0.3),
        ],
        ids=["H5-4+1", "p0", "p1", "H3", "H200-199+1"],
    )
    def test_matches_reference_stages(self, agents):
        params = _game(agents.pop.total)
        run = sim.run_repeated(agents, params, 2500, seed=13)
        for t, (event, mm, winner, utilities) in enumerate(
            reference_stages(agents, params, 2500, seed=13)
        ):
            assert (run.events[t], run.mm_ids[t], run.winners[t]) == (event, mm, winner)
            assert run.utilities[t].tolist() == utilities


def test_stage_law_is_built_once_per_roster_and_params(monkeypatch):
    # 20 fresh streams over one roster derive the rates and tabulate the
    # payoffs once; another spread or another gamma gets a law of its own
    calls = []

    def counted(fn):
        def wrapper(*args):
            calls.append(fn.__name__)
            return fn(*args)
        return wrapper

    monkeypatch.setattr(sim, "derive", counted(derive))
    monkeypatch.setattr(utility, "payoffs", counted(utility.payoffs))
    sim._stage_law.cache_clear()
    agents = roster(Population(3, 1), 0.4, 0.6)
    for seed in range(20):
        next(sim.stage_stream(agents, MIX, np.random.default_rng(seed)))
    assert calls == ["derive", "payoffs"]
    wider = roster(Population(3, 1), 0.4, 0.7)
    next(sim.stage_stream(wider, MIX, np.random.default_rng(0)))
    next(sim.stage_stream(agents, replace(MIX, gamma=3.5), np.random.default_rng(0)))
    assert calls == ["derive", "payoffs"] * 3
    for array in sim._stage_law(agents, MIX):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0


def test_equal_rosters_share_a_law_and_its_bits():
    # p = 1 where 1.0 was and a spread of -0.0 where 0.0 was: the rosters
    # compare equal, so they share one cached law, and whichever of them
    # builds it, the runs come out bit-identical
    pop = Population(3, 1)
    ints, floats = roster(pop, 1, -0.0), roster(pop, 1.0, 0.0)
    assert ints == floats
    runs = []
    for first, second in ((ints, floats), (floats, ints)):
        sim._stage_law.cache_clear()
        runs += [sim.run_repeated(r, MIX, 300, seed=4) for r in (first, second)]
        assert sim._stage_law.cache_info().misses == 1
    for name in ("utilities", "events", "mm_ids", "winners", "race_wins"):
        arrays = [getattr(run, name) for run in runs]
        assert len({(a.dtype, a.tobytes()) for a in arrays}) == 1, name


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
        d = derive(FIG7)
        for idx, ev in enumerate(utility.PAYOFF_TABLE):
            prob = utility.first_event_prob(ev, d) * utility.second_event_prob(ev.second, d)
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
        loss_prob = race.mixed_race(regime.p_star, Population(5, 0))[1]
        n = int(races.sum())
        se = math.sqrt(loss_prob * (1 - loss_prob) / n)
        assert abs(lost.sum() / n - loss_prob) < 4 * se


class TestAnalyticMeanUtility:
    """The mean of utility.utility_distribution, which simulate reports as
    analytic_mean, against u* and the engine."""

    def test_homogeneous_reduction_to_indifference(self):
        regime = tr.optimal_sniping(FIG7)
        got = utility.utility_distribution(
            FIG7, regime.p_star, Population(5, 0), regime.s_star, utility.TRUSTWORTHY
        ).mean
        assert got == pytest.approx(regime.u_star, abs=1e-12)

    def test_sure_sniping_reduction(self):
        point = tr.indifference_at(1.0, FIG7)
        got = utility.utility_distribution(
            FIG7, 1.0, Population(5, 0), point.s_star, utility.TRUSTWORTHY
        ).mean
        assert got == pytest.approx(point.u_star, abs=1e-12)

    def test_simulation_agreement_mixed(self):
        # one deceptive agent: both class means within 3 standard errors
        regime = tr.optimal_sniping(MIX)
        pop = Population(3, 1)
        agents = roster(pop, regime.p_star, regime.s_star)
        run = sim.run_repeated(agents, MIX, 100_000, seed=11)
        means = run.utilities.mean(axis=0)
        ses = run.utilities.std(axis=0, ddof=1) / math.sqrt(len(run.utilities))
        u_t, u_d = (
            utility.utility_distribution(MIX, regime.p_star, pop, regime.s_star, cls).mean
            for cls in (utility.TRUSTWORTHY, utility.DECEPTIVE)
        )
        for i in range(3):
            assert abs(means[i] - u_t) < 3 * ses[i]
        assert abs(means[3] - u_d) < 3 * ses[3]

    def test_unknown_class(self):
        with pytest.raises(ValidationError, match="unknown agent class"):
            utility.utility_distribution(FIG7, 0.5, Population(4, 1), 0.5, "rogue")


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
        ],
        ids=["H3", "H5-4+1", "H200"],
    )
    def test_matches_reference_writer(self, tmp_path, agents, n_stages):
        run = sim.run_repeated(agents, _game(agents.pop.total), n_stages, seed=8)
        got, want = tmp_path / "got.csv", tmp_path / "want.csv"
        sim.write_stream_csv(str(got), run)
        reference_write_stream_csv(str(want), run)
        assert got.read_bytes() == want.read_bytes()

    def test_any_run_matches_reference_writer(self, tmp_path, monkeypatch):
        # values run_repeated never writes, in every cell; the 400 stages
        # repeat 40 distinct ones, so a text formatted in one chunk is written
        # again in later ones.  Stages 0 and 1 differ only in a zero's sign,
        # stages 0 and 2 only in a NaN's payload
        run = sim.run_repeated(roster(Population(4, 1), 0.4, 0.6), _game(5), 400, seed=2)
        rng = np.random.default_rng(3)
        odd = np.array([0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, 1e16, 0.1])
        utilities = odd[rng.integers(len(odd), size=(40, 5))]
        events = rng.integers(20, size=40).astype(np.int8)
        mm_ids = rng.integers(5, size=40).astype(np.int16)
        utilities[0] = [0.0, 0.1, math.nan, -math.inf, 1e16]
        utilities[1:3] = utilities[0]
        utilities[1, 0] = -0.0
        utilities[2, 2:3].view(np.int64)[:] += 1  # another quiet NaN
        events[1:3], mm_ids[1:3] = events[0], mm_ids[0]
        stage = np.concatenate([np.arange(40), rng.integers(40, size=360)])
        run = replace(run, utilities=utilities[stage], events=events[stage],
                      mm_ids=mm_ids[stage])
        want = tmp_path / "want.csv"
        reference_write_stream_csv(str(want), run)
        # 1 stage a chunk, 2 stages a chunk, and the whole run in one chunk
        for chunk_rows in (5, 12, 1 << 15):
            monkeypatch.setattr(sim, "_CHUNK_ROWS", chunk_rows)
            got = tmp_path / f"got{chunk_rows}.csv"
            sim.write_stream_csv(str(got), run)
            assert got.read_bytes() == want.read_bytes(), chunk_rows
            lines = got.read_text().splitlines()
            assert lines[1].endswith(",0.0") and lines[6].endswith(",-0.0")  # agent 0

    def test_many_agents_with_signed_zeros_match_reference_writer(self, tmp_path):
        # at H = 200 most rows are copies of an event's zero rows; a -0.0 in
        # a bandit's cell or in the maker's, and a maker paid +0.0, are not
        agents = roster(Population(199, 1), 0.02, 0.3)
        run = sim.run_repeated(agents, _game(200), 300, seed=8)
        utilities = run.utilities.copy()
        mm = run.mm_ids.tolist()
        utilities[0, (mm[0] + 1) % 200] = -0.0
        utilities[1, mm[1]] = -0.0
        utilities[2, mm[2]] = 0.0
        run = replace(run, utilities=utilities)
        got, want = tmp_path / "got.csv", tmp_path / "want.csv"
        sim.write_stream_csv(str(got), run)
        reference_write_stream_csv(str(want), run)
        assert got.read_bytes() == want.read_bytes()
        lines = got.read_text().splitlines()[1:]
        assert lines[(mm[0] + 1) % 200].endswith(",bandit,{},-0.0".format(
            utility.PAYOFF_TABLE[run.events[0]].code))
        assert lines[200 + mm[1]].endswith(",-0.0") and ",mm," in lines[200 + mm[1]]
        assert lines[400 + mm[2]].endswith(",0.0") and ",mm," in lines[400 + mm[2]]

    def test_each_distinct_stage_is_formatted_once(self, tmp_path, monkeypatch):
        # 3,000 stages in 15 chunks of 200: a stage text is formatted once per
        # file, not once per chunk it appears in
        regime = tr.optimal_sniping(_game(5))
        run = sim.run_repeated(roster(Population(4, 1), regime.p_star, regime.s_star),
                               _game(5), 3000, seed=4)
        formatted = []

        def counted(key, *rest):
            formatted.append(key)
            return stage_tail(key, *rest)

        stage_tail = sim._stage_tail
        monkeypatch.setattr(sim, "_stage_tail", counted)
        monkeypatch.setattr(sim, "_CHUNK_ROWS", 1000)
        got, want = tmp_path / "got.csv", tmp_path / "want.csv"
        sim.write_stream_csv(str(got), run)
        reference_write_stream_csv(str(want), run)
        assert got.read_bytes() == want.read_bytes()
        distinct = set(zip(run.mm_ids.tolist(), run.events.tolist(), map(bytes, run.utilities)))
        assert len(formatted) == len(set(formatted)) == len(distinct)
        assert 20 < len(distinct) < 2 * 200  # within the dict's bound
