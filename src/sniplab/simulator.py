"""Monte Carlo engine for the stage game and its repetition.

Every stage is one traversal of the sequential game tree, starting from a zero
position: a market maker is selected, a trigger event arrives, at most one
further event falls inside the race window, the race (if any) is resolved and
per-agent utilities are assigned from the payoff table.

Reproducibility contract: a run consumes randomness from a seeded
``numpy.random.Generator`` in a fixed order per stage:

1. market-maker selection -- one ``integers`` draw among minimal-spread posters
   (skipped when a single agent posts the minimum);
2. trigger event -- one uniform, split NG/NB/LA/LB with probabilities
   beta/2, beta/2, (1-beta)/2, (1-beta)/2;
3. second event -- one uniform, split NG/NB/LA/LB/NO with probabilities
   alpha_bar, alpha_bar, mu_bar, mu_bar, remainder;
4. race-entry decisions -- only on a news trigger, one uniform per non-market-
   maker agent, consumed in increasing agent-id order (deceptive agents with
   probability 1 consume a draw like everyone else);
5. winner -- only on a news trigger, one ``integers`` draw among the entrants.

Identical (agents, params, n_stages, seed) therefore yield bit-identical
utility streams.

Stream files (``write_stream_csv``) hold one row per stage and agent, in stage
order and, within a stage, in agent-id order, with floats written by ``repr``.
``iter_stream_csv`` reads one agent's utilities lazily, so a sequential test
reads only up to its decision; it refuses a malformed stream (bad header,
stage gap, duplicated or out-of-order stage, missing agent) with
``ValidationError`` once it reaches the defect.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from . import race, utility
from .params import GameParams, ValidationError, derive
from .race import Population

TRUSTWORTHY = "trustworthy"
DECEPTIVE = "deceptive"


@dataclass(frozen=True)
class AgentConfig:
    """One simulated trader: sniping probability and posted spread."""

    agent_id: int
    snipe_prob: float
    spread: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.snipe_prob <= 1.0:
            raise ValidationError(
                f"snipe_prob must lie in [0, 1] (got {self.snipe_prob})"
            )
        if not 0.0 <= self.spread <= 1.0:
            raise ValidationError(f"spread must lie in [0, 1] (got {self.spread})")


@dataclass(frozen=True)
class StageOutcome:
    """Resolution of one stage game."""

    event: str
    mm_id: int
    entrants: tuple[int, ...]
    winner: int | None
    utilities: tuple[float, ...]


@dataclass(frozen=True)
class RunStats:
    """Aggregates of one repeated run (summation in stage order)."""

    total_utility: np.ndarray
    race_wins: np.ndarray
    n_stages: int
    seed: int


@dataclass(frozen=True)
class SimRun:
    """Full record of a repeated run: per-stage streams plus aggregates."""

    agents: tuple[AgentConfig, ...]
    params: GameParams
    seed: int
    utilities: np.ndarray  # (n_stages, n_agents)
    events: np.ndarray     # (n_stages,) index into utility.PAYOFF_TABLE
    mm_ids: np.ndarray     # (n_stages,)
    winners: np.ndarray    # (n_stages,), -1 when no race
    stats: RunStats


class _StageSampler:
    """Precomputed thresholds and utility lookups for one agent roster."""

    def __init__(self, agents: Sequence[AgentConfig], params: GameParams):
        if len(agents) < 3:
            raise ValidationError(f"need at least 3 agents (got {len(agents)})")
        if [a.agent_id for a in agents] != list(range(len(agents))):
            raise ValidationError("agent ids must be 0..n-1 in order")
        self.agents = tuple(agents)
        self.params = params
        d = derive(params)
        self.beta = d.beta
        self.cut_ng = d.beta / 2
        self.cut_nb = d.beta
        self.cut_la = d.beta + (1.0 - d.beta) / 2
        self.cut2 = (
            d.alpha_bar,
            2 * d.alpha_bar,
            2 * d.alpha_bar + d.mu_bar,
            2 * (d.alpha_bar + d.mu_bar),
        )
        min_spread = min(a.spread for a in agents)
        self.mm_candidates = [a.agent_id for a in agents if a.spread == min_spread]
        self.snipe_probs = np.array([a.snipe_prob for a in agents])
        self.others = [
            [j for j in range(len(agents)) if j != i] for i in range(len(agents))
        ]
        # utility of (event, outcome-column) at the market maker's spread
        self.u_cols = {}
        for a in agents:
            key = a.spread
            if key in self.u_cols:
                continue
            tbl = np.zeros((len(utility.PAYOFF_TABLE), 3))
            for idx, ev in enumerate(utility.PAYOFF_TABLE):
                tbl[idx, 0] = utility.evaluate(ev.mm_if_loses, key, params.gamma)
                tbl[idx, 1] = utility.evaluate(ev.sniper, key, params.gamma)
                tbl[idx, 2] = utility.evaluate(ev.mm_if_wins, key, params.gamma)
            self.u_cols[key] = tbl

    def draw(self, rng: np.random.Generator):
        """One stage in the documented draw order.

        Returns (event_index, mm_id, entrants, winner); winner is None
        without a race, entrants is an empty tuple then.
        """
        if len(self.mm_candidates) == 1:
            mm = self.mm_candidates[0]
        else:
            mm = self.mm_candidates[int(rng.integers(len(self.mm_candidates)))]
        u1 = rng.random()
        if u1 < self.cut_ng:
            first = 0  # NG
        elif u1 < self.cut_nb:
            first = 1  # NB
        elif u1 < self.cut_la:
            first = 2  # LA
        else:
            first = 3  # LB
        u2 = rng.random()
        c = self.cut2
        if u2 < c[0]:
            second = 0
        elif u2 < c[1]:
            second = 1
        elif u2 < c[2]:
            second = 2
        elif u2 < c[3]:
            second = 3
        else:
            second = 4  # NO
        event_idx = 5 * first + second
        if first >= 2:  # liquidity trigger: no race
            return event_idx, mm, (), None
        others = self.others[mm]
        draws = rng.random(len(others))
        entrants = [mm] + [
            j for j, u in zip(others, draws) if u < self.snipe_probs[j]
        ]
        winner = entrants[int(rng.integers(len(entrants)))]
        return event_idx, mm, tuple(entrants), winner


def play_stage(
    agents: Sequence[AgentConfig], params: GameParams, rng: np.random.Generator
) -> StageOutcome:
    """Play a single stage game, consuming randomness from rng."""
    sampler = _StageSampler(agents, params)
    return _resolve(sampler, *sampler.draw(rng))


def _resolve(sampler: _StageSampler, event_idx, mm, entrants, winner) -> StageOutcome:
    cols = sampler.u_cols[sampler.agents[mm].spread]
    utilities = [0.0] * len(sampler.agents)
    if winner is None:
        utilities[mm] = cols[event_idx, 0]
    elif winner == mm:
        utilities[mm] = cols[event_idx, 2]
    else:
        utilities[mm] = cols[event_idx, 0]
        utilities[winner] = cols[event_idx, 1]
    return StageOutcome(
        event=utility.PAYOFF_TABLE[event_idx].code,
        mm_id=mm,
        entrants=entrants,
        winner=winner,
        utilities=tuple(utilities),
    )


def stage_stream(
    agents: Sequence[AgentConfig], params: GameParams, rng: np.random.Generator
) -> Iterator[StageOutcome]:
    """Endless stream of independent stage games (shared roster and rng)."""
    sampler = _StageSampler(agents, params)
    while True:
        yield _resolve(sampler, *sampler.draw(rng))


def run_repeated(
    agents: Sequence[AgentConfig], params: GameParams, n_stages: int, seed: int
) -> SimRun:
    """Repeat the stage game n_stages times from a fresh seeded generator."""
    if n_stages < 1:
        raise ValidationError(f"n_stages must be >= 1 (got {n_stages})")
    sampler = _StageSampler(agents, params)
    rng = np.random.default_rng(seed)
    n_agents = len(agents)
    utilities = np.zeros((n_stages, n_agents))
    events = np.zeros(n_stages, dtype=np.int8)
    mm_ids = np.zeros(n_stages, dtype=np.int16)
    winners = np.full(n_stages, -1, dtype=np.int16)
    race_wins = np.zeros(n_agents, dtype=np.int64)
    for t in range(n_stages):
        event_idx, mm, entrants, winner = sampler.draw(rng)
        events[t] = event_idx
        mm_ids[t] = mm
        cols = sampler.u_cols[sampler.agents[mm].spread]
        if winner is None:
            utilities[t, mm] = cols[event_idx, 0]
        else:
            winners[t] = winner
            race_wins[winner] += 1
            if winner == mm:
                utilities[t, mm] = cols[event_idx, 2]
            else:
                utilities[t, mm] = cols[event_idx, 0]
                utilities[t, winner] = cols[event_idx, 1]
    stats = RunStats(
        total_utility=utilities.sum(axis=0),
        race_wins=race_wins,
        n_stages=n_stages,
        seed=seed,
    )
    return SimRun(
        agents=tuple(agents),
        params=params,
        seed=seed,
        utilities=utilities,
        events=events,
        mm_ids=mm_ids,
        winners=winners,
        stats=stats,
    )


def compliance_roster(
    pop: Population, p: float, spread: float
) -> tuple[AgentConfig, ...]:
    """Agents 0..H_t-1 trustworthy (snipe at p), the rest deceptive (snipe
    for sure); everyone advertises the same spread."""
    trusty = [AgentConfig(i, p, spread) for i in range(pop.trustworthy)]
    rogue = [
        AgentConfig(pop.trustworthy + i, 1.0, spread) for i in range(pop.deceptive)
    ]
    return tuple(trusty + rogue)


def analytic_mean_utility(
    agent_class: str, p: float, s: float, pop: Population, params: GameParams
) -> float:
    """Expected per-stage utility of one agent class under the mixed roster.

    Combines the class's market-maker and bandit utility lines with the
    uniform 1/H chance of being selected as market maker.  The trustworthy
    side uses the mixed race probabilities; the deceptive side uses the
    analogous probabilities from the deceptive agent's viewpoint (he always
    races, facing the remaining sure snipers plus binomial trustworthy
    entrants).
    """
    if pop.total != params.H:
        raise ValidationError(f"population of {pop.total} does not match H={params.H}")
    d = derive(params)
    if agent_class == TRUSTWORTHY:
        win = p * race.win_prob_given_entry_mixed(p, pop)
        loss = race.mm_loss_prob_mixed(p, pop)
    elif agent_class == DECEPTIVE:
        win = race.win_prob_given_entry_mixed_deceptive(p, pop)
        loss = race.mm_loss_prob_mixed_deceptive(p, pop)
    else:
        raise ValidationError(f"unknown agent class {agent_class!r}")
    ep = utility.endpoints_from_race_probs(win, loss, d)
    h = pop.total
    return (
        utility.utility_line(ep, "mm", s)
        + (h - 1) * utility.utility_line(ep, "bandit", s)
    ) / h


_HEADER = "stage,agent_id,role,event,utility"
# Rows formatted per write: memory stays flat however many stages a run has.
_CHUNK_ROWS = 1 << 16


def write_stream_csv(path: str, run: SimRun) -> None:
    """Newline-delimited utility stream: stage, agent_id, role, event, utility.

    Rows run in stage order and, within a stage, in agent-id order; floats
    are written with repr.  Stages that share market maker, event and
    utility bits share one text, so each distinct stage of a chunk is
    formatted once.
    """
    n_stages, n_agents = run.stats.n_stages, len(run.agents)
    codes = [ev.code for ev in utility.PAYOFF_TABLE]
    chunk = max(1, _CHUNK_ROWS // n_agents)
    keys = np.empty((min(chunk, n_stages), n_agents + 2), dtype=np.int64)
    key_type = np.dtype((np.void, keys.itemsize * keys.shape[1]))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(_HEADER + "\n")
        for start in range(0, n_stages, chunk):
            stop = min(start + chunk, n_stages)
            block = keys[: stop - start]
            block[:, 0] = run.mm_ids[start:stop]
            block[:, 1] = run.events[start:stop]
            # the bits, not the values: -0.0 and 0.0 are written differently
            block[:, 2:] = np.ascontiguousarray(
                run.utilities[start:stop], dtype=np.float64
            ).view(np.int64)
            _, first, inverse = np.unique(
                block.view(key_type).ravel(), return_index=True, return_inverse=True
            )
            # each distinct stage's rows without their stage number, behind a
            # leading "", so that str(t).join(tails) is the text of stage t
            texts = []
            for i in first.tolist():
                mm, code = int(block[i, 0]), codes[block[i, 1]]
                texts.append([""] + [
                    f",{a},{'mm' if a == mm else 'bandit'},{code},{u!r}\n"
                    for a, u in enumerate(run.utilities[start + i].tolist())
                ])
            fh.write(
                "".join(
                    str(t).join(texts[k])
                    for t, k in zip(range(start, stop), inverse.tolist())
                )
            )


def iter_stream_csv(path: str, agent_id: int) -> Iterator[float]:
    """One agent's per-stage utilities from a stream CSV, in stage order.

    Reads no further than the caller consumes.  Stages must run 0, 1, 2, ...
    with the agent present once in each; a bad header, a gap, a duplicated or
    out-of-order stage, a malformed row or a stage without the agent raises
    ValidationError when the reader reaches it.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)

        def bad(what: str) -> ValidationError:
            return ValidationError(f"{path}, line {reader.line_num}: {what}")

        if next(reader, None) != _HEADER.split(","):
            raise bad(f"header is not {_HEADER!r}")
        stage, seen = -1, True  # the current stage, and whether it had the agent
        for row in reader:
            if len(row) != 5:
                raise bad(f"malformed row {row!r}")
            try:
                t, a = int(row[0]), int(row[1])
                u = float(row[4]) if a == agent_id else None
            except ValueError as exc:
                raise bad(f"malformed row {row!r}") from exc
            if t != stage:
                if t != stage + 1:
                    after = f"stage {stage}" if stage >= 0 else "the header"
                    raise bad(f"stage {t} follows {after}")
                if not seen:
                    raise bad(f"no row for agent {agent_id} in stage {stage}")
                stage, seen = t, False
            if u is not None:
                if seen:
                    raise bad(f"second row for agent {agent_id} in stage {stage}")
                seen = True
                yield u
        if stage < 0:
            raise bad("no stages")
        if not seen:
            raise bad(f"no row for agent {agent_id} in stage {stage}")


def read_stream_csv(path: str, agent_id: int) -> list[float]:
    """Per-stage utilities of one agent from a stream CSV, in stage order."""
    return list(iter_stream_csv(path, agent_id))
