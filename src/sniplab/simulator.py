"""Monte Carlo engine for the stage game and its repetition.

Every stage is one traversal of the sequential game tree, starting from a zero
position: a market maker is selected, a trigger event arrives, at most one
further event falls inside the race window, the race (if any) is resolved and
per-agent utilities are assigned from the payoff table.

Reproducibility, RNG contract 2 (``streams.RNG_CONTRACT``): every stage
consumes exactly H + 4 doubles from ``Generator.random``, one row of an
(m, H + 4) matrix, and every column is drawn on every stage, race or not:

* col 0 -- market maker, ``candidates[floor(u * k)]`` among the k agents that
  post the minimal spread, in id order;
* col 1 -- trigger event, split NG/NB/LA/LB at the cut points beta/2, beta,
  beta + (1-beta)/2;
* col 2 -- second event, split NG/NB/LA/LB/NO at alpha_bar, 2 alpha_bar,
  2 alpha_bar + mu_bar, 2 (alpha_bar + mu_bar);
* cols 3 .. H+2 -- on a news trigger agent j enters the race if u <
  snipe_prob_j (the market maker's own column is drawn and ignored: he always
  races);
* col H+3 -- winner, ``floor(u * n_entrants)``: 0 is the market maker, k the
  k-th entering non-maker in id order.

A Generator fills the matrix row by row from one stream, so the draws do not
depend on how many stages are drawn at once: the chunk schedule (64 stages
first, doubling to 1,024) is a speed constant outside the contract, a lazily
consumed ``stage_stream`` yields a prefix of ``run_repeated``'s utilities, and
identical (agents, params, n_stages, seed) yield bit-identical utility
streams.  Contract 1 (a variable number of draws per stage, integer
draws for the market maker and the winner) gives different streams.

``write_stream_csv`` writes a run in the stream-file format of ``streams``,
which also reads it back and holds the contract number.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from . import race, utility
from .params import GameParams, ValidationError, derive
from .race import Population
from .streams import _HEADER

TRUSTWORTHY = "trustworthy"
DECEPTIVE = "deceptive"
# Stages per chunk: _FIRST_CHUNK first, doubling up to _CHUNK_STAGES.  Speed
# constants, not part of the contract: a sequential test usually stops after a
# few hundred stages of a fresh stream, so it draws little past its decision.
_FIRST_CHUNK = 64
_CHUNK_STAGES = 1024


@dataclass(frozen=True)
class AgentConfig:
    """One simulated trader: sniping probability and posted spread.  An
    agent's id is its position in the roster."""

    snipe_prob: float
    spread: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.snipe_prob <= 1.0:
            raise ValidationError(
                f"snipe_prob must lie in [0, 1] (got {self.snipe_prob})"
            )
        if not 0.0 <= self.spread <= 1.0:
            raise ValidationError(f"spread must lie in [0, 1] (got {self.spread})")


class StageOutcome(NamedTuple):
    """One stage of ``stage_stream``: each agent's utility, indexed by id."""

    utilities: list[float]


@dataclass(frozen=True)
class SimRun:
    """Full record of a repeated run: the per-stage streams and each agent's
    race wins; its shape is utilities.shape, (stages, agents)."""

    utilities: np.ndarray  # (n_stages, n_agents)
    events: np.ndarray     # (n_stages,) index into utility.PAYOFF_TABLE
    mm_ids: np.ndarray     # (n_stages,)
    winners: np.ndarray    # (n_stages,), -1 when no race
    race_wins: np.ndarray  # (n_agents,)


def _stage_chunks(
    agents: Sequence[AgentConfig], params: GameParams, rng: np.random.Generator
) -> Iterator[tuple[np.ndarray, ...]]:
    """Endless stages in chunks, drawn under RNG contract 2.

    The first chunk holds ``_FIRST_CHUNK`` stages and each next one twice as
    many, up to ``_CHUNK_STAGES`` (64, 128, 256, 512, 1024, 1024, ...): a
    stream that stops early draws little past its end, and the draws are the
    same under any schedule.  Yields (events, mm_ids, winners, utilities,
    entered) per chunk; entered marks the non-makers that enter each race.
    """
    h = len(agents)
    if h < 3:
        raise ValidationError(f"need at least 3 agents (got {h})")
    d = derive(params)
    cut1 = np.array([d.beta / 2, d.beta, d.beta + (1.0 - d.beta) / 2])
    cut2 = np.array([
        d.alpha_bar,
        2 * d.alpha_bar,
        2 * d.alpha_bar + d.mu_bar,
        2 * (d.alpha_bar + d.mu_bar),
    ])
    spreads = np.array([a.spread for a in agents])
    s = float(spreads.min())  # the market maker's spread
    candidates = np.flatnonzero(spreads == s).astype(np.int16)
    snipe_probs = np.array([a.snipe_prob for a in agents])
    # utility.payoffs: utility of (event, outcome) at spread s; outcome 0: the
    # maker loses or there is no race, 1: the sniper wins, 2: the maker wins
    table = np.array(utility.payoffs(s, params.gamma))
    m = _FIRST_CHUNK
    while True:
        rows = np.arange(m)
        u = rng.random((m, h + 4))
        mm = candidates[(u[:, 0] * len(candidates)).astype(np.intp)]
        first = np.searchsorted(cut1, u[:, 1], side="right")
        second = np.searchsorted(cut2, u[:, 2], side="right")
        events = (5 * first + second).astype(np.int8)
        is_race = first < 2  # news trigger
        entered = (u[:, 3:h + 3] < snipe_probs) & is_race[:, None]
        entered[rows, mm] = False
        count = entered.sum(axis=1)
        k = (u[:, h + 3] * (count + 1)).astype(np.intp)
        # the k-th entrant of a row sits in the row's run of flat entries
        entries = np.flatnonzero(entered)
        offset = np.cumsum(count) - count
        winners = np.where(is_race, mm, -1)
        snipes = k > 0
        winners[snipes] = entries[offset[snipes] + k[snipes] - 1] % h
        utilities = np.zeros((m, h))
        utilities[rows, mm] = table[events, np.where(winners == mm, 2, 0)]
        utilities[rows[snipes], winners[snipes]] = table[events[snipes], 1]
        yield events, mm, winners, utilities, entered
        m = min(2 * m, _CHUNK_STAGES)


def stage_stream(
    agents: Sequence[AgentConfig], params: GameParams, rng: np.random.Generator
) -> Iterator[StageOutcome]:
    """Endless stream of independent stage games (shared roster and rng).

    With ``rng = default_rng(seed)`` its utilities are the rows of
    ``run_repeated(agents, params, n, seed).utilities``, one at a time.
    """
    for _, _, _, utilities, _ in _stage_chunks(agents, params, rng):
        yield from map(StageOutcome, utilities.tolist())


def run_repeated(
    agents: Sequence[AgentConfig], params: GameParams, n_stages: int, seed: int
) -> SimRun:
    """Repeat the stage game n_stages times from a fresh seeded generator."""
    if n_stages < 1:
        raise ValidationError(f"n_stages must be >= 1 (got {n_stages})")
    events = np.empty(n_stages, dtype=np.int8)
    mm_ids = np.empty(n_stages, dtype=np.int16)
    winners = np.empty(n_stages, dtype=np.int16)
    utilities = np.empty((n_stages, len(agents)))
    chunks = _stage_chunks(agents, params, np.random.default_rng(seed))
    start = 0
    while start < n_stages:
        chunk = next(chunks)
        stop = min(start + len(chunk[0]), n_stages)
        for whole, part in zip((events, mm_ids, winners, utilities), chunk):
            whole[start:stop] = part[: stop - start]
        start = stop
    return SimRun(
        utilities=utilities,
        events=events,
        mm_ids=mm_ids,
        winners=winners,
        race_wins=np.bincount(winners[winners >= 0], minlength=len(agents)),
    )


def compliance_roster(
    pop: Population, p: float, spread: float
) -> tuple[AgentConfig, ...]:
    """Agents 0..H_t-1 trustworthy (snipe at p), the rest deceptive (snipe
    for sure); everyone advertises the same spread."""
    trusty, rogue = AgentConfig(p, spread), AgentConfig(1.0, spread)
    return (trusty,) * pop.trustworthy + (rogue,) * pop.deceptive


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
    if agent_class == TRUSTWORTHY:
        ep = utility.endpoints(p, pop, params)
    elif agent_class == DECEPTIVE:
        win = race.win_prob_given_entry_mixed_deceptive(p, pop)
        loss = race.mm_loss_prob_mixed_deceptive(p, pop)
        ep = utility.endpoints_from_race_probs(win, loss, derive(params))
    else:
        raise ValidationError(f"unknown agent class {agent_class!r}")
    h = pop.total
    return (
        utility.utility_line(ep, "mm", s)
        + (h - 1) * utility.utility_line(ep, "bandit", s)
    ) / h


# Rows formatted per write: memory stays flat however many stages a run has.
_CHUNK_ROWS = 1 << 16


def write_stream_csv(path: str, run: SimRun) -> None:
    """Newline-delimited utility stream: stage, agent_id, role, event, utility.

    Rows run in stage order and, within a stage, in agent-id order (the
    columns of run.utilities); floats
    are written with repr.  Stages that share market maker, event and
    utility bits share one text, so each distinct stage of a chunk is
    formatted once.
    """
    n_stages, n_agents = run.utilities.shape
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
