"""Monte Carlo engine for the stage game and its repetition.

Every stage is one traversal of the sequential game tree, starting from a zero
position: a market maker is selected, a trigger event arrives, at most one
further event falls inside the race window, the race (if any) is resolved and
per-agent utilities are assigned from the payoff table.  The engine only
draws; the analytic class means are ``utility.utility_distribution``'s.

Reproducibility, RNG contract 2 (``streams.RNG_CONTRACT``): every stage
consumes exactly H + 4 doubles from ``Generator.random``, one row of an
(m, H + 4) matrix, and every column is drawn on every stage, race or not:

* col 0 -- market maker, agent ``floor(u * H)``: every agent posts the
  roster's one spread, so each is the maker with probability 1/H;
* col 1 -- trigger event, split NG/NB/LA/LB at the cut points beta/2, beta,
  beta + (1-beta)/2;
* col 2 -- second event, split NG/NB/LA/LB/NO at alpha_bar, 2 alpha_bar,
  2 alpha_bar + mu_bar, 2 (alpha_bar + mu_bar);
* cols 3 .. H+2 -- on a news trigger agent j enters the race if u < p for a
  trustworthy agent, and always for a deceptive one (the market maker's own
  column is drawn and ignored: he always races);
* col H+3 -- winner, ``floor(u * n_entrants)``: 0 is the market maker, k the
  k-th entering non-maker in id order.

A Generator fills the matrix row by row from one stream, so the draws do not
depend on how many stages are drawn at once: the chunk schedule (64 stages
first, doubling to 1,024) is a speed constant outside the contract, a lazily
consumed ``stage_stream`` yields a prefix of ``run_repeated``'s utilities, and
identical (roster, params, n_stages, seed) yield bit-identical utility
streams.  Contract 1 (a variable number of draws per stage, integer
draws for the market maker and the winner) gives different streams.

A fresh stream costs little more than its draws.  ``_stage_law`` builds what
a roster's stages are compared with (cut points, snipe probabilities, payoff
table: one ``derive`` and one ``utility.payoffs``) once
per (roster, params), read-only, in a small LRU cache.  ``_stage_chunks``
draws each chunk in a fixed number of numpy calls on flat cell indices of the
(m, H) chunk, and ``stage_stream`` makes its records with ``tuple.__new__``,
which runs no Python code per stage.  Tried and rejected: the winner found by
a per-row cumsum and argmax over the entry mask (several times slower than
flat entries at H = 200); a first chunk of 128 or 256 stages (no resolved
change to a criterion-8 replicate); a fast path for these records in
``detection.monitor_stream`` (no measurable gain).  Their timings are
recorded in BENCH_22.json.

``write_stream_csv`` writes a run in the stream-file format of ``streams``,
which also reads it back and holds the contract number.  It formats each
distinct stage (market maker, event, utility bits) once per file, and of it
only the maker's row and the rows not paid +0.0, and writes every stage by
joining its number to that text; its chunks bound only the memory a write
uses.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from itertools import repeat
from typing import Iterator, NamedTuple

import numpy as np

from . import utility
from .params import GameParams, ValidationError, derive
from .race import Population
from .streams import _HEADER

# Stages per chunk: _FIRST_CHUNK first, doubling up to _CHUNK_STAGES.  Speed
# constants, not part of the contract: a sequential test usually stops after a
# few hundred stages of a fresh stream, so it draws little past its decision.
_FIRST_CHUNK = 64
_CHUNK_STAGES = 1024


class Roster(NamedTuple):
    """The simulated traders: agents 0..H_t-1 trustworthy (snipe at p), the
    rest deceptive (snipe for sure), and every one posts the same spread.
    An agent's id is its position; build one with ``compliance_roster``."""

    pop: Population
    p: float
    spread: float


def compliance_roster(pop: Population, p: float, spread: float) -> Roster:
    """The roster of pop playing (p, spread), both checked to lie in [0, 1]."""
    if not 0.0 <= p <= 1.0:
        raise ValidationError(f"snipe_prob must lie in [0, 1] (got {p})")
    if not 0.0 <= spread <= 1.0:
        raise ValidationError(f"spread must lie in [0, 1] (got {spread})")
    return Roster(pop, p, spread)


class StageOutcome(NamedTuple):
    """One stage of ``stage_stream``: each agent's utility, indexed by id."""

    utilities: list[float]


@dataclass(frozen=True)
class SimRun:
    """Full record of a repeated run: the per-stage streams and each agent's
    race wins; its shape is utilities.shape, (stages, agents)."""

    utilities: np.ndarray  # (n_stages, n_agents)
    events: np.ndarray     # (n_stages,) index into utility.PAYOFF_TABLE
    mm_ids: np.ndarray     # (n_stages,) int32
    winners: np.ndarray    # (n_stages,) int32, -1 when no race
    race_wins: np.ndarray  # (n_agents,)


@functools.lru_cache(maxsize=16)
def _stage_law(roster: Roster, params: GameParams) -> tuple[np.ndarray, ...]:
    """What a stage's draws are compared with, for one (roster, params):
    the trigger and second-event cut points, each agent's snipe probability
    and the payoff table at the roster's spread, all read-only.

    Rosters and params that compare equal share a law, and get the same bits
    from it: an int where a float was compares the draws alike, and a spread
    of -0.0 pays what 0.0 does, as each payoff is c0 + cs * s + ... with c0
    never -0.0.
    """
    d = derive(params)
    cut1 = np.array([d.beta / 2, d.beta, d.beta + (1.0 - d.beta) / 2])
    cut2 = np.array([
        d.alpha_bar,
        2 * d.alpha_bar,
        2 * d.alpha_bar + d.mu_bar,
        2 * (d.alpha_bar + d.mu_bar),
    ])
    pop = roster.pop
    snipe_probs = np.repeat([roster.p, 1.0], [pop.trustworthy, pop.deceptive])
    # utility.payoffs: utility of (event, outcome) at the spread; outcome 0:
    # the maker loses or there is no race, 1: the sniper wins, 2: the maker wins
    table = np.array(utility.payoffs(roster.spread, params.gamma))
    law = (cut1, cut2, snipe_probs, table)
    for array in law:
        array.setflags(write=False)
    return law


def _stage_chunks(
    roster: Roster, params: GameParams, rng: np.random.Generator
) -> Iterator[tuple[np.ndarray, ...]]:
    """Endless stages in chunks, drawn under RNG contract 2.

    The first chunk holds ``_FIRST_CHUNK`` stages and each next one twice as
    many, up to ``_CHUNK_STAGES`` (64, 128, 256, 512, 1024, 1024, ...): a
    stream that stops early draws little past its end, and the draws are the
    same under any schedule.  Yields (events, mm_ids, winners, utilities,
    entered) per chunk; entered marks the non-makers that enter each race.

    The law comes from ``_stage_law``, built once per (roster, params).  The
    kernel works on flat cell indices of the (m, H) chunk: row i's maker
    sits in cell i * H + mm_i; the flat indices of the entries are sorted by
    row, so one ``bincount`` of entry // H counts each row's entrants and
    the k-th entrant of row i is entry offset_i + k - 1; the utilities are
    two scatters into one zeroed vector of m * H, from the payoff table
    raveled to 3 * event + outcome.  Methods (``a.nonzero()``,
    ``a.cumsum()``, ``a.searchsorted``) stand in for numpy's Python-level
    wrappers of the same name, whose call overhead is a visible share of a
    64-stage chunk (BENCH_22.json).
    """
    h = roster.pop.total
    cut1, cut2, snipe_probs, table = _stage_law(roster, params)
    payoff = table.ravel()  # the cell of (event, outcome) is 3 * event + outcome
    m = _FIRST_CHUNK
    while True:
        u = rng.random((m, h + 4))
        mm = (u[:, 0] * h).astype(np.intp)
        first = cut1.searchsorted(u[:, 1], "right")
        second = cut2.searchsorted(u[:, 2], "right")
        events = (5 * first + second).astype(np.int8)
        is_race = first < 2  # news trigger
        entered = (u[:, 3:h + 3] < snipe_probs) & is_race[:, None]
        cells = np.arange(0, m * h, h) + mm  # the maker's cell of each row
        flat = entered.ravel()  # a view: entered is a fresh (m, H) array
        flat[cells] = False
        entries = flat.nonzero()[0]
        count = np.bincount(entries // h, minlength=m)
        k = (u[:, h + 3] * (count + 1)).astype(np.intp)
        # the k-th entrant of a row sits in the row's run of flat entries
        offset = count.cumsum() - count
        winners = np.where(is_race, mm, -1)
        snipes = k.nonzero()[0]
        winners[snipes] = entries[offset[snipes] + k[snipes] - 1] % h
        utilities = np.zeros(m * h)
        utilities[cells] = payoff[3 * events + np.where(winners == mm, 2, 0)]
        utilities[snipes * h + winners[snipes]] = payoff[3 * events[snipes] + 1]
        yield events, mm, winners, utilities.reshape(m, h), entered
        m = min(2 * m, _CHUNK_STAGES)


def stage_stream(
    roster: Roster, params: GameParams, rng: np.random.Generator
) -> Iterator[StageOutcome]:
    """Endless stream of independent stage games (shared roster and rng).

    With ``rng = default_rng(seed)`` its utilities are the rows of
    ``run_repeated(roster, params, n, seed).utilities``, one at a time.
    Each chunk's rows become records through ``tuple.__new__``: the same
    StageOutcome objects that ``StageOutcome(row)`` makes, without running
    the NamedTuple's Python-level ``__new__`` once per stage.
    """
    for _, _, _, utilities, _ in _stage_chunks(roster, params, rng):
        yield from map(tuple.__new__, repeat(StageOutcome), zip(utilities.tolist()))


def run_repeated(
    roster: Roster, params: GameParams, n_stages: int, seed: int
) -> SimRun:
    """Repeat the stage game n_stages times from a fresh seeded generator."""
    if n_stages < 1:
        raise ValidationError(f"n_stages must be >= 1 (got {n_stages})")
    events = np.empty(n_stages, dtype=np.int8)
    mm_ids = np.empty(n_stages, dtype=np.int32)
    winners = np.empty(n_stages, dtype=np.int32)
    utilities = np.empty((n_stages, roster.pop.total))
    chunks = _stage_chunks(roster, params, np.random.default_rng(seed))
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
        race_wins=np.bincount(winners[winners >= 0], minlength=roster.pop.total),
    )


# Rows keyed per chunk of a write: a bound on its memory, not on its work.
_CHUNK_ROWS = 1 << 15


def _stage_tail(
    key: bytes, codes: list[str], zero_rows: dict[int, list[str]]
) -> list[str]:
    """The rows of one stage without their stage number, behind a leading "",
    so that str(t).join(tail) is the text of stage t.  key holds the market
    maker, the event and each agent's utility bits, as int64 words.

    Only the maker's row and the rows whose bits are not +0.0 are formatted;
    the others are copied from zero_rows, each event's "bandit, 0.0" rows,
    made the first time the event is seen.
    """
    words = memoryview(key)
    bits, values = words.cast("q").tolist(), words.cast("d")
    mm, event = bits[0], bits[1]
    code = codes[event]
    zeros = zero_rows.get(event)
    if zeros is None:
        zeros = zero_rows[event] = [""] + [
            f",{a},bandit,{code},0.0\n" for a in range(len(bits) - 2)
        ]
    tail = zeros.copy()
    for a, b in enumerate(bits[2:]):
        if b:
            tail[a + 1] = f",{a},bandit,{code},{values[a + 2]!r}\n"
    tail[mm + 1] = f",{mm},mm,{code},{values[mm + 2]!r}\n"
    return tail


def write_stream_csv(path: str, run: SimRun) -> None:
    """Newline-delimited utility stream: stage, agent_id, role, event, utility.

    Rows run in stage order and, within a stage, in agent-id order (the
    columns of run.utilities); floats are written with repr.  A stage's rows
    depend only on its key, the bytes of its market maker, event and utility
    bits (so -0.0 and 0.0 stay apart), and a dict from key to text lives for
    the whole file: each distinct stage is formatted once per file (260
    times in a 100k-stage run at H = 5, 4 + 1 at p*), and stage t is written
    as one str(t).join.  A stage's +0.0 bandit rows are copies of its
    event's, so a stage costs two formatted rows, not H (at H = 200 most
    stages are distinct).  Chunks of _CHUNK_ROWS rows bound only the memory
    used: should the dict pass 2 * _CHUNK_ROWS rows, as it can with many
    agents, it keeps just the current chunk's stages.
    """
    n_stages, n_agents = run.utilities.shape
    codes = [ev.code for ev in utility.PAYOFF_TABLE]
    chunk = max(1, _CHUNK_ROWS // n_agents)
    keys = np.empty((min(chunk, n_stages), n_agents + 2), dtype=np.int64)
    key_type = np.dtype((np.void, keys.itemsize * keys.shape[1]))
    tails: dict[bytes, list[str]] = {}
    zero_rows: dict[int, list[str]] = {}
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
            stage_keys = block.view(key_type).ravel().tolist()
            distinct = dict.fromkeys(stage_keys).keys()
            if (len(tails) + len(distinct)) * n_agents > 2 * _CHUNK_ROWS:
                # keep only the texts this chunk writes
                tails = {key: tails[key] for key in distinct & tails.keys()}
            for key in distinct - tails.keys():
                tails[key] = _stage_tail(key, codes, zero_rows)
            fh.write(
                "".join(
                    str(t).join(tails[key])
                    for t, key in zip(range(start, stop), stage_keys)
                )
            )
