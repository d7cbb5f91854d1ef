"""Utility-stream files and the RNG contract their stages are drawn under.

This module imports no numpy, so a command that only reads a stream, or only
records the contract in its manifest, does not pay for loading it.

``RNG_CONTRACT`` numbers the order in which ``simulator`` consumes its random
draws (see that module).  A manifest of a run that draws stages records it, and
a rerun from another contract is refused: it would draw other streams.

Stream files (``simulator.write_stream_csv``) hold one row per stage and agent,
in stage order and, within a stage, in agent-id order, with floats written by
``repr``.  ``iter_stream_csv`` reads one agent's utilities lazily, so a
sequential test reads only up to its decision; it refuses a malformed stream
(bad header, stage gap, duplicated or out-of-order stage, missing agent) with
``ValidationError`` once it reaches the defect.
"""

from __future__ import annotations

import csv
from typing import Iterator

from .params import ValidationError

RNG_CONTRACT = 2
_HEADER = "stage,agent_id,role,event,utility"


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
