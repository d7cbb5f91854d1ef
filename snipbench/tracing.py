"""Spans around calls into sniplab's public functions, recorded from outside.

``Tracer.install`` replaces every public module-level function of the seven
sniplab modules, in every sniplab namespace that refers to it, by a wrapper
that records a span: calls, inclusive time and self time (inclusive time less
the time of the spans it caused).  Because the program looks its functions up
through module globals and module attributes, calls inside the package go
through the wrappers too.  Generator functions (``simulator.stage_stream``)
are timed per item drawn.  ``uninstall`` puts the original functions back.

Spans are kept in memory.  The first ``SPAN_LIMIT`` are kept whole (id,
parent id, name, start, end); the rest only feed the per-function totals.
Calls made inside pool workers would not reach this process, so the traced
run sets ``MZ_LAB_THREADS=1`` and every call runs here.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
from time import perf_counter

MODULES = ("params", "race", "utility", "transitions", "simulator", "detection", "cli")
SPAN_LIMIT = 20_000


def _work_of(name: str):
    """Units of work one call does, for the functions whose rate is reported:
    stages for the engine, bytes for the stream files."""
    if name == "simulator.run_repeated":
        return lambda args, kwargs: kwargs.get("n_stages", args[2] if len(args) > 2 else 0)
    if name in ("simulator.write_stream_csv", "simulator.read_stream_csv"):
        return lambda args, kwargs: os.path.getsize(args[0])
    return None


class Tracer:
    def __init__(self) -> None:
        # name -> [calls, inclusive seconds, self seconds, work units]
        self.totals: dict[str, list[float]] = {}
        self.spans: list[tuple[int, int, str, float, float]] = []
        self._stack: list[list[float]] = []  # [span id, child seconds]
        self._next_id = 1
        self._patched: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------------

    def _enter(self) -> tuple[list[float], float]:
        frame = [self._next_id, 0.0]
        self._next_id += 1
        self._stack.append(frame)
        return frame, perf_counter()

    def _leave(self, name: str, frame: list[float], t0: float, work: float) -> None:
        t1 = perf_counter()
        stack = self._stack
        stack.pop()
        duration = t1 - t0
        parent = 0
        if stack:
            stack[-1][1] += duration
            parent = stack[-1][0]
        tot = self.totals[name]
        tot[0] += 1
        tot[1] += duration
        tot[2] += duration - frame[1]
        tot[3] += work
        if len(self.spans) < SPAN_LIMIT:
            self.spans.append((frame[0], parent, name, t0, t1))

    def _wrap(self, name: str, fn):
        self.totals.setdefault(name, [0, 0.0, 0.0, 0])
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(name, fn)
        work_of = _work_of(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame, t0 = self._enter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self._leave(name, frame, t0, 0)
                raise
            self._leave(name, frame, t0, 0)
            if work_of is not None:
                self.totals[name][3] += work_of(args, kwargs)
            return result

        return traced

    def _wrap_generator(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            inner = fn(*args, **kwargs)

            def items():
                while True:
                    frame, t0 = tracer._enter()
                    try:
                        item = next(inner)
                    except StopIteration:
                        tracer._leave(name, frame, t0, 0)
                        return
                    except BaseException:
                        tracer._leave(name, frame, t0, 0)
                        raise
                    tracer._leave(name, frame, t0, 1)
                    yield item

            return items()

        return traced

    # -- patching ---------------------------------------------------------------

    def install(self, package) -> None:
        """Wrap the public functions of every sniplab module."""
        modules = [getattr(package, m) for m in MODULES]
        wrappers = {}
        for mod in modules:
            short = mod.__name__.rsplit(".", 1)[1]
            for attr, obj in vars(mod).items():
                if (
                    not attr.startswith("_")
                    and inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                ):
                    wrappers[id(obj)] = self._wrap(f"{short}.{attr}", obj)
        for ns in modules + [package]:
            for attr, obj in list(vars(ns).items()):
                if id(obj) in wrappers and inspect.isfunction(obj):
                    self._patched.append((ns, attr, obj))
                    setattr(ns, attr, wrappers[id(obj)])

    def uninstall(self) -> None:
        for ns, attr, obj in reversed(self._patched):
            setattr(ns, attr, obj)
        self._patched.clear()

    # -- results ------------------------------------------------------------------

    def function_totals(self, name: str) -> tuple[float, float, float, float]:
        calls, incl, self_s, work = self.totals.get(name, (0, 0.0, 0.0, 0))
        return calls, incl, self_s, work

    def module_totals(self, module: str) -> tuple[float, float]:
        """(calls, self seconds) over every traced function of one module."""
        calls = self_s = 0.0
        for name, tot in self.totals.items():
            if name.split(".", 1)[0] == module:
                calls += tot[0]
                self_s += tot[2]
        return calls, self_s

    def dump(self, path: str, extra: dict) -> None:
        record = dict(extra)
        record["functions"] = {
            name: {"calls": t[0], "inclusive_s": t[1], "self_s": t[2], "work": t[3]}
            for name, t in sorted(self.totals.items())
            if t[0]
        }
        record["spans"] = [
            {"id": i, "parent": parent, "name": name, "start": t0, "end": t1}
            for i, parent, name, t0, t1 in self.spans
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(record, fh)
