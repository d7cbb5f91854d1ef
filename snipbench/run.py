"""Benchmark sniplab end to end (``--trace 0``) or per module (``--trace 1``).

    python3 snipbench/run.py --workload gamma-sweep --seed 1 --seconds 10 --trace 0

Runs from the root of a source checkout and imports sniplab from its ``src/``.
The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_PROBES = 15

_IMPORT_PROBE = (
    "import time; t0 = time.perf_counter(); import sniplab.cli; "
    "print(time.perf_counter() - t0)"
)


def load_sniplab():
    """Import sniplab from this checkout's src/, and nowhere else."""
    if not (SRC / "sniplab" / "__init__.py").is_file():
        sys.exit(f"error: no sniplab sources at {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    sniplab = importlib.import_module("sniplab")
    if Path(sniplab.__file__).resolve().parent != SRC / "sniplab":
        sys.exit(f"error: imported sniplab from {sniplab.__file__}, not from {SRC}")
    for name in ("params", "race", "utility", "transitions", "simulator", "detection", "cli"):
        importlib.import_module(f"sniplab.{name}")
    return sniplab


def import_seconds() -> float:
    """Time a fresh interpreter takes to import sniplab.cli."""
    env = {k: v for k, v in os.environ.items() if k != "MZ_LAB_THREADS"}
    env["PYTHONPATH"] = str(SRC)
    done = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE], env=env, cwd=ROOT,
        capture_output=True, text=True, check=True, timeout=60,
    )
    return float(done.stdout.strip())


def peak_rss_mb() -> float:
    """Largest resident set of this process or any child it has waited for."""
    kib = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return kib / 1024


def run_rounds(run_round, seconds: float, between=None) -> list:
    """Round 0, a warm-up whose outputs the checks read, then whole rounds
    until they have taken `seconds` together; `between(spent)` runs before
    each of those rounds, outside that time."""
    rounds, spent = [run_round(0)], 0.0
    while len(rounds) < 2 or spent < seconds:
        if between:
            between(spent)
        t0 = perf_counter()
        rounds.append(run_round(len(rounds)))
        spent += perf_counter() - t0
    return rounds


def end_to_end(workload, seconds: float) -> tuple[list, dict]:
    """Metrics over the rounds after the warm-up.  setup_s is the median of
    SETUP_PROBES import probes, taken between rounds at most every
    seconds / SETUP_PROBES of round time, so that they sample the host as the
    rounds do, and topped up at the end where rounds are long."""
    os.environ.pop("MZ_LAB_THREADS", None)  # the program picks its own pool size
    probes = []

    def probe(spent: float) -> None:
        if len(probes) < SETUP_PROBES and spent >= len(probes) * seconds / SETUP_PROBES:
            probes.append(import_seconds())

    rounds = run_rounds(workload.run_round, seconds, probe)
    while len(probes) < SETUP_PROBES:
        probes.append(import_seconds())
    workload.close()  # pool workers count once they have ended
    timed = rounds[1:]
    work_seconds = sum(r.work_seconds for r in timed)
    commands = [t for r in timed for t in r.command_seconds]
    metrics = {  # 0 where every operation failed
        "setup_s": (statistics.median(probes), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "work_per_s": (sum(r.work for r in timed) / work_seconds if work_seconds else 0.0, "1/s"),
        "command_s": (statistics.fmean(commands) if commands else 0.0, "s"),
    }
    return rounds, metrics


def per_layer(workload, sniplab, seconds: float) -> tuple[list, dict]:
    """After one untraced warm-up round, alternate untraced and traced rounds,
    in one process with one worker."""
    from tracing import Tracer

    os.environ["MZ_LAB_THREADS"] = "1"
    tracer = Tracer()
    plain, traced = [], []

    def pair_member(index: int):
        if index == 0:  # warm-up, and the round whose outputs are checked
            return workload.run_round(index)
        if index % 2 == 1:
            r = workload.run_round(index)
            plain.append(r)
            return r
        tracer.install(sniplab)
        try:
            r = workload.run_round(index)
        finally:
            tracer.uninstall()
        traced.append(r)
        return r

    rounds = run_rounds(pair_member, seconds)
    while len(rounds) < 3 or len(rounds) % 2 == 0:  # end on a whole untraced/traced pair
        rounds.append(pair_member(len(rounds)))
    ops = sum(r.attempted - r.failed for r in traced) or 1

    def calls(name):
        return tracer.function_totals(name)[0] / ops

    def mean_ms(name, scale):
        n, incl, _, _ = tracer.function_totals(name)
        return incl / n * scale if n else 0.0

    def rate(name, scale=1.0):
        _, incl, _, work = tracer.function_totals(name)
        return work / scale / incl if incl else 0.0

    metrics = {}
    for module in ("params", "race", "utility", "transitions", "simulator", "detection", "cli"):
        metrics[f"{module}.self_s"] = (tracer.module_totals(module)[1] / ops, "s/op")
    race_calls, race_self = tracer.module_totals("race")
    metrics.update({
        "params.derive.calls": (calls("params.derive"), "count/op"),
        "race.calls": (race_calls / ops, "count/op"),
        "race.us_per_call": (race_self / race_calls * 1e6 if race_calls else 0.0, "us"),
        "utility.calls": (tracer.module_totals("utility")[0] / ops, "count/op"),
        "transitions.thresholds.calls": (calls("transitions.thresholds"), "count/op"),
        "transitions.indifference_at.calls": (calls("transitions.indifference_at"), "count/op"),
        "transitions.indifference_slope.calls": (calls("transitions.indifference_slope"), "count/op"),
        "transitions.optimal_sniping.ms_per_call": (mean_ms("transitions.optimal_sniping", 1e3), "ms"),
        "simulator.run_repeated.stages_per_s": (rate("simulator.run_repeated"), "1/s"),
        "simulator.write_stream_csv.s": (mean_ms("simulator.write_stream_csv", 1.0), "s"),
        "simulator.write_stream_csv.mb_per_s": (rate("simulator.write_stream_csv", 1e6), "MB/s"),
        "simulator.read_stream_csv.s": (mean_ms("simulator.read_stream_csv", 1.0), "s"),
        "simulator.read_stream_csv.mb_per_s": (rate("simulator.read_stream_csv", 1e6), "MB/s"),
        "simulator.stage_stream.stages_per_s": (rate("simulator.stage_stream"), "1/s"),
        "detection.sprt_step.calls": (calls("detection.sprt_step"), "count/op"),
        "detection.sprt_step.us_per_call": (mean_ms("detection.sprt_step", 1e6), "us"),
        "detection.utility_distribution.calls": (calls("detection.utility_distribution"), "count/op"),
    })
    overhead = statistics.median(r.op_seconds for r in traced) / statistics.median(
        r.op_seconds for r in plain
    )
    metrics["bench.trace_overhead"] = (overhead, "ratio")
    trace_file = OUT / f"trace-{workload.name}-seed{workload.seed}.json"
    tracer.dump(str(trace_file), {
        "workload": workload.name, "seed": workload.seed, "ops": ops,
        "traced_rounds": len(traced), "untraced_rounds": len(plain),
        "trace_overhead": overhead,
    })
    print(f"trace written to {trace_file.relative_to(ROOT)}")
    return rounds, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sniplab = load_sniplab()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    workdir = OUT / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = WORKLOADS[args.workload](
            sniplab, args.seed, workdir, sniplab.utility.PAYOFF_TABLE
        )
        try:
            if args.trace:
                rounds, metrics = per_layer(workload, sniplab, args.seconds)
            else:
                rounds, metrics = end_to_end(workload, args.seconds)
        finally:
            workload.close()
        problems = workload.check()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for problem in problems:
        print(f"check failed: {problem}")
    result = {
        "correct": not problems,
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
