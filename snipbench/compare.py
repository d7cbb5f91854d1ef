"""Collect sets of benchmark runs, and compare two sets under the bounds of
BENCHMARK.json.

    # ten runs of every workload, seeds 1..10, each for BENCHMARK.json's
    # run_seconds with tracing off, appended to a JSON-lines file
    python3 snipbench/compare.py collect base.jsonl --seeds 1-10

    # one set: medians, quartiles and spread of each end-to-end metric
    python3 snipbench/compare.py report base.jsonl

    # two sets: medians, quartiles, pair wins and a verdict per metric
    python3 snipbench/compare.py report base.jsonl change.jsonl

Runs of the two sets are paired by workload and seed.  For each workload and
end-to-end metric the verdict is

* ``unresolved`` when either set's spread (interquartile range over median)
  is wider than the metric's bound, unless every run of the second set reads
  better than every run of the first (``better (every run)``);
* ``worse`` when the second median is worse than the first by more than the
  bound;
* ``better`` when the second median is the better one, the second set wins
  at least nine tenths of the pairs (ties count for neither; there must be
  pairs) and the medians differ by more than the first set's interquartile
  range;
* ``no change`` otherwise.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += list(range(int(lo), int(hi or lo) + 1))
    return seeds


def collect(args, spec) -> int:
    """Run every workload for run_seconds with tracing off, once per seed."""
    seconds = spec["run_seconds"]
    status = 0
    with open(args.file, "a", encoding="utf-8") as out:
        for seed in parse_seeds(args.seeds):
            for workload in (w["name"] for w in spec["workloads"]):
                cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                                         "--seconds", str(seconds), "--trace", "0"]
                t0 = perf_counter()
                done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
                wall = perf_counter() - t0
                lines = done.stdout.strip().splitlines()
                if done.returncode != 0 or not lines:
                    print(f"{workload} seed {seed}: exit {done.returncode}\n{done.stderr}", file=sys.stderr)
                    status = 1
                    continue
                result = json.loads(lines[-1])
                record = {"workload": workload, "seed": seed, "wall_s": wall, "result": result}
                out.write(json.dumps(record) + "\n")
                out.flush()
                flag = "" if result["correct"] else "  INCORRECT: " + "; ".join(lines[:-1])
                print(f"{workload} seed {seed}: {wall:.1f} s{flag}")
                status |= 0 if result["correct"] else 1
    return status


def load_set(path: str) -> dict:
    """{workload: {seed: result}} from a JSON-lines file (last run per seed wins)."""
    runs = defaultdict(dict)
    for line in Path(path).read_text().splitlines():
        if line.strip():
            record = json.loads(line)
            runs[record["workload"]][record["seed"]] = record["result"]
    return runs


def summary(values: list[float]) -> tuple[float, float, float, float]:
    """(median, first quartile, third quartile, spread as a share of the median)."""
    median = statistics.median(values)
    if len(values) < 2:
        return median, median, median, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median if median else float("inf")


def better(x: float, y: float, direction: str) -> bool:
    return x < y if direction == "lower" else x > y


def verdict(a: list, b: list, pairs: list, metric: dict) -> tuple[str, int]:
    bound, direction = metric["bound"], metric["better"]
    ma, qa1, qa3, spread_a = summary(a)
    mb, _, _, spread_b = summary(b)
    wins = sum(1 for x, y in pairs if better(y, x, direction))
    worse_by = (mb - ma) / ma if direction == "lower" else (ma - mb) / ma
    every = all(better(y, x, direction) for x in a for y in b)
    if max(spread_a, spread_b) > bound:
        return ("better (every run)" if every else "unresolved"), wins
    if worse_by > bound:
        return "worse", wins
    if pairs and wins >= 0.9 * len(pairs) and worse_by < 0 and abs(mb - ma) > qa3 - qa1:
        return "better", wins
    return "no change", wins


def failed_share(results) -> str:
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    return f"{failed}/{attempted}"


def report(args, spec) -> int:
    first = load_set(args.first)
    second = load_set(args.second) if args.second else None
    status = 0
    for wl in spec["workloads"]:
        name = wl["name"]
        runs_a = first.get(name, {})
        if not runs_a:
            continue
        runs_b = second.get(name, {}) if second else {}
        header = f"== {name}: {len(runs_a)} runs, failed {failed_share(runs_a.values())}"
        if second:
            header += f" | {len(runs_b)} runs, failed {failed_share(runs_b.values())}"
        print(header)
        if any(not r["correct"] for r in list(runs_a.values()) + list(runs_b.values())):
            print("   some runs reported incorrect outputs")
            status = 1
        for metric in spec["end_to_end"]:
            key, bound = metric["name"], metric["bound"]
            a = [r["metrics"][key]["value"] for r in runs_a.values()]
            ma, q1, q3, spread = summary(a)
            line = f"   {key:12s} {ma:12.6g} [{q1:.6g}, {q3:.6g}] spread {spread:6.1%} (bound {bound:.0%})"
            if not second:
                gate = "ok" if spread <= bound / 3 else "wide" if spread <= bound else "OVER BOUND"
                print(f"{line}  {gate}")
                continue
            b = [r["metrics"][key]["value"] for r in runs_b.values()]
            pairs = [
                (runs_a[s]["metrics"][key]["value"], runs_b[s]["metrics"][key]["value"])
                for s in sorted(set(runs_a) & set(runs_b))
            ]
            if not b:
                print(f"{line}  | no runs")
                continue
            mb, p1, p3, spread_b = summary(b)
            outcome, wins = verdict(a, b, pairs, metric)
            print(f"{line} | {mb:12.6g} [{p1:.6g}, {p3:.6g}] spread {spread_b:6.1%}"
                  f" | wins {wins}/{len(pairs)} pairs | {outcome}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="action", required=True)
    p_collect = sub.add_parser("collect", help="run the benchmark and append the results")
    p_collect.add_argument("file")
    p_collect.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    p_report = sub.add_parser("report", help="summarise one set, or compare two")
    p_report.add_argument("first")
    p_report.add_argument("second", nargs="?")
    args = parser.parse_args(argv)
    spec = load_spec()
    return collect(args, spec) if args.action == "collect" else report(args, spec)


if __name__ == "__main__":
    sys.exit(main())
