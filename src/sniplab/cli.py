"""Command-line front end: analysis, sweeps, simulation campaigns, monitoring.

Every command writes tidy CSV plus a JSON manifest that records the fully
resolved inputs (flags override config-file values override defaults), enough
to reproduce each output byte-for-byte.  Every command runs in one process.

``main`` owns the run protocol: it resolves the parameters, makes the output
directory, runs the command and writes the manifest from the output names the
command returns.  A ``cmd_*`` function does only its own work and records its
own inputs in ``resolved``; ``_roster`` and ``_play`` record theirs.

Each command imports only what it runs, since the import is most of a small
command's wall time.  Only ``simulate`` and inline ``monitor`` draw stages,
so only they import numpy and ``simulator``; ``analyze``, ``sweep`` and
``monitor --stream`` run without loading numpy.  Only ``monitor`` imports
``detection``.  ``logging`` is imported only where a warning is logged (a
scan of u* that is not unimodal, an outcome that forces the monitor's
decision), and the manifest's timestamp comes from ``time``, not
``datetime``.  Manifests and ``analysis.json`` are strict JSON: a non-finite
number is refused, never written.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import os
import shutil
import sys
import time
from contextlib import closing
from dataclasses import asdict, fields, replace
from itertools import islice
from operator import itemgetter
from pathlib import Path
from typing import Iterable

from . import __version__, streams, transitions, utility
from .params import GameParams, ValidationError, load_config, params_from_config
from .race import Population

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_VALIDATION = 2


# Not used by the commands; snipbench's sprt-replicates sizes its pool by it.
def _thread_cap(n_jobs: int) -> int:
    raw = os.environ.get("MZ_LAB_THREADS", "")
    try:
        cap = int(raw)
    except ValueError:
        cap = 0
    if cap < 1:
        cap = os.cpu_count() or 1
    return max(1, min(cap, n_jobs))


def _resolve_params(args: argparse.Namespace) -> tuple[GameParams, dict]:
    """The sigma-rescaled parameters, and the manifest's record of them.

    Outputs are measured in units of sigma.  ``sigma_scale`` is the jump size
    before rescaling, from the flag or the config file; ``args_from_manifest``
    passes it back as ``--sigma``.
    """
    values: dict[str, float] = {}
    if args.config:
        values.update(load_config(args.config))
    for field in fields(GameParams):
        flag = getattr(args, field.name, None)
        if flag is not None:
            values[field.name] = flag
    params = params_from_config(values)
    resolved = {**asdict(params), "sigma": 1.0, "sigma_scale": params.sigma}
    return replace(params, sigma=1.0), resolved


def _utc_timestamp() -> str:
    """Now in ISO 8601 UTC with microseconds, YYYY-MM-DDTHH:MM:SS.ffffff+00:00."""
    seconds, ns = divmod(time.time_ns(), 1_000_000_000)
    return time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime(seconds)) + f".{ns // 1000:06d}+00:00"


def _write_manifest(out_dir: Path, command: str, resolved: dict, outputs: list[str]) -> None:
    manifest = {
        "command": command,
        "resolved": resolved,
        "outputs": sorted(outputs),
        "version": __version__,
        "timestamp": _utc_timestamp(),
    }
    if "seeds" in resolved:  # its streams depend on the engine's draw order
        manifest["rng_contract"] = streams.RNG_CONTRACT
    text = json.dumps(manifest, indent=2, sort_keys=True, allow_nan=False)
    (out_dir / f"{command}_manifest.json").write_text(text + "\n")


def _read_manifest(path: str | Path) -> dict:
    """The manifest at path: JSON with a ``command`` and a ``resolved`` mapping.

    A record with seeds must carry this engine's RNG contract, as
    ``_write_manifest`` writes it: under another one the seeds draw other
    streams.  Anything else is refused.
    """
    try:
        manifest = json.loads(Path(path).read_text())
        resolved, command = manifest["resolved"], manifest["command"]
        readable = isinstance(resolved, dict) and isinstance(command, str)
    except (ValueError, KeyError, TypeError):
        readable = False
    if not readable:
        raise ValidationError(
            f"{path} is not a manifest: it needs JSON with a command and resolved inputs"
        )
    contract = manifest.get("rng_contract")
    if "seeds" in resolved and contract != streams.RNG_CONTRACT:
        raise ValidationError(
            f"{path} records RNG contract {contract}; this version draws stages "
            f"under contract {streams.RNG_CONTRACT}, so its seeds would draw other streams"
        )
    return manifest


def args_from_manifest(path: str | Path) -> list[str]:
    """Reconstruct the argv that reproduces a recorded run (same --out)."""
    manifest = _read_manifest(path)
    resolved = manifest["resolved"]
    argv = [manifest["command"]]
    for key, value in resolved.items():
        if key in ("sigma", "outputs") or value is None:
            continue
        if key == "sigma_scale":  # the jump size the run was given
            key = "sigma"
        if key == "seeds":
            value = ",".join(str(s) for s in value)
        # option names are dashed: assumed_hd is --assumed-hd
        argv += [f"--{key.replace('_', '-')}", str(value)]
    argv += ["--out", str(Path(path).parent)]
    return argv


def _write_csv(path: Path, header: list[str], rows: Iterable[Iterable]) -> None:
    """Tidy CSV: the header, then one line per row of values in header order;
    csv writes a float with repr."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _require_finite(row: dict) -> dict:
    """row, unless a value overflowed to inf or NaN: then a ValidationError."""
    for key, value in row.items():
        if isinstance(value, float) and not math.isfinite(value):
            raise ValidationError(
                f"{key} = {value}: the parameters lie beyond the range of floating point"
            )
    return row


def _add_param_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="flat key=value parameter file")
    parser.add_argument("--H", type=int, help="number of traders (>= 3)")
    parser.add_argument("--alpha", type=float, help="news arrival rate")
    parser.add_argument("--mu", type=float, help="liquidity-trader arrival rate")
    parser.add_argument("--delta", type=float, help="exchange latency")
    parser.add_argument("--gamma", type=float, help="risk-aversion factor")
    parser.add_argument("--sigma", type=float, help="jump size (rescaled to 1)")
    parser.add_argument("--out", default=".", help="output directory")


def _add_play_flags(parser: argparse.ArgumentParser) -> None:
    """The roster and play flags that simulate and monitor share."""
    parser.add_argument("--hd", type=int, default=0, help="deceptive agents")
    parser.add_argument("--p", type=float, help="trustworthy sniping probability "
                        "(default: optimal)")
    parser.add_argument("--spread", type=float, help="posted spread (default: optimal)")
    parser.add_argument("--stages", type=int, default=10000)
    parser.add_argument("--seeds", default="1", help="comma-separated seeds")


def _parse_seeds(raw: str) -> list[int]:
    try:
        seeds = [int(s) for s in raw.split(",") if s.strip() != ""]
    except ValueError as exc:
        raise ValidationError(f"invalid seed list {raw!r}") from exc
    if any(seed < 0 for seed in seeds):
        raise ValidationError(f"seeds must be non-negative (got {raw!r})")
    if len(set(seeds)) < len(seeds):  # a repeated seed would redraw its stream
        raise ValidationError(f"seeds must not repeat (got {raw!r})")
    return seeds


# The most values a start:stop:step grid may have; it is counted before any
# value is made, so a mistyped step cannot ask for gigabytes.
MAX_GRID_VALUES = 100_000


def _parse_grid(spec: str) -> list[float]:
    if ":" in spec:
        parts = spec.split(":")
        if len(parts) != 3:
            raise ValidationError(f"grid must be start:stop:step (got {spec!r})")
        try:
            start, stop, step = (float(x) for x in parts)
        except ValueError as exc:
            raise ValidationError(f"invalid grid {spec!r}") from exc
        if not all(map(math.isfinite, (start, stop, step))):
            raise ValidationError(f"grid bounds and step must be finite (got {spec!r})")
        if step <= 0:
            raise ValidationError(f"grid step must be positive (got {step})")
        # the loop below keeps k while k <= (stop - start) / step + 1e-9; the
        # quotient is inf where it overflows, and refused with the rest
        if not (stop - start) / step + 1e-9 < MAX_GRID_VALUES:
            raise ValidationError(f"grid {spec!r} has more than {MAX_GRID_VALUES} values")
        values = []
        k = 0
        while True:
            value = start + k * step
            if value > stop + step * 1e-9:
                break
            values.append(value)
            k += 1
        return values
    try:
        return [float(x) for x in spec.split(",") if x.strip() != ""]
    except ValueError as exc:
        raise ValidationError(f"invalid grid {spec!r}") from exc


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------


def cmd_analyze(args: argparse.Namespace, params: GameParams, resolved: dict,
                out: Path) -> list[str]:
    row = transitions.regime_row(params, transitions.thresholds(params))
    probabilistic = row["regime"] == transitions.PROBABILISTIC
    report = _require_finite({
        "gamma_probabilistic": row["gamma_probabilistic"],
        "gamma_no_sniping": row["gamma_no_sniping"],
        "regime": row["regime"],
        "p_star": row["p_star"] if probabilistic else None,
        "s_star": row["s_star"],
        "u_sure": row["u_sure"],
        "u_opt": row["u_opt"],
        "bandit_zero_spread": utility.bandit_zero_crossing(params),
    })
    analysis = json.dumps({"params": resolved, **report}, indent=2, sort_keys=True,
                          allow_nan=False)
    (out / "analysis.json").write_text(analysis + "\n")
    table = utility.payoff_table_rows(params)
    _write_csv(out / "payoff_table.csv", list(table[0]), map(dict.values, table))
    for key, value in report.items():
        print(f"{key} = {value}")
    return ["analysis.json", "payoff_table.csv"]


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


def cmd_sweep(args: argparse.Namespace, params: GameParams, resolved: dict,
              out: Path) -> list[str]:
    """One row per grid value; a value that is invalid, or whose row does not
    come out finite, is noted and skipped."""
    grid = _parse_grid(args.grid)
    if not grid:
        raise ValidationError("empty sweep grid")
    variable = args.variable
    regime_fields = ["regime", "p_star", "s_star", "u_sure", "u_opt"]
    if variable == "p":
        fields = ["p", "s_star", "u_star"]

        def row_of(p: float) -> dict:
            point = transitions.indifference_at(p, params)
            return {"p": p, "s_star": point.s_star, "u_star": point.u_star}

    elif variable == "gamma":
        fields = ["gamma", *regime_fields]
        th = transitions.thresholds(params)  # they do not depend on gamma

        def row_of(gamma: float) -> dict:
            return transitions.regime_row(replace(params, gamma=gamma), th)

    elif variable in ("alpha", "mu", "delta", "H"):
        fields = [variable, "gamma_probabilistic", "gamma_no_sniping", *regime_fields]

        def row_of(value: float) -> dict:
            # a fractional H is left for GameParams to refuse, not truncated
            integral = variable == "H" and value.is_integer()
            setting = {variable: int(value) if integral else value}
            trial = replace(params, **setting)
            return setting | transitions.regime_row(trial, transitions.thresholds(trial))

    else:
        raise ValidationError(f"unknown sweep variable {variable!r}")
    rows = []
    for value in grid:
        try:
            rows.append(_require_finite(row_of(value)))
        except ValidationError as exc:
            print(f"note: skipping {variable}={value}: {exc}", file=sys.stderr)
    if not rows:
        raise ValidationError("sweep grid is empty after validity filtering")
    name = f"sweep_{variable}.csv"
    _write_csv(out / name, fields, map(itemgetter(*fields), rows))
    resolved["variable"] = variable
    resolved["grid"] = args.grid
    print(f"wrote {out / name} ({len(rows)} rows)")
    return [name]


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def _roster(args: argparse.Namespace, params: GameParams, resolved: dict) -> Population:
    """The --ht/--hd population, which must fill all H seats."""
    pop = Population(trustworthy=args.ht, deceptive=args.hd)
    if pop.total != params.H:
        raise ValidationError(
            f"population ht+hd={pop.total} does not match H={params.H}"
        )
    resolved.update({"ht": pop.trustworthy, "hd": pop.deceptive})
    return pop


def _play(args: argparse.Namespace, params: GameParams, resolved: dict) -> tuple[float, float]:
    """Sniping probability and spread: the flags, else the optimal regime's."""
    p, spread = args.p, args.spread
    if p is None or spread is None:
        regime = transitions.optimal_sniping(params)
        p = regime.p_star if p is None else p
        spread = regime.s_star if spread is None else spread
    resolved.update({"p": p, "spread": spread})
    return p, spread


def cmd_simulate(args: argparse.Namespace, params: GameParams, resolved: dict,
                 out: Path) -> list[str]:
    import numpy as np

    from . import simulator

    pop = _roster(args, params, resolved)
    p, spread = _play(args, params, resolved)
    seeds = _parse_seeds(args.seeds)
    if not seeds:
        raise ValidationError("need at least one seed")
    if args.stages < 2:  # a standard error needs two stages
        raise ValidationError(f"stages must be >= 2 (got {args.stages})")
    resolved.update({"stages": args.stages, "seeds": seeds})
    agents = simulator.compliance_roster(pop, p, spread)
    # the roster's order: trustworthy agents first, then the deceptive ones
    classes = [simulator.TRUSTWORTHY] * pop.trustworthy + [simulator.DECEPTIVE] * pop.deceptive
    analytic = {
        cls: simulator.analytic_mean_utility(cls, p, spread, pop, params)
        for cls in dict.fromkeys(classes)
    }
    outputs = []
    summary_rows = []
    # summarise, check and write each run before the next one is drawn; the
    # streams take their names only once every seed has passed, so a refused
    # run removes what it wrote and leaves an earlier run's streams alone
    partial = lambda name: out / f".{name}.partial"
    try:
        for seed in seeds:
            run = simulator.run_repeated(agents, params, args.stages, seed)
            with np.errstate(over="ignore"):  # an overflow is refused below
                means = run.utilities.mean(axis=0)
                errs = run.utilities.std(axis=0, ddof=1) / math.sqrt(args.stages)
            for agent_id, cls in enumerate(classes):
                summary_rows.append(_require_finite(
                    {
                        "seed": seed,
                        "agent_id": agent_id,
                        "class": cls,
                        "stages": args.stages,
                        "mean_utility": float(means[agent_id]),
                        "std_error": float(errs[agent_id]),
                        "race_wins": int(run.race_wins[agent_id]),
                        "analytic_mean": analytic[cls],
                    }
                ))
            name = f"stream_seed{seed}.csv"
            outputs.append(name)
            simulator.write_stream_csv(str(partial(name)), run)
            del run
    except BaseException:
        for name in outputs:
            partial(name).unlink(missing_ok=True)
        raise
    for name in outputs:
        partial(name).replace(out / name)
    summary_rows.sort(key=lambda r: (r["seed"], r["agent_id"]))
    # the row's key order is the column order
    _write_csv(out / "summary.csv", list(summary_rows[0]), map(dict.values, summary_rows))
    outputs.append("summary.csv")
    print(f"wrote {len(outputs)} files to {out}")
    return outputs


# ---------------------------------------------------------------------------
# monitor
# ---------------------------------------------------------------------------


def _check_stream_source(stream: Path, resolved: dict) -> str | None:
    """Refuse a stream that its sibling simulate_manifest.json does not list,
    or that was drawn under other parameters, play or RNG contract than the
    monitor assumes; without a manifest, the note to print instead."""
    path = stream.parent / "simulate_manifest.json"
    if not path.exists():
        return f"note: no simulate_manifest.json beside {stream}; its source is not checked"
    manifest = _read_manifest(path)
    recorded, outputs = manifest["resolved"], manifest.get("outputs")
    if not isinstance(outputs, list) or stream.name not in outputs:
        raise ValidationError(
            f"{stream} is not among the outputs of {path}: it is left from another run"
        )
    keys = [*(f.name for f in fields(GameParams)), "sigma_scale", "p", "spread"]
    wrong = [f"{k} = {recorded.get(k)!r} there, {resolved[k]!r} here"
             for k in keys if recorded.get(k) != resolved[k]]
    if wrong:
        raise ValidationError(f"{stream} does not match {path}: " + "; ".join(wrong))
    return None


def cmd_monitor(args: argparse.Namespace, params: GameParams, resolved: dict,
                out: Path) -> list[str]:
    from . import detection

    assumed = args.assumed_hd
    if not 1 <= assumed <= params.H - 1:
        raise ValidationError(
            f"assumed_hd must lie in [1, H-1] (got {assumed})"
        )
    p, spread = _play(args, params, resolved)
    pop0 = Population(trustworthy=params.H, deceptive=0)
    pop1 = Population(trustworthy=params.H - assumed, deceptive=assumed)
    dist0 = detection.utility_distribution(params, p, pop0, spread)
    dist1 = detection.utility_distribution(params, p, pop1, spread)
    resolved.update({"err1": args.err1, "err2": args.err2, "assumed_hd": assumed,
                     "agent": args.agent})
    note = None
    if args.stream:
        note = _check_stream_source(Path(args.stream), resolved)
        stream = streams.iter_stream_csv(args.stream, args.agent)
        # absolute, so that the manifest reruns from any directory
        resolved["stream"] = str(Path(args.stream).resolve())
    else:
        import numpy as np

        from . import simulator

        seeds = _parse_seeds(args.seeds)
        if len(seeds) != 1:
            raise ValidationError(
                f"inline monitoring takes exactly one seed (got {args.seeds!r})"
            )
        pop = _roster(args, params, resolved)
        if not 0 <= args.agent < pop.total:
            raise ValidationError(
                f"agent must lie in [0, {pop.total - 1}] (got {args.agent})"
            )
        if args.stages < 1:
            raise ValidationError(f"stages must be >= 1 (got {args.stages})")
        agents = simulator.compliance_roster(pop, p, spread)
        stages = simulator.stage_stream(agents, params, np.random.default_rng(seeds[0]))
        # the same draws as run_repeated, played only until the decision
        stream = (float(o.utilities[args.agent]) for o in islice(stages, args.stages))
        resolved.update({"stages": args.stages, "seeds": seeds})
    with closing(stream):
        result = detection.monitor_stream(stream, dist0, dist1, args.err1, args.err2)
    header = ["stage", "utility", "log_ratio", "S", "decision"]
    _write_csv(out / "trajectory.csv", header, result.trajectory)
    print(f"decision = {result.decision}")
    print(f"stopped_at = {result.stopped_at}")
    print(f"statistic = {result.statistic}")
    if note:  # after the verdict: a refused stream prints only its error
        print(note, file=sys.stderr)
    return ["trajectory.csv"]


# ---------------------------------------------------------------------------


@functools.cache  # one parser per process: building it costs ten parses
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sniplab",
        description="equilibria, sweeps, simulations and compliance monitoring "
        "for the stale-quote sniping game",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_analyze = sub.add_parser("analyze", help="thresholds and optimal regime")
    _add_param_flags(p_analyze)
    p_analyze.set_defaults(func=cmd_analyze)

    p_sweep = sub.add_parser("sweep", help="sweep one variable, emit tidy CSV")
    _add_param_flags(p_sweep)
    p_sweep.add_argument(
        "--variable",
        required=True,
        choices=["gamma", "alpha", "mu", "delta", "H", "p"],
    )
    p_sweep.add_argument(
        "--grid", required=True, help="start:stop:step or comma list"
    )
    p_sweep.set_defaults(func=cmd_sweep)

    p_sim = sub.add_parser("simulate", help="repeated-game Monte Carlo runs")
    _add_param_flags(p_sim)
    p_sim.add_argument("--ht", type=int, required=True, help="trustworthy agents")
    _add_play_flags(p_sim)
    p_sim.set_defaults(func=cmd_simulate)

    p_mon = sub.add_parser("monitor", help="SPRT compliance monitoring")
    _add_param_flags(p_mon)
    p_mon.add_argument("--stream", help="utility-stream CSV from simulate")
    p_mon.add_argument("--agent", type=int, default=0, help="monitored agent id")
    p_mon.add_argument("--ht", type=int, help="inline simulation: trustworthy agents")
    _add_play_flags(p_mon)
    p_mon.add_argument("--err1", type=float, default=0.05, help="type-I rate")
    p_mon.add_argument("--err2", type=float, default=0.05, help="type-II rate")
    p_mon.add_argument("--assumed-hd", dest="assumed_hd", type=int, default=1,
                       help="deceptive count posited under H1")
    p_mon.set_defaults(func=cmd_monitor)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "monitor" and not args.stream and args.ht is None:
        parser.error("monitor needs --stream or --ht for an inline simulation")
    made = []  # the directories this run makes, innermost first
    try:
        params, resolved = _resolve_params(args)
        out = Path(args.out)
        made = [d for d in (out.resolve(), *out.resolve().parents) if not d.exists()]
        out.mkdir(parents=True, exist_ok=True)
        outputs = args.func(args, params, resolved, out)
        _write_manifest(out, args.command, resolved, outputs)
        return EXIT_OK
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        code = EXIT_VALIDATION
    except Exception as exc:  # noqa: BLE001 - runtime failures get exit code 1
        print(f"runtime error: {exc}", file=sys.stderr)
        code = EXIT_RUNTIME
    if made:  # a failed run leaves no directory of its own behind
        shutil.rmtree(made[-1], ignore_errors=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
