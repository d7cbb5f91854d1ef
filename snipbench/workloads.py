"""The four workloads: inputs made from the seed, one round of operations, and
the checks of the outputs against ``oracle`` or against properties the method
must have.

A workload runs in whole rounds.  Every round of a run repeats the same
operations on the same inputs, so the share of failed operations is the same
however many rounds fit in a run, and every round after the first must
reproduce the first round's outputs exactly.  The checks read the first
round's outputs after the timed part of the run; `sprt-replicates` checks each
replicate's trajectory as the first round runs it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import multiprocessing
import shutil
import statistics
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from oracle import Oracle, Rates

# transitions.optimal_sniping documents an absolute tolerance of 1e-6 on p*,
# and reports no sniping when its optimised u* is at or below 1e-12.
P_TOL = 1e-6
PLAYABLE_TOL = 1e-12
# Rows whose gamma lies this close to the sure-to-probabilistic threshold are
# not classified: the oracle's threshold rests on a finite-difference slope and
# agrees with the program's to about 3e-8, so nearer rows could go either way.
THRESHOLD_BAND = 1e-6

FIG7 = dict(alpha=0.45, mu=0.5, delta=0.5)
CANDIDATE = dict(alpha=0.45, mu=0.3, delta=0.5, gamma=3.0)
ERR = 0.05  # SPRT error rates, both kinds


@dataclass
class Round:
    """What one round did: operations attempted and failed, and timings."""

    attempted: int
    failed: int
    op_seconds: float  # time inside the measured calls
    work: float = 0.0  # rows, stages simulated or stages observed
    work_seconds: float = 0.0  # wall time of the calls that did `work`
    command_seconds: list[float] = field(default_factory=list)


def _flags(values: dict) -> list[str]:
    out = []
    for key, value in values.items():
        out += [f"--{key}", repr(value) if isinstance(value, float) else str(value)]
    return out


def _digest(paths) -> str:
    h = hashlib.sha256()
    for path in paths:
        h.update(Path(path).read_bytes())
    return h.hexdigest()


def _read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    lines = path.read_text(encoding="utf-8").splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def _close(a: float, b: float, rel: float = 1e-9, abs_: float = 1e-12) -> bool:
    return math.isclose(a, b, rel_tol=rel, abs_tol=abs_)


class Workload:
    name = ""

    def __init__(self, sniplab, seed: int, workdir: Path, table) -> None:
        self.lab = sniplab
        self.seed = seed
        self.workdir = workdir
        self.oracle = Oracle(table)
        self.rng = np.random.default_rng(seed)
        self.first_digest: str | None = None
        self.mismatched_rounds: list[int] = []

    def run_cli(self, argv: list[str]) -> tuple[int, str, float]:
        """Run one sniplab command in this process, as `sniplab <argv>` would."""
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = perf_counter()
            code = self.lab.cli.main(argv)
            elapsed = perf_counter() - t0
        return code, out.getvalue(), elapsed

    def round_dir(self, index: int) -> Path:
        path = self.workdir / f"round{index}"
        path.mkdir(parents=True, exist_ok=True)
        return path

    def keep_or_compare(self, index: int, digest: str) -> None:
        """Keep round 0's outputs; later rounds must reproduce them exactly."""
        if index == 0:
            self.first_digest = digest
            return
        if digest != self.first_digest:
            self.mismatched_rounds.append(index)
        shutil.rmtree(self.round_dir(index), ignore_errors=True)

    def run_round(self, index: int) -> Round:
        raise NotImplementedError

    def close(self) -> None:
        """Stop what the workload started."""

    def check(self) -> list[str]:
        """Problems found in the outputs; empty when they are correct."""
        problems = [
            f"round {i} did not reproduce round 0's outputs" for i in self.mismatched_rounds
        ]
        return problems + self.check_outputs()

    def check_outputs(self) -> list[str]:
        raise NotImplementedError


class Sweep(Workload):
    """One `sweep --variable <variable>` per round; an operation is one row."""

    variable = ""
    ROWS = 0

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self.grid = ""
        self.rates: dict = {}

    def run_round(self, index: int) -> Round:
        out = self.round_dir(index)
        argv = ["sweep", *_flags(self.rates), "--variable", self.variable, "--grid", self.grid,
                "--out", str(out)]
        code, _, seconds = self.run_cli(argv)
        if code != 0:
            self.keep_or_compare(index, "")
            return Round(self.ROWS, self.ROWS, seconds)
        self.keep_or_compare(index, _digest([out / f"sweep_{self.variable}.csv"]))
        return Round(self.ROWS, 0, seconds, self.ROWS, seconds, [seconds])

    def check_outputs(self) -> list[str]:
        path = self.round_dir(0) / f"sweep_{self.variable}.csv"
        if not path.exists():
            return []  # every row failed; the failures are counted
        header, rows = _read_csv(path)
        rows = [dict(zip(header, row)) for row in rows]
        if len(rows) != self.ROWS:
            return [f"sweep wrote {len(rows)} rows, expected {self.ROWS}"]
        return [problem for row in rows for problem in self.check_row(row)]

    def check_row(self, row: dict) -> list[str]:
        raise NotImplementedError

    def expected_regimes(self, r: Rates, g1: float, g2: float) -> set[str]:
        """The regimes the program may report at r by the oracle's thresholds
        and u*(p); empty within THRESHOLD_BAND of g1.

        Just below g2 the optimum u* falls under PLAYABLE_TOL, where the
        program reports no sniping.  Its p* may be off by P_TOL, so its u* lies
        between the oracle's u* at argmax +- P_TOL and the oracle's maximum;
        when PLAYABLE_TOL falls in that range either regime is allowed.
        """
        if abs(r.gamma - g1) <= THRESHOLD_BAND:
            return set()
        if r.gamma < g1:
            return {"sure"}
        if r.gamma >= g2:
            return {"no_sniping"}
        best = self.oracle.argmax_p(r)
        u_max = self.oracle.u_star(best, r)
        u_low = min(self.oracle.u_star(max(0.0, best - P_TOL), r),
                    self.oracle.u_star(min(1.0, best + P_TOL), r))
        if u_max <= PLAYABLE_TOL * (1 - 1e-8):
            return {"no_sniping"}
        if u_low > PLAYABLE_TOL * (1 + 1e-8):
            return {"probabilistic"}
        return {"probabilistic", "no_sniping"}

    def check_regime_row(self, label: str, r: Rates, row: dict, g1: float, g2: float) -> list[str]:
        """One sweep row against the oracle's thresholds and u*(p)."""
        expected = self.expected_regimes(r, g1, g2)
        if not expected:
            return []
        regime = row["regime"]
        p_star, u_sure, u_opt = (float(row[k]) for k in ("p_star", "u_sure", "u_opt"))
        if regime not in expected:
            return [f"{label}: regime {regime}, the oracle says {' or '.join(sorted(expected))}"]
        problems = []
        if not _close(u_sure, self.oracle.u_star(1.0, r)):
            problems.append(f"{label}: u_sure {u_sure!r} is not the oracle's u*(1)")
        if regime == "sure":
            if p_star != 1.0 or u_opt != u_sure:
                problems.append(f"{label}: sure row with p_star {p_star!r}, u_opt != u_sure")
        elif regime == "no_sniping":
            if u_opt != 0.0:
                problems.append(f"{label}: no-sniping row with u_opt {u_opt!r}")
        else:
            u_at = self.oracle.u_star(p_star, r)
            if not u_opt >= u_sure:
                problems.append(f"{label}: u_opt {u_opt!r} below u_sure {u_sure!r}")
            if not _close(u_opt, u_at, rel=1e-8, abs_=1e-15):
                problems.append(f"{label}: u_opt {u_opt!r} is not the oracle's u*(p_star) {u_at!r}")
            for q in (max(0.0, p_star - 3 * P_TOL), min(1.0, p_star + 3 * P_TOL)):
                if self.oracle.u_star(q, r) > u_at * (1 + 1e-12) + 1e-18:
                    problems.append(f"{label}: the oracle's u* at p={q!r} beats p_star")
            best = self.oracle.argmax_p(r)
            if abs(p_star - best) > P_TOL:
                problems.append(
                    f"{label}: p_star {p_star!r} is {abs(p_star - best):.3g} from the "
                    f"oracle's argmax {best!r}"
                )
        return problems


class GammaSweep(Sweep):
    """`sweep --variable gamma` at H = 5 and the Fig. 7 rates, 641 rows."""

    name = "gamma-sweep"
    variable = "gamma"
    STEP = 0.0125
    ROWS = 641

    def __init__(self, *args) -> None:
        super().__init__(*args)
        start = 1.0 + self.STEP * float(self.rng.random())
        stop = start + (self.ROWS - 1) * self.STEP
        self.grid = f"{start!r}:{stop!r}:{self.STEP!r}"
        self.rates = dict(H=5, **FIG7, gamma=3.0)
        self.base = Rates(**self.rates)
        # the thresholds do not depend on gamma
        self.g1 = self.oracle.gamma_to_probabilistic(self.base)
        self.g2 = self.oracle.gamma_to_no_sniping(self.base)

    def check_row(self, row: dict) -> list[str]:
        r = self.base.with_gamma(float(row["gamma"]))
        return self.check_regime_row(f"gamma={r.gamma:.6g}", r, row, self.g1, self.g2)


class HSweep(Sweep):
    """`sweep --variable H` over H from 2,000 to 10,000 at gamma = 4."""

    name = "h-sweep"
    variable = "H"
    ROWS = 16

    def __init__(self, *args) -> None:
        super().__init__(*args)
        offsets = self.rng.integers(0, 500, self.ROWS)
        self.hs = [2000 + 500 * i + int(o) for i, o in enumerate(offsets)]
        self.grid = ",".join(str(h) for h in self.hs)
        self.rates = dict(H=5, **FIG7, gamma=4.0)

    def check_row(self, row: dict) -> list[str]:
        r = Rates(int(row["H"]), FIG7["alpha"], FIG7["mu"], FIG7["delta"], self.rates["gamma"])
        label = f"H={r.H}"
        if r.H not in self.hs:
            return [f"{label}: not on the grid"]
        g1 = self.oracle.gamma_to_probabilistic(r)
        g2 = self.oracle.gamma_to_no_sniping(r)
        problems = []
        if not _close(float(row["gamma_no_sniping"]), g2, rel=1e-12):
            problems.append(f"{label}: gamma_no_sniping {row['gamma_no_sniping']} is not {g2!r}")
        if abs(float(row["gamma_probabilistic"]) - g1) > 1e-5:
            problems.append(
                f"{label}: gamma_probabilistic {row['gamma_probabilistic']} is not the "
                f"oracle's {g1!r}"
            )
        return problems + self.check_regime_row(label, r, row, g1, g2)


class Campaign(Workload):
    """`simulate` 4 compliant + 1 deceptive agents at H = 5, 3 seeds x 100k
    stages, then `monitor --stream` on each seed's stream (agent 0)."""

    name = "campaign"
    STAGES = 100_000
    HT, HD = 4, 1
    SEEDS = 3

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self.sim_seeds = [int(s) for s in self.rng.choice(10**6, size=self.SEEDS, replace=False)]
        self.rates = dict(H=self.HT + self.HD, **CANDIDATE)
        self.verdicts: dict[int, str] = {}  # round 0's monitor output per seed

    def run_round(self, index: int) -> Round:
        out = self.round_dir(index)
        ops = 2 * self.SEEDS  # one stream and one verdict per seed
        sim = ["simulate", *_flags(self.rates), "--ht", str(self.HT), "--hd", str(self.HD),
               "--stages", str(self.STAGES), "--seeds", ",".join(map(str, self.sim_seeds)),
               "--out", str(out)]
        code, _, sim_s = self.run_cli(sim)
        if code != 0:
            self.keep_or_compare(index, "")
            return Round(ops, ops, sim_s)
        printed, monitor_s = "", []
        for seed in self.sim_seeds:
            mon = ["monitor", *_flags(self.rates), "--stream", str(out / f"stream_seed{seed}.csv"),
                   "--agent", "0", "--err1", repr(ERR), "--err2", repr(ERR),
                   "--out", str(out / f"mon{seed}")]
            mcode, text, seconds = self.run_cli(mon)
            if mcode == 0:
                monitor_s.append(seconds)
                printed += text
                if index == 0:
                    self.verdicts[seed] = text
        files = [out / f"stream_seed{s}.csv" for s in self.sim_seeds] + [out / "summary.csv"]
        self.keep_or_compare(index, _digest(files) + printed)
        return Round(
            ops, self.SEEDS - len(monitor_s), sim_s + sum(monitor_s),
            self.SEEDS * self.STAGES, sim_s, monitor_s,
        )

    def check_outputs(self) -> list[str]:
        out = self.round_dir(0)
        if not (out / "summary.csv").exists():
            return []
        manifest = json.loads((out / "simulate_manifest.json").read_text())["resolved"]
        p, s = manifest["p"], manifest["spread"]
        r = Rates(**self.rates)
        problems = []
        best = self.oracle.argmax_p(r)
        if abs(p - best) > P_TOL:
            problems.append(f"simulate played p={p!r}, the oracle's argmax is {best!r}")
        if not _close(s, self.oracle.indifference(p, r)[0]):
            problems.append(f"simulate played spread {s!r}, not the oracle's s*(p)")
        expected = [
            self.oracle.class_mean(r, p, s, agent >= self.HT, self.HT, self.HD)
            for agent in range(self.HT + self.HD)
        ]
        header, summary = _read_csv(out / "summary.csv")
        summary = {(int(row[0]), int(row[1])): dict(zip(header, row)) for row in summary}
        streams = {}
        for seed in self.sim_seeds:
            problems += self._check_stream(out / f"stream_seed{seed}.csv", seed, summary,
                                           expected, streams)
        for seed, printed in self.verdicts.items():
            if seed in streams:
                problems += self._check_monitor(seed, printed, streams[seed], r)
        return problems

    def _check_stream(self, path, seed, summary, expected, streams) -> list[str]:
        n_agents = self.HT + self.HD
        header, _, body = path.read_text(encoding="utf-8").partition("\n")
        if header != "stage,agent_id,role,event,utility":
            return [f"{path.name}: header {header!r}"]
        cells = body.replace("\n", ",").split(",")[:-1]
        if len(cells) != 5 * self.STAGES * n_agents:
            return [f"{path.name}: {len(cells) / 5:g} rows, expected {self.STAGES * n_agents}"]
        shape = (self.STAGES, n_agents)
        stage = np.array(cells[0::5], dtype=np.int64).reshape(shape)
        agent = np.array(cells[1::5], dtype=np.int64).reshape(shape)
        is_mm = (np.array(cells[2::5]) == "mm").reshape(shape)
        race = np.char.startswith(np.array(cells[3::5]), "N").reshape(shape)
        util = np.array(cells[4::5], dtype=float).reshape(shape)
        del cells
        problems = []
        if not (stage == np.arange(self.STAGES)[:, None]).all() or not (
            agent == np.arange(n_agents)[None, :]
        ).all():
            problems.append(f"{path.name}: stages or agent ids out of order")
        if not (is_mm.sum(axis=1) == 1).all():
            problems.append(f"{path.name}: a stage without exactly one market maker")
        paid_bandits = ((util != 0.0) & ~is_mm).sum(axis=1)
        if (paid_bandits > 1).any() or (paid_bandits[~race[:, 0]] > 0).any():
            problems.append(f"{path.name}: a bandit other than a race winner has utility")
        means = util.mean(axis=0)
        errors = util.std(axis=0, ddof=1) / math.sqrt(self.STAGES)
        for a in range(n_agents):
            row = summary.get((seed, a))
            if row is None or not _close(float(row["mean_utility"]), means[a], rel=1e-12):
                problems.append(f"seed {seed} agent {a}: summary mean is not the stream's")
            z = (means[a] - expected[a]) / errors[a]
            if abs(z) > 4:
                problems.append(
                    f"seed {seed} agent {a}: mean {means[a]:.6g} is {z:.1f} standard errors "
                    f"from the oracle's {expected[a]:.6g}"
                )
        streams[seed] = util[:, 0]
        return problems

    def _check_monitor(self, seed: int, text: str, utilities, r: Rates) -> list[str]:
        printed = dict(line.split(" = ", 1) for line in text.splitlines() if " = " in line)
        manifest = json.loads((self.round_dir(0) / f"mon{seed}" / "monitor_manifest.json").read_text())
        p, s = manifest["resolved"]["p"], manifest["resolved"]["spread"]
        n = r.H
        table = self.oracle.llr_table(
            self.oracle.stage_distribution(r, p, s, p, n - 1, 0),
            self.oracle.stage_distribution(r, p, s, p, n - 2, 1),
        )
        path, decision, stop = self.oracle.sprt(table, utilities, ERR, ERR)
        statistic = path[-1]
        problems = []
        if printed.get("decision") != decision or printed.get("stopped_at") != str(stop):
            problems.append(
                f"seed {seed}: monitor says {printed.get('decision')} at "
                f"{printed.get('stopped_at')}, the oracle's SPRT {decision} at {stop}"
            )
        elif not _close(float(printed["statistic"]), statistic, abs_=1e-9):
            problems.append(
                f"seed {seed}: monitor statistic {printed['statistic']}, the oracle's {statistic!r}"
            )
        return problems


def run_replicates(task) -> list:
    """One block of SPRT replicates, in a pool worker or in this process.

    Returns one entry per replicate: None when it raised, else (decision,
    stopped_at, statistic, seconds, stages observed, agrees), where agrees
    says whether the trajectory matches the oracle's log-likelihood ratios
    (None when no table is given).
    """
    from sniplab import detection, race, simulator

    seed, hyp, indices, params, p, s, dist0, dist1, llr = task
    pop = race.Population(params.H, 0) if hyp == 0 else race.Population(params.H - 1, 1)
    agents = simulator.compliance_roster(pop, p, s)
    out = []
    for i in indices:
        rng = np.random.default_rng([seed, hyp, i])
        t0 = perf_counter()
        try:
            stream = (o.utilities[0] for o in simulator.stage_stream(agents, params, rng))
            res = detection.monitor_stream(stream, dist0, dist1, ERR, ERR)
        except Exception:  # a failed replicate is counted, not fatal
            out.append(None)
            continue
        seconds = perf_counter() - t0
        agrees = None if llr is None else _trajectory_agrees(res.trajectory, llr)
        out.append((res.decision, res.stopped_at, res.statistic, seconds,
                    res.stopped_at or len(res.trajectory), agrees))
    return out


def _trajectory_agrees(trajectory, llr: dict) -> bool:
    """Each step's stage, statistic and decision against an SPRT summed with
    the oracle's log-likelihood ratios."""
    stages, utilities, _, reported, decisions = zip(*trajectory)
    path, decision, stop = Oracle.sprt(llr, utilities, ERR, ERR)
    expected = ["continue"] * (len(path) - 1) + [decision if stop else "continue"]
    return (
        list(stages) == list(range(1, len(trajectory) + 1))
        and len(path) == len(trajectory)
        and all(_close(a, b, abs_=1e-9) for a, b in zip(reported, path))
        and list(decisions) == expected
    )


class SprtReplicates(Workload):
    """Wald's SPRT on fresh stage streams at H = 4: 200 replicates under H0
    (4 compliant agents) and 200 under H1 (3 compliant, 1 deceptive), in
    blocks of 20 over a pool sized as the program sizes its own."""

    name = "sprt-replicates"
    PER_HYPOTHESIS = 200
    BLOCK = 20
    H = 4

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self.rates = Rates(self.H, **CANDIDATE)
        # inputs: the optimal play, from the oracle
        self.p = self.oracle.argmax_p(self.rates)
        self.s = self.oracle.indifference(self.p, self.rates)[0]
        self.params = self.lab.params.GameParams(H=self.H, **CANDIDATE)
        self.first: list | None = None
        self.disagreeing: list[int] = []
        d0 = self.oracle.stage_distribution(self.rates, self.p, self.s, self.p, self.H - 1, 0)
        d1 = self.oracle.stage_distribution(self.rates, self.p, self.s, self.p, self.H - 2, 1)
        self.llr = self.oracle.llr_table(d0, d1)
        self.wald_n = self.oracle.wald_expected_n(d0, d1, ERR, ERR)
        self.pool: ProcessPoolExecutor | None = None

    def run_round(self, index: int) -> Round:
        lab = self.lab
        Population = lab.race.Population
        t0 = perf_counter()
        dist0 = lab.detection.utility_distribution(self.params, self.p, Population(self.H, 0), self.s)
        dist1 = lab.detection.utility_distribution(self.params, self.p, Population(self.H - 1, 1), self.s)
        tasks = [
            (self.seed, hyp, range(k, k + self.BLOCK), self.params, self.p, self.s, dist0, dist1,
             self.llr if index == 0 else None)
            for hyp in (0, 1)
            for k in range(0, self.PER_HYPOTHESIS, self.BLOCK)
        ]
        workers = lab.cli._thread_cap(len(tasks))  # the program's own pool size
        if workers > 1 and self.pool is None:
            # forked, as the program's own pool is: a spawned pool also starts
            # multiprocessing's resource tracker, which outlives the run
            self.pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"))
        blocks = self.pool.map(run_replicates, tasks) if workers > 1 else map(run_replicates, tasks)
        results = [r for block in blocks for r in block]
        wall = perf_counter() - t0
        done = [r for r in results if r is not None]
        outcomes = [r and r[:3] for r in results]
        if index == 0:
            self.first = outcomes
            self.disagreeing = [i for i, r in enumerate(results) if r and not r[5]]
        elif outcomes != self.first:
            self.mismatched_rounds.append(index)
        return Round(
            len(results), len(results) - len(done), wall,
            sum(r[4] for r in done), wall, [r[3] for r in done],
        )

    def close(self) -> None:
        if self.pool is not None:
            self.pool.shutdown(wait=True)
            self.pool = None

    def check_outputs(self) -> list[str]:
        if self.first is None:
            return []
        problems = [
            f"replicate {i}: the trajectory disagrees with the oracle's SPRT"
            for i in self.disagreeing
        ]
        for hyp, wrong in ((0, "reject_h0"), (1, "accept_h0")):
            done = [r for r in self.first[hyp * self.PER_HYPOTHESIS:(hyp + 1) * self.PER_HYPOTHESIS] if r]
            errors = sum(1 for r in done if r[0] == wrong)
            limit = binomial_upper(len(done), ERR, 1e-4)
            if errors > limit:
                problems.append(
                    f"H{hyp}: {errors} wrong decisions in {len(done)}, above the bound {limit}"
                )
            stops = [r[1] for r in done if r[1]]
            mean = statistics.fmean(stops)
            se = statistics.stdev(stops) / math.sqrt(len(stops))
            wald = self.wald_n[hyp]
            if not 0.9 * wald - 4 * se <= mean <= 1.3 * wald + 4 * se:
                problems.append(
                    f"H{hyp}: mean stopping time {mean:.1f} outside the band around "
                    f"Wald's {wald:.1f} (standard error {se:.1f})"
                )
        return problems


def binomial_upper(n: int, rate: float, tail: float) -> int:
    """Largest count k with P(X >= k) > tail for X ~ Bin(n, rate): more errors
    than this happen with probability below `tail` at the nominal rate."""
    upper = 0.0
    for k in range(n, -1, -1):
        upper += math.comb(n, k) * rate**k * (1 - rate) ** (n - k)
        if upper > tail:
            return k
    return 0


WORKLOADS = {w.name: w for w in (GammaSweep, HSweep, Campaign, SprtReplicates)}
