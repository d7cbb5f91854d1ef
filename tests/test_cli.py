import argparse
import csv
import hashlib
import json
import math
import os
import subprocess
import sys
import tempfile
from datetime import datetime, timedelta, timezone
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from sniplab import cli, race, simulator, streams, transitions
from sniplab.params import GameParams, ValidationError

import oracles

FIG7 = ["--H", "5", "--alpha", "0.45", "--mu", "0.5", "--delta", "0.5"]
MIX = ["--H", "4", "--alpha", "0.45", "--mu", "0.3", "--delta", "0.5", "--gamma", "3"]


def run(argv):
    return cli.main(argv)


def run_process(argv):
    """`python -m sniplab.cli argv` in a fresh interpreter, whose stderr also
    holds what logging and warnings print."""
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    return subprocess.run([sys.executable, "-m", "sniplab.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=120)


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def exit_code(argv):
    """cli.main's exit code, including argparse's exit 2 on a malformed flag."""
    try:
        return cli.main(argv)
    except SystemExit as exc:
        return exc.code


def _refuse_constant(name):
    raise ValueError(f"{name} is not JSON")


def strict_json(path):
    """The JSON document at path; Infinity, -Infinity and NaN are refused."""
    return json.loads(Path(path).read_text(), parse_constant=_refuse_constant)


# A plausible parameter set with one or two fields overridden by any finite
# float or an extreme value; H takes integers, as its flag does.
EXTREMES = ["inf", "-inf", "nan", "1e-300", "1e300"]
PLAUSIBLE = {
    "--H": st.integers(3, 200),
    "--alpha": st.floats(0.01, 1.0),
    "--mu": st.floats(0.01, 1.0),
    "--delta": st.floats(0.01, 0.49),  # (alpha + mu) * delta < 1
    "--gamma": st.floats(1.0, 20.0),
    "--sigma": st.floats(0.1, 10.0),
}
FIG7_FIELDS = {"--H": 5, "--alpha": 0.45, "--mu": 0.5, "--delta": 0.5, "--gamma": 3.5,
               "--sigma": 1.0}
OVERRIDES = st.dictionaries(
    st.sampled_from(sorted(PLAUSIBLE)),
    st.one_of(st.sampled_from(EXTREMES),
              st.floats(allow_nan=False, allow_infinity=False),
              st.integers(-(10**6), 10**6)),
    min_size=1,
    max_size=2,
)


class TestAnalyze:
    def test_report_and_outputs(self, tmp_path, capsys):
        out = tmp_path / "a"
        assert run(["analyze", *FIG7, "--gamma", "3.5", "--out", str(out)]) == 0
        text = capsys.readouterr().out
        assert "regime = probabilistic" in text
        report = json.loads((out / "analysis.json").read_text())
        assert report["gamma_no_sniping"] == pytest.approx(7.8313, abs=5e-4)
        assert report["u_opt"] > report["u_sure"] > 0
        lines = (out / "payoff_table.csv").read_text().splitlines()
        assert lines[0] == "event,prob_first,prob_second,u_mm_loses,u_sniper,u_mm_wins"
        assert len(lines) == 21
        manifest = json.loads((out / "analyze_manifest.json").read_text())
        assert manifest["command"] == "analyze"
        assert sorted(manifest["outputs"]) == ["analysis.json", "payoff_table.csv"]

    def test_config_file_with_flag_override(self, tmp_path, capsys):
        cfg = tmp_path / "game.cfg"
        cfg.write_text(
            "H = 5\nalpha = 0.45\nmu = 0.5\ndelta = 0.5\ngamma = 1.2\n"
        )
        out = tmp_path / "b"
        assert run(["analyze", "--config", str(cfg), "--out", str(out)]) == 0
        assert "regime = sure" in capsys.readouterr().out
        assert (
            run(
                ["analyze", "--config", str(cfg), "--gamma", "9", "--out", str(out)]
            )
            == 0
        )
        assert "regime = no_sniping" in capsys.readouterr().out

    def test_config_file_sigma_is_recorded(self, tmp_path, capsys):
        cfg = tmp_path / "game.cfg"
        cfg.write_text(
            "H = 5\nalpha = 0.45\nmu = 0.5\ndelta = 0.5\ngamma = 3.5\nsigma = 2\n"
        )
        out = tmp_path / "c"
        assert run(["analyze", "--config", str(cfg), "--out", str(out)]) == 0
        report = json.loads((out / "analysis.json").read_text())
        manifest = json.loads((out / "analyze_manifest.json").read_text())
        for params in (report["params"], manifest["resolved"]):
            assert params["sigma"] == 1.0
            assert params["sigma_scale"] == 2.0

    @pytest.mark.parametrize("sigma", [2.0, 0.5])
    def test_resolve_params_rescales_sigma(self, sigma):
        args = cli.build_parser().parse_args(["analyze", *FIG7, "--gamma", "3.5",
                                              "--sigma", str(sigma)])
        params, resolved = cli._resolve_params(args)
        assert params == GameParams(H=5, alpha=0.45, mu=0.5, delta=0.5, gamma=3.5, sigma=1.0)
        assert (resolved["sigma"], resolved["sigma_scale"]) == (1.0, sigma)

    def test_missing_key_is_validation_error(self, tmp_path, capsys):
        assert run(["analyze", "--H", "5", "--alpha", "0.45", "--out", str(tmp_path)]) == 2
        assert "mu" in capsys.readouterr().err

    def test_invalid_params_exit_code(self, tmp_path, capsys):
        code = run(
            ["analyze", "--H", "3", "--alpha", "0.6", "--mu", "0.6",
             "--delta", "1.0", "--gamma", "2", "--out", str(tmp_path)]
        )
        assert code == 2
        assert "latency" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag, value",
        [("--gamma", "nan"), ("--gamma", "inf"), ("--sigma", "nan"), ("--sigma", "inf"),
         ("--alpha", "-inf")],
    )
    def test_non_finite_value_refused(self, tmp_path, capsys, flag, value):
        argv = ["analyze", *FIG7, "--gamma", "3.5", f"{flag}={value}", "--out", str(tmp_path)]
        assert run(argv) == 2
        assert f"{flag[2:]} must be finite" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_huge_integer_H_refused(self, tmp_path, capsys):
        # a float cannot hold this H; it used to fail converting it, with exit 1
        argv = ["analyze", "--H", "1" + "0" * 400, *FIG7[2:], "--gamma", "3.5",
                "--out", str(tmp_path)]
        assert run(argv) == 2
        assert "H must be an integer" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_non_finite_config_value_refused(self, tmp_path, capsys):
        cfg = tmp_path / "game.cfg"
        cfg.write_text("H = 5\nalpha = 0.45\nmu = 0.5\ndelta = 0.5\ngamma = nan\n")
        assert run(["analyze", "--config", str(cfg), "--out", str(tmp_path / "a")]) == 2
        assert "gamma must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            # u*(1) = N/Q with N ~ q^2 overflows: u_sure would be -inf
            ("--gamma", "1e300", "u_sure = -inf"),
            # alpha_bar * theta_bar underflows to 0
            ("--alpha", "1e-300", "no-sniping threshold overflows"),
        ],
    )
    def test_extreme_finite_value_refused(self, tmp_path, capsys, flag, value, message):
        argv = ["analyze", *FIG7, "--gamma", "3.5", flag, value, "--out", str(tmp_path)]
        assert run(argv) == 2
        assert message in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "rates",
        [
            # alpha_bar * mu_bar underflows to 0
            ["--alpha", "0.45", "--mu", "0.5", "--delta", "1e-300"],
            # ... or to a subnormal, whose lost bits put theta_bar below both
            ["--alpha", "1e-160", "--mu", "1e-160", "--delta", "0.5"],
        ],
    )
    def test_underflowing_theta_bar_named(self, tmp_path, capsys, rates):
        argv = ["analyze", "--H", "5", *rates, "--gamma", "3", "--out", str(tmp_path)]
        assert run(argv) == 2
        assert capsys.readouterr().err.startswith("error: alpha_bar * mu_bar underflows")
        assert list(tmp_path.iterdir()) == []

    def test_underflowing_slope_numerator_gives_one_error_line(self, tmp_path):
        # K(1) underflows to 0 at alpha 1e-320; it used to be taken for
        # "probabilistic sniping already optimal" in a warning before the error
        out = tmp_path / "a"
        done = run_process(["analyze", "--H", "1000", "--alpha", "1e-320", "--mu", "0.5",
                            "--delta", "0.5", "--gamma", "3", "--out", str(out)])
        assert done.returncode == 2
        assert done.stderr.startswith("error: the no-sniping threshold overflows")
        assert done.stderr.count("\n") == 1
        assert not out.exists()

    @settings(derandomize=True, database=None, max_examples=40, deadline=None)
    @given(st.fixed_dictionaries(PLAUSIBLE), OVERRIDES)
    @example(FIG7_FIELDS, {"--gamma": "1e300"})  # an overflowing u_sure
    @example(FIG7_FIELDS, {"--alpha": "1e-300"})  # an underflowing threshold scale
    @example(FIG7_FIELDS, {"--mu": 1e-16})  # parallel utility lines
    def test_exit_2_or_finite_strict_json(self, fields, overrides):
        with tempfile.TemporaryDirectory() as out:
            argv = ["analyze", *(f"{k}={v}" for k, v in {**fields, **overrides}.items()),
                    "--out", out]
            code = exit_code(argv)
            assert code in (0, 2)
            if code == 0:
                report = strict_json(Path(out) / "analysis.json")
                strict_json(Path(out) / "analyze_manifest.json")
                values = {**report.pop("params"), **report}
                if report["regime"] != "probabilistic":
                    assert values.pop("p_star") is None
                values.pop("regime")
                for key, value in values.items():
                    assert isinstance(value, (int, float)) and math.isfinite(value), key

    def test_runtime_failure_exit_code(self, tmp_path, capsys):
        # an output "directory" that is actually a file is a runtime failure,
        # distinct from parameter validation
        blocker = tmp_path / "blocked"
        blocker.write_text("")
        code = run(["analyze", *FIG7, "--gamma", "3.5", "--out", str(blocker)])
        assert code == 1
        assert capsys.readouterr().err.startswith("runtime error")


class TestSweep:
    def test_gamma_sweep(self, tmp_path):
        out = tmp_path / "s"
        assert (
            run(
                ["sweep", *FIG7, "--gamma", "3", "--variable", "gamma",
                 "--grid", "1.5:9:1.5", "--out", str(out)]
            )
            == 0
        )
        rows = read_rows(out / "sweep_gamma.csv")
        assert [r["gamma"] for r in rows] == ["1.5", "3.0", "4.5", "6.0", "7.5", "9.0"]
        assert rows[0]["regime"] == "sure"
        assert rows[-1]["regime"] == "no_sniping"

    def test_alpha_sweep_skips_invalid(self, tmp_path, capsys):
        out = tmp_path / "s"
        # alpha = 1.6 violates the latency condition with mu=0.5, delta=0.5
        assert (
            run(
                ["sweep", *FIG7, "--gamma", "3", "--variable", "alpha",
                 "--grid", "0.4:1.6:0.4", "--out", str(out)]
            )
            == 0
        )
        err = capsys.readouterr().err
        assert "skipping" in err and "1.6" in err
        rows = read_rows(out / "sweep_alpha.csv")
        assert len(rows) == 3
        assert "gamma_no_sniping" in rows[0]

    def test_p_sweep_single_point(self, tmp_path):
        out = tmp_path / "s"
        assert (
            run(
                ["sweep", *FIG7, "--gamma", "3.5", "--variable", "p",
                 "--grid", "0.29", "--out", str(out)]
            )
            == 0
        )
        rows = read_rows(out / "sweep_p.csv")
        assert len(rows) == 1
        assert float(rows[0]["u_star"]) == pytest.approx(0.0107, abs=5e-4)

    def test_fractional_H_is_skipped_not_truncated(self, tmp_path, capsys):
        out = tmp_path / "s"
        assert (
            run(
                ["sweep", *FIG7, "--gamma", "4", "--variable", "H",
                 "--grid", "4.5,5,5.9", "--out", str(out)]
            )
            == 0
        )
        err = capsys.readouterr().err
        assert "note: skipping H=4.5: H must be an integer" in err
        assert "note: skipping H=5.9: H must be an integer" in err
        assert [r["H"] for r in read_rows(out / "sweep_H.csv")] == ["5"]

    @pytest.mark.parametrize("value", ["inf", "nan", "1e400"])
    def test_non_finite_H_is_skipped(self, tmp_path, capsys, value):
        argv = ["sweep", *FIG7, "--gamma", "4", "--variable", "H", "--grid", f"5,{value}",
                "--out", str(tmp_path)]
        assert run(argv) == 0
        assert "note: skipping H=" in capsys.readouterr().err
        assert [r["H"] for r in read_rows(tmp_path / "sweep_H.csv")] == ["5"]

    def test_non_finite_gamma_is_skipped(self, tmp_path, capsys):
        argv = ["sweep", *FIG7, "--gamma", "3", "--variable", "gamma", "--grid", "3,nan,inf",
                "--out", str(tmp_path)]
        assert run(argv) == 0
        err = capsys.readouterr().err
        assert "note: skipping gamma=nan: gamma must be finite" in err
        assert "note: skipping gamma=inf: gamma must be finite" in err
        assert [r["gamma"] for r in read_rows(tmp_path / "sweep_gamma.csv")] == ["3.0"]

    def test_overflowing_row_is_skipped(self, tmp_path, capsys):
        argv = ["sweep", *FIG7, "--gamma", "3", "--variable", "gamma", "--grid", "3,1e300",
                "--out", str(tmp_path)]
        assert run(argv) == 0
        assert "note: skipping gamma=1e+300: u_sure = -inf" in capsys.readouterr().err
        assert [r["gamma"] for r in read_rows(tmp_path / "sweep_gamma.csv")] == ["3.0"]

    @pytest.mark.parametrize("grid", ["1:inf:1", "1:2:nan", "nan:2:0.5", "-inf:2:0.5"])
    def test_non_finite_range_refused(self, tmp_path, capsys, grid):
        argv = ["sweep", *FIG7, "--gamma", "3", "--variable", "gamma", f"--grid={grid}",
                "--out", str(tmp_path)]
        assert run(argv) == 2
        assert "must be finite" in capsys.readouterr().err

    def test_grid_size_capped(self, tmp_path, capsys):
        # counted before any value is made: a billion values are never built
        cap = cli.MAX_GRID_VALUES
        with pytest.raises(ValidationError, match="more than"):
            cli._parse_grid("1:1e9:1")
        with pytest.raises(ValidationError, match="more than"):
            cli._parse_grid("-1e308:1e308:1")  # the count overflows a float
        with pytest.raises(ValidationError, match="more than"):
            cli._parse_grid(f"1:{cap + 1}:1")
        assert len(cli._parse_grid(f"1:{cap}:1")) == cap
        argv = ["sweep", *FIG7, "--gamma", "3", "--variable", "gamma", "--grid", "1:1e9:1",
                "--out", str(tmp_path)]
        assert run(argv) == 2
        assert f"more than {cap} values" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_empty_grid(self, tmp_path, capsys):
        code = run(
            ["sweep", *FIG7, "--gamma", "3", "--variable", "gamma",
             "--grid", "0.2:0.9:0.2", "--out", str(tmp_path)]
        )
        assert code == 2

    @pytest.mark.parametrize("grid", ["0.2:0.9:0.2", "1:1e9:1"])
    def test_refused_sweep_leaves_no_directory(self, tmp_path, capsys, grid):
        # an all-invalid grid is refused after the rows, an oversized one
        # before them; neither leaves a directory the run made
        argv = ["sweep", *FIG7, "--gamma", "3", "--variable", "gamma", "--grid", grid]
        assert run([*argv, "--out", str(tmp_path / "new" / "out")]) == 2
        assert list(tmp_path.iterdir()) == []
        kept = tmp_path / "kept"
        kept.mkdir()
        (kept / "notes.txt").write_text("mine\n")
        assert run([*argv, "--out", str(kept)]) == 2
        assert [f.name for f in kept.iterdir()] == ["notes.txt"]
        assert (kept / "notes.txt").read_text() == "mine\n"


class TestSimulate:
    def test_fair_population(self, tmp_path):
        out = tmp_path / "fair"
        assert (
            run(
                ["simulate", *MIX, "--ht", "4", "--hd", "0", "--stages", "4000",
                 "--seeds", "1,2", "--out", str(out)]
            )
            == 0
        )
        rows = read_rows(out / "summary.csv")
        assert len(rows) == 8
        assert {r["class"] for r in rows} == {"trustworthy"}
        analytic = {r["analytic_mean"] for r in rows}
        assert len(analytic) == 1
        for r in rows:
            assert abs(float(r["mean_utility"]) - float(r["analytic_mean"])) < 4 * float(
                r["std_error"]
            )
        assert (out / "stream_seed1.csv").exists()
        assert (out / "stream_seed2.csv").exists()

    def test_deceptive_agent_gains(self, tmp_path):
        out = tmp_path / "mix"
        assert (
            run(
                ["simulate", *MIX, "--ht", "3", "--hd", "1", "--stages", "20000",
                 "--seeds", "3", "--out", str(out)]
            )
            == 0
        )
        rows = read_rows(out / "summary.csv")
        rogue = [r for r in rows if r["class"] == "deceptive"]
        trusty = [r for r in rows if r["class"] == "trustworthy"]
        assert len(rogue) == 1 and len(trusty) == 3
        assert all(
            float(rogue[0]["mean_utility"]) > float(r["mean_utility"]) for r in trusty
        )

    def test_population_mismatch(self, tmp_path, capsys):
        code = run(
            ["simulate", *MIX, "--ht", "4", "--hd", "1", "--stages", "10",
             "--seeds", "1", "--out", str(tmp_path)]
        )
        assert code == 2

    def test_negative_seed_is_validation_error(self, tmp_path, capsys):
        code = run(["simulate", *MIX, "--ht", "4", "--stages", "10", "--seeds=2,-1",
                    "--out", str(tmp_path)])
        assert code == 2
        assert capsys.readouterr().err == "error: seeds must be non-negative (got '2,-1')\n"

    def test_repeated_seed_is_validation_error(self, tmp_path, capsys):
        # a repeated seed used to write its stream and summary rows twice
        out = tmp_path / "s"
        code = run(["simulate", *MIX, "--ht", "4", "--stages", "10", "--seeds", "1,2,1",
                    "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == "error: seeds must not repeat (got '1,2,1')\n"
        assert not out.exists()

    def test_one_stage_refused(self, tmp_path, capsys):
        # the standard error of one stage is undefined: it was written as nan
        out = tmp_path / "one"
        code = run(["simulate", *MIX, "--ht", "4", "--stages", "1", "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == "error: stages must be >= 2 (got 1)\n"
        assert not out.exists()

    @pytest.mark.filterwarnings("error")  # numpy's overflow warning fails the run
    def test_overflowing_summary_refused(self, tmp_path, capsys):
        # payoffs near 1e200 are finite, but the squares behind the standard
        # error overflow: the run used to exit 0 with std_error = inf
        out = tmp_path / "big"
        code = run(["simulate", *MIX[:-2], "--gamma", "1e200", "--ht", "3", "--hd", "1",
                    "--stages", "1000", "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: std_error = inf: ") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("seeds, stages", [("1,2", "10000"), ("3,1", "2")])
    def test_refused_run_leaves_no_stream(self, tmp_path, capsys, seeds, stages):
        # a stream used to be written before its seed's summary was checked.
        # Seed 1's standard error overflows, before this run writes a stream
        # (1,2) or after it writes seed 3's (3,1); the --out directory holds
        # an earlier run's files, which stay as they were
        argv = ["simulate", "--H", "5", "--alpha", "0.45", "--mu", "0.3", "--delta", "0.5",
                "--gamma", "1e200", "--ht", "5", "--p", "1", "--spread", "0.5",
                "--out", str(tmp_path)]
        assert run([*argv, "--stages", "2", "--seeds", "3"]) == 0
        before = {f.name: f.read_bytes() for f in tmp_path.iterdir()}
        capsys.readouterr()
        assert run([*argv, "--stages", stages, "--seeds", seeds]) == 2
        assert capsys.readouterr().err.startswith("error: std_error = inf: ")
        assert {f.name: f.read_bytes() for f in tmp_path.iterdir()} == before

    @pytest.mark.parametrize("gamma, kind", [(1.5, "sure"), (3.5, "probabilistic"),
                                             (9.0, "no_sniping")])
    def test_default_play_is_the_optimal_regime(self, tmp_path, gamma, kind):
        params = GameParams(H=5, alpha=0.45, mu=0.5, delta=0.5, gamma=gamma)
        regime = transitions.optimal_sniping(params)
        assert regime.kind == kind
        assert run(["simulate", *FIG7, "--gamma", str(gamma), "--ht", "5", "--stages", "10",
                    "--out", str(tmp_path)]) == 0
        resolved = json.loads((tmp_path / "simulate_manifest.json").read_text())["resolved"]
        p = {"sure": 1.0, "probabilistic": regime.p_star, "no_sniping": 0.0}[kind]
        assert (resolved["p"], resolved["spread"]) == (p, regime.s_star)


class TestMonitor:
    def test_inline_deceptive_rejects(self, tmp_path, capsys):
        out = tmp_path / "m1"
        assert (
            run(
                ["monitor", *MIX, "--ht", "3", "--hd", "1", "--stages", "20000",
                 "--seeds", "5", "--out", str(out)]
            )
            == 0
        )
        text = capsys.readouterr().out
        assert "decision = reject_h0" in text
        rows = read_rows(out / "trajectory.csv")
        assert rows[-1]["decision"] == "reject_h0"

    def test_inline_fair_accepts(self, tmp_path, capsys):
        out = tmp_path / "m0"
        assert (
            run(
                ["monitor", *MIX, "--ht", "4", "--hd", "0", "--stages", "50000",
                 "--seeds", "6", "--out", str(out)]
            )
            == 0
        )
        assert "decision = accept_h0" in capsys.readouterr().out

    def test_truncated_stream_undecided(self, tmp_path, capsys):
        out = tmp_path / "m2"
        assert (
            run(
                ["monitor", *MIX, "--ht", "4", "--hd", "0", "--stages", "3",
                 "--seeds", "6", "--out", str(out)]
            )
            == 0
        )
        assert "decision = undecided" in capsys.readouterr().out
        lines = (out / "trajectory.csv").read_text().splitlines()
        assert lines[0] == "stage,utility,log_ratio,S,decision"
        assert len(lines) == 4

    def test_monitor_recorded_stream(self, tmp_path, capsys):
        sim_out = tmp_path / "rec"
        assert (
            run(
                ["simulate", *MIX, "--ht", "3", "--hd", "1", "--stages", "20000",
                 "--seeds", "5", "--out", str(sim_out)]
            )
            == 0
        )
        capsys.readouterr()
        out = tmp_path / "m3"
        assert (
            run(
                ["monitor", *MIX, "--stream", str(sim_out / "stream_seed5.csv"),
                 "--agent", "0", "--out", str(out)]
            )
            == 0
        )
        text = capsys.readouterr().out
        assert "decision = reject_h0" in text

    @pytest.mark.parametrize("command", ["monitor", "simulate"])
    def test_overflowing_payoff_refused(self, tmp_path, capsys, command):
        # -gamma*(2-s) overflows at gamma 1e308: inline monitoring used to
        # fold -inf utilities, and the engine to pay them
        out = tmp_path / "big"
        code = run([command, *MIX[:-2], "--gamma", "1e308", "--ht", "4", "--stages", "2000",
                    "--seeds", "7", "--p", "0.5", "--spread", "0.3", "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: a payoff at spread 0.3, gamma 1e+308 is not finite\n"
        )
        assert not out.exists()

    def test_needs_stream_or_roster(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["monitor", *MIX])
        assert exc.value.code == 2

    def test_inline_takes_one_seed(self, tmp_path, capsys):
        code = run(
            ["monitor", *MIX, "--ht", "4", "--hd", "0", "--stages", "100",
             "--seeds", "6,7", "--out", str(tmp_path)]
        )
        assert code == 2
        assert "exactly one seed" in capsys.readouterr().err

    def test_inline_negative_seed_is_validation_error(self, tmp_path, capsys):
        code = run(["monitor", *MIX, "--ht", "4", "--stages", "10", "--seeds=-3",
                    "--out", str(tmp_path)])
        assert code == 2
        assert capsys.readouterr().err == "error: seeds must be non-negative (got '-3')\n"

    def test_inline_plays_only_until_the_decision(self, tmp_path, capsys, monkeypatch):
        played = []
        stage_stream = simulator.stage_stream

        def counted(*args):
            for outcome in stage_stream(*args):
                played.append(outcome)
                yield outcome

        monkeypatch.setattr(simulator, "stage_stream", counted)
        assert (
            run(
                ["monitor", *MIX, "--ht", "4", "--hd", "0", "--stages", "50000",
                 "--seeds", "6", "--out", str(tmp_path)]
            )
            == 0
        )
        text = capsys.readouterr().out
        assert "decision = accept_h0" in text
        assert f"stopped_at = {len(played)}\n" in text

    def test_inline_and_recorded_trajectories_agree(self, tmp_path):
        sim_out, inline, recorded = tmp_path / "rec", tmp_path / "in", tmp_path / "st"
        roster = ["--ht", "3", "--hd", "1", "--stages", "20000"]
        assert run(["simulate", *MIX, *roster, "--seeds", "5", "--out", str(sim_out)]) == 0
        assert run(["monitor", *MIX, *roster, "--seeds", "5", "--agent", "2",
                    "--out", str(inline)]) == 0
        assert run(["monitor", *MIX, "--stream", str(sim_out / "stream_seed5.csv"),
                    "--agent", "2", "--out", str(recorded)]) == 0
        trajectory = (inline / "trajectory.csv").read_bytes()
        assert trajectory == (recorded / "trajectory.csv").read_bytes()
        assert trajectory.count(b"\n") > 2

    def test_stream_from_other_play_refused(self, tmp_path, capsys):
        # drawn at p = 1: the monitor's default p* law used to test it anyway
        # and reject H0
        sim_out = tmp_path / "s"
        assert run(["simulate", *MIX, "--ht", "4", "--p", "1.0", "--spread", "0.6",
                    "--stages", "2000", "--seeds", "4", "--out", str(sim_out)]) == 0
        capsys.readouterr()
        out = tmp_path / "m"
        assert run(["monitor", *MIX, "--stream", str(sim_out / "stream_seed4.csv"),
                    "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "p = 1.0 there" in err and "spread = 0.6" in err
        assert not out.exists()

    @pytest.mark.parametrize("key, value", [
        ("gamma", 3.5), ("H", 5), ("sigma_scale", 2.0), ("spread", 0.5), ("rng_contract", 1),
        ("outputs", None), (None, None),
    ])
    def test_stream_from_other_manifest_refused(self, tmp_path, capsys, key, value):
        # key None: a manifest that is not JSON
        sim_out = tmp_path / "s"
        assert run(["simulate", *MIX, "--ht", "4", "--stages", "200", "--seeds", "4",
                    "--out", str(sim_out)]) == 0
        argv = ["monitor", *MIX, "--stream", str(sim_out / "stream_seed4.csv"),
                "--out", str(tmp_path / "m")]
        assert run(argv) == 0
        path = sim_out / "simulate_manifest.json"
        manifest = json.loads(path.read_text())
        if key in ("rng_contract", "outputs"):
            manifest[key] = value
        elif key is not None:
            manifest["resolved"][key] = value
        path.write_text(json.dumps(manifest) if key else "{")
        capsys.readouterr()
        assert run(argv) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_stale_stream_refused(self, tmp_path, capsys):
        # a rerun with fewer seeds leaves stream_seed2.csv beside a manifest
        # that no longer lists it
        sim = ["simulate", *MIX, "--ht", "4", "--stages", "200", "--out", str(tmp_path / "s")]
        assert run([*sim, "--seeds", "1,2"]) == 0
        assert run([*sim, "--seeds", "1"]) == 0
        capsys.readouterr()
        argv = ["monitor", *MIX, "--out", str(tmp_path / "m"), "--stream"]
        assert run([*argv, str(tmp_path / "s" / "stream_seed2.csv")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "not among the outputs" in err
        assert run([*argv, str(tmp_path / "s" / "stream_seed1.csv")]) == 0

    def test_stream_without_manifest_is_noted(self, tmp_path, capsys):
        sim_out = tmp_path / "s"
        assert run(["simulate", *MIX, "--ht", "4", "--stages", "200", "--seeds", "4",
                    "--out", str(sim_out)]) == 0
        (sim_out / "simulate_manifest.json").unlink()
        capsys.readouterr()
        stream = sim_out / "stream_seed4.csv"
        assert run(["monitor", *MIX, "--stream", str(stream), "--out", str(tmp_path / "m")]) == 0
        assert capsys.readouterr().err == (
            f"note: no simulate_manifest.json beside {stream}; its source is not checked\n"
        )


def _blocks(path):
    """Header line and the stream's rows grouped by stage."""
    header, *rows = path.read_text().splitlines(keepends=True)
    stages = {}
    for row in rows:
        stages.setdefault(int(row.split(",", 1)[0]), []).append(row)
    return header, [stages[t] for t in sorted(stages)]


def _corrupt(kind, header, blocks):
    """A malformed copy of the stream; each defect sits at stage 10 or 11."""
    blocks = [list(b) for b in blocks]
    if kind == "gap":
        del blocks[10]
    elif kind == "duplicate":
        blocks.insert(10, blocks[10])
    elif kind == "swapped":
        blocks[10], blocks[11] = blocks[11], blocks[10]
    elif kind == "rewound":  # stages 9 and 10 played again after stage 10
        blocks[11:11] = blocks[9:11]
    elif kind == "header":
        header = "stage,agent,role,event,utility\n"
    elif kind == "agent-missing-in-a-stage":
        del blocks[10][0]
    elif kind == "malformed-utility":
        blocks[10][0] = blocks[10][0].rsplit(",", 1)[0] + ",x\n"
    return header + "".join(row for b in blocks for row in b)


class TestStreamValidation:
    @pytest.fixture(scope="class")
    def recorded(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("rec")
        assert cli.main(["simulate", *MIX, "--ht", "3", "--hd", "1", "--stages", "2000",
                         "--seeds", "5", "--out", str(out)]) == 0
        path = out / "stream_seed5.csv"
        assert cli.main(["monitor", *MIX, "--stream", str(path), "--agent", "0",
                         "--out", str(out / "mon")]) == 0
        trajectory = (out / "mon" / "trajectory.csv").read_bytes()
        stopped = len(read_rows(out / "mon" / "trajectory.csv"))
        assert stopped > 11  # every defect below lies before the decision
        return path, trajectory, stopped

    @pytest.mark.parametrize(
        "kind",
        ["gap", "duplicate", "swapped", "rewound", "header", "agent-missing-in-a-stage",
         "malformed-utility"],
    )
    def test_malformed_stream_refused(self, recorded, tmp_path, capsys, kind):
        path = tmp_path / "bad.csv"
        path.write_text(_corrupt(kind, *_blocks(recorded[0])))
        with pytest.raises(ValidationError):
            list(streams.iter_stream_csv(str(path), 0))
        code = run(["monitor", *MIX, "--stream", str(path), "--agent", "0",
                    "--out", str(tmp_path / "m")])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_missing_agent_refused(self, recorded, tmp_path, capsys):
        with pytest.raises(ValidationError):
            list(streams.iter_stream_csv(str(recorded[0]), 9))
        code = run(["monitor", *MIX, "--stream", str(recorded[0]), "--agent", "9",
                    "--out", str(tmp_path)])
        assert code == 2

    def test_reading_stops_at_the_decision(self, recorded, tmp_path):
        path, trajectory, stopped = recorded
        header, blocks = _blocks(path)
        garbled = tmp_path / "garbled.csv"
        garbled.write_text(
            header + "".join(row for b in blocks[:stopped] for row in b)
            + "garbage\n" * 100
        )
        out = tmp_path / "m"
        assert run(["monitor", *MIX, "--stream", str(garbled), "--agent", "0",
                    "--out", str(out)]) == 0
        assert (out / "trajectory.csv").read_bytes() == trajectory


class TestNoNumpy:
    """The analytic commands and monitor --stream never import numpy."""

    PROBE = (
        "import sys; from sniplab import cli; code = cli.main(sys.argv[1:]); "
        "print(sorted(m for m in ('numpy', 'sniplab.simulator') if m in sys.modules)); "
        "sys.exit(code)"
    )

    def test_commands_load_no_numpy(self, tmp_path):
        sim = tmp_path / "sim"
        assert run(["simulate", *MIX, "--ht", "4", "--stages", "2000", "--seeds", "1",
                    "--out", str(sim)]) == 0
        commands = [
            ["analyze", *FIG7, "--gamma", "3.5"],
            ["sweep", *FIG7, "--gamma", "3", "--variable", "gamma", "--grid", "1:9:0.05"],
            ["monitor", *MIX, "--stream", str(sim / "stream_seed1.csv")],
        ]
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
        for i, argv in enumerate(commands):
            done = subprocess.run(
                [sys.executable, "-c", self.PROBE, *argv, "--out", str(tmp_path / str(i))],
                env=env, capture_output=True, text=True, timeout=120,
            )
            assert done.returncode == 0, done.stderr
            assert done.stdout.splitlines()[-1] == "[]", argv[0]


class TestColdStart:
    """A command loads logging, datetime and detection only where it uses them."""

    MODULES = ("datetime", "logging", "sniplab.detection")
    PROBE = (
        "import sys; from sniplab import cli; code = cli.main(sys.argv[1:]); "
        f"print(sorted(m for m in {MODULES!r} if m in sys.modules)); "
        "sys.exit(code)"
    )

    def test_commands_load_only_what_they_run(self, tmp_path):
        sim = tmp_path / "sim"
        assert run(["simulate", *MIX, "--ht", "4", "--stages", "2000", "--seeds", "1",
                    "--out", str(sim)]) == 0
        commands = [
            (["analyze", *FIG7, "--gamma", "3.5"], []),
            (["sweep", *FIG7, "--gamma", "3", "--variable", "gamma", "--grid", "1:9:0.05"],
             []),
            # a compliant stream: no outcome forces the decision, so nothing is logged
            (["monitor", *MIX, "--stream", str(sim / "stream_seed1.csv")],
             ["sniplab.detection"]),
        ]
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
        for i, (argv, loaded) in enumerate(commands):
            done = subprocess.run(
                [sys.executable, "-c", self.PROBE, *argv, "--out", str(tmp_path / str(i))],
                env=env, capture_output=True, text=True, timeout=120,
            )
            assert done.returncode == 0, done.stderr
            assert done.stdout.splitlines()[-1] == repr(loaded), argv[0]


class TestDeterminism:
    def test_simulate_byte_identical(self, tmp_path):
        args = ["simulate", *MIX, "--ht", "3", "--hd", "1", "--stages", "2000",
                "--seeds", "11"]
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert run(args + ["--out", str(out1)]) == 0
        assert run(args + ["--out", str(out2)]) == 0
        for name in ("stream_seed11.csv", "summary.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    @pytest.mark.parametrize(
        "argv, outputs",
        [
            (["sweep", *FIG7, "--gamma", "3", "--variable", "gamma", "--grid", "1.5:8:0.5"],
             ["sweep_gamma.csv"]),
            (["analyze", *FIG7, "--gamma", "3.5"], ["analysis.json", "payoff_table.csv"]),
            (["analyze", *FIG7, "--gamma", "3.5", "--sigma", "2"],
             ["analysis.json", "payoff_table.csv"]),
        ],
        ids=["sweep", "analyze", "analyze-sigma"],
    )
    def test_rerun_from_manifest(self, tmp_path, argv, outputs):
        out1 = tmp_path / "r1"
        assert run([*argv, "--out", str(out1)]) == 0
        manifest = out1 / f"{argv[0]}_manifest.json"
        before = {name: (out1 / name).read_bytes() for name in outputs}
        resolved = json.loads(manifest.read_text())["resolved"]
        assert run(cli.args_from_manifest(manifest)) == 0
        assert {name: (out1 / name).read_bytes() for name in outputs} == before
        assert json.loads(manifest.read_text())["resolved"] == resolved

    def test_rerun_monitor_from_manifest(self, tmp_path):
        sim_out = tmp_path / "s"
        roster = ["--ht", "3", "--hd", "1", "--stages", "2000", "--seeds", "4"]
        assert run(["simulate", *MIX, *roster, "--out", str(sim_out)]) == 0
        stream = ["--stream", str(sim_out / "stream_seed4.csv")]
        for name, source in [("inline", roster), ("recorded", stream)]:
            out = tmp_path / name
            assert run(["monitor", *MIX, *source, "--out", str(out)]) == 0
            before = (out / "trajectory.csv").read_bytes()
            (out / "trajectory.csv").unlink()
            assert run(cli.args_from_manifest(out / "monitor_manifest.json")) == 0
            assert (out / "trajectory.csv").read_bytes() == before

    def test_rerun_monitor_from_another_directory(self, tmp_path, monkeypatch):
        work, other = tmp_path / "work", tmp_path / "other"
        work.mkdir()
        other.mkdir()
        monkeypatch.chdir(work)
        assert run(["simulate", *MIX, "--ht", "3", "--hd", "1", "--stages", "2000",
                    "--seeds", "4", "--out", "sim"]) == 0
        assert run(["monitor", *MIX, "--stream", "sim/stream_seed4.csv",
                    "--out", "mon"]) == 0
        before = (work / "mon" / "trajectory.csv").read_bytes()
        (work / "mon" / "trajectory.csv").unlink()
        monkeypatch.chdir(other)
        assert run(cli.args_from_manifest("../work/mon/monitor_manifest.json")) == 0
        assert (work / "mon" / "trajectory.csv").read_bytes() == before

    def test_manifest_records_rng_contract(self, tmp_path):
        sim_out, inline, recorded = tmp_path / "s", tmp_path / "i", tmp_path / "r"
        roster = ["--ht", "3", "--hd", "1", "--stages", "500", "--seeds", "4"]
        assert run(["simulate", *MIX, *roster, "--out", str(sim_out)]) == 0
        assert run(["monitor", *MIX, *roster, "--out", str(inline)]) == 0
        assert run(["monitor", *MIX, "--stream", str(sim_out / "stream_seed4.csv"),
                    "--out", str(recorded)]) == 0
        for out, command, contract in [(sim_out, "simulate", 2), (inline, "monitor", 2),
                                       (recorded, "monitor", None)]:
            manifest = json.loads((out / f"{command}_manifest.json").read_text())
            assert manifest.get("rng_contract") == contract
            assert "rng_contract" not in manifest["resolved"]
        argv = cli.args_from_manifest(sim_out / "simulate_manifest.json")
        assert "--rng_contract" not in argv
        before = (sim_out / "stream_seed4.csv").read_bytes()
        assert run(argv) == 0
        assert (sim_out / "stream_seed4.csv").read_bytes() == before

    def test_manifest_timestamp_is_utc_with_microseconds(self, tmp_path):
        start = datetime.now(timezone.utc)
        assert run(["analyze", *FIG7, "--gamma", "3.5", "--out", str(tmp_path)]) == 0
        manifest = json.loads((tmp_path / "analyze_manifest.json").read_text())
        stamp = datetime.fromisoformat(manifest["timestamp"])
        assert stamp.utcoffset() == timedelta(0)
        assert len(manifest["timestamp"].split(".")[1]) == len("ffffff+00:00")
        assert abs(stamp - start) < timedelta(minutes=1)

    @pytest.mark.parametrize("ns", [0, 1_700_000_000_000_000_000, 1_700_000_000_123_456_789])
    def test_timestamp_is_datetime_isoformat(self, monkeypatch, ns):
        # with microseconds even where they are zero, which isoformat() drops
        monkeypatch.setattr(cli.time, "time_ns", lambda: ns)
        expected = datetime.fromtimestamp(0, timezone.utc) + timedelta(microseconds=ns // 1000)
        assert cli._utc_timestamp() == expected.isoformat(timespec="microseconds")

    @pytest.mark.parametrize("contract", [None, 1, 3])
    def test_manifest_from_another_contract_refused(self, tmp_path, contract):
        assert run(["simulate", *MIX, "--ht", "4", "--stages", "100", "--seeds", "1",
                    "--out", str(tmp_path)]) == 0
        path = tmp_path / "simulate_manifest.json"
        manifest = json.loads(path.read_text())
        if contract is None:
            del manifest["rng_contract"]
        else:
            manifest["rng_contract"] = contract
        path.write_text(json.dumps(manifest))
        with pytest.raises(ValidationError, match="RNG contract"):
            cli.args_from_manifest(path)

    def test_malformed_manifest_refused(self, tmp_path, capsys):
        path = tmp_path / "analyze_manifest.json"
        for text in ("{", json.dumps({"command": "analyze", "outputs": []}),
                     json.dumps({"command": "analyze", "resolved": [1]}),
                     json.dumps({"resolved": {"gamma": 3.5}})):
            path.write_text(text)
            with pytest.raises(ValidationError, match="not a manifest"):
                cli.args_from_manifest(path)
        # a seeded record without its RNG contract: both readers refuse it
        sim_out = tmp_path / "s"
        assert run(["simulate", *MIX, "--ht", "4", "--stages", "200", "--seeds", "4",
                    "--out", str(sim_out)]) == 0
        path = sim_out / "simulate_manifest.json"
        manifest = json.loads(path.read_text())
        del manifest["rng_contract"]
        path.write_text(json.dumps(manifest))
        with pytest.raises(ValidationError, match="RNG contract None"):
            cli.args_from_manifest(path)
        capsys.readouterr()
        assert run(["monitor", *MIX, "--stream", str(sim_out / "stream_seed4.csv"),
                    "--out", str(tmp_path / "m")]) == 2
        assert "RNG contract None" in capsys.readouterr().err

    def test_simulate_streams_are_stable(self, tmp_path):
        # digests of the streams written by the row-by-row csv.writer writer,
        # under RNG contract 2; p and spread are pinned, so the streams test
        # the engine and the writer and not the last digits of the optimiser
        expected = {
            "stream_seed1.csv": "71c363f71c466a34ae7404b6357b043d86f3d189b4293dfc67d6a43c451b766e",
            "stream_seed2.csv": "3a7d81b4ef227d04a2ca78f24645b1ae9e5e77f0fc5eb990be23dc30a95e07df",
        }
        assert (
            run(
                ["simulate", "--H", "5", "--alpha", "0.45", "--mu", "0.3", "--delta", "0.5",
                 "--gamma", "3", "--ht", "4", "--hd", "1", "--stages", "20000",
                 "--seeds", "1,2", "--p", "0.2035691573361233",
                 "--spread", "0.6064860601438494", "--out", str(tmp_path)]
            )
            == 0
        )
        for name, digest in expected.items():
            assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest

    def test_non_stream_outputs_are_stable(self, tmp_path):
        # digests of every output, streams included, taken on CPython 3.11.7
        # with numpy 2.4.6; the streams' digests were taken with the writer
        # that formatted each distinct stage once per chunk.  The summary's p
        # and spread are pinned as above, the monitor's come from the
        # optimiser, as in a default run.  sweep_gamma.csv and trajectory.csv
        # were taken with the log1p race forms of 0.2.0, sweep_H.csv with the
        # n*p scan points and the next-float probe of 0.3.0
        expected = {
            "analysis.json": "d8fd9641fae7923c62eda84774c85b63a9a80ca2e5440d10cd0384c908f9fff7",
            "payoff_table.csv": "e8273d80e97d9ff85dfcb6ac74c5821443400e70026065cde08f3bc39a8fc890",
            "sweep_gamma.csv": "fe882f04ded698db80a760044dfb7971a3c3de22790c38124752b7e4db8cd577",
            "sweep_H.csv": "f4b96622e0d7648912a4716bd9bd44f56b85bcf51e83e6ea40a8e1eb6dcec302",
            "summary.csv": "e18239c474bb8bcbd7c491ff2d6d74cca0beb9788e018315924ace10976fe1b6",
            "stream_seed1.csv": "97b5fbf01c4556364e0a4f41cb8de1377aebe290d15f3b4932f74c3b23167e1c",
            "stream_seed2.csv": "e8351aeff2985699a2fb0b7ddba2f8ad125396568d15766157ec5d69225ce8a6",
            "trajectory.csv": "5de0108f3c4dca9b2271718e90170855f9f7a8280a89388c82f02634786ddec7",
        }
        for argv in [
            ["analyze", *FIG7, "--gamma", "3.5"],
            ["sweep", *FIG7, "--gamma", "3", "--variable", "gamma", "--grid", "1.5:8:0.5"],
            ["sweep", *FIG7, "--gamma", "4", "--variable", "H", "--grid", "2000,5000,10000"],
            ["simulate", *MIX, "--ht", "3", "--hd", "1", "--stages", "2000", "--seeds", "1,2",
             "--p", "0.2035691573361233", "--spread", "0.6064860601438494"],
            ["monitor", *MIX, "--ht", "3", "--hd", "1", "--stages", "20000", "--seeds", "5",
             "--agent", "2"],
        ]:
            assert run([*argv, "--out", str(tmp_path)]) == 0, argv[0]
        for name, digest in expected.items():
            assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, name

    def test_outputs_changed_in_0_2_0_stay_near_0_1_0(self, tmp_path, monkeypatch):
        # Of the files test_non_stream_outputs_are_stable pins, 0.2.0 moved the
        # last bits of these three.  Under the race forms of 0.1.0, patched
        # in with the _root and scan grid that 0.1.0 shared with 0.2.0, the
        # commands that write them give 0.1.0's digests, so the comparison is
        # with 0.1.0's own outputs.
        # Every number must agree to 1e-12 relative to max(1, |value|).  Where
        # these outputs are read, both versions' race values lie within a few
        # ulps of exact: the H sweep's p* sits at n p ~ 0.85, which 0.1.0
        # summed, and the gamma sweep and the monitor run at H = 5 and 4,
        # where (1-p)**n amplifies the rounding of 1 - p at most 5 times.
        # 1e-12 leaves room for p*, whose slope is flat at the root, and for
        # the SPRT statistic, a sum of 295 terms that each moved by a few
        # ulps.  Measured: 7.5e-15, on the statistic.
        changed = {
            "sweep_gamma.csv": "a318ec6f6de8d31fa71f3291c22857e5ab7d730369a7af667772dce58fea3a00",
            "sweep_H.csv": "0282939357a7b9ea8b03cd2380ebd35b65d98ef4084cae917f7eb4620223832a",
            "trajectory.csv": "b1f8caaf725e0e06b2c8505b9fdb39867af6d9fc77042565d2d9c11a92b9877c",
        }
        commands = [
            ["sweep", *FIG7, "--gamma", "3", "--variable", "gamma", "--grid", "1.5:8:0.5"],
            ["sweep", *FIG7, "--gamma", "4", "--variable", "H", "--grid", "2000,5000,10000"],
            ["monitor", *MIX, "--ht", "3", "--hd", "1", "--stages", "20000", "--seeds", "5",
             "--agent", "2"],
        ]
        old, new = tmp_path / "0.1.0", tmp_path / "0.2.0"
        with monkeypatch.context() as m:
            m.setattr(race, "mm_loss_prob", oracles.mm_loss_prob_0_1_0)
            m.setattr(race, "mm_loss_prob_deriv", oracles.mm_loss_prob_deriv_0_1_0)
            m.setattr(transitions, "_root", oracles.root_0_2_0)
            m.setattr(transitions, "_NP_POINTS", ())
            transitions._scan_race.cache_clear()
            for argv in commands:
                assert run([*argv, "--out", str(old)]) == 0, argv[0]
        transitions._scan_race.cache_clear()
        for argv in commands:
            assert run([*argv, "--out", str(new)]) == 0, argv[0]
        for name, digest in changed.items():
            assert hashlib.sha256((old / name).read_bytes()).hexdigest() == digest, name
            rows_old = list(csv.reader((old / name).open()))
            rows_new = list(csv.reader((new / name).open()))
            assert rows_old != rows_new and len(rows_old) == len(rows_new), name
            for row_old, row_new in zip(rows_old, rows_new):
                assert len(row_old) == len(row_new)
                for a, b in zip(row_old, row_new):
                    try:
                        x, y = float(a), float(b)
                    except ValueError:
                        assert a == b, name
                        continue
                    assert abs(x - y) <= 1e-12 * max(1.0, abs(x)), (name, row_old, row_new)

    def test_outputs_changed_in_0_3_0_stay_near_0_2_0(self, tmp_path, monkeypatch):
        # Of the files test_non_stream_outputs_are_stable pins, 0.3.0 moved
        # only sweep_H.csv: the scan points c/H and the next-float probe of
        # _root change the path of the p* iterates, not the function whose
        # zero they find.  With 0.2.0's _root and no such points patched in,
        # the H sweep gives 0.2.0's digest, so the comparison is with 0.2.0's
        # own output.
        # Every number must agree to 1e-13 relative.  Both versions stop at
        # adjacent floats around a sign change of the slope numerator, whose
        # rounding noise near p* spans up to about 500 ulps of p (5.6e-14
        # relative, measured between bracket choices at H 2,000-10^6); s* and
        # u* at p* and the thresholds are better conditioned.  Measured over
        # 754 rows at H 2,000-10^6: 1.3e-15 on p*, 8.6e-16 on u_opt.
        argv = ["sweep", *FIG7, "--gamma", "4", "--variable", "H", "--grid",
                "2000,5000,10000"]
        old, new = tmp_path / "0.2.0", tmp_path / "0.3.0"
        with monkeypatch.context() as m:
            m.setattr(transitions, "_root", oracles.root_0_2_0)
            m.setattr(transitions, "_NP_POINTS", ())
            transitions._scan_race.cache_clear()
            assert run([*argv, "--out", str(old)]) == 0
        transitions._scan_race.cache_clear()
        assert run([*argv, "--out", str(new)]) == 0
        digest = hashlib.sha256((old / "sweep_H.csv").read_bytes()).hexdigest()
        assert digest == "cdd61198c0229bf1a2fe7551e6116ec0425d4068b645bc5d0388d83e623415df"
        rows_old = list(csv.reader((old / "sweep_H.csv").open()))
        rows_new = list(csv.reader((new / "sweep_H.csv").open()))
        assert rows_old[0] == rows_new[0] and rows_old != rows_new
        assert len(rows_old) == len(rows_new) == 4
        for row_old, row_new in zip(rows_old[1:], rows_new[1:]):
            assert len(row_old) == len(row_new)
            for a, b in zip(row_old, row_new):
                try:
                    x, y = float(a), float(b)
                except ValueError:
                    assert a == b
                    continue
                assert abs(x - y) <= 1e-13 * abs(x), (row_old, row_new)

    def test_summary_changed_in_0_4_0_stays_near_0_3_0(self, tmp_path, monkeypatch):
        # 0.4.0 moved only the deceptive analytic_mean cells of summary.csv:
        # race.mixed_race takes a deceptive agent's win in one variable over
        # its rivals, where 0.3.0 conditioned on the maker's type.  The pinned
        # summary (H_t 3, H_d 1) kept its bits, so the README simulate is run
        # here.  With 0.3.0's form patched into the deceptive class's race
        # alone, it gives 0.3.0's digest (CPython 3.11.7, numpy 2.4.6), so the
        # comparison is with 0.3.0's own output; 0.4.0's digest pins the new
        # cell.
        # Every number must agree to 1e-14 relative.  Each version's win lies
        # within a few ulps of exact (0.4.0's up to 6.5, 0.3.0's up to 4.7,
        # against exact rational sums over 2,998 rosters with H_t and H_d up
        # to 40), so the two differ by under 12 ulps, 2.7e-15 relative; the
        # analytic mean moves 0.95 times as much, relatively, at this roster.
        # Measured: 1 ulp, 1.5e-16.
        argv = ["simulate", "--H", "5", "--alpha", "0.45", "--mu", "0.3", "--delta", "0.5",
                "--gamma", "3", "--ht", "4", "--hd", "1", "--stages", "2000", "--seeds", "1"]
        mixed_race, analytic_mean_utility = race.mixed_race, simulator.analytic_mean_utility

        def race_0_3_0(p, rivals):
            return oracles.win_prob_given_entry_deceptive_0_3_0(p, rivals), mixed_race(p, rivals)[1]

        def analytic_mean_0_3_0(agent_class, *args):
            with monkeypatch.context() as m:
                if agent_class == simulator.DECEPTIVE:
                    m.setattr(race, "mixed_race", race_0_3_0)
                return analytic_mean_utility(agent_class, *args)

        old, new = tmp_path / "0.3.0", tmp_path / "0.4.0"
        with monkeypatch.context() as m:
            m.setattr(simulator, "analytic_mean_utility", analytic_mean_0_3_0)
            assert run([*argv, "--out", str(old)]) == 0
        assert run([*argv, "--out", str(new)]) == 0
        digests = [hashlib.sha256((d / "summary.csv").read_bytes()).hexdigest() for d in (old, new)]
        assert digests == [
            "27ed251cc682babb4c00e1384863b1554c8b40dc1446b14e01f0dd666a3c4a79",
            "f78132f1ff43b288313dc5279b5baf34929e23349d670f2b877211887ab6afaa",
        ]
        rows_old = list(csv.DictReader((old / "summary.csv").open()))
        rows_new = list(csv.DictReader((new / "summary.csv").open()))
        assert len(rows_old) == len(rows_new) == 5
        for row_old, row_new in zip(rows_old, rows_new):
            for field, a in row_old.items():
                b = row_new[field]
                if field != "analytic_mean" or row_old["class"] != simulator.DECEPTIVE:
                    assert a == b, (field, row_old, row_new)
                else:
                    assert a != b and abs(float(a) - float(b)) <= 1e-14 * abs(float(a))


def _flag(option_strings, dest, type_=None, default=None, required=False):
    return (option_strings, dest, type_, default, required)


PARAM_FLAGS = {
    _flag(("--config",), "config"),
    _flag(("--H",), "H", "int"),
    _flag(("--alpha",), "alpha", "float"),
    _flag(("--mu",), "mu", "float"),
    _flag(("--delta",), "delta", "float"),
    _flag(("--gamma",), "gamma", "float"),
    _flag(("--sigma",), "sigma", "float"),
    _flag(("--out",), "out", default="."),
}
PLAY_FLAGS = {
    _flag(("--hd",), "hd", "int", 0),
    _flag(("--p",), "p", "float"),
    _flag(("--spread",), "spread", "float"),
    _flag(("--stages",), "stages", "int", 10000),
    _flag(("--seeds",), "seeds", default="1"),
}


class TestParser:
    """Every subcommand keeps its option strings, dests, types and defaults."""

    EXPECTED = {
        "analyze": PARAM_FLAGS,
        "sweep": PARAM_FLAGS | {
            _flag(("--variable",), "variable", required=True),
            _flag(("--grid",), "grid", required=True),
        },
        "simulate": PARAM_FLAGS | PLAY_FLAGS | {
            _flag(("--ht",), "ht", "int", required=True),
        },
        "monitor": PARAM_FLAGS | PLAY_FLAGS | {
            _flag(("--stream",), "stream"),
            _flag(("--agent",), "agent", "int", 0),
            _flag(("--ht",), "ht", "int"),
            _flag(("--err1",), "err1", "float", 0.05),
            _flag(("--err2",), "err2", "float", 0.05),
            _flag(("--assumed-hd",), "assumed_hd", "int", 1),
        },
    }

    def test_main_builds_one_parser(self, tmp_path, monkeypatch):
        parsers = []
        parse_args = argparse.ArgumentParser.parse_args

        def spy(parser, *args, **kwargs):
            parsers.append(parser)
            return parse_args(parser, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "parse_args", spy)
        for gamma in ("1.5", "3.5"):
            argv = ["analyze", *FIG7, "--gamma", gamma, "--out", str(tmp_path / gamma)]
            assert run(argv) == 0
        assert len(parsers) == 2
        assert parsers[0] is parsers[1] is cli.build_parser()

    def test_flags_are_pinned(self):
        subcommands = cli.build_parser()._subparsers._group_actions[0].choices
        assert set(subcommands) == set(self.EXPECTED)
        for name, parser in subcommands.items():
            flags = {
                _flag(tuple(a.option_strings), a.dest, getattr(a.type, "__name__", a.type),
                      a.default, a.required)
                for a in parser._actions
                if a.dest != "help"
            }
            assert flags == self.EXPECTED[name], name
