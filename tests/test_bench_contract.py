"""What the benchmark calls of the program still works.

The benchmark's snipbench/workloads.py is imported read-only and one round of
its sprt-replicates, gamma-sweep and campaign workloads runs against this
checkout.  The sprt-replicates round uses ``stage_stream`` items'
``.utilities``, ``monitor_stream``'s (stage, utility, log_ratio, statistic,
decision) rows, the fields of ``MonitorResult`` and ``cli._thread_cap``; the
other two run ``sweep``, ``simulate`` and ``monitor --stream`` through
``cli.main`` and check every row and verdict against the benchmark's oracle.
A change to any of them shows here as failed operations or failed checks.
``import sniplab.cli`` loads no numpy and no ``simulator``, so the modules the
workloads reach are imported here by name.
"""

from pathlib import Path

import pytest

import sniplab
import sniplab.cli  # noqa: F401
import sniplab.simulator  # noqa: F401  (cli imports it only where stages are drawn)

SNIPBENCH = Path(__file__).resolve().parents[1] / "snipbench"


@pytest.fixture
def workloads(monkeypatch):
    monkeypatch.syspath_prepend(str(SNIPBENCH))
    # one process, as the benchmark's traced runs use
    monkeypatch.setenv("MZ_LAB_THREADS", "1")
    import workloads

    return workloads


def test_sprt_replicates_round(workloads, tmp_path):
    workload = workloads.WORKLOADS["sprt-replicates"](
        sniplab, 1, tmp_path, sniplab.utility.PAYOFF_TABLE
    )
    try:
        first = workload.run_round(0)
    finally:
        workload.close()
    assert first.attempted == 2 * workload.PER_HYPOTHESIS
    assert first.failed == 0
    assert workload.check() == []


@pytest.mark.parametrize("name", ["gamma-sweep", "campaign"])
def test_cli_workload_round(workloads, tmp_path, name):
    workload = workloads.WORKLOADS[name](sniplab, 1, tmp_path, sniplab.utility.PAYOFF_TABLE)
    try:
        first = workload.run_round(0)
    finally:
        workload.close()
    assert first.attempted > 0
    assert first.failed == 0
    assert workload.check() == []
