"""The benchmark's own tests: a smoke run of every workload at tiny sizes, and
checks that flag tampered reports.

    python -m pytest bench/tests -q
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from qroute.cli import run_command  # noqa: E402
from workloads import WORKLOADS, make_scenario  # noqa: E402


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(BENCH / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_run(workload, trace):
    proc = bench("--workload", workload, "--seed", "5", "--seconds", "0.2",
                 "--trace", trace, "--tiny")
    assert proc.returncode == 0, proc.stderr
    info, result = (json.loads(line) for line in proc.stdout.splitlines()[-2:])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], info["errors"]
    assert result["failed"] == 0 and result["attempted"] >= run.MIN_RUNS
    expected = run.END_TO_END_UNITS if trace == "0" else tracing.UNITS
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert info["report_sha256"]


def test_traced_op_counts_repeat():
    first, second = (
        json.loads(bench("--workload", "route_grid", "--seed", str(seed),
                         "--seconds", "0.2", "--trace", "1", "--tiny")
                   .stdout.splitlines()[-1])["metrics"]
        for seed in (2, 2)
    )
    for name in tracing.COUNT_METRICS:
        assert first[name] == second[name], name


def test_benchmark_json_names_every_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.UNITS
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS)


def test_fails_without_the_program(tmp_path):
    """In a directory holding only the benchmark's files it must fail fast."""
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("_out"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "route_grid", "--seed",
         "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def run_workload(tmp_path: Path, name: str, tiny: bool = True):
    scenario = make_scenario(name, 7, tiny=tiny)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario))
    command = WORKLOADS[name].command
    with contextlib.redirect_stdout(io.StringIO()):
        rc = run_command([command, "--scenario", str(path), "--out", str(tmp_path)])
    assert rc == 0
    report = json.loads((tmp_path / f"{command}_report.json").read_text())
    return scenario, command, report


def flagged(name, command, scenario, report) -> list[str]:
    return checks.check_report(name, command, scenario, report,
                               analytic=name == "sim_sync_grid")


@pytest.mark.parametrize("name", ["sim_sync_grid", "sim_async_chain",
                                  "sim_reactive_grid"])
def test_histogram_cell_off_by_one_is_flagged(tmp_path, name):
    scenario, command, report = run_workload(tmp_path, name)
    assert flagged(name, command, scenario, report) == []
    bad = copy.deepcopy(report)
    entry = next(iter(bad["results"]["per_request"].values()))
    entry["hist"][0] += 1
    assert any("sum(hist)" in e for e in flagged(name, command, scenario, bad))


def test_ledger_tampering_is_flagged(tmp_path):
    name = "sim_async_chain"
    scenario, command, report = run_workload(tmp_path, name)
    bad = copy.deepcopy(report)
    bad["results"]["entities_disposed"]["consumed"] += 2
    assert any("consumed" in e for e in flagged(name, command, scenario, bad))
    bad = copy.deepcopy(report)
    bad["results"]["delivered_total"] += 1
    assert any("delivered_total" in e for e in flagged(name, command, scenario, bad))


def test_squeezed_histogram_fails_the_analytic_cross_check(tmp_path):
    """Moving a slots from cells 0 and 2 into cell 1 keeps every ledger sum
    (slots and delivered) intact: only the z test can see it."""
    name = "sim_sync_grid"
    scenario, command, report = run_workload(tmp_path, name, tiny=False)
    label, entry = max(report["results"]["per_path"].items(),
                       key=lambda item: min(item[1]["hist"][0], item[1]["hist"][2]))
    hist = entry["hist"]
    a = min(hist[0], hist[2])
    hist[0] -= a
    hist[2] -= a
    hist[1] += 2 * a
    errors = flagged(name, command, scenario, report)
    assert errors and all(f"path {label}" in e for e in errors), errors


def test_route_over_capacity_is_flagged(tmp_path):
    name = "route_grid"
    scenario, command, report = run_workload(tmp_path, name)
    assert flagged(name, command, scenario, report) == []
    bad = copy.deepcopy(report)
    bad["results"]["allocations"][0]["width"] += 3
    errors = flagged(name, command, scenario, bad)
    assert any("capacity" in e for e in errors)
    bad = copy.deepcopy(report)
    bad["results"]["utility_trace"][-1] += 0.5
    assert any("utility_trace" in e for e in flagged(name, command, scenario, bad))


def test_werner_hop_bound():
    assert checks.werner_hop_bound(0.99, 0.9) == 10
