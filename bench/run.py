"""The qroute benchmark: one workload, timed runs, output checks.

    python3 bench/run.py --workload sim_sync_grid --seed 1 --seconds 20 --trace 0

Run from a checkout of the repository; the program is imported from `src/`.
Each run is one `qroute.cli.run_command` call in a fresh interpreter, one
after the other (a closed loop, one process, one thread). With `--trace 0`
the last line of standard output holds the end-to-end metrics; with
`--trace 1` it holds the per-layer metrics of traced runs. Reports, spans
and a full result file go under `bench/_out/`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "_out"

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}
TIME_UNITS = ("s", "us", "ns")  # per-layer times, calibrated like wall_s
SETUP_RUNS = 6  # set-up-only interpreters per invocation, after one warm-up
MIN_RUNS = 3  # timed runs per invocation, however short --seconds is
MIN_TRACED_RUNS = 2  # two traced runs, so their op counts can be compared
WORKER_TIMEOUT_S = 60  # a run takes a few seconds; keeps an invocation < 180 s


class Bench:
    def __init__(self, workload, scenario: dict, run_dir: Path):
        self.workload = workload
        self.scenario = scenario
        self.run_dir = run_dir
        self.scenario_path = run_dir / "scenario.json"
        self.scenario_path.write_text(json.dumps(scenario, indent=1) + "\n")
        self.report_path = run_dir / "report" / f"{workload.command}_report.json"
        self.verdicts: dict[str, list[str]] = {}  # report sha256 -> errors
        self.first_sha: str | None = None
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.first_counts: dict | None = None

    def worker(self, mode: str, spans: Path | None = None) -> dict | None:
        cmd = [sys.executable, str(BENCH / "worker.py"), str(self.scenario_path),
               self.workload.command, str(self.report_path.parent), mode]
        if spans is not None:
            cmd.append(str(spans))
        try:
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  timeout=WORKER_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return None
        if proc.returncode != 0:
            self.errors.append(f"worker exit {proc.returncode}: "
                               f"{proc.stderr.strip()[-500:]}")
            return None
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def run(self, mode: str) -> dict | None:
        """One checked command; None when the command or a check failed."""
        self.attempted += 1
        self.report_path.unlink(missing_ok=True)
        spans = self.run_dir / f"spans_{self.attempted}.json" if mode == "trace" else None
        res = self.worker(mode, spans)
        errors = self.check(res)
        if res is not None and mode == "trace":
            counts = {k: v for k, v in res["layers"].items()
                      if k in tracing.COUNT_METRICS}
            if self.first_counts is None:
                self.first_counts = counts
            elif counts != self.first_counts:
                errors.append(f"op counts differ between traced runs: {counts} "
                              f"vs {self.first_counts}")
        if errors:
            self.failed += 1
            self.errors += errors
            return None
        return res

    def check(self, res: dict | None) -> list[str]:
        if res is None:
            return [f"{self.workload.name}: worker failed or timed out"]
        if res["rc"] != 0:
            return [f"{self.workload.name}: command exited {res['rc']}"]
        if not self.report_path.is_file():
            return [f"{self.workload.name}: no report at {self.report_path}"]
        data = self.report_path.read_bytes()
        sha = hashlib.sha256(data).hexdigest()
        if sha not in self.verdicts:
            self.verdicts[sha] = checks.check_report(
                self.workload.name, self.workload.command, self.scenario,
                json.loads(data), analytic=self.workload.name == "sim_sync_grid",
            )
        self.first_sha = self.first_sha or sha
        errors = list(self.verdicts[sha])
        if sha != self.first_sha:
            errors.append(f"{self.workload.name}: report sha256 {sha} differs "
                          f"from the first run's {self.first_sha}")
        return errors

    def loop(self, mode: str, seconds: float, min_runs: int) -> list[dict]:
        runs = []
        deadline = time.perf_counter() + seconds
        while len(runs) < min_runs or time.perf_counter() < deadline:
            res = self.run(mode)
            if res is not None:
                runs.append(res)
            elif self.failed >= MIN_RUNS:
                break  # a broken program: stop early, the result says so
        return runs

    def setup_runs(self) -> list[dict]:
        self.worker("setup")  # warm-up: compiles bytecode, fills the file cache
        runs = [self.worker("setup") for _ in range(SETUP_RUNS)]
        return [r for r in runs if r is not None]


def environment(args, scenario: dict, workload) -> dict:
    sha = None
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        sha = git.stdout.strip() or None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "git_sha": sha,
        "loadavg_start": list(os.getloadavg()),
        "workload": workload.name,
        "workload_seed": args.seed,
        "sim_seed": scenario["sim"]["seed"],
        "slots_per_run": scenario["sim"].get("slots", 0) if workload.slots else 0,
        "seconds": args.seconds,
        "tiny": args.tiny,
    }


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def speed(run: dict) -> float:
    """Factor turning a time of `run` into seconds at the reference speed."""
    return REF_S / run["calib_s"]


def median_of(runs: list[dict], key: str) -> float:
    return statistics.median(r[key] * speed(r) for r in runs)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smoke-test run sizes; the figures mean nothing")
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    scenario = make_scenario(workload.name, args.seed, tiny=args.tiny)
    run_dir = OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    env = environment(args, scenario, workload)
    bench = Bench(workload, scenario, run_dir)

    setup = bench.setup_runs()
    if args.trace:
        plain = bench.loop("run", args.seconds / 2, MIN_RUNS)
        traced = bench.loop("trace", args.seconds / 2, MIN_TRACED_RUNS)
    else:
        plain = bench.loop("run", args.seconds, MIN_RUNS)
        traced = []
    setup += plain + traced

    info = {
        "env": env,
        "report_sha256": bench.first_sha,
        "runs": len(plain),
        "traced_runs": len(traced),
        "error_rate": bench.failed / bench.attempted,
        "errors": bench.errors[:20],
        "samples": {
            "calib_s": [r["calib_s"] for r in plain],
            "raw_wall_s": [r["wall_s"] for r in plain],
            "raw_setup_s": [r["setup_s"] for r in setup],
            "peak_rss_mb": [r["peak_rss_mb"] for r in plain],
        },
    }
    metrics = {}
    if plain:
        wall = median_of(plain, "wall_s")
        info["slots_per_s"] = metric(env["slots_per_run"] / wall, "slots/s")
        if not args.trace:
            values = {
                "wall_s": wall,
                "setup_s": median_of(setup, "setup_s"),
                "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
            }
            metrics = {k: metric(values[k], u) for k, u in END_TO_END_UNITS.items()}
        elif traced:
            for name in traced[0]["layers"]:
                unit = tracing.UNITS[name]
                values = [r["layers"][name] * (speed(r) if unit in TIME_UNITS else 1)
                          for r in traced]
                metrics[name] = metric(statistics.median(values), unit)
            overhead = median_of(traced, "wall_s") / wall - 1
            metrics["trace.overhead_frac"] = metric(overhead, "fraction")
    correct = bench.failed == 0 and bool(metrics)
    result = {
        "correct": correct,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": metrics,
    }
    (run_dir / "result.json").write_text(
        json.dumps({"info": info, "result": result}, indent=1) + "\n"
    )
    print(json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    if not (SRC / "qroute" / "cli.py").is_file():
        # also the case in a directory holding only the benchmark's own files
        sys.exit(f"{SRC / 'qroute'} not found: run from a checkout of the repository")
    sys.path[:0] = [str(SRC), str(BENCH)]
    import checks
    import tracing
    from calibrate import REF_S
    from workloads import WORKLOADS, make_scenario

    sys.exit(main())
