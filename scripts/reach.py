"""Which functions of `src/qroute` real runs call: a reach ledger.

Runs, in this process and under `sys.setprofile`:
- every scenario under `scenarios/` (subdirectories too) through each
  command, with the flag sets CI runs, at 200 slots;
- the experiment scripts, with small flags;
- each benchmark workload's tiny scenario at seed 3, through its command.

Profiling starts before `qroute` is imported, so calls made at import time
count. Every `def` in `src/qroute`, found with `ast`, must then have run, or
be in ALLOWLIST with the reason it stays. The script exits 1 when a def
neither ran nor is listed, when a listed def ran or no longer exists, and
when a run fails.

    python scripts/reach.py
"""

from __future__ import annotations

import ast
import contextlib
import io
import json
import runpy
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
SLOTS = "200"

# qualified def name -> why it stays although no run calls it
ALLOWLIST = {
    "qroute.__getattr__":
        "loads the oracle on first use of `qroute.brute_force_distribution`; "
        "the oracle command imports it directly",
    "qroute.cli._Parser.error": "error path: a bad flag exits 1",
    "qroute.cli.main": "entry point of the `qroute` script and `python -m qroute`; "
                       "runs here call `run_command`",
    "qroute.netmodel.EdgeParams._reject": "error path: an edge field out of range",
    "qroute.netmodel.NodeParams._reject": "error path: a node field out of range",
    "qroute.netmodel.NetworkGraph.__reduce__":
        "lets a graph be pickled; its lookup maps are read-only proxies",
    "qroute.netmodel.NetworkGraph.neighbors":
        "bench/tracing.py wraps it to count searches; it goes when the bench "
        "counts the searches themselves",
    "qroute.pathfind.path_cost": "acceptance criterion c06 prices its paths with it",
    "qroute.pathfind.shortest_path": "acceptance criterion c06 checks it",
    "qroute.pathfind.widest_path": "acceptance criterion c06 checks it",
    "qroute.scenario._mistyped": "error path: a scenario value of the wrong JSON type",
}

# CI's flag sets for every scenario
_SIMULATE_FLAGS = (
    [],
    ["--scheme", "reactive"],
    ["--mode", "async"],
    ["--scheme", "reactive", "--mode", "async"],
    ["--policy", "adhoc", "--mode", "async"],
    ["--policy", "adhoc", "--scheme", "reactive", "--mode", "async"],
    *(["--policy", policy, "--mode", mode]
      for policy in ("parallel", "sequential") for mode in ("sync", "async")),
    *(["--policy", "doubling", "--mode", mode, "--scheme", scheme]
      for mode in ("sync", "async") for scheme in ("proactive", "reactive")),
)
COMMANDS = (
    ["analyze"],
    ["analyze", "--policy", "parallel"],
    ["analyze", "--policy", "sequential"],
    ["route"],
    ["oracle"],
    *(["simulate", *flags] for flags in _SIMULATE_FLAGS),
)
SCRIPTS = (
    ["sync_vs_async.py", "--slots", SLOTS],
    ["grid_allocation.py", "--slots", SLOTS],
    ["grid_allocation.py", "--slots", SLOTS, "--p", "1.0"],
    ["policy_comparison.py", "--max-hops", "4", "--search-up-to", "4"],
)


def defs() -> dict[tuple[str, int, str], str]:
    """(file, first line, name) -> qualified name of every def in the
    package. A decorated def's code object starts at its first decorator."""
    found = {}

    def walk(node, path: str, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno, *(d.lineno for d in child.decorator_list)])
                found[path, first, child.name] = prefix + child.name
                walk(child, path, f"{prefix}{child.name}.")
            elif isinstance(child, ast.ClassDef):
                walk(child, path, f"{prefix}{child.name}.")
            else:
                walk(child, path, prefix)

    for path in sorted((SRC / "qroute").glob("*.py")):
        module = "qroute" if path.stem == "__init__" else f"qroute.{path.stem}"
        walk(ast.parse(path.read_text()), str(path), module + ".")
    return found


def run_everything(out: Path) -> list[str]:
    """Every run, in process; returns a line per run that failed."""
    from qroute.cli import run_command

    failed = []

    def cli(argv: list[str]) -> None:
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            rc = run_command([*argv, "--format", "csv", "--out", str(out)])
        if rc:
            failed.append(f"exit {rc}: qroute {' '.join(argv)}: {err.getvalue().strip()}")

    for scenario in sorted((ROOT / "scenarios").glob("**/*.json")):
        for argv in COMMANDS:
            cli([*argv, "--scenario", str(scenario), "--slots", SLOTS])

    for script, *args in SCRIPTS:
        argv, sys.argv = sys.argv, [script, *args]
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                runpy.run_path(str(ROOT / "scripts" / script), run_name="__main__")
        except SystemExit as exc:
            if exc.code:
                failed.append(f"exit {exc.code}: {' '.join(sys.argv)}")
        finally:
            sys.argv = argv

    sys.path.insert(0, str(ROOT / "bench"))
    from workloads import WORKLOADS, make_scenario

    for name, workload in WORKLOADS.items():
        scenario = out / f"{name}.json"
        scenario.write_text(json.dumps(make_scenario(name, 3, tiny=True)))
        cli([workload.command, "--scenario", str(scenario)])
    return failed


def main() -> int:
    called = set()

    def hook(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    sys.path.insert(0, str(SRC))
    with tempfile.TemporaryDirectory() as tmp:
        sys.setprofile(hook)
        try:
            failed = run_everything(Path(tmp))
        finally:
            sys.setprofile(None)

    ran = {(str(Path(c.co_filename).resolve()), c.co_firstlineno, c.co_name)
           for c in called}
    found = defs()
    names = set(found.values())
    unreached = sorted(name for key, name in found.items() if key not in ran)
    problems = [
        *failed,
        *(f"not reached, and not in ALLOWLIST: {name}"
          for name in unreached if name not in ALLOWLIST),
        *(f"in ALLOWLIST, but reached: {name}"
          for name in sorted(ALLOWLIST) if name in names and name not in unreached),
        *(f"in ALLOWLIST, but not defined: {name}"
          for name in sorted(ALLOWLIST) if name not in names),
    ]
    print(f"reach: {len(found) - len(unreached)} of {len(found)} defs in src/qroute "
          f"ran; {len(unreached)} did not, {len(ALLOWLIST)} allowlisted")
    for line in problems:
        print(line)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
