"""Which functions of `src/qroute` real runs call: a reach ledger.

Runs, in this process and under `sys.setprofile`, every entry of `runs()`:
- every scenario under `scenarios/` (subdirectories too) through each row
  of COMMANDS, which states its own flags and slot count;
- the experiment scripts, with small flags;
- each benchmark workload's tiny scenario at seed 3, through its command.

Profiling starts before `qroute` is imported, so calls made at import time
count. Every `def` in `src/qroute`, found with `ast`, must then have run, or
be in ALLOWLIST with the reason it stays. The script exits 1 when a def
neither ran nor is listed, when a listed def ran or no longer exists, and
when a run exits non-zero or writes to stderr, even on exit 0: under
`python -X dev`, a file left unclosed only prints "Exception ignored".

Each command writes CSV reports to a directory of its own. The script
prints `reports sha256 <hex>`, a digest over every command's report files
and every script's standard output, in run order. The same digest under two
values of PYTHONHASHSEED shows that no report depends on set iteration
order:

    python -X dev -W error scripts/reach.py
"""

from __future__ import annotations

import ast
import contextlib
import hashlib
import io
import json
import runpy
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

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

# simulate's scheme x forwarding x policy flag sets
_SIMULATE_FLAGS = (
    [],
    ["--scheme", "reactive"],
    ["--mode", "async"],
    ["--scheme", "reactive", "--mode", "async"],
    ["--policy", "adhoc", "--mode", "async"],
    ["--policy", "adhoc", "--scheme", "reactive", "--mode", "async"],
    *(["--policy", policy, "--mode", mode]
      for policy in ("parallel", "sequential") for mode in ("sync", "async")),
)
# each scenario runs each row
COMMANDS = (
    ["analyze", "--slots", "200"],
    ["analyze", "--slots", "200", "--policy", "parallel"],
    ["analyze", "--slots", "200", "--policy", "sequential"],
    ["route", "--slots", "200"],
    ["oracle", "--slots", "200"],
    *(["simulate", "--slots", "200", *flags] for flags in _SIMULATE_FLAGS),
    # one slot, and a run that ends in a partial block of slots; reactive
    # sync keeps its own per-slot kernel inside the block, and async adhoc
    # keeps its records across the block's edge
    *(["simulate", "--slots", slots, "--policy", policy, "--mode", mode,
       "--scheme", scheme]
      for slots in ("1", "1237")
      for policy, mode in (("doubling", "sync"), ("doubling", "async"),
                           ("adhoc", "async"))
      for scheme in ("proactive", "reactive")),
)
SCRIPTS = (
    ["sync_vs_async.py", "--slots", "200"],
    ["grid_allocation.py", "--slots", "200"],
    # p = 1 runs creation-rate searches depth-first; the scenarios run by levels
    ["grid_allocation.py", "--slots", "200", "--p", "1.0"],
    ["policy_comparison.py", "--max-hops", "4", "--search-up-to", "4"],
)


def runs(tmp: Path) -> list[list[str]]:
    """Every run, in run order: `qroute` and a command's argv, or the path
    of a script and its flags. Writes the workloads' scenarios into `tmp`."""
    sys.path.insert(0, str(ROOT / "bench"))
    from workloads import WORKLOADS, make_scenario

    workloads = []
    for name, workload in WORKLOADS.items():
        scenario = tmp / f"{name}.json"
        scenario.write_text(json.dumps(make_scenario(name, 3, tiny=True)))
        workloads.append(["qroute", workload.command, "--scenario", str(scenario)])
    return [
        *(["qroute", *argv, "--scenario", str(scenario)]
          for scenario in sorted((ROOT / "scenarios").glob("**/*.json"))
          for argv in COMMANDS),
        *([str(ROOT / "scripts" / script), *args] for script, *args in SCRIPTS),
        *workloads,
    ]


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


def run_script(path: str, args: list[str]) -> int:
    """Run the script at `path` with `args` as its flags; its exit code."""
    argv, sys.argv = sys.argv, [path, *args]
    try:
        runpy.run_path(path, run_name="__main__")
    except SystemExit as exc:
        return exc.code or 0
    finally:
        sys.argv = argv
    return 0


def run_everything(tmp: Path) -> tuple[list[str], str]:
    """Every run, in process; returns a line per run that failed and the
    sha256 over every run's reports."""
    from qroute.cli import run_command

    failed, digest = [], hashlib.sha256()
    for i, (what, *args) in enumerate(runs(tmp)):
        out, stdout, stderr = tmp / str(i), io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            if what == "qroute":
                rc = run_command([*args, "--format", "csv", "--out", str(out)])
                reports = b"".join(report.name.encode() + b"\n" + report.read_bytes()
                                   for report in sorted(out.glob("*")))
            else:
                rc = run_script(what, args)
                reports = stdout.getvalue().encode()
        digest.update(f"run {i} -> {rc}\n".encode() + reports)
        if rc or stderr.getvalue():
            failed.append(f"exit {rc}: {' '.join([what, *args])}: "
                          f"{stderr.getvalue().strip()}")
    return failed, digest.hexdigest()


def main() -> int:
    called = set()

    def hook(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    sys.path.insert(0, str(SRC))
    with tempfile.TemporaryDirectory() as tmp:
        sys.setprofile(hook)
        try:
            failed, digest = run_everything(Path(tmp))
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
    print(f"reports sha256 {digest}")
    for line in problems:
        print(line)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
