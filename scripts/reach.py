"""Which functions of `src/qroute` real runs call, and what they report: a
reach ledger over one pinned table of runs.

Each row of ROWS is (scenarios, command, pinned sha256). A `qroute` command
runs on each scenario the row names, in name order, and writes its reports
to a directory of its own. The scenarios are the files a glob under
`scenarios/` matches; copies of them with `sim.node_disjoint` set
(`node-disjoint <glob>`); or a benchmark workload's tiny scenario at seed 3
(`bench <workload>`). The copies and workload scenarios are written to a
temporary directory. A `scripts` row runs an experiment script with small
flags and keeps its standard output. A row's digest covers each run's exit
code and every byte of its reports.

No row reruns another's report. Runs write CSV, and a CSV run writes the
JSON report too, so a single `--format json` row pins the JSON-only output;
`analyze`, `route` and `oracle` never read `sim.slots`, so they run at one
slot count. `tests/test_scenario_cli.py` checks both rules.

Every row runs in this process, under `sys.setprofile`; profiling starts
before `qroute` is imported, so calls made at import time count. The script
prints a line per row with its digest, and exits 1 naming each row whose
digest differs from its pin. Every `def` in `src/qroute`, found with `ast`,
must also have run, or be in ALLOWLIST with the reason it stays. The script
exits 1 when a def neither ran nor is listed, when a listed def ran or no
longer exists, and when a run exits non-zero or writes to stderr, even on
exit 0: under `python -X dev`, a file left unclosed only prints "Exception
ignored". The same output under two values of PYTHONHASHSEED shows that no
report depends on set iteration order:

    python -X dev -W error scripts/reach.py

`tests/test_reach.py` runs each row through `run_row`, without the profiler,
against the same pins. A change that moves a report re-pins the rows it
names, in the same commit.
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
SCENARIOS = ROOT / "scenarios"

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
    "qroute.netmodel.NetworkGraph.neighbors":
        "bench/tracing.py wraps it to count searches; it goes when the bench "
        "counts the searches themselves",
    "qroute.pathfind.path_cost": "acceptance criterion c06 prices its paths with it",
    "qroute.pathfind.shortest_path": "acceptance criterion c06 checks it",
    "qroute.pathfind.widest_path": "acceptance criterion c06 checks it",
    "qroute.record.Record.__eq__": "value equality, which tests use; no run compares records",
    "qroute.record.Record.__hash__": "records are hashable values; no run hashes one",
    "qroute.record.Record.__reduce__":
        "lets a record be pickled and copied through its constructor, which "
        "rebuilds a graph's read-only lookup maps",
    "qroute.record.Record.__repr__": "debug output; no report prints a record",
    "qroute.record.Record.__setattr__": "error path: assigning to a record's field",
    "qroute.scenario._mistyped": "error path: a scenario value of the wrong JSON type",
}

ROWS = (
    # every scenario through each command, and through simulate's scheme x
    # forwarding x policy flag sets
    ("**/*.json", "analyze --slots 200",
     "35a06c147554ff9dc209cd7dc5461c3bd7b96fd07b1c1b380fd21f1e05674e1c"),
    ("**/*.json", "analyze --slots 200 --policy parallel",
     "37b0af7e384a362c4ac4a95304362ff3ab0686a11f0069dbe4894519c5a4748f"),
    ("**/*.json", "analyze --slots 200 --policy sequential",
     "13d119fb47b72d5637a0cd5ca548008dacaf477303ae2f50a8dc7280d5c93a31"),
    ("**/*.json", "route --slots 200",
     "07d217c8edb15b6c7cc8d04f5d3e7ad1cb833099ec3a36ad00c2328f7bdd0a42"),
    ("**/*.json", "oracle --slots 200",
     "6a29b6bae0cf3a5d4edbbe1aca854329f9057a087afa6820b8528cbb4a14c40a"),
    ("**/*.json", "simulate --slots 200",
     "24f907b1422570eaf0a335dfeae20be093fcf2cc2aeb77bcc3d9082e3b19c0d5"),
    ("**/*.json", "simulate --slots 200 --scheme reactive",
     "9bbb2639addc29a333492ccbcc952fd6fc171689968c05169c01ac3e71625633"),
    ("**/*.json", "simulate --slots 200 --mode async",
     "355f651dc31b5abfbe13d071fb146db65f852cc9c1b71180617624b064e3ade2"),
    ("**/*.json", "simulate --slots 200 --scheme reactive --mode async",
     "2ba4660e12c97e43b44504dade5c44252b988b2db476a665d4650f1db0173d33"),
    ("**/*.json", "simulate --slots 200 --policy adhoc --mode async",
     "4693fad79ffcd84f8675e0c2493d65d19584e998befcbdde77ca2ec5e632e315"),
    ("**/*.json", "simulate --slots 200 --policy adhoc --scheme reactive --mode async",
     "cbb2f7e2177e12d072db943120fe52b201bce5ff09ad5d315bd25c00cde1e821"),
    ("**/*.json", "simulate --slots 200 --policy parallel --mode sync",
     "ec18ec80580f72ba5715d9b91dd9f213c7a9befd08ee8bf8e048df33494c3b48"),
    ("**/*.json", "simulate --slots 200 --policy parallel --mode async",
     "02360907ee69cda3c7fd3a9aa733a086ac610149df2f504d1042b1d36fa4791c"),
    ("**/*.json", "simulate --slots 200 --policy sequential --mode sync",
     "9fe835f102ddea636588b9c17537014003b909ab6aba9a8138aa43a97984e4f1"),
    ("**/*.json", "simulate --slots 200 --policy sequential --mode async",
     "6d72fc261a819e554b23537ee466255619c1f43005054f6049a4e53abe9fc681"),
    # one slot, and a run that ends in a partial block of slots; reactive
    # sync keeps its own per-slot kernel inside the block, and async adhoc
    # keeps its records across the block's edge
    ("**/*.json", "simulate --slots 1 --policy doubling --mode sync --scheme proactive",
     "fecb512b65660b551d456511bdf621745179fabdb0413b8b6b1af037c311c2af"),
    ("**/*.json", "simulate --slots 1 --policy doubling --mode sync --scheme reactive",
     "42747f66b1acc022270c4770e34627e84d56f8a43addb605cb8182da81bd0262"),
    ("**/*.json", "simulate --slots 1 --policy doubling --mode async --scheme proactive",
     "329166c7f1a7d6992b7a77f693eb8deb03c2f41111d1b10785666e6383415b18"),
    ("**/*.json", "simulate --slots 1 --policy doubling --mode async --scheme reactive",
     "4faa4c7fc51f75329c20d2a25bea9babbe961ae15e52df5bd457ce2eb0962071"),
    ("**/*.json", "simulate --slots 1 --policy adhoc --mode async --scheme proactive",
     "e6c128dd61adcaa8e1f227feff496e49da3dc3b7ec64afdd5ef141d42e2d9d28"),
    ("**/*.json", "simulate --slots 1 --policy adhoc --mode async --scheme reactive",
     "bb24ae009af20bd48bd4d7c73eb628413406ffafa30c6c6d9c4882ba0d3b8ee3"),
    ("**/*.json", "simulate --slots 1237 --policy doubling --mode sync --scheme proactive",
     "56dee6add60dade485a55243e1d304f38027deb1813711be29d88fd47413f872"),
    ("**/*.json", "simulate --slots 1237 --policy doubling --mode sync --scheme reactive",
     "d1168025cb6238e2f833b2af06c0d81d386d78fcd3fac74a0c5916ba71678e26"),
    ("**/*.json", "simulate --slots 1237 --policy doubling --mode async --scheme proactive",
     "81c583d9acc08c2ba525c3b96cdeb4af5f0db942c3915039db2d8b00d1391990"),
    ("**/*.json", "simulate --slots 1237 --policy doubling --mode async --scheme reactive",
     "26b781d648b4df0a65231c9dc89d80c37d06e127e3a11f7d695eedc07034ecb4"),
    ("**/*.json", "simulate --slots 1237 --policy adhoc --mode async --scheme proactive",
     "0b698988a912ecb92b5baa68d6d98aa0dd1480a98284075e62c5fe667d9d8911"),
    ("**/*.json", "simulate --slots 1237 --policy adhoc --mode async --scheme reactive",
     "d15c6b32c4b189257b0269ab641631954b94eeaaca7ef249413f752324ed110b"),
    # the top-level scenarios at 2,000 slots, more than one block; the one
    # `--format json` row, since CSV runs write the JSON report too
    ("*.json", "simulate --slots 2000 --format json",
     "65d39b4bbd176f2347083e32c8cc9789bf9bd4f818a4f8ee1423964f511e97b9"),
    ("*.json", "simulate --slots 2000",
     "6adf5cbfb2ef7286f199a1978fd13c0abfb05c49f085074ff756bbd105311c69"),
    # every top-level scenario but the async chain, whose adhoc policy needs
    # async forwarding
    ("[!a]*.json", "simulate --slots 2000 --mode sync",
     "daa80849473b2a0a9a679560da941523398b0c20c23a46537917474c7e173fff"),
    ("*.json", "simulate --slots 2000 --scheme reactive --policy parallel",
     "1b26d282312fbf8fe0ca74211da13b5782d6a485727eb7e8d6c826114b20612e"),
    ("*.json", "simulate --slots 2000 --scheme reactive --mode async --policy doubling",
     "a2e6b734f27f60b9a449c84e2e21604f9d774963e0b05ee5a404c0c8c4e2647c"),
    ("*.json", "simulate --scheme reactive --mode sync --policy doubling --slots 2000",
     "c5b3aa68062fc11659166cec6b01b4a297e832c4f9b962c5c331d8e8d0b71602"),
    ("*.json", "simulate --scheme reactive --mode sync --policy sequential --slots 2000",
     "2c2a141655298036edd879ba884ddfe083e658655de9f47e861afaac0f355085"),
    # each slot's reactive searches may not enter an earlier path's interior
    # nodes; adhoc (the async chain's policy) needs async forwarding
    ("node-disjoint *.json",
     "simulate --scheme reactive --mode sync --policy doubling --slots 2000",
     "e01f23349770b6485a6283c06f5d4e97222def01d463f792027aa7e399302b86"),
    ("node-disjoint *.json", "simulate --scheme reactive --mode async --slots 2000",
     "f1e86eaba4ecbf364de04a378317efdfc49aab576ccf46467e11755d27601e1d"),
    # the coverage scenarios at 500 slots: they run the code paths the
    # top-level ones miss (the heap search, derived link probabilities, the
    # depth-first search, weighted utilities, node-disjoint reactive
    # routing). `analyze`, `route` and `oracle` never read `sim.slots`, so
    # the `**/*.json` rows above run them on every scenario
    ("coverage/*.json", "simulate --slots 500",
     "e03185827a54ababf5de9a4faa6ae412b0039d7fb780d411fa64f8c1d7410a39"),
    ("coverage/*.json", "simulate --scheme reactive --mode sync --policy doubling --slots 500",
     "b28a9dcab6d9bd8fa69ca2eeb93b3c148c4daf9267557e948ac0dbcaaa74cd90"),
    ("coverage/*.json", "simulate --scheme reactive --mode async --slots 500",
     "7b01b683f9de2518386129ab7dc175a70e069a7e31c55a80f2a50beca11ff8a6"),
    ("scripts", "sync_vs_async.py --slots 200",
     "0972df0127dfec30ae95541fff131df1f09b95c1ca3a94a8f3870db5783e1b20"),
    ("scripts", "grid_allocation.py --slots 200",
     "9152718f2a3d66f20a6df5b2267796d24ead3f28a111e9abf1ac580babf3a400"),
    # p = 1 runs creation-rate searches depth-first; the scenarios run by levels
    ("scripts", "grid_allocation.py --slots 200 --p 1.0",
     "b25fe8b178d9c1b0b93cc403a1e89a4ba00e3647bf0f2076c33fa3903584f3c5"),
    ("scripts", "policy_comparison.py --max-hops 4 --search-up-to 4",
     "61dabecf6e35c2b8b8909554673ef75f618d539ac5e7f15134ce0e31cd8e0fc7"),
    ("bench sim_sync_grid", "simulate",
     "6941c63906f73ef06c9077b222b5d444992e38a3559b497bceeff74eae511d2a"),
    ("bench sim_async_chain", "simulate",
     "4b0a14c6dc27215fea4958b3c67d93d2d93c8eb8cb980e1a1eb64e637fefba78"),
    ("bench route_grid", "route",
     "6f428d8e2dac98be76ce480c18373c554bb6abd64200baeb98407ae538b661a8"),
    ("bench sim_reactive_grid", "simulate",
     "9313d94b739830609f9b7c9efc3eafb8aff22e8079049faa34ebcfdd45049a11"),
)


def scenarios(where: str, tmp: Path) -> list[Path]:
    """The scenario files a row's command runs on, in name order; writes the
    copies and workload scenarios into `tmp`."""
    kind, _, name = where.rpartition(" ")
    if kind == "bench":
        make_scenario = runpy.run_path(str(ROOT / "bench" / "workloads.py"))["make_scenario"]
        path = tmp / f"{name}.json"
        path.write_text(json.dumps(make_scenario(name, 3, tiny=True)))
        return [path]
    paths = sorted(SCENARIOS.glob(name))
    if kind == "node-disjoint":
        for i, source in enumerate(paths):
            data = json.loads(source.read_text())
            data["sim"]["node_disjoint"] = True
            paths[i] = tmp / f"node-disjoint-{source.name}"
            paths[i].write_text(json.dumps(data))
    return paths


def row_runs(where: str, command: str, tmp: Path) -> list[list[str]]:
    """A row's runs, in run order: `qroute` and a command's argv, or the
    path of a script and its flags."""
    if where == "scripts":
        script, *args = command.split()
        return [[str(ROOT / "scripts" / script), *args]]
    name, *flags = command.split()
    # a `--format` among the row's flags comes later, so it wins
    return [["qroute", name, "--format", "csv", *flags, "--scenario", str(path)]
            for path in scenarios(where, tmp)]


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


def run_row(where: str, command: str, tmp: Path) -> tuple[str, list[str]]:
    """Run a row in this process, each command's reports in a directory of
    its own under `tmp`; returns the row's sha256 and a line per run that
    failed."""
    from qroute.cli import run_command

    runs, failed, digest = row_runs(where, command, tmp), [], hashlib.sha256()
    if not runs:
        failed.append(f"no scenario matches: {where}: {command}")
    for i, (what, *args) in enumerate(runs):
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            if what == "qroute":
                out = Path(tempfile.mkdtemp(dir=tmp))
                rc = run_command([*args, "--out", str(out)])
                reports = b"".join(report.name.encode() + b"\n" + report.read_bytes()
                                   for report in sorted(out.glob("*")))
            else:
                rc = run_script(what, args)
                reports = stdout.getvalue().encode()
        digest.update(f"run {i} -> {rc}\n".encode() + reports)
        if rc or stderr.getvalue():
            failed.append(f"exit {rc}: {' '.join([what, *args])}: "
                          f"{stderr.getvalue().strip()}")
    return digest.hexdigest(), failed


def main() -> int:
    called = set()

    def hook(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    sys.path.insert(0, str(SRC))
    with tempfile.TemporaryDirectory() as tmp:
        sys.setprofile(hook)
        try:
            results = [run_row(where, command, Path(tmp)) for where, command, _ in ROWS]
        finally:
            sys.setprofile(None)

    moved, failed = 0, []
    for (where, command, pinned), (digest, row_failed) in zip(ROWS, results):
        moved += digest != pinned
        failed += row_failed
        print(f"{'ok' if digest == pinned else 'FAIL':4} {where}: {command}: "
              f"sha256 {digest}")
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
    return 1 if problems or moved else 0


if __name__ == "__main__":
    sys.exit(main())
