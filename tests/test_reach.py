"""`scripts/reach.py`'s failure paths and report digest, on tiny runs in place
of its table."""

import importlib.util
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SCENARIO = str(ROOT / "scenarios" / "two_hop_chain.json")


@pytest.fixture
def reach(monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))  # the script extends it
    spec = importlib.util.spec_from_file_location("reach", ROOT / "scripts" / "reach.py")
    reach = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(reach)
    # the ledger checks one def, which the tiny CLI run reaches
    (key,) = [k for k, name in reach.defs().items() if name == "qroute.cli.run_command"]
    monkeypatch.setattr(reach, "defs", lambda: {key: "qroute.cli.run_command"})
    monkeypatch.setattr(reach, "ALLOWLIST", {})
    return reach


def ledger(reach, monkeypatch, capsys, *runs, defs=None, allowlist=None):
    """(exit code, printed lines) of the ledger over `runs`; `defs` and
    `allowlist`, when given, replace the fixture's."""
    monkeypatch.setattr(reach, "runs", lambda tmp: list(runs))
    if defs is not None:
        monkeypatch.setattr(reach, "defs", lambda: defs)
    if allowlist is not None:
        monkeypatch.setattr(reach, "ALLOWLIST", allowlist)
    rc = reach.main()
    return rc, capsys.readouterr().out.splitlines()


def script(tmp_path, name: str, body: str) -> str:
    path = tmp_path / name
    path.write_text(body)
    return str(path)


def analyze(slots: str) -> list[str]:
    return ["qroute", "analyze", "--scenario", SCENARIO, "--slots", slots]


def test_reach_ledger_fails_on_a_nonzero_exit_or_stderr_output(
        reach, monkeypatch, capsys, tmp_path):
    rc, out = ledger(reach, monkeypatch, capsys, analyze("1"))
    assert rc == 0 and len(out) == 2
    quiet_exit = script(tmp_path, "exit1.py", "raise SystemExit(1)\n")
    rc, out = ledger(reach, monkeypatch, capsys, analyze("1"), [quiet_exit])
    assert rc == 1 and out[2:] == [f"exit 1: {quiet_exit}: "]
    noisy = script(tmp_path, "noisy.py",
                   "import sys\nprint('Exception ignored', file=sys.stderr)\n")
    rc, out = ledger(reach, monkeypatch, capsys, analyze("1"), [noisy, "--flag"])
    assert rc == 1 and out[2:] == [f"exit 0: {noisy} --flag: Exception ignored"]
    rc, out = ledger(reach, monkeypatch, capsys,
                     ["qroute", "analyze", "--scenario", str(tmp_path / "none.json")])
    assert rc == 1 and out[2].startswith("exit 1: qroute analyze --scenario ")


def test_reach_ledger_fails_on_an_unreached_or_wrongly_allowlisted_def(
        reach, monkeypatch, capsys):
    reached = reach.defs()
    (name,) = reached.values()
    unreached = {**reached, (SCENARIO, 1, "main"): "qroute.cli.main"}
    for defs, allowlist, problem in (
            (unreached, {}, "not reached, and not in ALLOWLIST: qroute.cli.main"),
            (reached, {name: "why"}, f"in ALLOWLIST, but reached: {name}"),
            (reached, {"qroute.gone": "why"},
             "in ALLOWLIST, but not defined: qroute.gone")):
        rc, out = ledger(reach, monkeypatch, capsys, analyze("1"),
                         defs=defs, allowlist=allowlist)
        assert rc == 1 and out[2:] == [problem]
    rc, out = ledger(reach, monkeypatch, capsys, analyze("1"),
                     defs=unreached, allowlist={"qroute.cli.main": "why"})
    assert rc == 0


def test_reach_digest_covers_every_report_byte(reach, monkeypatch, capsys, tmp_path):
    def digest(*runs):
        rc, out = ledger(reach, monkeypatch, capsys, *runs)
        assert rc == 0 and out[1].startswith("reports sha256 ")
        return out[1]

    printer = script(tmp_path, "printer.py", "import sys\nprint(sys.argv[1])\n")
    same = digest(analyze("1"), [printer, "a"])
    assert digest(analyze("1"), [printer, "a"]) == same
    # a report's slot override, and a script's output, each differ in one byte
    assert digest(analyze("2"), [printer, "a"]) != same
    assert digest(analyze("1"), [printer, "b"]) != same
