"""`scripts/reach.py`'s pinned rows; and its failure paths and row digests, on
tiny rows in place of its table."""

import importlib.util
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SPEC = importlib.util.spec_from_file_location("reach", ROOT / "scripts" / "reach.py")
REACH = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(REACH)
TINY = ("two_hop_chain.json", "analyze --slots 1")


@pytest.mark.parametrize("where, command, pinned", REACH.ROWS,
                         ids=[f"{where}: {command}" for where, command, _ in REACH.ROWS])
def test_reach_row_pinned(tmp_path, where, command, pinned):
    assert REACH.run_row(where, command, tmp_path) == (pinned, [])


@pytest.fixture
def reach(monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))  # main() extends it
    # the ledger checks one def, which the tiny CLI run reaches
    (key,) = [k for k, name in REACH.defs().items() if name == "qroute.cli.run_command"]
    monkeypatch.setattr(REACH, "defs", lambda: {key: "qroute.cli.run_command"})
    monkeypatch.setattr(REACH, "ALLOWLIST", {})
    return REACH


def ledger(reach, monkeypatch, capsys, tmp_path, *rows, defs=None, allowlist=None):
    """(exit code, printed lines after the rows' own) of the ledger over
    `rows`, each pinned to its digest; `defs` and `allowlist`, when given,
    replace the fixture's."""
    monkeypatch.setattr(reach, "ROWS", [(*row, reach.run_row(*row, tmp_path)[0])
                                        for row in rows])
    if defs is not None:
        monkeypatch.setattr(reach, "defs", lambda: defs)
    if allowlist is not None:
        monkeypatch.setattr(reach, "ALLOWLIST", allowlist)
    rc = reach.main()
    return rc, capsys.readouterr().out.splitlines()[len(rows):]


def script(tmp_path, name: str, body: str) -> str:
    path = tmp_path / name
    path.write_text(body)
    return str(path)


def test_reach_ledger_fails_on_a_moved_row_digest(reach, capsys, monkeypatch, tmp_path):
    right, _ = reach.run_row(*TINY, tmp_path)
    for pinned, status, rc in ((right, "ok  ", 0), ("0" * 64, "FAIL", 1)):
        monkeypatch.setattr(reach, "ROWS", ((*TINY, pinned),))
        assert reach.main() == rc
        assert capsys.readouterr().out.splitlines()[0] == (
            f"{status} two_hop_chain.json: analyze --slots 1: sha256 {right}")


def test_reach_ledger_fails_on_a_nonzero_exit_or_stderr_output(
        reach, monkeypatch, capsys, tmp_path):
    rc, out = ledger(reach, monkeypatch, capsys, tmp_path, TINY)
    assert rc == 0 and len(out) == 1
    quiet_exit = script(tmp_path, "exit1.py", "raise SystemExit(1)\n")
    rc, out = ledger(reach, monkeypatch, capsys, tmp_path, TINY, ("scripts", quiet_exit))
    assert rc == 1 and out[1:] == [f"exit 1: {quiet_exit}: "]
    noisy = script(tmp_path, "noisy.py",
                   "import sys\nprint('Exception ignored', file=sys.stderr)\n")
    rc, out = ledger(reach, monkeypatch, capsys, tmp_path, TINY, ("scripts", f"{noisy} --flag"))
    assert rc == 1 and out[1:] == [f"exit 0: {noisy} --flag: Exception ignored"]
    rc, out = ledger(reach, monkeypatch, capsys, tmp_path,
                     ("two_hop_chain.json", "analyze --seed -1"), ("none.json", "analyze"))
    assert rc == 1 and out[1].startswith("exit 1: qroute analyze --format csv --seed -1 ")
    assert out[2:] == ["no scenario matches: none.json: analyze"]


def test_reach_ledger_fails_on_an_unreached_or_wrongly_allowlisted_def(
        reach, monkeypatch, capsys, tmp_path):
    reached = reach.defs()
    (name,) = reached.values()
    unreached = {**reached, (str(tmp_path), 1, "main"): "qroute.cli.main"}
    for defs, allowlist, problem in (
            (unreached, {}, "not reached, and not in ALLOWLIST: qroute.cli.main"),
            (reached, {name: "why"}, f"in ALLOWLIST, but reached: {name}"),
            (reached, {"qroute.gone": "why"},
             "in ALLOWLIST, but not defined: qroute.gone")):
        rc, out = ledger(reach, monkeypatch, capsys, tmp_path, TINY,
                         defs=defs, allowlist=allowlist)
        assert rc == 1 and out[1:] == [problem]
    rc, out = ledger(reach, monkeypatch, capsys, tmp_path, TINY,
                     defs=unreached, allowlist={"qroute.cli.main": "why"})
    assert rc == 0


def test_reach_digest_covers_every_report_byte(tmp_path):
    def digest(where, command):
        got, failed = REACH.run_row(where, command, tmp_path)
        assert failed == []
        return got

    printer = script(tmp_path, "printer.py", "import sys\nprint(sys.argv[1])\n")
    same = digest(*TINY)
    assert digest(*TINY) == same
    # a report's slot override, and a script's output, each differ in one byte
    assert digest("two_hop_chain.json", "analyze --slots 2") != same
    printed = digest("scripts", f"{printer} a")
    assert digest("scripts", f"{printer} a") == printed
    assert digest("scripts", f"{printer} b") != printed
