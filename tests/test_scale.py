"""`scripts/scale.py`'s failure paths, on one tiny row in place of its table."""

import hashlib
import importlib.util
import sys
from pathlib import Path

SCALE = Path(__file__).resolve().parents[1] / "scripts" / "scale.py"


def test_scale_ledger_fails_on_a_wrong_digest_or_a_blown_budget(monkeypatch, capsys):
    monkeypatch.setattr(sys, "path", list(sys.path))  # the script extends it
    spec = importlib.util.spec_from_file_location("scale", SCALE)
    scale = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(scale)

    def run():
        return scale.route_grid(4, 3)

    right = hashlib.sha256(run().encode()).hexdigest()
    for budget, pinned, rc in ((60, right, 0), (60, "0" * 64, 1), (0, right, 1)):
        monkeypatch.setattr(scale, "ROWS", (("route_grid 4x4", budget, pinned, run),))
        assert scale.main() == rc
        out = capsys.readouterr().out
        assert out.startswith("ok   route_grid 4x4: " if rc == 0 else "FAIL route_grid 4x4: ")
        assert out.rstrip().endswith(f"sha256 {right}")
