"""`scripts/scale.py`'s failure paths, on one tiny row in place of its table;
and CI's time limit on it."""

import hashlib
import importlib.util
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SCALE = ROOT / "scripts" / "scale.py"


@pytest.fixture
def scale(monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))  # the script extends it
    spec = importlib.util.spec_from_file_location("scale", SCALE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_scale_ledger_fails_on_a_wrong_digest_or_a_blown_budget(scale, monkeypatch, capsys):
    def run():
        return scale.route_grid(4, 3)

    right = hashlib.sha256(run().encode()).hexdigest()
    for budget, pinned, rc in ((60, right, 0), (60, "0" * 64, 1), (0, right, 1)):
        monkeypatch.setattr(scale, "ROWS", (("route_grid 4x4", budget, pinned, run),))
        assert scale.main() == rc
        out = capsys.readouterr().out
        assert out.startswith("ok   route_grid 4x4: " if rc == 0 else "FAIL route_grid 4x4: ")
        assert out.rstrip().endswith(f"sha256 {right}")


def test_ci_times_the_scale_ledger_out_at_its_budgets_sum(scale):
    # a row added to the table raises the sum, and CI's limit with it
    workflow = (ROOT / ".github" / "workflows" / "tests.yml").read_text()
    (limit,) = re.findall(r"timeout (\d+) python -W error scripts/scale\.py", workflow)
    assert int(limit) == sum(budget for _, budget, _, _ in scale.ROWS)
