import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from qroute.cli import run_command
from qroute.report import canonical_json, format_float
from qroute.scenario import (
    ScenarioError,
    parse_scenario,
    scenario_from_dict,
    scenario_to_dict,
)

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"


def minimal_scenario(**extra) -> dict:
    data = {
        "version": 1,
        "graph": {
            "nodes": [{"id": "A"}, {"id": "B"}],
            "edges": [{"u": "A", "v": "B", "capacity": 1, "link_prob": 0.5}],
        },
    }
    data.update(extra)
    return data


def write_scenario(tmp_path, data, name="s.json") -> Path:
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return path


# --------------------------------------------------------------------------
# parsing


def test_minimal_scenario_defaults():
    s = scenario_from_dict(minimal_scenario())
    assert len(s.graph.nodes) == 2
    assert s.requests == ()
    assert s.sim.slots == 1000
    assert s.routing.k == 5
    assert s.output_format == "json"


def test_missing_version_rejected():
    with pytest.raises(ScenarioError, match="version"):
        scenario_from_dict({"graph": {"nodes": [], "edges": []}})


def test_version_mismatch_rejected():
    with pytest.raises(ScenarioError, match="version 2"):
        scenario_from_dict(minimal_scenario(version=2))


def test_negative_capacity_names_edge():
    # graph validation failures forward as-is; the message names the edge
    data = minimal_scenario()
    data["graph"]["edges"][0]["capacity"] = -1
    with pytest.raises(ValueError, match=r"\('A', 'B'\).*capacity"):
        scenario_from_dict(data)


def test_unknown_request_dest_names_request():
    data = minimal_scenario(
        requests=[{"id": "r9", "source": "A", "dest": "X"}]
    )
    with pytest.raises(ScenarioError, match="r9.*unknown node 'X'"):
        scenario_from_dict(data)


def test_unknown_analytics_path_node():
    data = minimal_scenario(analytics={"paths": [["A", "Z"]]})
    with pytest.raises(ScenarioError, match="unknown node 'Z'"):
        scenario_from_dict(data)


def test_bad_json_reports_position(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"version": 1,,}')
    with pytest.raises(ScenarioError, match="line 1"):
        parse_scenario(path)


def test_missing_file(tmp_path):
    with pytest.raises(ScenarioError, match="does not exist"):
        parse_scenario(tmp_path / "nope.json")


def test_round_trip_semantic_equality():
    src = parse_scenario(SCENARIO_DIR / "grid_3x3.json")
    back = scenario_from_dict(scenario_to_dict(src))
    assert back == src


def test_repo_scenarios_parse():
    for name in ("two_hop_chain.json", "grid_3x3.json",
                 "async_adhoc_chain.json"):
        s = parse_scenario(SCENARIO_DIR / name)
        assert s.graph.is_connected()


# --------------------------------------------------------------------------
# report formatting


def test_format_float_12_sig_digits():
    assert format_float(0.25) == "0.25"
    assert format_float(1 / 3) == "0.333333333333"
    assert format_float(0.0) == "0"
    assert format_float(-0.0) == "0"
    assert format_float(1e-4) == "0.0001"


def test_canonical_json_sorted_and_stable():
    doc = {"b": [1, 2.5], "a": {"y": True, "x": None}}
    text = canonical_json(doc)
    assert text.index('"a"') < text.index('"b"')
    assert canonical_json(doc) == text
    parsed = json.loads(text)
    assert parsed == {"b": [1, 2.5], "a": {"y": True, "x": None}}


# --------------------------------------------------------------------------
# CLI


def test_analyze_reports_expected_throughput(tmp_path, capsys):
    rc = run_command([
        "analyze",
        "--scenario", str(SCENARIO_DIR / "two_hop_chain.json"),
        "--out", str(tmp_path),
    ])
    assert rc == 0
    report = json.loads((tmp_path / "analyze_report.json").read_text())
    path_result = report["results"]["paths"][0]
    assert path_result["expected_throughput"] == pytest.approx(0.125)
    assert report["metadata"]["one_way_classical_delay_ms"]["A|B"] == pytest.approx(0.1)


def test_simulate_reports_are_byte_identical(tmp_path):
    out1, out2 = tmp_path / "one", tmp_path / "two"
    for out in (out1, out2):
        rc = run_command([
            "simulate",
            "--scenario", str(SCENARIO_DIR / "two_hop_chain.json"),
            "--seed", "7", "--slots", "1000",
            "--out", str(out),
        ])
        assert rc == 0
    b1 = (out1 / "simulate_report.json").read_bytes()
    b2 = (out2 / "simulate_report.json").read_bytes()
    assert b1 == b2


def test_oracle_diff_below_tolerance(tmp_path):
    data = minimal_scenario()
    data["graph"] = {
        "nodes": [{"id": n, "swap_prob": 0.5} for n in "ABCD"],
        "edges": [
            {"u": "A", "v": "B", "capacity": 2, "link_prob": 0.9},
            {"u": "B", "v": "C", "capacity": 1, "link_prob": 0.6},
            {"u": "C", "v": "D", "capacity": 2, "link_prob": 0.7},
        ],
    }
    data["analytics"] = {"paths": [["A", "B", "C", "D"]]}
    path = write_scenario(tmp_path, data)
    rc = run_command(["oracle", "--scenario", str(path),
                      "--out", str(tmp_path / "out")])
    assert rc == 0
    report = json.loads((tmp_path / "out" / "oracle_report.json").read_text())
    assert report["results"]["max_abs_diff"] < 1e-9
    orders = {c["order"] for c in report["results"]["paths"][0]["comparisons"]}
    assert "unheralded" in orders
    assert len(orders) == 1 + 2  # plus both three-hop trees


def test_csv_emission_distribution_rows(tmp_path):
    data = minimal_scenario(
        analytics={"paths": [["A", "B"]], "policy": "doubling"},
        output={"format": "csv"},
    )
    data["graph"]["edges"][0]["capacity"] = 2
    path = write_scenario(tmp_path, data)
    out = tmp_path / "out"
    rc = run_command(["analyze", "--scenario", str(path), "--out", str(out)])
    assert rc == 0
    csv_text = (out / "analyze_path0_distribution.csv").read_text()
    assert csv_text == "k,prob\n0,0.25\n1,0.5\n2,0.25\n"


def test_route_reports_allocation(tmp_path):
    rc = run_command([
        "route",
        "--scenario", str(SCENARIO_DIR / "grid_3x3.json"),
        "--out", str(tmp_path),
    ])
    assert rc == 0
    report = json.loads((tmp_path / "route_report.json").read_text())
    res = report["results"]
    assert res["allocations"], "expected at least one allocated path"
    assert set(res["request_throughput"]) == {"r1", "r2"}
    caps = {}
    for alloc in res["allocations"]:
        for u, v in zip(alloc["nodes"], alloc["nodes"][1:]):
            key = "|".join(sorted((u, v)))
            caps[key] = caps.get(key, 0) + alloc["width"]
    assert all(total <= 2 for total in caps.values())


def test_reactive_simulation_via_flags(tmp_path):
    rc = run_command([
        "simulate",
        "--scenario", str(SCENARIO_DIR / "two_hop_chain.json"),
        "--scheme", "reactive", "--policy", "parallel",
        "--slots", "500", "--out", str(tmp_path),
    ])
    assert rc == 0
    report = json.loads((tmp_path / "simulate_report.json").read_text())
    assert report["results"]["scheme"] == "reactive"
    assert report["overrides"]["scheme"] == "reactive"


def test_explicit_paths_drive_proactive_sim(tmp_path):
    rc = run_command([
        "simulate",
        "--scenario", str(SCENARIO_DIR / "async_adhoc_chain.json"),
        "--slots", "2000", "--out", str(tmp_path),
    ])
    assert rc == 0
    report = json.loads((tmp_path / "simulate_report.json").read_text())
    assert report["results"]["forwarding"] == "async"
    assert "r1[0]" in report["results"]["per_path"]


def test_empty_sim_stats_csv_has_headers(tmp_path):
    # reactive run with no requests: valid files, headers, zero data rows
    data = minimal_scenario(
        sim={"scheme": "reactive", "slots": 50, "seed": 1,
             "policy": "parallel"},
        output={"format": "csv"},
    )
    path = write_scenario(tmp_path, data)
    out = tmp_path / "out"
    rc = run_command(["simulate", "--scenario", str(path), "--out", str(out)])
    assert rc == 0
    assert (out / "simulate_per_request.csv").read_text() == \
        "request,delivered,rate\n"
    assert (out / "simulate_histograms.csv").read_text() == "path,k,slots\n"


def test_exit_codes(tmp_path, capsys):
    assert run_command(["bogus"]) == 1
    assert run_command(["analyze", "--scenario", str(tmp_path / "nope.json"),
                        "--out", str(tmp_path)]) == 1
    capsys.readouterr()
    # validation failure inside the scenario
    bad = minimal_scenario()
    bad["graph"]["edges"][0]["link_prob"] = 2.0
    path = write_scenario(tmp_path, bad)
    assert run_command(["analyze", "--scenario", str(path),
                        "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert "link_prob" in err


def test_unknown_flag_exits_one(tmp_path):
    assert run_command(["analyze", "--scenario", "x", "--bogus"]) == 1


def test_module_entry_point_runs_the_cli():
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-m", "qroute", "--help"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert "route" in proc.stdout
