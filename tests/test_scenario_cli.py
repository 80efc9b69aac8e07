import argparse
import copy
import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from qroute import cli
from qroute.cli import run_command
from qroute.report import canonical_json, format_float
from qroute.routing import UTILITY_KINDS
from qroute.scenario import (
    SCHEMA,
    ScenarioError,
    parse_scenario,
    scenario_from_dict,
    scenario_to_dict,
)

ROOT = Path(__file__).resolve().parent.parent
SCENARIO_DIR = ROOT / "scenarios"
STATIC_POLICIES = ("sequential", "doubling", "parallel")


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
    path.write_text(data if isinstance(data, str) else json.dumps(data))
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


@st.composite
def scenario_docs(draw):
    """Small valid scenario documents on a chain, with optional sections."""
    n = draw(st.integers(2, 5))
    ids = [f"n{i}" for i in range(n)]
    prob = st.floats(0.0, 0.5)

    def subpath():
        a, b = sorted(draw(st.lists(st.integers(0, n - 1), min_size=2,
                                    max_size=2, unique=True)))
        nodes = ids[a:b + 1]
        return nodes[::-1] if draw(st.booleans()) else nodes

    doc = {
        "version": 1,
        "graph": {
            "nodes": [{"id": i, "swap_prob": draw(prob),
                       "memory_cutoff_slots": draw(st.integers(1, 5))}
                      for i in ids],
            "edges": [{"u": u, "v": v, "capacity": draw(st.integers(0, 3)),
                       "length_km": draw(st.floats(0, 100)),
                       "link_prob": draw(st.none() | st.floats(0, 1))}
                      for u, v in zip(ids, ids[1:])],
        },
    }
    forwarding = draw(st.sampled_from(("sync", "async")))
    # explicit paths that fit the edge capacities; the parser rejects the rest
    residual = {frozenset((e["u"], e["v"])): e["capacity"]
                for e in doc["graph"]["edges"]}
    # analysed paths need a channel on every hop; the parser rejects the rest
    analysed = [
        nodes for nodes in (subpath() for _ in range(draw(st.integers(0, 2))))
        if all(residual[frozenset(hop)] >= 1 for hop in zip(nodes, nodes[1:]))
    ]
    sim_paths = []
    for i in range(draw(st.integers(0, 2))):
        nodes, width = subpath(), draw(st.integers(1, 3))
        hops = [frozenset(hop) for hop in zip(nodes, nodes[1:])]
        if all(residual[hop] >= width for hop in hops):
            for hop in hops:
                residual[hop] -= width
            sim_paths.append(
                {"request": f"p{i}", "nodes": nodes, "width": width,
                 **({"policy": draw(st.sampled_from(STATIC_POLICIES))}
                    if draw(st.booleans()) else {})})
    requests = [
        {"id": f"q{i}", "source": path[0], "dest": path[-1],
         "rate_target": draw(st.floats(0.01, 10)),
         "min_fidelity": draw(st.floats(0.26, 1))}
        for i, path in enumerate(subpath() for _ in range(draw(st.integers(0, 3))))
    ]
    ids = [r["id"] for r in requests]
    utility = draw(st.sampled_from(UTILITY_KINDS))
    optional = {
        "physical": {
            "attenuation_alpha_per_km": draw(st.floats(0, 0.1)),
            "attempts_per_slot": draw(st.integers(1, 3)),
            "base_efficiency": draw(st.floats(0.01, 1)),
            "swap_bound_mode": draw(st.sampled_from(
                ("off", "linear-optics", "advanced"))),
        },
        "elementary_fidelity": draw(st.floats(0.26, 1)),
        "requests": requests,
        "analytics": {
            "paths": analysed,
            "policy": draw(st.sampled_from(STATIC_POLICIES)),
            "order_search": draw(st.booleans()),
        },
        "routing": {
            "k": draw(st.integers(1, 6)),
            "utility": utility,
            # only weighted_sum reads weights; the parser rejects the rest
            "weights": draw(st.dictionaries(st.sampled_from(ids), st.floats(0, 5))
                            if ids and utility == "weighted_sum"
                            else st.just({})),
            "policy": draw(st.sampled_from(STATIC_POLICIES)),
        },
        "sim": {
            "scheme": draw(st.sampled_from(("proactive", "reactive"))),
            "forwarding": forwarding,
            # adhoc swapping needs asynchronous forwarding
            "policy": draw(st.sampled_from(
                STATIC_POLICIES + (("adhoc",) if forwarding == "async" else ())
            )),
            "slots": draw(st.integers(1, 5000)),
            "seed": draw(st.integers(0, 2**31)),
            "node_disjoint": draw(st.booleans()),
            "max_paths_per_request": draw(st.integers(1, 4)),
            "paths": sim_paths,
        },
        "output": {"format": draw(st.sampled_from(("json", "csv")))},
    }
    keep = draw(st.sets(st.sampled_from(sorted(optional))))
    if "requests" not in keep:  # weights name declared requests only
        optional["routing"]["weights"] = {}
    doc.update({key: optional[key] for key in keep})
    return doc


@settings(max_examples=150, deadline=None)
@example(doc=json.loads((SCENARIO_DIR / "grid_3x3.json").read_text()))
@given(doc=scenario_docs())
def test_round_trip_semantic_equality(doc):
    src = scenario_from_dict(doc)
    once = scenario_to_dict(src)
    back = scenario_from_dict(once)
    assert back == src
    assert canonical_json(scenario_to_dict(back)) == canonical_json(once)


def _set(doc: dict, path: tuple, value) -> dict:
    doc = copy.deepcopy(doc)
    cur = doc
    for key in path[:-1]:
        cur = cur[key]
    cur[path[-1]] = value
    return doc


_CHAIN = json.loads((SCENARIO_DIR / "two_hop_chain.json").read_text())
_GRID = json.loads((SCENARIO_DIR / "grid_3x3.json").read_text())
_ADHOC = json.loads((SCENARIO_DIR / "async_adhoc_chain.json").read_text())
_AB = {"request": "x", "nodes": ["A", "B"]}
_CD = {"request": "y", "nodes": ["C", "D"]}
_ABCD = {"request": "r1", "nodes": ["A", "B", "C", "D"]}

# (document, JSON path the error must name): each was once coerced,
# ignored, or failed late or with exit code 2
BAD_INPUTS = [
    (_set(_GRID, ("graph", "grid", "edge", "link_prob"), "0.6"),
     "graph.grid.edge.link_prob"),
    (_set(_CHAIN, ("graph", "edges", 1, "link_prob"), "0.5"),
     "graph.edges[1].link_prob"),
    (_set(_CHAIN, ("routing", "weights"), [1, 2]), "routing.weights"),
    (_set(_CHAIN, ("graph", "edges", 0, "capacity"), 2.9),
     "graph.edges[0].capacity"),
    (_set(_CHAIN, ("graph", "edges", 0, "capacity"), True),
     "graph.edges[0].capacity"),
    (_set(_CHAIN, ("sim", "slots"), 1000.7), "sim.slots"),
    (_set(_CHAIN, ("sim", "seed"), "7"), "sim.seed"),
    (_set(_GRID, ("graph", "grid", "rows"), 2.5), "graph.grid.rows"),
    (_set(_CHAIN, ("analytics", "order_search"), "false"),
     "analytics.order_search"),
    (_set(_CHAIN, ("sim", "node_disjoint"), "no"), "sim.node_disjoint"),
    (_set(_CHAIN, ("sim", "slot"), 5), "sim.slot"),
    (_set(_CHAIN, ("comment",), "x"), "comment"),
    (_set(_CHAIN, ("analytics", "paths"), ["AB"]), "analytics.paths[0]"),
    (_set(_CHAIN, ("graph", "edges", 0, "length_km"), float("nan")),
     "graph.edges[0].length_km"),
    (_set(_CHAIN, ("requests", 0, "rate_target"), float("nan")),
     "requests[0].rate_target"),
    (_set(_CHAIN, ("elementary_fidelity",), float("inf")),
     "elementary_fidelity"),
    # r1 is declared A -> D, but its explicit path stops at C
    (_set(_ADHOC, ("sim", "paths"), [{**_ABCD, "nodes": ["A", "B", "C"]}]),
     "sim.paths[0]"),
    (_set(_ADHOC, ("sim", "paths"), [_AB, {**_CD, "width": 0}]),
     "sim.paths[1].width"),
    # every edge has capacity 1, and A-B is already taken
    (_set(_ADHOC, ("sim", "paths"), [_AB, _CD, _ABCD]), "sim.paths[2]"),
    # JSON text, since a dict cannot hold a key twice; a plain JSON reader
    # keeps the last value without a word
    (json.dumps(_CHAIN).replace('"slots": 20000', '"slots": 5, "slots": 1000'),
     "sim.slots"),
    (json.dumps(_CHAIN).replace('"rate_target": 1.0',
                                '"rate_target": 1.0, "rate_target": 2.0'),
     "requests[0].rate_target"),
    (json.dumps(_set(_CHAIN, ("routing", "weights"), {"r1": 2.0}))
     .replace('"r1": 2.0', '"r1": 2.0, "r1": 3.0'), "routing.weights.r1"),
    # B-C exists but carries no channel, so no width can be analysed on it
    (_set(_set(_CHAIN, ("graph", "edges", 1, "capacity"), 0),
          ("analytics", "paths"), [["A", "B"], ["A", "B", "C"]]),
     "analytics.paths[1]"),
    # a negative weight would make the allocator never serve r1
    (_set(_CHAIN, ("routing", "weights"), {"r1": -1.0}), "routing.weights.r1"),
    (_set(_CHAIN, ("routing", "weights"), {"zz": 2.0}), "routing.weights.zz"),
    # only weighted_sum reads weights; other utilities ignored them
    (_set(_set(_CHAIN, ("routing", "weights"), {"r1": 5.0}),
          ("routing", "utility"), "saturating"), "routing.weights"),
]


# (document, JSON path the error must name): each error named only its
# section or no path at all, or no test reached it. A separate list, so that
# ids repeated from BAD_INPUTS get a prefix and leave those ids unchanged
FIELD_ERRORS = [
    (_set(_CHAIN, ("sim", "max_paths_per_request"), 0),
     "sim.max_paths_per_request"),
    (_set(_CHAIN, ("sim", "max_paths_per_request"), -2),
     "sim.max_paths_per_request"),
    # seeds were folded modulo 2**64, so 2**64 ran as 0 and -1 as 2**64 - 1
    (_set(_CHAIN, ("sim", "seed"), 2**64), "sim.seed"),
    (_set(_CHAIN, ("sim", "seed"), -1), "sim.seed"),
    (_set(_CHAIN, ("sim", "slots"), 0), "sim.slots"),
    (_set(_CHAIN, ("sim", "scheme"), "eager"), "sim.scheme"),
    (_set(_CHAIN, ("sim", "forwarding"), "lazy"), "sim.forwarding"),
    (_set(_CHAIN, ("sim", "policy"), "bogus"), "sim.policy"),
    (_set(_CHAIN, ("routing", "k"), 0), "routing.k"),
    (_set(_GRID, ("graph", "grid", "rows"), 0), "graph.grid.rows"),
    (_set(_GRID, ("graph", "grid", "cols"), -1), "graph.grid.cols"),
    (_set(_CHAIN, ("physical", "attenuation_alpha_per_km"), -0.1),
     "physical.attenuation_alpha_per_km"),
    (_set(_CHAIN, ("physical", "attempts_per_slot"), 0),
     "physical.attempts_per_slot"),
    (_set(_CHAIN, ("physical", "base_efficiency"), 1.5),
     "physical.base_efficiency"),
    (_set(_CHAIN, ("physical", "swap_bound_mode"), "on"),
     "physical.swap_bound_mode"),
    (_set(_CHAIN, ("elementary_fidelity",), 0.2), "elementary_fidelity"),
    (_set(_GRID, ("requests", 1, "id"), "r1"), "requests[1].id"),
    (_set(_CHAIN, ("output", "format"), "xml"), "output.format"),
    (_set(_CHAIN, ("graph", "edges", 0), {"v": "B"}), "graph.edges[0].u"),
    (_set(_CHAIN, ("graph", "grid"), {"rows": 1, "cols": 2}), "graph"),
    (_set(_CHAIN, ("analytics", "paths"), [["A"]]), "analytics.paths[0]"),
    (_set(_CHAIN, ("sim", "paths"), [{"request": "r1", "nodes": ["A", "C"]}]),
     "sim.paths[0]"),
    # node and edge ranges were checked by build_graph, which named only
    # `graph` or `graph.grid`
    (_set(_CHAIN, ("graph", "edges", 1, "capacity"), -1), "graph.edges[1].capacity"),
    (_set(_CHAIN, ("graph", "edges", 0, "length_km"), -1.0),
     "graph.edges[0].length_km"),
    (_set(_CHAIN, ("graph", "edges", 1, "link_prob"), 1.5),
     "graph.edges[1].link_prob"),
    (_set(_CHAIN, ("graph", "nodes", 2, "swap_prob"), 1.2),
     "graph.nodes[2].swap_prob"),
    (_set(_CHAIN, ("graph", "nodes", 0, "memory_cutoff_slots"), 0),
     "graph.nodes[0].memory_cutoff_slots"),
    (_set(_GRID, ("graph", "grid", "edge", "capacity"), -1),
     "graph.grid.edge.capacity"),
    (_set(_GRID, ("graph", "grid", "edge", "length_km"), -2.0),
     "graph.grid.edge.length_km"),
    (_set(_GRID, ("graph", "grid", "edge", "link_prob"), -0.1),
     "graph.grid.edge.link_prob"),
    (_set(_GRID, ("graph", "grid", "node", "swap_prob"), 1.5),
     "graph.grid.node.swap_prob"),
    (_set(_GRID, ("graph", "grid", "node", "memory_cutoff_slots"), 0),
     "graph.grid.node.memory_cutoff_slots"),
    # Request's own range checks named the request, not the field
    (_set(_CHAIN, ("requests", 0, "rate_target"), -1.0), "requests[0].rate_target"),
    (_set(_CHAIN, ("requests", 0, "min_fidelity"), 0.2), "requests[0].min_fidelity"),
    (_set(_CHAIN, ("requests", 0, "dest"), "A"), "requests[0].dest"),
    ({k: v for k, v in _CHAIN.items() if k != "version"}, "version"),
    (_set(_CHAIN, ("version",), 7), "version"),
]


# (document, JSON path): each model check named only its section. A separate
# list, so that the repeated sim.policy id leaves FIELD_ERRORS' one unchanged
PREFIXED_CHECKS = [
    (_set(_CHAIN, ("routing", "utility"), "bogus"), "routing.utility"),
    (_set(_CHAIN, ("routing", "policy"), "adhoc"), "routing.policy"),
    (_set(_CHAIN, ("analytics", "policy"), "adhoc"), "analytics.policy"),
    (_set(_CHAIN, ("sim", "policy"), "adhoc"), "sim.policy"),
    (_set(_CHAIN, ("sim", "paths"), [{"request": "r1", "nodes": ["A", "B", "C"],
                                      "width": 0}]), "sim.paths[0].width"),
]


# routes that visit a node twice; each failed later, without its JSON path
LOOPED_ROUTES = [
    (_set(_GRID, ("analytics", "paths"), [["0,0", "0,1", "0,0"]]),
     "analytics.paths[0]"),
    (_set(_GRID, ("sim", "paths"), [{"request": "r1", "nodes": [
        "0,0", "0,1", "1,1", "1,0", "0,0", "0,1", "0,2", "1,2", "2,2"]}]),
     "sim.paths[0]"),
]


@pytest.mark.parametrize(
    "doc, where", BAD_INPUTS + LOOPED_ROUTES + FIELD_ERRORS + PREFIXED_CHECKS,
    # the last case's path is already an id; a repeat would renumber both
    ids=[w if isinstance(d, dict) else f"duplicate:{w}" for d, w in BAD_INPUTS[:-1]]
    + ["routing.weights:unread"] + [f"loop:{w}" for _, w in LOOPED_ROUTES]
    + [f"field:{w}" for _, w in FIELD_ERRORS]
    + [f"check:{w}" for _, w in PREFIXED_CHECKS],
)
def test_bad_input_names_its_json_path(doc, where, tmp_path, capsys):
    if isinstance(doc, dict):
        with pytest.raises(ScenarioError, match=re.escape(where) + ":"):
            scenario_from_dict(doc)
    path = write_scenario(tmp_path, doc)
    with pytest.raises(ScenarioError, match=re.escape(where) + ":"):
        parse_scenario(path)
    assert run_command(["analyze", "--scenario", str(path),
                        "--out", str(tmp_path / "out")]) == 1
    assert where + ":" in capsys.readouterr().err


# (document, JSON path): each leaves out a field its constructor needs, which
# `scenario._required` reads off the constructor's code
MISSING_FIELDS = [
    (_set(_CHAIN, ("graph", "nodes", 0), {"swap_prob": 0.5}), "graph.nodes[0].id"),
    (_set(_CHAIN, ("graph", "edges", 0), {"u": "A"}), "graph.edges[0].v"),
    (_set(_CHAIN, ("requests", 0), {"dest": "C"}), "requests[0].source"),
    (_set(_CHAIN, ("requests", 0), {"source": "A"}), "requests[0].dest"),
    (_set(_GRID, ("graph", "grid"), {"cols": 3}), "graph.grid.rows"),
    (_set(_GRID, ("graph", "grid"), {"rows": 3}), "graph.grid.cols"),
    (_set(_CHAIN, ("sim", "paths"), [{"request": "r1"}]), "sim.paths[0].nodes"),
]


@pytest.mark.parametrize("doc, where", MISSING_FIELDS, ids=[w for _, w in MISSING_FIELDS])
def test_missing_field_names_its_json_path(doc, where):
    with pytest.raises(ScenarioError) as exc:
        scenario_from_dict(doc)
    assert str(exc.value) == f"{where}: missing field"


# 13 hops along a 4x4 grid, one past the exhaustive order search's limit
_SNAKE = ["0,0", "0,1", "0,2", "0,3", "1,3", "1,2", "1,1", "1,0",
          "2,0", "2,1", "2,2", "2,3", "3,3", "3,2"]
# (command, document, error): limits that only a command meets, once the
# scenario has parsed; the error leads with the JSON path it names
COMMAND_LIMITS = {
    "oracle_hops": ("oracle", _set(
        _GRID, ("analytics", "paths"),
        [["0,0", "0,1"], ["0,0", "0,1", "0,2", "1,2", "1,1", "1,0", "2,0"]],
    ), "analytics.paths[1]: oracle limited to 5 hops"),
    "oracle_cap": ("oracle", _set(
        _set(_CHAIN, ("graph", "edges", 1, "capacity"), 4),
        ("analytics", "paths"), [["A", "B"], ["B", "C"]],
    ), "analytics.paths[1]: oracle limited to 5 hops and cap 3"),
    "order_search_hops": ("analyze", _set(
        _set(_set(_set(_GRID, ("graph", "grid", "rows"), 4),
                  ("graph", "grid", "cols"), 4),
             ("analytics", "order_search"), True),
        ("analytics", "paths"), [["0,0", "0,1"], _SNAKE],
    ), "analytics.paths[1]: path has 13 hops; exhaustive order search is "
       "limited to 12"),
    "analyze_without_paths": ("analyze", _set(_CHAIN, ("analytics", "paths"), []),
                              "analytics.paths: "),
    "oracle_without_paths": ("oracle", _set(_CHAIN, ("analytics", "paths"), []),
                             "analytics.paths: "),
    "simulate_without_requests": ("simulate", _set(_CHAIN, ("requests",), []),
                                  "requests: "),
    "adhoc_path_under_sync": ("simulate", _set(_CHAIN, ("sim", "paths"), [
        {"request": "r1", "nodes": ["A", "B", "C"], "policy": "adhoc"},
    ]), "sim.paths[0].policy: adhoc swapping needs async forwarding"),
}


@pytest.mark.parametrize("case", sorted(COMMAND_LIMITS))
def test_command_limits_name_the_path(case, tmp_path, capsys):
    command, doc, error = COMMAND_LIMITS[case]
    path = write_scenario(tmp_path, doc)
    parse_scenario(path)
    assert run_command([command, "--scenario", str(path),
                        "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.startswith(f"qroute: {error}")


def _table_keys(kind) -> set:
    if isinstance(kind, list):
        return _table_keys(kind[0])
    if isinstance(kind, dict) and str not in kind:
        return set(kind).union(*map(_table_keys, kind.values()))
    return set()


def _readme_schema_example() -> str:
    readme = (ROOT / "README.md").read_text()
    block = readme.split("### Scenario schema")[1].split("```jsonc")[1]
    return block.split("```")[0]


def test_readme_schema_keys_match_tables():
    block = _readme_schema_example()
    assert set(re.findall(r'"(\w+)"\s*:', block)) == _table_keys(SCHEMA)


def test_readme_schema_example_parses():
    # the example with its `//` comments stripped is a scenario
    text = re.sub(r"//.*", "", _readme_schema_example())
    s = scenario_from_dict(json.loads(text))
    assert [n.id for n in s.graph.nodes] == ["A", "B"]
    assert s.explicit_paths[0].nodes == ("A", "B")


def test_readme_quick_tour_runs():
    readme = (ROOT / "README.md").read_text()
    block = readme.split("## Library quick tour")[1].split("```python")[1]
    exec(block.split("```")[0], {})


def _readme_section(heading: str) -> str:
    """README's `## heading` section, up to the next `## ` heading."""
    readme = (ROOT / "README.md").read_text()
    return readme.split(f"\n## {heading}\n")[1].split("\n## ")[0]


def test_readme_states_the_contract_not_the_internals():
    # README names no private name and no test, so a new kernel or search
    # branch needs no README edit; their docstrings describe them
    readme = (ROOT / "README.md").read_text()
    assert len(readme.splitlines()) <= 250
    blocks = re.findall(r"```.*?```", readme, flags=re.S)
    spans = re.findall(r"`([^`\n]+)`", re.sub(r"```.*?```", "", readme, flags=re.S))
    names = {name for text in blocks + spans for name in re.findall(r"[\w.{}]+", text)}
    # private: the last dotted part starts with one `_` (dunders are public)
    assert {n for n in names if re.match(r"_[^\W_]", n.split(".")[-1])} == set()
    tests = {name for path in [*ROOT.glob("tests/*.py"), *ROOT.glob("bench/tests/*.py")]
             for name in re.findall(r"^def (test_\w+)", path.read_text(), flags=re.M)}
    assert tests and tests.isdisjoint(re.findall(r"\btest_\w+", readme))


def test_readme_command_line_names_every_flag_and_no_other():
    section = _readme_section("Command line")
    parser = cli.build_parser()
    (commands,) = [a for a in parser._actions
                   if isinstance(a, argparse._SubParsersAction)]
    flags = {s for p in (parser, *commands.choices.values())
             for action in p._actions for s in action.option_strings
             if s.startswith("--")}
    assert {"--scenario", "--out", "--help"} <= flags
    assert {f for f in flags if not re.search(rf"{f}(?![\w-])", section)} == set()
    assert set(re.findall(r"(?<![\w-])--[a-z][\w-]*", section)) <= flags
    assert {f"`{name}`" for name in commands.choices} <= set(re.findall(r"`\w+`", section))


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


def dumps_writer(value, indent=0) -> str:
    """The reference: the report writer as it was, strings and keys through
    `json.dumps` with its defaults."""
    pad = "  " * indent
    if isinstance(value, dict) and value:
        items = [f"{pad}  {json.dumps(str(k))}: {dumps_writer(value[k], indent + 1)}"
                 for k in sorted(value, key=str)]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(value, list) and value:
        items = [pad + "  " + dumps_writer(v, indent + 1) for v in value]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    if isinstance(value, float):
        return format_float(value)
    return json.dumps(value)


# every code point, lone surrogates included, weighted towards the ones
# JSON escapes: quotes, backslashes, control and non-ASCII characters
_TEXT = st.text(st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f\x80\xe9\u20ac\u2028\ud800\udfff\U0001f600')
                | st.characters(exclude_categories=()), max_size=12)


@given(st.recursive(
    _TEXT | st.integers() | st.floats(allow_nan=False, allow_infinity=False)
    | st.booleans() | st.none(),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(_TEXT, inner, max_size=4),
    max_leaves=12,
))
def test_canonical_json_equals_dumps_writer(doc):
    assert canonical_json(doc) == dumps_writer(doc) + "\n"


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


def test_analyze_counts_capacity_zero_edges_as_connecting(tmp_path):
    # two halves joined only by a capacity-0 edge are one component
    edges = [{"u": "A", "v": "B", "capacity": 1, "link_prob": 0.5},
             {"u": "B", "v": "C", "capacity": 0, "link_prob": 0.5},
             {"u": "C", "v": "D", "capacity": 1, "link_prob": 0.5}]
    for joined, connected in ((edges, True), (edges[::2], False)):
        data = minimal_scenario(analytics={"paths": [["A", "B"]]})
        data["graph"] = {"nodes": [{"id": v} for v in "ABCD"], "edges": joined}
        out = tmp_path / str(connected)
        assert run_command(["analyze", "--scenario", str(write_scenario(tmp_path, data)),
                            "--out", str(out)]) == 0
        report = json.loads((out / "analyze_report.json").read_text())
        assert report["metadata"]["connected"] is connected


RULE_SCENARIOS = sorted(
    str(path.relative_to(SCENARIO_DIR))
    for pattern in ("*.json", "coverage/*.json") for path in SCENARIO_DIR.glob(pattern))


@pytest.mark.parametrize("command", ["analyze", "route", "oracle", "simulate"])
@pytest.mark.parametrize("name", RULE_SCENARIOS)
def test_json_run_writes_the_csv_report_and_only_simulate_reads_slots(tmp_path, name, command):
    # `scripts/reach.py`'s table runs each report once on these two rules,
    # checked on every scenario its deleted duplicate rows ran: a `--format
    # json` run writes only the JSON report the CSV run writes too, up to the
    # format echo; and `analyze`, `route` and `oracle` never read `sim.slots`,
    # so `--slots` moves only its own echo
    scenario = str(SCENARIO_DIR / name)

    def run(*flags, drop):
        out = tmp_path / str(len(list(tmp_path.iterdir())))
        assert run_command([command, "--scenario", scenario, *flags,
                            "--out", str(out)]) == 0
        report = json.loads((out / f"{command}_report.json").read_text())
        report["overrides"].pop(drop, None)
        del report["config"]["output" if drop == "format" else "sim"][drop]
        return sorted(path.name for path in out.iterdir()), report

    files, report = run("--slots", "200", "--format", "json", drop="format")
    assert files == [f"{command}_report.json"]
    assert report == run("--slots", "200", "--format", "csv", drop="format")[1]
    if command != "simulate":
        assert run("--slots", "200", drop="slots")[1] == run(drop="slots")[1]


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
    # a flag outside its range names the overrides
    assert run_command(["simulate", "--scenario", str(SCENARIO_DIR / "two_hop_chain.json"),
                        "--seed", "-1", "--out", str(tmp_path)]) == 1
    assert "overrides: seed -1 outside" in capsys.readouterr().err
    # sync forwarding on a scenario whose policy is adhoc
    for fmt in ("json", "csv"):
        assert run_command(["simulate", "--scenario", str(SCENARIO_DIR / "async_adhoc_chain.json"),
                            "--slots", "2000", "--mode", "sync", "--format", fmt,
                            "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err == (
            "qroute: overrides: policy adhoc swapping needs asynchronous forwarding; "
            "under sync everything is regenerated each slot\n")


# (--out under the run's directory, the existing file it names or lies
# under): each failed only when the report was written, with exit 2
BAD_OUT = [("taken", "taken"), ("taken/report", "taken")]


@pytest.mark.parametrize("out, taken", BAD_OUT, ids=[o for o, _ in BAD_OUT])
def test_out_naming_a_file_exits_one(out, taken, tmp_path, capsys):
    (tmp_path / taken).write_text("")
    assert run_command(["analyze", "--scenario", str(SCENARIO_DIR / "two_hop_chain.json"),
                        "--out", str(tmp_path / out)]) == 1
    assert capsys.readouterr().err == (
        f"qroute: --out: {str(tmp_path / taken)!r} is not a directory\n")
    assert (tmp_path / taken).read_text() == ""


def test_runtime_failure_exits_two(tmp_path, capsys, monkeypatch):
    # a write that fails on a valid --out is not a config problem, so the
    # run fails as a runtime error
    def full_disk(*args):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(cli, "emit_report", full_disk)
    assert run_command(["analyze", "--scenario", str(SCENARIO_DIR / "two_hop_chain.json"),
                        "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("qroute: OSError: ")


@pytest.mark.parametrize("policy", ["bogus", "explicit"])
def test_unknown_policy_flag_names_the_overrides(tmp_path, capsys, policy):
    assert run_command(["simulate", "--scenario", str(SCENARIO_DIR / "two_hop_chain.json"),
                        "--policy", policy, "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err == (
        f"qroute: overrides: unknown swapping policy {policy!r}\n")


def test_unknown_flag_exits_one(tmp_path):
    assert run_command(["analyze", "--scenario", "x", "--bogus"]) == 1


def _python(*args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True, text=True, env=env, timeout=60,
    )


def _run_module(*args: str) -> subprocess.CompletedProcess:
    return _python(*args, "--help")


def test_module_entry_point_runs_the_cli():
    proc = _run_module("-m", "qroute")
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert "route" in proc.stdout


def test_bad_input_exits_one_with_one_line(tmp_path):
    path = write_scenario(tmp_path, _set(_CHAIN, ("sim", "seed"), -1))
    proc = _python("-m", "qroute", "analyze", "--scenario", str(path),
                   "--out", str(tmp_path / "out"))
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        1, "", "qroute: sim.seed: -1 outside 0 <= seed < 2**64\n")


def test_cli_import_leaves_numpy_out():
    # the link and swap draw planes are stdlib big-integer passes; importing
    # numpy would add about 0.16 s and 12 MiB to every CLI run
    proc = _python("-c", "import sys, qroute.cli; print('numpy' in sys.modules)")
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "False\n", "")


def test_scenario_setup_imports_no_code_tools():
    # `inspect` and `dataclasses` (which loads `inspect`, and that `ast`,
    # `dis` and `tokenize`) took a third of a CLI run's set-up
    proc = _python("-c", f"""if True:
        import sys
        before = set(sys.modules)
        import qroute.cli
        from qroute.scenario import apply_overrides, parse_scenario
        apply_overrides(parse_scenario({str(SCENARIO_DIR / "two_hop_chain.json")!r}), {{}})
        tools = {{"dataclasses", "inspect", "ast", "dis", "tokenize"}}
        print(sorted(tools & (set(sys.modules) - before)))
    """)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")


def test_swap_bound_warning_is_bad_input_under_warnings_as_errors(tmp_path, capsys):
    doc = {"version": 1, "graph": {"grid": {"rows": 3, "cols": 3,
                                            "node": {"swap_prob": 0.6}}},
           "analytics": {"paths": [["0,0", "0,1"]]}}
    argv = ["analyze", "--scenario", str(write_scenario(tmp_path, doc)),
            "--out", str(tmp_path / "out")]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run_command(argv) == 0
    assert len(caught) == 1 and "0.579" in str(caught[0].message)
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_command(argv) == 1
    assert capsys.readouterr().err.startswith(
        "qroute: graph.grid: swap_prob: 9 of 9 nodes (first '0,0', at 0.6)")


def test_cli_module_runs_without_warnings():
    # importing the package must not import qroute.cli before runpy does
    proc = _run_module("-W", "error", "-m", "qroute.cli")
    assert proc.returncode == 0
    assert proc.stderr == ""


@pytest.mark.parametrize("policy, mode", [
    ("sequential", "sync"), ("parallel", "sync"),
    ("adhoc", "async"), ("parallel", "async"),
])
def test_allocated_paths_run_the_sim_policy(policy, mode, tmp_path):
    # routing.policy (doubling) prices the allocated paths; sim.policy is
    # what the simulator runs on them
    doc = _set(_set(_GRID, ("sim", "policy"), policy), ("sim", "forwarding"),
               mode)
    rc = run_command(["simulate", "--scenario", str(write_scenario(tmp_path, doc)),
                      "--slots", "300", "--out", str(tmp_path / "out")])
    assert rc == 0
    report = json.loads((tmp_path / "out" / "simulate_report.json").read_text())
    results = report["results"]
    assert results["policy"] == policy
    assert set(results["swap_counters"]) == {results["policy"]}
