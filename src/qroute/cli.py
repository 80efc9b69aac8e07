"""Scenario-driven command line.

Subcommands: analyze (path distributions and throughput), route (capacity
allocation), simulate (slotted Monte Carlo), oracle (exact enumeration
vs analytics diff). Exit codes: 0 success, 1 validation error, 2 runtime
error.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from . import __version__ as TOOL_VERSION
from . import analytics
from .analytics import all_order_trees, expected_throughput
from .montecarlo import brute_force_distribution, simulate
from .netmodel import classical_delay_ms
from .pathfind import path_spec_from_nodes
from .report import emit_report
from .routing import (
    AllocationPlan,
    PathAllocation,
    Request,
    allocate,
    request_throughput,
    total_utility,
)
from .scenario import Scenario, ScenarioError, apply_overrides, parse_scenario

TOOL_NAME = "qroute"


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def build_parser() -> _Parser:
    parser = _Parser(prog=TOOL_NAME, description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, text in (
        ("analyze", "path distributions, throughput, order search"),
        ("route", "multi-request path selection and capacity allocation"),
        ("simulate", "time-slotted Monte Carlo run"),
        ("oracle", "brute-force enumeration vs analytic distributions"),
    ):
        p = sub.add_parser(name, help=text)
        p.add_argument("--scenario", required=True, help="scenario JSON file")
        p.add_argument("--seed", type=int, help="override sim.seed")
        p.add_argument("--slots", type=int, help="override sim.slots")
        p.add_argument("--policy", help="override swapping policy")
        p.add_argument("--mode", choices=["sync", "async"],
                       help="override forwarding mode")
        p.add_argument("--scheme", choices=["proactive", "reactive"],
                       help="override routing scheme")
        p.add_argument("--format", choices=["json", "csv"],
                       help="override output format")
        p.add_argument("--out", default="reports", help="output directory")
    return parser


def _tree_label(tree) -> str:
    if tree.is_leaf:
        return str(tree.hop)
    return f"({_tree_label(tree.left)},{_tree_label(tree.right)})"


def _edge_label(u: str, v: str) -> str:
    return f"{u}|{v}"


def _metadata(scenario: Scenario) -> dict:
    delays = {
        _edge_label(e.u, e.v): classical_delay_ms(e.length_km)
        for e in scenario.graph.edges
    }
    return {
        "edge_count": len(scenario.graph.edges),
        "node_count": len(scenario.graph.nodes),
        "connected": scenario.graph.is_connected(),
        "one_way_classical_delay_ms": delays,
        "max_one_way_classical_delay_ms": max(delays.values(), default=0.0),
    }


def _base_report(command: str, scenario: Scenario, scenario_dict: dict,
                 overrides: dict) -> dict:
    return {
        "tool": {"name": TOOL_NAME, "version": TOOL_VERSION},
        "command": command,
        "config": scenario_dict,
        "overrides": overrides,
        "seed": scenario.sim.seed,
        "metadata": _metadata(scenario),
    }


def _target_paths(scenario: Scenario):
    if not scenario.analytics.paths:
        raise ScenarioError(
            "this command needs analytics.paths in the scenario"
        )
    return [
        path_spec_from_nodes(scenario.graph, nodes)
        for nodes in scenario.analytics.paths
    ]


def _on_path(i: int, fn, *args):
    """Call `fn`; its ValueError names the analytics path it came from."""
    try:
        return fn(*args)
    except ValueError as exc:
        raise ScenarioError(f"analytics.paths[{i}]: {exc}") from None


def _cmd_analyze(scenario: Scenario, report: dict, tables: dict) -> None:
    results = []
    dist_tables = {}
    summary_rows = []
    for i, path in enumerate(_target_paths(scenario)):
        dist = analytics.policy_distribution(path, scenario.analytics.policy)
        ext = expected_throughput(dist)
        entry = {
            "nodes": list(path.nodes),
            "policy": scenario.analytics.policy.kind,
            "width": path.width,
            "hops": path.hop_count,
            "distribution": list(dist.pmf),
            "expected_throughput": ext,
        }
        if scenario.analytics.order_search:
            tree, best = _on_path(i, analytics.optimal_order_search, path)
            entry["order_search"] = {
                "best_order": _tree_label(tree),
                "best_throughput": best,
            }
        results.append(entry)
        dist_tables[f"path{i}_distribution"] = (
            ["k", "prob"],
            [[k, p] for k, p in enumerate(dist.pmf)],
        )
        summary_rows.append(
            [i, "->".join(path.nodes), scenario.analytics.policy.kind,
             path.width, path.hop_count, ext]
        )
    report["results"] = {"paths": results}
    tables.update(dist_tables)
    tables["summary"] = (
        ["path", "nodes", "policy", "width", "hops", "expected_throughput"],
        summary_rows,
    )


def _cmd_route(scenario: Scenario, report: dict, tables: dict) -> None:
    plan = allocate(scenario.graph, list(scenario.requests), scenario.routing)
    alloc_rows = []
    allocations = []
    for a in plan.allocations:
        ext = a.throughput()
        allocations.append(
            {
                "request": a.request_id,
                "nodes": list(a.path.nodes),
                "width": a.path.width,
                "policy": a.policy.kind,
                "expected_throughput": ext,
            }
        )
        alloc_rows.append(
            [a.request_id, "->".join(a.path.nodes), a.path.width,
             a.policy.kind, ext]
        )
    per_request = {
        r.id: request_throughput(plan, r) for r in plan.requests
        if not any(r.id == rid for rid, _ in plan.infeasible)
    }
    report["results"] = {
        "utility_kind": scenario.routing.utility.kind,
        "total_utility": total_utility(plan, scenario.routing.utility),
        "allocations": allocations,
        "request_throughput": per_request,
        "residual": {_edge_label(*k): c for k, c in plan.residual},
        "infeasible": [list(item) for item in plan.infeasible],
        "utility_trace": list(plan.utility_trace),
    }
    tables["allocations"] = (
        ["request", "nodes", "width", "policy", "expected_throughput"],
        alloc_rows,
    )
    tables["residual"] = (
        ["edge", "capacity_left"],
        [[_edge_label(*k), c] for k, c in plan.residual],
    )


def _plan_from_scenario(scenario: Scenario) -> AllocationPlan:
    if scenario.explicit_paths:
        # the parser checked each path's endpoints and the edge capacities
        declared = {r.id: r for r in scenario.requests}
        used: dict[str, Request] = {}
        allocations = []
        for p in scenario.explicit_paths:
            path = path_spec_from_nodes(scenario.graph, p.nodes, width=p.width)
            req = declared.get(p.request_id) or Request(
                id=p.request_id, source=p.nodes[0], dest=p.nodes[-1]
            )
            used.setdefault(req.id, req)
            allocations.append(
                PathAllocation(
                    request_id=p.request_id,
                    path=path,
                    policy=p.policy or scenario.sim.policy,
                )
            )
        return AllocationPlan(
            requests=tuple(used.values()),
            allocations=tuple(allocations),
            residual=(),
        )
    if not scenario.requests:
        raise ScenarioError(
            "proactive simulation needs requests or explicit sim.paths"
        )
    # the allocator prices paths with routing.policy; the simulator swaps
    # with sim.policy on every allocated path, as on explicit ones
    plan = allocate(scenario.graph, list(scenario.requests), scenario.routing)
    return replace(plan, allocations=tuple(
        replace(a, policy=scenario.sim.policy) for a in plan.allocations
    ))


def _cmd_simulate(scenario: Scenario, report: dict, tables: dict) -> None:
    if scenario.sim.scheme == "proactive":
        subject = _plan_from_scenario(scenario)
    else:
        subject = list(scenario.requests)
    stats = simulate(scenario.graph, subject, scenario.sim)
    payload = stats.to_dict()
    slots = stats.slots_run
    for entry in payload["per_path"].values():
        entry["rate"] = entry["delivered"] / slots
    for entry in payload["per_request"].values():
        entry["rate"] = entry["delivered"] / slots
    report["results"] = payload
    tables["per_request"] = (
        ["request", "delivered", "rate"],
        [
            [rid, e["delivered"], e["rate"]]
            for rid, e in sorted(payload["per_request"].items())
        ],
    )
    tables["per_path"] = (
        ["path", "request", "nodes", "width", "delivered", "rate"],
        [
            [label, e["request"], "->".join(e["nodes"]), e["width"],
             e["delivered"], e["rate"]]
            for label, e in sorted(payload["per_path"].items())
        ],
    )
    tables["histograms"] = (
        ["path", "k", "slots"],
        [
            [label, k, c]
            for label, e in sorted(payload["per_path"].items())
            for k, c in enumerate(e["hist"])
        ],
    )


def _cmd_oracle(scenario: Scenario, report: dict, tables: dict) -> None:
    results = []
    rows = []
    worst = 0.0
    for i, path in enumerate(_target_paths(scenario)):
        comparisons = []
        exact = _on_path(i, brute_force_distribution, path, None)
        got = analytics.unheralded_path_distribution(path)
        diff = max(
            abs(a - b)
            for a, b in zip(
                exact.pmf + (0.0,) * max(0, got.cap - exact.cap),
                got.pmf + (0.0,) * max(0, exact.cap - got.cap),
            )
        )
        comparisons.append({"order": "unheralded", "max_abs_diff": diff})
        rows.append([i, "unheralded", diff])
        for tree in all_order_trees(path.hop_count):
            exact = brute_force_distribution(path, tree)
            got = analytics.heralded_path_distribution(path, tree)
            diff = max(abs(a - b) for a, b in zip(exact.pmf, got.pmf))
            comparisons.append(
                {"order": _tree_label(tree), "max_abs_diff": diff}
            )
            rows.append([i, _tree_label(tree), diff])
        path_worst = max(c["max_abs_diff"] for c in comparisons)
        worst = max(worst, path_worst)
        results.append(
            {
                "nodes": list(path.nodes),
                "comparisons": comparisons,
                "max_abs_diff": path_worst,
            }
        )
    report["results"] = {"paths": results, "max_abs_diff": worst}
    tables["diffs"] = (["path", "order", "max_abs_diff"], rows)


_HANDLERS = {
    "analyze": _cmd_analyze,
    "route": _cmd_route,
    "simulate": _cmd_simulate,
    "oracle": _cmd_oracle,
}


def run_command(argv: list[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    try:
        scenario = parse_scenario(args.scenario)
        overrides = {
            key: getattr(args, key)
            for key in ("seed", "slots", "policy", "mode", "scheme", "format")
            if getattr(args, key) is not None
        }
        scenario = apply_overrides(scenario, overrides)
        from .scenario import scenario_to_dict

        report = _base_report(
            args.command, scenario, scenario_to_dict(scenario), overrides
        )
        tables: dict = {}
        _HANDLERS[args.command](scenario, report, tables)
        written = emit_report(
            report, scenario.output_format, args.out, args.command, tables
        )
    except ValueError as exc:
        print(f"{TOOL_NAME}: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # runtime failure, not a config problem
        print(f"{TOOL_NAME}: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    for path in written:
        print(path)
    return 0


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
