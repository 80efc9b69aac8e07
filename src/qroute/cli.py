"""Scenario-driven command line.

Subcommands: analyze (path distributions and throughput), route (capacity
allocation), simulate (slotted Monte Carlo), oracle (exact enumeration
vs analytics diff). Exit codes: 0 success, 1 validation error, 2 runtime
error.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import replace
from itertools import chain
from pathlib import Path

from . import __version__ as TOOL_VERSION
from . import analytics
from .analytics import all_order_trees, expected_throughput
from .montecarlo import simulate
from .netmodel import classical_delay_ms
from .pathfind import path_spec_from_nodes
from .report import emit_report
from .routing import (
    AllocationPlan,
    PathAllocation,
    Request,
    allocate,
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
        raise ScenarioError("analytics.paths: this command needs at least one path")
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


def _cell(value):
    return "->".join(value) if isinstance(value, (list, tuple)) else value


def _table(columns: list[str], records) -> tuple[list[str], list[list]]:
    """CSV view of JSON result records: one row per record, one cell per
    column, each column named by its JSON key. Node lists join with `->`."""
    return columns, [[_cell(r[c]) for c in columns] for r in records]


def _cmd_analyze(scenario: Scenario) -> dict:
    results = []
    for i, path in enumerate(_target_paths(scenario)):
        dist = analytics.policy_distribution(path, scenario.analytics.policy)
        entry = {
            "nodes": list(path.nodes),
            "policy": scenario.analytics.policy.kind,
            "width": path.width,
            "hops": path.hop_count,
            "distribution": list(dist.pmf),
            "expected_throughput": expected_throughput(dist),
        }
        if scenario.analytics.order_search:
            tree, best = _on_path(i, analytics.optimal_order_search, path)
            entry["order_search"] = {
                "best_order": _tree_label(tree),
                "best_throughput": best,
            }
        results.append(entry)
    return {"paths": results}


def _analyze_tables(results: dict) -> dict:
    paths = results["paths"]
    tables = {
        f"path{i}_distribution": (
            ["k", "prob"], [[k, p] for k, p in enumerate(e["distribution"])]
        )
        for i, e in enumerate(paths)
    }
    tables["summary"] = _table(
        ["path", "nodes", "policy", "width", "hops", "expected_throughput"],
        ({"path": i, **e} for i, e in enumerate(paths)),
    )
    return tables


def _cmd_route(scenario: Scenario) -> dict:
    plan = allocate(scenario.graph, list(scenario.requests), scenario.routing)
    utility = scenario.routing.utility
    # each allocation priced once; the sums are `request_throughput`'s and
    # `total_utility`'s, taken in their order
    ext = [a.throughput() for a in plan.allocations]
    served = {
        r.id: math.fsum(x for a, x in zip(plan.allocations, ext)
                        if a.request_id == r.id)
        for r in plan.requests
    }
    allocations = [
        {
            "request": a.request_id,
            "nodes": list(a.path.nodes),
            "width": a.path.width,
            "policy": a.policy.kind,
            "expected_throughput": x,
        }
        for a, x in zip(plan.allocations, ext)
    ]
    per_request = {
        r.id: served[r.id] for r in plan.requests
        if not any(r.id == rid for rid, _ in plan.infeasible)
    }
    return {
        "utility_kind": utility.kind,
        "total_utility": math.fsum(utility.value(r, served[r.id])
                                   for r in plan.requests),
        "allocations": allocations,
        "request_throughput": per_request,
        "residual": {_edge_label(*k): c for k, c in plan.residual},
        "infeasible": [list(item) for item in plan.infeasible],
        "utility_trace": list(plan.utility_trace),
    }


def _route_tables(results: dict) -> dict:
    return {
        "allocations": _table(
            ["request", "nodes", "width", "policy", "expected_throughput"],
            results["allocations"],
        ),
        "residual": _table(
            ["edge", "capacity_left"],
            ({"edge": e, "capacity_left": c}
             for e, c in results["residual"].items()),
        ),
    }


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
            "requests: proactive simulation needs requests or sim.paths"
        )
    # the allocator prices paths with routing.policy; the simulator swaps
    # with sim.policy on every allocated path, as on explicit ones
    plan = allocate(scenario.graph, list(scenario.requests), scenario.routing)
    return replace(plan, allocations=tuple(
        replace(a, policy=scenario.sim.policy) for a in plan.allocations
    ))


def _cmd_simulate(scenario: Scenario) -> dict:
    if scenario.sim.scheme == "proactive":
        subject = _plan_from_scenario(scenario)
    else:
        subject = list(scenario.requests)
    stats = simulate(scenario.graph, subject, scenario.sim)
    results = stats.to_dict()
    for kind in ("per_path", "per_request"):
        for entry in results[kind].values():
            entry["rate"] = entry["delivered"] / stats.slots_run
    return results


def _simulate_tables(results: dict) -> dict:
    per_path = sorted(results["per_path"].items())
    return {
        "per_request": _table(
            ["request", "delivered", "rate"],
            ({"request": rid, **e}
             for rid, e in sorted(results["per_request"].items())),
        ),
        "per_path": _table(
            ["path", "request", "nodes", "width", "delivered", "rate"],
            ({"path": label, **e} for label, e in per_path),
        ),
        "histograms": (
            ["path", "k", "slots"],
            [[label, k, c] for label, e in per_path
             for k, c in enumerate(e["hist"])],
        ),
    }


def _cmd_oracle(scenario: Scenario) -> dict:
    from .oracle import brute_force_distribution  # only this command needs it

    results = []
    for i, path in enumerate(_target_paths(scenario)):
        comparisons = []
        for tree in chain([None], all_order_trees(path.hop_count)):
            exact = _on_path(i, brute_force_distribution, path, tree)
            if tree is None:
                order = "unheralded"
                got = analytics.unheralded_path_distribution(path)
            else:
                order = _tree_label(tree)
                got = analytics.heralded_path_distribution(path, tree)
            # brute force and analytics both give the support 0..path.width
            diff = max(abs(a - b) for a, b in zip(exact.pmf, got.pmf, strict=True))
            comparisons.append({"order": order, "max_abs_diff": diff})
        results.append({
            "nodes": list(path.nodes),
            "comparisons": comparisons,
            "max_abs_diff": max(c["max_abs_diff"] for c in comparisons),
        })
    worst = max(p["max_abs_diff"] for p in results)
    return {"paths": results, "max_abs_diff": worst}


def _oracle_tables(results: dict) -> dict:
    return {"diffs": _table(
        ["path", "order", "max_abs_diff"],
        ({"path": i, **c} for i, p in enumerate(results["paths"])
         for c in p["comparisons"]),
    )}


# each command's results, and the CSV tables that view them
_COMMANDS = {
    "analyze": (_cmd_analyze, _analyze_tables),
    "route": (_cmd_route, _route_tables),
    "simulate": (_cmd_simulate, _simulate_tables),
    "oracle": (_cmd_oracle, _oracle_tables),
}


def run_command(argv: list[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    try:
        # a file where the output directory must go is bad input (exit 1);
        # only a failure the input cannot show up front exits 2
        out = Path(args.out)
        on_disk = next(p for p in (out, *out.parents) if p.exists())
        if not on_disk.is_dir():
            raise ValueError(f"--out: {str(on_disk)!r} is not a directory")
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
        run, view = _COMMANDS[args.command]
        report["results"] = run(scenario)
        written = emit_report(report, scenario.output_format, args.out,
                              args.command, view(report["results"]))
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
