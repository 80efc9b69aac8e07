"""Output checks on one report; each returns a list of error messages.

The checks restate what a correct report must satisfy from the scenario
alone (ledgers, capacities, the Werner hop bound), plus one statistical
cross-check of simulated histograms against the exact analytics.
"""

from __future__ import annotations

import math

from qroute.analytics import SwapPolicy, policy_distribution
from qroute.netmodel import edge_key
from qroute.pathfind import path_spec_from_nodes
from qroute.scenario import scenario_from_dict

Z_LIMIT = 5.0
MIN_EXPECTED = 10.0  # cells expected below this are pooled into one


def werner_hop_bound(f0: float, f_min: float) -> int:
    """Longest path whose end-to-end Werner fidelity still meets f_min."""
    w = (4.0 * f0 - 1.0) / 3.0
    hops = 1
    while (1.0 + 3.0 * w ** (hops + 1)) / 4.0 >= f_min:
        hops += 1
    return hops


def check_report(workload: str, command: str, scenario: dict, report: dict,
                 analytic: bool = False) -> list[str]:
    errors = []
    if report.get("command") != command:
        errors.append(f"report command {report.get('command')!r} != {command!r}")
    if report.get("seed") != scenario["sim"]["seed"]:
        errors.append(f"report seed {report.get('seed')} != scenario seed")
    results = report.get("results", {})
    if command == "simulate":
        errors += check_simulate(scenario, results)
        if analytic and not errors:
            errors += check_analytic(scenario, results)
    else:
        errors += check_route(scenario, results)
    return [f"{workload}: {e}" for e in errors]


def _hist_errors(label: str, entry: dict, slots: int) -> list[str]:
    hist = entry["hist"]
    errors = []
    if sum(hist) != slots:
        errors.append(f"{label}: sum(hist) {sum(hist)} != slots_run {slots}")
    delivered = sum(k * n for k, n in enumerate(hist))
    if delivered != entry["delivered"]:
        errors.append(
            f"{label}: sum(k*hist[k]) {delivered} != delivered {entry['delivered']}"
        )
    return errors


def check_simulate(scenario: dict, results: dict) -> list[str]:
    slots = results["slots_run"]
    errors = []
    if slots != scenario["sim"]["slots"]:
        errors.append(f"slots_run {slots} != sim.slots {scenario['sim']['slots']}")
    for label, entry in sorted(results["per_path"].items()):
        errors += _hist_errors(f"path {label}", entry, slots)
    for rid, entry in sorted(results["per_request"].items()):
        errors += _hist_errors(f"request {rid}", entry, slots)
    if scenario["sim"]["scheme"] == "proactive":
        for rid, entry in sorted(results["per_request"].items()):
            by_path = sum(p["delivered"] for p in results["per_path"].values()
                          if p["request"] == rid)
            if by_path != entry["delivered"]:
                errors.append(f"request {rid}: delivered {entry['delivered']} "
                              f"!= sum over its paths {by_path}")
    by_request = sum(e["delivered"] for e in results["per_request"].values())
    if results["delivered_total"] != by_request:
        errors.append(
            f"delivered_total {results['delivered_total']} != sum over "
            f"requests {by_request}"
        )
    attempts = 0
    for kind, entry in sorted(results["swap_counters"].items()):
        attempts += entry["attempts"]
        if not 0 <= entry["successes"] <= entry["attempts"]:
            errors.append(f"swap_counters.{kind}: successes {entry['successes']} "
                          f"outside 0..attempts {entry['attempts']}")
    if set(results["swap_counters"]) <= {"doubling", "adhoc"}:
        consumed = results["entities_disposed"].get("consumed", 0)
        if consumed != 2 * attempts:
            errors.append(f"entities_disposed.consumed {consumed} != "
                          f"2 x swap attempts {attempts}")
    return errors


def _z(observed: int, n: int, p: float) -> float:
    var = n * p * (1.0 - p)
    if var == 0:
        return 0.0 if observed == n * p else math.inf
    return (observed - n * p) / math.sqrt(var)


def check_analytic(scenario: dict, results: dict) -> list[str]:
    """Each path's histogram against its exact pmf under the plan's policy.

    A |z| test on a cell expected to hold only a few slots fails a correct
    simulator now and then (one observed k = 2 where n * pmf < 1 gives
    |z| > 5), so only cells expected to hold at least MIN_EXPECTED slots are
    tested alone; the rest are pooled into one cell. A pooled cell expected
    below MIN_EXPECTED may hold at most the |z| limit of an expectation of
    MIN_EXPECTED.
    """
    graph = scenario_from_dict(scenario).graph
    policy = SwapPolicy(scenario["routing"]["policy"])
    slots = results["slots_run"]
    errors = []
    for label, entry in sorted(results["per_path"].items()):
        spec = path_spec_from_nodes(graph, tuple(entry["nodes"]), entry["width"])
        pmf = policy_distribution(spec, policy).pmf
        hist = entry["hist"]
        if len(hist) != len(pmf):
            errors.append(f"path {label}: {len(hist)} histogram cells, pmf has "
                          f"{len(pmf)}")
            continue
        pooled_obs, pooled_p = 0, 0.0
        for k, (obs, p) in enumerate(zip(hist, pmf)):
            if slots * p >= MIN_EXPECTED:
                z = _z(obs, slots, p)
                if abs(z) > Z_LIMIT:
                    errors.append(f"path {label}: hist[{k}] = {obs}, expected "
                                  f"{slots * p:.1f} (z = {z:.2f})")
            else:
                pooled_obs += obs
                pooled_p += p
        if slots * pooled_p >= MIN_EXPECTED:
            z = _z(pooled_obs, slots, pooled_p)
            bad = abs(z) > Z_LIMIT
        else:
            bad = pooled_obs > MIN_EXPECTED + Z_LIMIT * math.sqrt(MIN_EXPECTED)
        if bad:
            errors.append(f"path {label}: pooled rare cells hold {pooled_obs} "
                          f"slots, expected {slots * pooled_p:.2f}")
    return errors


def check_route(scenario: dict, results: dict) -> list[str]:
    graph = scenario_from_dict(scenario).graph
    requests = {r["id"]: r for r in scenario["requests"]}
    errors = []
    if results["infeasible"]:
        errors.append(f"infeasible requests {results['infeasible']}")
    used: dict[tuple[str, str], int] = {}
    for i, a in enumerate(results["allocations"]):
        req = requests[a["request"]]
        nodes = a["nodes"]
        if (nodes[0], nodes[-1]) != (req["source"], req["dest"]):
            errors.append(f"allocation {i}: runs {nodes[0]}->{nodes[-1]}, "
                          f"request {req['source']}->{req['dest']}")
        bound = werner_hop_bound(scenario["elementary_fidelity"],
                                 req["min_fidelity"])
        if len(nodes) - 1 > bound:
            errors.append(f"allocation {i}: {len(nodes) - 1} hops > bound {bound}")
        if a["width"] < 1:
            errors.append(f"allocation {i}: width {a['width']} < 1")
        for u, v in zip(nodes, nodes[1:]):
            if not graph.has_edge(u, v):
                errors.append(f"allocation {i}: no edge {u}-{v}")
                continue
            used[edge_key(u, v)] = used.get(edge_key(u, v), 0) + a["width"]
    for e in graph.edges:
        key = edge_key(e.u, e.v)
        width = used.get(key, 0)
        if width > e.capacity:
            errors.append(f"edge {key}: widths sum to {width} > capacity "
                          f"{e.capacity}")
        residual = results["residual"].get(f"{key[0]}|{key[1]}")
        if residual != e.capacity - width:
            errors.append(f"edge {key}: residual {residual} != capacity "
                          f"{e.capacity} - used {width}")
    trace = results["utility_trace"]
    if any(b < a for a, b in zip(trace, trace[1:])):
        errors.append("utility_trace decreases")
    total = results["total_utility"]
    if not trace or not math.isclose(trace[-1], total, rel_tol=1e-9, abs_tol=1e-12):
        errors.append(f"utility_trace ends at {trace[-1] if trace else None}, "
                      f"total_utility {total}")
    return errors
