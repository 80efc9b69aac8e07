"""Span tracing installed from outside the program, for the traced run.

`install()` replaces the layers' public functions on the module attributes
their callers read (for example `qroute.cli.allocate`), so every call made
through them records a span: name, start, end and parent. Nothing under
`src/` changes. `NetworkGraph.neighbors` runs about 572k times in one
`route_grid` run, so it is only counted, never timed.
"""

from __future__ import annotations

import functools
import importlib
import time
from pathlib import Path

# (module, attribute, span name): the attributes callers look up at call time
TARGETS = (
    ("qroute.cli", "parse_scenario", "scenario.parse"),
    ("qroute.scenario", "scenario_to_dict", "scenario.to_dict"),
    ("qroute.cli", "allocate", "routing.allocate"),
    ("qroute.cli", "simulate", "montecarlo.simulate"),
    ("qroute.cli", "emit_report", "report.emit"),
    ("qroute.routing", "k_shortest_paths", "pathfind.ksp"),
    ("qroute.routing", "policy_distribution", "analytics.policy_distribution"),
    ("qroute.montecarlo", "disjoint_paths_on_logical", "pathfind.logical"),
    ("qroute.netmodel", "build_graph", "netmodel.build_graph"),
    ("qroute.scenario", "build_graph", "netmodel.build_graph"),
)
ROOT = "cli.run_command"


def _observe(name: str, result) -> dict:
    """Exact op counts read off a layer's return value."""
    if name == "routing.allocate":
        return {"greedy_steps": len(result.utility_trace) - 1}
    if name == "montecarlo.simulate":
        swaps = list(result.swap_counters.values())
        return {
            "slots": result.slots_run,
            "links": result.links_generated,
            "swap_attempts": sum(s["attempts"] for s in swaps),
            "swap_successes": sum(s["successes"] for s in swaps),
            "entities": sum(result.entities_disposed.values()),
        }
    if name == "report.emit":
        return {"bytes": sum(Path(p).stat().st_size for p in result)}
    return {}


class Tracer:
    """Spans kept in memory; each is [name, start, end, parent, neighbors
    counted while open, observed counts]."""

    def __init__(self):
        self.spans: list[list] = []
        self.neighbor_calls = 0
        self._open: list[int] = []

    def call(self, name: str, fn, *args, **kwargs):
        idx = len(self.spans)
        parent = self._open[-1] if self._open else -1
        span = [name, 0.0, 0.0, parent, self.neighbor_calls, {}]
        self.spans.append(span)
        self._open.append(idx)
        span[1] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            self._open.pop()
            span[4] = self.neighbor_calls - span[4]
        span[5] = _observe(name, result)
        return result

    def install(self) -> None:
        for module, attr, name in TARGETS:
            mod = importlib.import_module(module)
            mod_fn = getattr(mod, attr)
            setattr(mod, attr, self._wrap(name, mod_fn))
        from qroute.netmodel import NetworkGraph

        neighbors = NetworkGraph.neighbors

        def counted(graph, node_id):
            self.neighbor_calls += 1
            return neighbors(graph, node_id)

        NetworkGraph.neighbors = counted

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        return traced

    def to_json(self) -> list[dict]:
        return [
            {"name": n, "start": s, "end": e, "parent": p,
             "neighbor_calls": nb, "counts": c}
            for n, s, e, p, nb, c in self.spans
        ]


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    out = [e - s for _, s, e, _, _, _ in spans]
    for _, s, e, parent, _, _ in spans:
        if parent >= 0:
            out[parent] -= e - s
    return out


def _within(spans: list[list], idx: int, ancestor_name: str) -> bool:
    parent = spans[idx][3]
    while parent >= 0:
        if spans[parent][0] == ancestor_name:
            return True
        parent = spans[parent][3]
    return False


def layer_metrics(spans: list[list], wall_s: float, neighbor_calls: int,
                  merge_ops: int | None) -> dict[str, float]:
    """Per-layer metrics of one traced run.

    A layer that does not run in a workload reads 0, and so does a ratio
    whose base is 0. `merge_ops` is None when the analytics counter is gone,
    and the metric is then left out.
    """
    selfs = self_times(spans)

    def total(name, column=None):
        if column is None:
            return sum(e - s for n, s, e, _, _, _ in spans if n == name)
        return sum(c.get(column, 0) for n, _, _, _, _, c in spans if n == name)

    def self_total(name):
        return sum(t for sp, t in zip(spans, selfs) if sp[0] == name)

    def calls(name):
        return sum(1 for sp in spans if sp[0] == name)

    def ratio(a, b):
        return a / b if b else 0.0

    ksp_calls = calls("pathfind.ksp")
    steps = total("routing.allocate", "greedy_steps")
    slots = total("montecarlo.simulate", "slots")
    links = total("montecarlo.simulate", "links")
    attempts = total("montecarlo.simulate", "swap_attempts")
    sim_self = self_total("montecarlo.simulate")
    root = [i for i, sp in enumerate(spans) if sp[3] == -1]
    top = sum(e - s for _, s, e, p, _, _ in spans if p in root)
    metrics = {
        "scenario.parse_s": total("scenario.parse"),
        "scenario.to_dict_s": total("scenario.to_dict"),
        "netmodel.build_graph_calls": calls("netmodel.build_graph"),
        "netmodel.build_graph_s": total("netmodel.build_graph"),
        "netmodel.neighbor_expansions": neighbor_calls,
        "pathfind.ksp_calls": ksp_calls,
        "pathfind.ksp_s": total("pathfind.ksp"),
        "pathfind.expansions_per_ksp": ratio(
            sum(sp[4] for sp in spans if sp[0] == "pathfind.ksp"), ksp_calls),
        "pathfind.logical_calls": calls("pathfind.logical"),
        "pathfind.logical_s": total("pathfind.logical"),
        "routing.allocate_s": total("routing.allocate"),
        "routing.self_s": self_total("routing.allocate"),
        "routing.greedy_steps": steps,
        "routing.ksp_calls_per_step": ratio(
            sum(1 for i, sp in enumerate(spans)
                if sp[0] == "pathfind.ksp" and _within(spans, i, "routing.allocate")),
            steps),
        "analytics.policy_distribution_calls": calls("analytics.policy_distribution"),
        "analytics.policy_distribution_s": total("analytics.policy_distribution"),
        "montecarlo.simulate_s": total("montecarlo.simulate"),
        "montecarlo.us_per_slot": ratio(sim_self * 1e6, slots),
        "montecarlo.ns_per_op": ratio(sim_self * 1e9, links + attempts),
        "montecarlo.links_per_slot": ratio(links, slots),
        "montecarlo.swap_attempts_per_slot": ratio(attempts, slots),
        "montecarlo.swap_success_ratio": ratio(
            total("montecarlo.simulate", "swap_successes"), attempts),
        "montecarlo.entities_per_slot": ratio(
            total("montecarlo.simulate", "entities"), slots),
        "report.emit_s": total("report.emit"),
        "report.bytes": total("report.emit", "bytes"),
        "cli.self_s": self_total(ROOT),
        "trace.coverage": ratio(top, wall_s),
    }
    if merge_ops is not None:
        metrics["analytics.heralded_merge_ops"] = merge_ops
    return metrics


UNITS = {
    "scenario.parse_s": "s",
    "scenario.to_dict_s": "s",
    "netmodel.build_graph_calls": "count",
    "netmodel.build_graph_s": "s",
    "netmodel.neighbor_expansions": "count",
    "pathfind.ksp_calls": "count",
    "pathfind.ksp_s": "s",
    "pathfind.expansions_per_ksp": "count",
    "pathfind.logical_calls": "count",
    "pathfind.logical_s": "s",
    "routing.allocate_s": "s",
    "routing.self_s": "s",
    "routing.greedy_steps": "count",
    "routing.ksp_calls_per_step": "count",
    "analytics.policy_distribution_calls": "count",
    "analytics.policy_distribution_s": "s",
    "analytics.heralded_merge_ops": "count",
    "montecarlo.simulate_s": "s",
    "montecarlo.us_per_slot": "us",
    "montecarlo.ns_per_op": "ns",
    "montecarlo.links_per_slot": "count",
    "montecarlo.swap_attempts_per_slot": "count",
    "montecarlo.swap_success_ratio": "fraction",
    "montecarlo.entities_per_slot": "count",
    "report.emit_s": "s",
    "report.bytes": "bytes",
    "cli.self_s": "s",
    "trace.coverage": "fraction",
    "trace.overhead_frac": "fraction",
}

# op counts: exact for a given seed, so two traced runs must agree on them
COUNT_METRICS = (
    "netmodel.build_graph_calls",
    "netmodel.neighbor_expansions",
    "pathfind.ksp_calls",
    "pathfind.expansions_per_ksp",
    "pathfind.logical_calls",
    "routing.greedy_steps",
    "routing.ksp_calls_per_step",
    "analytics.policy_distribution_calls",
    "analytics.heralded_merge_ops",
    "montecarlo.links_per_slot",
    "montecarlo.swap_attempts_per_slot",
    "montecarlo.swap_success_ratio",
    "montecarlo.entities_per_slot",
    "report.bytes",
)
