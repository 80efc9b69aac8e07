"""Pinned counts of work: exact numbers of calls and draws on small fixed
runs. Unlike wall times they do not move between machines or runs, so a
change that does more or less work shows here; a change that moves a
count re-pins it and says why.

Work is counted by wrapping module attributes from outside, as
`test_allocate_yen_calls_pinned` counts the allocator's searches.
"""

import collections
import json
import random
from pathlib import Path

import pytest

from conftest import usable_cpus
from qroute import AllocatorConfig, allocate, analytics, montecarlo, pathfind, routing
from qroute.cli import run_command
from qroute.netmodel import NetworkGraph
from qroute.scenario import scenario_from_dict
from test_routing import tied_grid

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

# grid_3x3.json under the reactive scheme, sync doubling, 400 slots: one
# logical-topology search per request and slot, the hop-count searches
# they run, and the swap bytes drawn at each node by rank (row-major ids)
PINNED_REACTIVE_SYNC = {
    "disjoint_paths_on_logical": 800,
    "_hop_search": 1603,
    "swap bytes by rank": [8, 477, 58, 349, 124, 444, 18, 337, 6],
}


def counter(monkeypatch):
    """A Counter, and a function that counts the calls to `owner.name` in it
    under that name."""
    counts = collections.Counter()

    def count(owner, name):
        real = getattr(owner, name)
        monkeypatch.setattr(owner, name, lambda *args, **kwargs: (
            counts.update([name]) or real(*args, **kwargs)))

    return counts, count


def test_reactive_sync_op_counts_pinned(monkeypatch, tmp_path):
    usable_cpus(monkeypatch, 1)  # the counts are read in this process
    counts, count = counter(monkeypatch)
    count(montecarlo, "disjoint_paths_on_logical")
    count(pathfind, "_hop_search")
    slots = []  # each slot's swap draws

    class Draws(montecarlo._SwapDraws):
        def __init__(self, *args):
            super().__init__(*args)
            slots.append(self)

    monkeypatch.setattr(montecarlo, "_SwapDraws", Draws)
    assert run_command(["simulate", "--scenario", str(SCENARIOS / "grid_3x3.json"),
                        "--scheme", "reactive", "--slots", "400",
                        "--out", str(tmp_path)]) == 0
    got = dict(counts)
    got["swap bytes by rank"] = [sum(col) for col in zip(*(d._seq for d in slots))]
    assert got == PINNED_REACTIVE_SYNC


# `allocate` on the 8x8 tied grid, k = 5: edge lookups by key. Routes,
# specs and Yen's root costs read hops by the edge indices the searches
# return, so none is made (25,584 when each hop was looked up by key)
PINNED_ALLOCATE_EDGE_LOOKUPS = 0


def test_allocate_edge_lookups_pinned(monkeypatch):
    calls = collections.Counter()
    real = NetworkGraph.edge
    monkeypatch.setattr(NetworkGraph, "edge", lambda *args: (
        calls.update(["edge"]) or real(*args)))
    g, reqs = tied_grid(8, 8)
    allocate(g, reqs, AllocatorConfig(k=5))
    assert calls["edge"] == PINNED_ALLOCATE_EDGE_LOOKUPS


# `route` on an 8x8 grid shaped like the `route_grid` bench workload. The
# allocator keeps each request's scores until a commit changes them, so
# `UtilitySpec.value` runs once per request rescored and once per open
# route it scores (865 calls when every step rescored every request); Yen,
# the hop-count searches under it and the pricing are unchanged by that.
# Yen stops at each request's hop bound, so fewer cached paths watch an
# edge and fewer entries drop (37 Yen calls and 490 searches without it)
PINNED_ROUTE_GRID = {
    "value": 225,
    "k_shortest_paths": 33,
    "policy_distribution": 22,
    "_hop_search": 350,
}


def route_grid_scenario(n: int = 8, count: int = 8) -> dict:
    """n x n grid (8x8 by default), capacity 3, 20 km links with p = 0.8,
    q = 0.5; `count` requests (8 by default) 3-6 hops apart at a 0.9
    fidelity floor (f0 = 0.99), k = 4, saturating utility, doubling
    policy."""
    rnd = random.Random(8)
    cells = [(r, c) for r in range(n) for c in range(n)]
    requests = []
    for i in range(count):
        src = (r0, c0) = rnd.choice(cells)
        # the cells within 6 rows and 6 columns of the source, in row-major
        # order: a scan of every cell's list, so `rnd.choice` draws the same
        dst = rnd.choice([(r, c) for r in range(max(r0 - 6, 0), min(r0 + 7, n))
                          for c in range(max(c0 - 6, 0), min(c0 + 7, n))
                          if 3 <= abs(r - r0) + abs(c - c0) <= 6])
        requests.append({"id": f"r{i}", "source": "%d,%d" % src,
                         "dest": "%d,%d" % dst, "min_fidelity": 0.9})
    return {
        "version": 1,
        "graph": {"grid": {
            "rows": n, "cols": n,
            "node": {"swap_prob": 0.5},
            "edge": {"capacity": 3, "length_km": 20.0, "link_prob": 0.8},
        }},
        "elementary_fidelity": 0.99,
        "requests": requests,
        "routing": {"k": 4, "utility": "saturating", "policy": "doubling"},
    }


def test_route_grid_op_counts_pinned(monkeypatch, tmp_path):
    counts, count = counter(monkeypatch)
    count(routing.UtilitySpec, "value")
    count(routing, "k_shortest_paths")
    count(routing, "policy_distribution")
    count(pathfind, "_hop_search")
    path = tmp_path / "route_grid.json"
    path.write_text(json.dumps(route_grid_scenario()))
    assert run_command(["route", "--scenario", str(path), "--out", str(tmp_path)]) == 0
    assert dict(counts) == PINNED_ROUTE_GRID


# `allocate` on the `route_grid` shape at 16x16 with 32 requests, in
# process: Yen calls, pricings and `_search` calls by branch. Every edge has
# p = 0.8, so Yen runs once per cached key and every search runs by levels,
# each stopping at its request's hop bound
PINNED_ROUTE_SCALE = {
    "k_shortest_paths": 169,
    "policy_distribution": 24,
    "_hop_search": 2257,
    "_dfs_search": 0,
    "_heap_search": 0,
}


def test_route_scale_op_counts_pinned(monkeypatch):
    counts, count = counter(monkeypatch)
    count(routing, "k_shortest_paths")
    count(routing, "policy_distribution")
    for name in ("_hop_search", "_dfs_search", "_heap_search"):
        count(pathfind, name)
    scenario = scenario_from_dict(route_grid_scenario(16, 32))
    allocate(scenario.graph, list(scenario.requests), scenario.routing)
    assert {name: counts[name] for name in PINNED_ROUTE_SCALE} == PINNED_ROUTE_SCALE


# heralded swap merges (`analytics.counters.heralded_merge_ops`, the squared
# pmf length of each merge) under `analyze` on two_hop_chain.json, which
# turns order search on, and under `route` on grid_3x3.json
PINNED_MERGE_OPS = {
    ("analyze", "two_hop_chain.json"): 8,
    ("route", "grid_3x3.json"): 93,
}


@pytest.mark.parametrize("command, scenario", sorted(PINNED_MERGE_OPS))
def test_heralded_merge_ops_pinned(tmp_path, command, scenario):
    before = analytics.counters.heralded_merge_ops
    assert run_command([command, "--scenario", str(SCENARIOS / scenario),
                        "--out", str(tmp_path)]) == 0
    merges = analytics.counters.heralded_merge_ops - before
    assert merges == PINNED_MERGE_OPS[command, scenario]


# grid_3x3.json under its own proactive sync plan, 400 slots: the swap bytes
# drawn at each node by rank (row-major ids), summed over the blocks
PINNED_SYNC_SWAP_BYTES = [0, 324, 61, 310, 47, 339, 0, 323, 0]


def test_proactive_sync_swap_bytes_pinned(monkeypatch, tmp_path):
    usable_cpus(monkeypatch, 1)  # the counts are read in this process
    drawn = []
    real = montecarlo._sync_block

    def sync_block(bound, runs, swaps, pos, tally, size):
        # the kernels advance `pos[rank]`, each slot's next byte of node
        # `rank`, past every byte they draw there: one column per node
        before = [list(column) for column in pos]
        out = real(bound, runs, swaps, pos, tally, size)
        drawn.append([sum(pos[r]) - sum(before[r]) for r in range(9)])
        return out

    monkeypatch.setattr(montecarlo, "_sync_block", sync_block)
    assert run_command(["simulate", "--scenario", str(SCENARIOS / "grid_3x3.json"),
                        "--slots", "400", "--out", str(tmp_path)]) == 0
    assert [sum(column) for column in zip(*drawn)] == PINNED_SYNC_SWAP_BYTES


def plane_caps(monkeypatch) -> list:
    """A list that gets each run's swap-plane caps by rank."""
    caps = []
    real = montecarlo._swap_lanes

    def swap_lanes(*args):
        lanes = real(*args)
        caps.append(lanes.caps)
        return lanes

    monkeypatch.setattr(montecarlo, "_swap_lanes", swap_lanes)
    return caps


# async_adhoc_chain.json at 400 slots, under its own `adhoc` policy and under
# `doubling`: the records the async kernel creates (its final `next_id`:
# links plus segments), the swap bytes drawn at each node by rank, and the
# swap plane's lanes at each node by rank (its caps)
PINNED_ASYNC = {
    "adhoc": {"records": 1088, "swap bytes by rank": [0, 288, 204, 0],
              "caps by rank": [0, 1, 1, 0]},
    "doubling": {"records": 956, "swap bytes by rank": [0, 284, 142, 0],
                 "caps by rank": [0, 1, 1, 0]},
}


@pytest.mark.parametrize("policy", sorted(PINNED_ASYNC))
def test_async_op_counts_pinned(monkeypatch, tmp_path, policy):
    kernels, slots = [], []
    caps = plane_caps(monkeypatch)

    class Kernel(montecarlo._AsyncKernel):
        def __init__(self, *args):
            super().__init__(*args)
            kernels.append(self)

    class Draws(montecarlo._SwapDraws):
        def __init__(self, *args):
            super().__init__(*args)
            slots.append(self)

    monkeypatch.setattr(montecarlo, "_AsyncKernel", Kernel)
    monkeypatch.setattr(montecarlo, "_SwapDraws", Draws)
    assert run_command(["simulate", "--scenario",
                        str(SCENARIOS / "async_adhoc_chain.json"),
                        "--policy", policy, "--slots", "400",
                        "--out", str(tmp_path)]) == 0
    (kernel,), (run_caps,) = kernels, caps
    got = {"records": kernel.next_id,
           "swap bytes by rank": [sum(col) for col in zip(*(d._seq for d in slots))],
           "caps by rank": run_caps}
    assert got == PINNED_ASYNC[policy]


# grid_3x3.json's swap-plane caps by rank (row-major ids), under its own
# proactive sync plan and under the reactive scheme
PINNED_GRID_CAPS = {
    "proactive sync": [0, 2, 2, 2, 2, 2, 0, 2, 0],
    "reactive": [2, 3, 2, 3, 4, 3, 2, 3, 2],
}


@pytest.mark.parametrize("case", sorted(PINNED_GRID_CAPS))
def test_grid_plane_caps_pinned(monkeypatch, tmp_path, case):
    caps = plane_caps(monkeypatch)
    flags = ["--scheme", "reactive"] if case == "reactive" else []
    assert run_command(["simulate", "--scenario", str(SCENARIOS / "grid_3x3.json"),
                        "--slots", "10", "--out", str(tmp_path), *flags]) == 0
    assert caps == [PINNED_GRID_CAPS[case]]
