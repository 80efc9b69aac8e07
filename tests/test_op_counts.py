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

from qroute import AllocatorConfig, allocate, montecarlo, pathfind, routing
from qroute.cli import run_command
from qroute.netmodel import NetworkGraph
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
# the hop-count searches under it and the pricing are unchanged by that
PINNED_ROUTE_GRID = {
    "value": 230,
    "k_shortest_paths": 37,
    "policy_distribution": 22,
    "_hop_search": 490,
}


def route_grid_scenario() -> dict:
    """8x8 grid, capacity 3, 20 km links with p = 0.8, q = 0.5; 8 requests
    3-6 hops apart at a 0.9 fidelity floor (f0 = 0.99), k = 4, saturating
    utility, doubling policy."""
    rnd = random.Random(8)
    cells = [(r, c) for r in range(8) for c in range(8)]
    requests = []
    for i in range(8):
        src = rnd.choice(cells)
        dst = rnd.choice([d for d in cells
                          if 3 <= abs(d[0] - src[0]) + abs(d[1] - src[1]) <= 6])
        requests.append({"id": f"r{i}", "source": "%d,%d" % src,
                         "dest": "%d,%d" % dst, "min_fidelity": 0.9})
    return {
        "version": 1,
        "graph": {"grid": {
            "rows": 8, "cols": 8,
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


# async_adhoc_chain.json at 400 slots, under its own `adhoc` policy and under
# `doubling`: the records the async kernel creates (its final `next_id`:
# links plus segments), the swap bytes drawn at each node by rank, and the
# draws past a node's plane cap (`_SwapDraws._chain` calls)
PINNED_ASYNC = {
    "adhoc": {"records": 1088, "swap bytes by rank": [0, 288, 204, 0], "_chain": 0},
    "doubling": {"records": 956, "swap bytes by rank": [0, 284, 142, 0], "_chain": 0},
}


@pytest.mark.parametrize("policy", sorted(PINNED_ASYNC))
def test_async_op_counts_pinned(monkeypatch, tmp_path, policy):
    kernels, slots, chains = [], [], collections.Counter()

    class Kernel(montecarlo._AsyncKernel):
        def __init__(self, *args):
            super().__init__(*args)
            kernels.append(self)

    class Draws(montecarlo._SwapDraws):
        def __init__(self, *args):
            super().__init__(*args)
            slots.append(self)

        def _chain(self, *args):
            chains.update(["_chain"])
            return super()._chain(*args)

    monkeypatch.setattr(montecarlo, "_AsyncKernel", Kernel)
    monkeypatch.setattr(montecarlo, "_SwapDraws", Draws)
    assert run_command(["simulate", "--scenario",
                        str(SCENARIOS / "async_adhoc_chain.json"),
                        "--policy", policy, "--slots", "400",
                        "--out", str(tmp_path)]) == 0
    (kernel,) = kernels
    got = {"records": kernel.next_id,
           "swap bytes by rank": [sum(col) for col in zip(*(d._seq for d in slots))],
           "_chain": chains["_chain"]}
    assert got == PINNED_ASYNC[policy]
