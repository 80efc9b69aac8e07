"""Pinned counts of work: exact numbers of calls and draws on small fixed
runs. Unlike wall times they do not move between machines or runs, so a
change that does more or less work shows here; a change that moves a
count re-pins it and says why.

Work is counted by wrapping module attributes from outside, as
`test_allocate_yen_calls_pinned` counts the allocator's searches.
"""

import collections
from pathlib import Path

from qroute import AllocatorConfig, allocate, montecarlo, pathfind
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


def test_reactive_sync_op_counts_pinned(monkeypatch, tmp_path):
    counts = collections.Counter()

    def count(module, name):
        real = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *args, **kwargs: (
            counts.update([name]) or real(*args, **kwargs)))

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
