"""Shared builders and independent oracles for the test suite.

The oracles here (simple-path enumeration, metric costs, exhaustive
allocation search) are deliberately written from scratch against the raw
graph data so they never share code with the implementations they check.
"""

from __future__ import annotations

import math
import random

from hypothesis import strategies as st

from qroute import (
    EdgeParams,
    NetworkGraph,
    NodeParams,
    PathSpec,
    build_graph,
)
from qroute.cli import run_command
from qroute.netmodel import edge_key


def chain_graph(n_hops, p=0.5, q=0.5, cap=1, cutoff=1, length_km=0.0):
    nodes = [
        NodeParams(id=f"n{i}", swap_prob=q, memory_cutoff_slots=cutoff)
        for i in range(n_hops + 1)
    ]
    edges = [
        EdgeParams(u=f"n{i}", v=f"n{i+1}", capacity=cap, length_km=length_km,
                   link_prob=p)
        for i in range(n_hops)
    ]
    return build_graph(nodes, edges)


def make_path(caps, probs, qs) -> PathSpec:
    nodes = tuple(f"n{i}" for i in range(len(caps) + 1))
    return PathSpec(
        nodes=nodes,
        per_hop_capacity=tuple(caps),
        per_hop_prob=tuple(probs),
        interior_swap_probs=tuple(qs),
    )


def random_path(rnd: random.Random, max_hops=4, max_cap=2,
                p_range=(0.2, 1.0), q_range=(0.2, 1.0)) -> PathSpec:
    n = rnd.randint(1, max_hops)
    return make_path(
        caps=[rnd.randint(1, max_cap) for _ in range(n)],
        probs=[rnd.uniform(*p_range) for _ in range(n)],
        qs=[rnd.uniform(*q_range) for _ in range(n - 1)],
    )


def random_connected_graph(rnd: random.Random, n_nodes: int, max_cap=3,
                           extra_edge_prob=0.35) -> NetworkGraph:
    """Random spanning tree plus extra edges; always connected."""
    ids = [f"v{i}" for i in range(n_nodes)]
    nodes = [
        NodeParams(id=i, swap_prob=rnd.uniform(0.3, 0.5)) for i in ids
    ]
    edges = {}
    for i in range(1, n_nodes):
        other = ids[rnd.randrange(i)]
        edges[edge_key(ids[i], other)] = None
    for i in range(n_nodes):
        for j in range(i + 1, n_nodes):
            if rnd.random() < extra_edge_prob:
                edges.setdefault(edge_key(ids[i], ids[j]), None)
    specs = [
        EdgeParams(
            u=u, v=v,
            capacity=rnd.randint(1, max_cap),
            length_km=rnd.uniform(1.0, 50.0),
            link_prob=rnd.uniform(0.1, 1.0),
        )
        for (u, v) in sorted(edges)
    ]
    return build_graph(nodes, specs)


# --------------------------------------------------------------------------
# Independent oracles


def all_simple_paths(graph: NetworkGraph, s: str, d: str):
    """Every loop-free node sequence from s to d using capacity>=1 edges,
    neighbours tried in id order."""
    nbrs: dict[str, list[str]] = {}
    for e in graph.edges:
        if e.capacity >= 1:
            nbrs.setdefault(e.u, []).append(e.v)
            nbrs.setdefault(e.v, []).append(e.u)

    def walk(current, visited):
        if current == d:
            yield tuple(visited)
            return
        for nbr in sorted(nbrs.get(current, ())):
            if nbr in visited:
                continue
            visited.append(nbr)
            yield from walk(nbr, visited)
            visited.pop()

    yield from walk(s, [s])


def oracle_cost(graph: NetworkGraph, nodes, metric_name: str) -> float:
    """Metric cost computed directly from edge parameters."""
    hops = list(zip(nodes, nodes[1:]))
    if metric_name == "hop_count":
        return float(len(hops))
    if metric_name == "sum_node_distances":
        return math.fsum(graph.edge(u, v).length_km for u, v in hops)
    if metric_name == "inverse_creation_rate":
        cost = 1.0
        for u, v in hops:
            p = graph.edge(u, v).link_prob
            if p <= 0:
                return math.inf
            cost /= p
        return cost
    raise ValueError(metric_name)


def oracle_bottleneck(graph: NetworkGraph, nodes) -> int:
    return min(graph.edge(u, v).capacity for u, v in zip(nodes, nodes[1:]))


# --------------------------------------------------------------------------
# Hypothesis strategies

probabilities = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
positive_probs = st.floats(min_value=0.05, max_value=1.0, allow_nan=False)


@st.composite
def path_specs(draw, max_hops=6, max_cap=4, min_p=0.0, min_q=0.0):
    n = draw(st.integers(min_value=1, max_value=max_hops))
    caps = draw(
        st.lists(st.integers(1, max_cap), min_size=n, max_size=n)
    )
    probs = draw(
        st.lists(st.floats(min_p, 1.0, allow_nan=False), min_size=n, max_size=n)
    )
    qs = draw(
        st.lists(st.floats(min_q, 1.0, allow_nan=False), min_size=n - 1,
                 max_size=n - 1)
    )
    return make_path(caps, probs, qs)


def hash_run(digest, header: str, argv: list[str], out) -> None:
    """Run the CLI command `argv` with its reports written to the directory
    `out`, then feed `digest` the line `<header> -> <exit code>` and, on
    exit 0, each report's name and bytes in name order: the report-digest
    tests pin a sha256 over a sequence of these."""
    rc = run_command([*argv, "--out", str(out)])
    digest.update(f"{header} -> {rc}\n".encode())
    for report in sorted(out.glob("*")) if rc == 0 else ():
        digest.update(report.name.encode() + b"\n" + report.read_bytes())


def assert_pmf_close(a, b, tol=1e-9):
    hi = max(len(a), len(b))
    pa = list(a) + [0.0] * (hi - len(a))
    pb = list(b) + [0.0] * (hi - len(b))
    for k, (x, y) in enumerate(zip(pa, pb)):
        assert abs(x - y) <= tol, f"pmf[{k}]: {x} vs {y}"
