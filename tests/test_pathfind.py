import collections
import heapq
import math
import random
from dataclasses import replace
from unittest import mock

import pytest
from hypothesis import assume, given, settings, strategies as st

from conftest import (
    all_simple_paths,
    chain_graph,
    oracle_bottleneck,
    oracle_cost,
    random_connected_graph,
)
from qroute import (
    EdgeParams,
    Metric,
    NodeParams,
    build_graph,
    disjoint_paths_on_logical,
    grid_topology,
    k_shortest_paths,
    path_cost,
    path_spec_from_nodes,
    shortest_path,
    widest_path,
)
from qroute import pathfind
from qroute.netmodel import GraphValidationError, edge_key
from qroute.pathfind import (
    _heap_search,
    _hop_search,
    _one_link_prob,
    _path_edges,
    _prefix_costs,
    _search,
    _start,
)


def triangle():
    return build_graph(
        [NodeParams(id=i) for i in "ABC"],
        [
            EdgeParams(u="A", v="B", length_km=10.0, link_prob=0.9),
            EdgeParams(u="B", v="C", length_km=10.0, link_prob=0.9),
            EdgeParams(u="A", v="C", length_km=25.0, link_prob=0.4),
        ],
    )


def test_shortest_by_distance_takes_relay():
    path = shortest_path(triangle(), "A", "C", Metric.SUM_NODE_DISTANCES)
    assert path.nodes == ("A", "B", "C")
    assert path_cost(triangle(), path, Metric.SUM_NODE_DISTANCES) == 20.0


def test_shortest_by_hops_takes_direct():
    path = shortest_path(triangle(), "A", "C", Metric.HOP_COUNT)
    assert path.nodes == ("A", "C")


def test_shortest_none_when_disconnected():
    g = build_graph(
        [NodeParams(id=i) for i in "ABC"], [EdgeParams(u="A", v="B")]
    )
    assert shortest_path(g, "A", "C", Metric.HOP_COUNT) is None


def test_zero_capacity_edges_are_infeasible():
    g = build_graph(
        [NodeParams(id=i) for i in "ABC"],
        [
            EdgeParams(u="A", v="C", capacity=0, link_prob=0.9),
            EdgeParams(u="A", v="B", capacity=1, link_prob=0.9),
            EdgeParams(u="B", v="C", capacity=1, link_prob=0.9),
        ],
    )
    path = shortest_path(g, "A", "C", Metric.HOP_COUNT)
    assert path.nodes == ("A", "B", "C")  # dead edge never used


def test_shortest_unknown_node():
    with pytest.raises(GraphValidationError):
        shortest_path(triangle(), "A", "Z", Metric.HOP_COUNT)


def test_k_shortest_triangle():
    paths = k_shortest_paths(triangle(), "A", "C", 2, Metric.SUM_NODE_DISTANCES)
    assert paths == [(20.0, ("A", "B", "C")), (25.0, ("A", "C"))]


def test_k_shortest_disconnected_returns_empty():
    g = build_graph(
        [NodeParams(id=i) for i in "ABC"], [EdgeParams(u="A", v="B")]
    )
    assert k_shortest_paths(g, "A", "C", 3, Metric.HOP_COUNT) == []


def test_widest_prefers_fat_route():
    g = build_graph(
        [NodeParams(id=i) for i in "SABD"],
        [
            EdgeParams(u="S", v="A", capacity=3, link_prob=0.5),
            EdgeParams(u="A", v="D", capacity=3, link_prob=0.5),
            EdgeParams(u="S", v="B", capacity=1, link_prob=0.9),
            EdgeParams(u="B", v="D", capacity=1, link_prob=0.9),
        ],
    )
    path = widest_path(g, "S", "D")
    assert path.nodes == ("S", "A", "D")
    assert min(path.per_hop_capacity) == 3


def test_widest_breaks_ties_by_creation_rate():
    g = build_graph(
        [NodeParams(id=i) for i in "SABD"],
        [
            EdgeParams(u="S", v="A", capacity=2, link_prob=0.9),
            EdgeParams(u="A", v="D", capacity=2, link_prob=0.9),
            EdgeParams(u="S", v="B", capacity=2, link_prob=0.5),
            EdgeParams(u="B", v="D", capacity=2, link_prob=0.5),
        ],
    )
    # widths tie at 2; 1/(0.9*0.9) = 1.23 beats 1/(0.5*0.5) = 4
    assert widest_path(g, "S", "D").nodes == ("S", "A", "D")


def test_widest_single_edge():
    g = chain_graph(1, p=0.5, cap=4)
    assert widest_path(g, "n0", "n1").nodes == ("n0", "n1")


def test_widest_over_zero_probability_links_falls_back_to_hops():
    # the only width-3 route has p = 0 links, so every creation-rate cost
    # on it is infinite; the hop-count search still finds it
    g = build_graph(
        [NodeParams(id=i) for i in "SABD"],
        [
            EdgeParams(u="S", v="A", capacity=3, link_prob=0.0),
            EdgeParams(u="A", v="D", capacity=3, link_prob=0.0),
            EdgeParams(u="S", v="B", capacity=1, link_prob=0.9),
            EdgeParams(u="B", v="D", capacity=1, link_prob=0.9),
        ],
    )
    path = widest_path(g, "S", "D")
    assert path.nodes == ("S", "A", "D")
    assert min(path.per_hop_capacity) == 3


def test_widest_none_when_zero_capacity_cuts_off():
    g = build_graph(
        [NodeParams(id=i) for i in "SAD"],
        [
            EdgeParams(u="S", v="A", capacity=2, link_prob=0.9),
            EdgeParams(u="A", v="D", capacity=0, link_prob=0.9),
        ],
    )
    assert widest_path(g, "S", "D") is None


def test_path_cost_values():
    g = chain_graph(2, p=0.5, cap=2, length_km=10.0)
    path = path_spec_from_nodes(g, ("n0", "n1", "n2"))
    assert path_cost(g, path, Metric.SUM_NODE_DISTANCES) == 20.0
    assert path_cost(g, path, Metric.INVERSE_CREATION_RATE) == pytest.approx(4.0)
    g2 = build_graph(
        [NodeParams(id=i) for i in "abc"],
        [
            EdgeParams(u="a", v="b", capacity=2, link_prob=0.5),
            EdgeParams(u="b", v="c", capacity=3, link_prob=0.5),
        ],
    )
    p2 = path_spec_from_nodes(g2, ("a", "b", "c"))
    assert path_cost(g2, p2, Metric.HOP_COUNT) == 2.0
    with pytest.raises(GraphValidationError, match="no edge between 'c' and 'a'"):
        path_spec_from_nodes(g2, ("b", "c", "a"))


# --------------------------------------------------------------------------
# logical-topology routing


def edge_counts(g, counts: dict) -> list[int]:
    """A slot's link counts in `g.edges` order, from {(u, v): count} with
    canonical keys; absent edges count 0."""
    return [counts.get((e.u, e.v), 0) for e in g.edges]


def test_disjoint_paths_on_grid_realization():
    g = grid_topology(3, 3)
    counts = {}
    for u, v in [
        ("0,0", "0,1"), ("0,1", "0,2"), ("0,2", "1,2"), ("1,2", "2,2"),
        ("0,0", "1,0"), ("1,0", "2,0"), ("2,0", "2,1"), ("2,1", "2,2"),
    ]:
        counts[(u, v)] = 1
    paths = disjoint_paths_on_logical(edge_counts(g, counts), g, "0,0", "2,2",
                                      max_paths=4)
    assert len(paths) == 2
    used = [p.nodes for p in paths]
    assert ("0,0", "0,1", "0,2", "1,2", "2,2") in used
    assert ("0,0", "1,0", "2,0", "2,1", "2,2") in used


def test_disjoint_paths_no_links_near_source():
    g = grid_topology(2, 2)
    counts = edge_counts(g, {("0,1", "1,1"): 1})
    assert disjoint_paths_on_logical(counts, g, "0,0", "1,1", 3) == []


def test_disjoint_paths_single_chain():
    g = chain_graph(2)
    paths = disjoint_paths_on_logical([1, 1], g, "n0", "n2", 3)
    assert [p.nodes for p in paths] == [("n0", "n1", "n2")]
    assert paths[0].per_hop_capacity == (1, 1)


def test_disjoint_paths_conserve_link_budget():
    rnd = random.Random(5)
    for _ in range(30):
        g = random_connected_graph(rnd, rnd.randint(4, 7))
        counts = {
            edge_key(e.u, e.v): rnd.randint(0, e.capacity) for e in g.edges
        }
        ids = g.node_ids()
        s, d = rnd.sample(ids, 2)
        paths = disjoint_paths_on_logical(edge_counts(g, counts), g, s, d,
                                          max_paths=5)
        used: dict = {}
        for p in paths:
            for u, v in zip(p.nodes, p.nodes[1:]):
                used[edge_key(u, v)] = used.get(edge_key(u, v), 0) + 1
        for key, n_used in used.items():
            assert n_used <= counts[key]


def test_disjoint_paths_node_disjoint_flag():
    # two routes sharing the middle node: node-disjoint mode returns one
    g = build_graph(
        [NodeParams(id=i) for i in "SMDAB"],
        [
            EdgeParams(u="S", v="M"), EdgeParams(u="M", v="D"),
            EdgeParams(u="S", v="A"), EdgeParams(u="A", v="M"),
            EdgeParams(u="M", v="B"), EdgeParams(u="B", v="D"),
        ],
    )
    counts = [1] * len(g.edges)
    link_disjoint = disjoint_paths_on_logical(counts, g, "S", "D", 4)
    assert len(link_disjoint) == 2
    node_disjoint = disjoint_paths_on_logical(
        counts, g, "S", "D", 4, node_disjoint=True
    )
    assert len(node_disjoint) == 1


def test_logical_counts_follow_edge_order_and_stay_unchanged():
    # the simulator hands its live per-slot list to the search, and takes
    # the used links off it itself: the search must work on a copy
    g = grid_topology(2, 2, EdgeParams(u="", v="", capacity=2))
    keys = [(e.u, e.v) for e in g.edges]
    assert keys == [("0,0", "0,1"), ("0,0", "1,0"), ("0,1", "1,1"), ("1,0", "1,1")]
    counts = [1, 0, 2, 2]
    for node_disjoint in (False, True):
        paths = disjoint_paths_on_logical(counts, g, "0,0", "1,1", 4,
                                          node_disjoint)
        assert [p.nodes for p in paths] == [("0,0", "0,1", "1,1")]
        assert counts == [1, 0, 2, 2]


# --------------------------------------------------------------------------
# randomized oracles


METRICS = (
    Metric.HOP_COUNT,
    Metric.SUM_NODE_DISTANCES,
    Metric.INVERSE_CREATION_RATE,
)


def test_shortest_path_matches_enumeration():
    rnd = random.Random(99)
    for _ in range(25):
        g = random_connected_graph(rnd, rnd.randint(4, 8))
        s, d = rnd.sample(g.node_ids(), 2)
        enumerated = list(all_simple_paths(g, s, d))
        for metric in METRICS:
            got = shortest_path(g, s, d, metric)
            best = min(oracle_cost(g, p, metric.value) for p in enumerated)
            assert path_cost(g, got, metric) == pytest.approx(best)


def test_k_shortest_matches_enumeration_prefix():
    rnd = random.Random(41)
    for _ in range(15):
        g = random_connected_graph(rnd, rnd.randint(4, 8))
        s, d = rnd.sample(g.node_ids(), 2)
        all_costs = sorted(
            oracle_cost(g, p, "inverse_creation_rate")
            for p in all_simple_paths(g, s, d)
        )
        got = k_shortest_paths(g, s, d, 5, Metric.INVERSE_CREATION_RATE)
        assert 1 <= len(got) <= 5
        # sorted, deduplicated, loop-free
        seen = set()
        for _, nodes in got:
            assert len(set(nodes)) == len(nodes)
            assert nodes not in seen
            seen.add(nodes)
        costs = [cost for cost, _ in got]
        assert costs == sorted(costs)
        for want, have in zip(all_costs, costs):
            assert have == pytest.approx(want)


def test_k_shortest_costs_equal_path_cost():
    """Every returned label's cost is exactly `path_cost` of its nodes,
    and the labels come in non-decreasing cost, with or without a
    residual view."""
    rnd = random.Random(7)
    for _ in range(60):
        g = random_connected_graph(rnd, rnd.randint(4, 8))
        residual = [rnd.randint(0, e.capacity) for e in g.edges]
        s, d = rnd.sample(g.node_ids(), 2)
        for metric in METRICS:
            for usable in (None, residual):
                got = k_shortest_paths(g, s, d, 6, metric, usable=usable)
                for cost, nodes in got:
                    spec = path_spec_from_nodes(g, nodes)
                    assert cost == path_cost(g, spec, metric)
                costs = [cost for cost, _ in got]
                assert costs == sorted(costs)


def test_k_shortest_skips_dead_edges_and_matches_enumeration():
    # capacity-0 edges stay out of every search's table, and p = 0 links
    # reach the heap, which never extends a hop of infinite cost
    rnd = random.Random(61)
    crossed = collections.Counter()
    for _ in range(80):
        n = rnd.randint(4, 8)
        ids = [f"v{i}" for i in range(n)]
        edges = [EdgeParams(u=u, v=v, capacity=rnd.choice((0, 1, 1, 2)),
                            length_km=rnd.uniform(1.0, 50.0),
                            link_prob=rnd.choice((0.0, rnd.uniform(0.1, 1.0))))
                 for i, u in enumerate(ids) for v in ids[i + 1:]
                 if rnd.random() < 0.5]
        g = build_graph([NodeParams(id=v) for v in ids], edges)
        s, d = rnd.sample(ids, 2)
        enumerated = list(all_simple_paths(g, s, d))
        k = rnd.randint(1, 8)
        for metric in METRICS:
            finite = sorted(c for c in (oracle_cost(g, p, metric.value) for p in enumerated)
                            if c != math.inf)
            got = k_shortest_paths(g, s, d, k, metric)
            assert [cost for cost, _ in got] == pytest.approx(finite[:k])
            for _, nodes in got:
                hops = [g.edge(u, v) for u, v in zip(nodes, nodes[1:])]
                assert all(e.capacity >= 1 for e in hops)
                if metric is Metric.INVERSE_CREATION_RATE:
                    assert all(e.link_prob > 0 for e in hops)
                crossed[metric] += any(e.link_prob == 0 for e in hops)
    # the sums do route over p = 0 links; the creation rate never does
    assert crossed[Metric.HOP_COUNT] and crossed[Metric.SUM_NODE_DISTANCES]
    assert not crossed[Metric.INVERSE_CREATION_RATE]


def test_widest_matches_enumeration():
    rnd = random.Random(17)
    for _ in range(25):
        g = random_connected_graph(rnd, rnd.randint(4, 8))
        s, d = rnd.sample(g.node_ids(), 2)
        best = max(
            oracle_bottleneck(g, p) for p in all_simple_paths(g, s, d)
        )
        got = widest_path(g, s, d)
        assert min(got.per_hop_capacity) == best


def test_hop_count_ties_break_lexicographically():
    g = grid_topology(4, 4, default_edge=EdgeParams(u="", v="", link_prob=0.5))
    rnd = random.Random(2024)
    for _ in range(40):
        s, d = rnd.sample(g.node_ids(), 2)
        want = min(all_simple_paths(g, s, d), key=lambda p: (len(p), p))
        assert shortest_path(g, s, d, Metric.HOP_COUNT).nodes == want


def test_k_shortest_leaves_usable_unchanged():
    # the allocator hands Yen its live residual list: each spur search must
    # clear its banned edges in a copy, never in the list it was given
    g = grid_topology(4, 4, EdgeParams(u="", v="", capacity=3))
    rnd = random.Random(5)
    for metric in METRICS:
        residual = [rnd.randint(1, 3) for _ in g.edges]
        residual[g.edge_index["1,1", "1,2"]] = 0
        kept = list(residual)
        paths = k_shortest_paths(g, "0,0", "3,3", 8, metric, usable=residual)
        assert len(paths) > 1
        assert residual == kept
        for _, nodes in paths:
            assert all(kept[g.edge_index[edge_key(u, v)]]
                       for u, v in zip(nodes, nodes[1:]))


def bound_cases(rnd, count):
    """Seeded hop-count cases, grids and random connected graphs in turn:
    each with a residual filter that leaves some edges out, and a pair of
    endpoints."""
    for i in range(count):
        if i % 2:
            g = random_connected_graph(rnd, rnd.randint(5, 12))
        else:
            g = grid_topology(rnd.randint(2, 5), rnd.randint(2, 5),
                              EdgeParams(u="", v="", capacity=3))
        usable = [rnd.choice((0, 0, 1, 2, 3)) for _ in g.edges]
        s, d = rnd.sample(g.node_ids(), 2)
        yield g, usable, s, d


def test_bounded_level_search_finds_the_label_within_the_bound():
    # from a root grown along a path, with banned nodes: under `max_len` the
    # level search returns the unbounded label when it has at most that many
    # hops (the root's included), and None otherwise
    rnd = random.Random(3217)
    for g, usable, s, d in bound_cases(rnd, 300):
        root = _start(Metric.HOP_COUNT, s)
        found = _hop_search(g, root, d, usable, ())
        if found is not None:
            j = rnd.randint(0, len(found[1]) - 2)
            root = (float(j), found[1][:j + 1])
        rest = [v for v in g.node_ids() if v not in root[1] and v != d]
        banned = set(rnd.sample(rest, rnd.randint(0, len(rest) // 3)))
        kept = list(usable)
        want = _hop_search(g, root, d, usable, banned)
        for bound in range(len(g.nodes)):
            got = _hop_search(g, root, d, usable, banned, max_len=bound)
            assert got == (None if want is None or len(want[1]) - 1 > bound else want)
        assert usable == kept


def test_bounded_yen_is_the_unbounded_lists_within_bound_prefix():
    rnd = random.Random(4409)
    for g, usable, s, d in bound_cases(rnd, 150):
        k = rnd.randint(1, 8)
        kept = list(usable)
        full = k_shortest_paths(g, s, d, k, Metric.HOP_COUNT, usable=usable)
        for bound in range(len(g.nodes)):
            got = k_shortest_paths(g, s, d, k, Metric.HOP_COUNT, usable=usable,
                                   max_len=bound)
            # hop-count costs are hop counts
            assert got == [label for label in full if label[0] <= bound]
            assert usable == kept
        assert (k_shortest_paths(g, s, d, k, Metric.HOP_COUNT, max_len=len(g.nodes))
                == k_shortest_paths(g, s, d, k, Metric.HOP_COUNT))


def test_max_len_bounds_hop_count_yen_only():
    for metric in (Metric.INVERSE_CREATION_RATE, Metric.SUM_NODE_DISTANCES):
        with pytest.raises(ValueError, match="max_len"):
            k_shortest_paths(triangle(), "A", "C", 2, metric, max_len=3)


def test_k_shortest_residual_view_matches_rebuilt_subgraph():
    """A residual list as the `usable` filter must pick the same paths as
    Yen on a graph rebuilt from the edges with residual left, capacity set
    to the residual."""
    rnd = random.Random(1971)
    for _ in range(60):
        g = random_connected_graph(rnd, rnd.randint(4, 8))
        residual = [rnd.randint(0, e.capacity) for e in g.edges]
        sub = build_graph(
            list(g.nodes),
            [
                EdgeParams(u=e.u, v=e.v, capacity=r,
                           length_km=e.length_km, link_prob=e.link_prob)
                for e, r in zip(g.edges, residual)
                if r >= 1
            ],
            g.phys,
        )
        s, d = rnd.sample(g.node_ids(), 2)
        k = rnd.randint(1, 5)
        for metric in METRICS:
            view = k_shortest_paths(g, s, d, k, metric, usable=residual)
            rebuilt = k_shortest_paths(sub, s, d, k, metric)
            assert view == rebuilt


def test_hop_count_labels_match_unit_length_heap():
    """Hop-count searches run a breadth-first search; the heap serves the
    weighted metrics. With every length 1, `SUM_NODE_DISTANCES` prices each
    path as its hop count, so the heap must return the very same labels and
    paths, ties included."""
    rnd = random.Random(314)
    yen_cases = 0

    def compare(g, counts, s, d, k):
        nonlocal yen_cases
        unit = build_graph(
            list(g.nodes), [replace(e, length_km=1.0) for e in g.edges], g.phys
        )
        # `unit` has `g`'s edges, in the same order
        for usable in (None, [counts[e.u, e.v] for e in g.edges]):
            bfs = k_shortest_paths(g, s, d, k, Metric.HOP_COUNT, usable=usable)
            heap = k_shortest_paths(unit, s, d, k, Metric.SUM_NODE_DISTANCES,
                                    usable=usable)
            assert bfs == heap
            yen_cases += 1
        for node_disjoint in (False, True):
            got = disjoint_paths_on_logical(edge_counts(g, counts), g, s, d, 4,
                                            node_disjoint)
            assert got == heap_disjoint_paths(unit, g, counts, s, d, 4,
                                              node_disjoint)

    for _ in range(150):
        g = random_connected_graph(rnd, rnd.randint(4, 12))
        counts = {edge_key(e.u, e.v): rnd.randint(0, e.capacity)
                  for e in g.edges}
        for _ in range(2):
            s, d = rnd.sample(g.node_ids(), 2)
            compare(g, counts, s, d, rnd.randint(1, 6))
    # "n10" sorts before "n9": the search must scan neighbours in id order,
    # not in numeric order, so n0-n10-n1 wins the tie with n0-n9-n1
    tied = build_graph(
        [NodeParams(id=f"n{i}") for i in (0, 1, 9, 10)],
        [EdgeParams(u=u, v=v, capacity=2)
         for u, v in (("n0", "n9"), ("n9", "n1"), ("n0", "n10"), ("n10", "n1"))],
    )
    compare(tied, {edge_key(e.u, e.v): 2 for e in tied.edges}, "n0", "n1", 3)
    assert k_shortest_paths(tied, "n0", "n1", 1, Metric.HOP_COUNT) == [
        (2.0, ("n0", "n10", "n1"))]
    assert yen_cases == 602


def heap_disjoint_paths(unit, g, counts, s, d, max_paths, node_disjoint):
    """`disjoint_paths_on_logical` with each search run by the heap on the
    unit-length graph; the specs are built on `g`."""
    metric = Metric.SUM_NODE_DISTANCES
    remaining = dict(counts)
    blocked = set()
    paths = []
    while len(paths) < max_paths:
        usable = [remaining[e.u, e.v] >= 1 for e in unit.edges]
        found = _search(unit, _start(metric, s), d, metric, usable, blocked)
        if found is None:
            break
        nodes = found[1]
        for u, v in zip(nodes, nodes[1:]):
            remaining[edge_key(u, v)] -= 1
        if node_disjoint:
            blocked.update(nodes[1:-1])
        paths.append(path_spec_from_nodes(g, nodes, width=1))
    return paths


def plain_yen(graph, s, d, k, metric, usable=None):
    """Yen's algorithm with every accepted path spurring from its first
    node: the reference for the deviation index."""
    keys = [(e.u, e.v) for e in graph.edges]
    if usable is None:
        usable = [True] * len(keys)
    first = _search(graph, _start(metric, s), d, metric, usable)
    if first is None:
        return []
    accepted, candidates, seen = [first], [], {first[1]}
    while len(accepted) < k:
        _, prev = accepted[-1]
        root_costs = _prefix_costs(graph, _path_edges(graph, prev), metric)
        for j in range(len(prev) - 1):
            root = prev[:j + 1]
            banned = {edge_key(p[j], p[j + 1]) for _, p in accepted
                      if len(p) > j + 1 and p[:j + 1] == root}
            spur = [ok and key not in banned for ok, key in zip(usable, keys)]
            found = _search(graph, (root_costs[j], root), d, metric, spur)
            if found is None or found[1] in seen:
                continue
            seen.add(found[1])
            heapq.heappush(candidates, found)
        if not candidates:
            break
        accepted.append(heapq.heappop(candidates))
    return accepted


@st.composite
def tied_graphs(draw):
    """Small graphs full of ties: 0 km and p = 1 edges price many paths
    alike, capacity-0 edges are unusable, and a `usable` filter hides a
    random set of edges."""
    n = draw(st.integers(3, 8))
    ids = [f"v{i}" for i in range(n)]
    pairs = [(ids[i], ids[j]) for i in range(n) for j in range(i + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), min_size=n - 1,
                           max_size=len(pairs), unique=True))
    edges = [EdgeParams(u=u, v=v, capacity=draw(st.sampled_from((0, 1, 2))),
                        length_km=draw(st.sampled_from((0.0, 0.0, 10.0, 25.0))),
                        link_prob=draw(st.sampled_from((1.0, 1.0, 0.5, 0.9))))
             for u, v in sorted(chosen)]
    g = build_graph([NodeParams(id=i) for i in ids], edges)
    hidden = draw(st.sets(st.integers(0, len(edges) - 1)))
    usable = draw(st.sampled_from(
        (None, [i not in hidden for i in range(len(edges))])))
    s, d = draw(st.lists(st.sampled_from(ids), min_size=2, max_size=2,
                         unique=True))
    return g, s, d, usable


@settings(max_examples=300, deadline=None)
@given(case=tied_graphs(), k=st.integers(1, 10),
       metric=st.sampled_from(METRICS))
def test_deviation_index_yen_equals_plain_yen(case, k, metric):
    # spurring an accepted path only from the root where it deviated from
    # its parent finds the same labels, in the same order, ties included
    g, s, d, usable = case
    assert (k_shortest_paths(g, s, d, k, metric, usable=usable)
            == plain_yen(g, s, d, k, metric, usable=usable))


# --------------------------------------------------------------------------
# one link probability p < 1: the creation rate ranks paths by hop count


@st.composite
def one_prob_graphs(draw):
    """Small graphs whose usable edges share one link probability p < 1,
    with a root label grown along a path the heap found, banned nodes, and
    an optional `usable` filter."""
    n = draw(st.integers(3, 9))
    ids = [f"v{i}" for i in range(n)]
    pairs = [(ids[i], ids[j]) for i in range(n) for j in range(i + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), min_size=n - 1,
                           max_size=len(pairs), unique=True))
    p = draw(st.sampled_from((0.5, 0.8, 0.9, 0.99)))
    edges = [EdgeParams(u=u, v=v, capacity=draw(st.integers(0, 2)),
                        length_km=draw(st.floats(0.0, 50.0)), link_prob=p)
             for u, v in sorted(chosen)]
    assume(any(e.capacity >= 1 for e in edges))
    g = build_graph([NodeParams(id=i) for i in ids], edges)
    hidden = draw(st.sets(st.integers(0, len(edges) - 1)))
    usable = draw(st.sampled_from(
        (None, [i not in hidden for i in range(len(edges))])))
    s, t = draw(st.lists(st.sampled_from(ids), min_size=2, max_size=2,
                         unique=True))
    metric = Metric.INVERSE_CREATION_RATE
    root = _start(metric, s)
    found = _heap_search(g, root, t, metric, usable or [True] * len(edges))
    if found is not None:
        j = draw(st.integers(0, len(found[1]) - 2))
        root = (_prefix_costs(g, _path_edges(g, found[1]), metric)[j], found[1][:j + 1])
    rest = [v for v in ids if v not in root[1]]
    d = draw(st.sampled_from(rest))
    banned = draw(st.sets(st.sampled_from(rest)))
    return g, root, d, usable, banned


@settings(max_examples=400, deadline=None)
@given(case=one_prob_graphs())
def test_level_search_equals_heap_with_one_link_probability(case):
    # `allocate` runs Yen by hop count alone on such graphs: from the same
    # root nodes, the hop-count level search must find the nodes the
    # creation-rate heap finds, and fail exactly when it fails
    g, root, d, usable, banned = case
    assert 0 < _one_link_prob(g) < 1
    filt = usable or [True] * len(g.edges)
    hop_root = (float(len(root[1]) - 1), root[1])
    by_levels = _hop_search(g, hop_root, d, filt, banned)
    heap = _heap_search(g, root, d, Metric.INVERSE_CREATION_RATE, filt, banned)
    assert (by_levels is None) == (heap is None)
    if heap is not None:
        assert by_levels == (len(heap[1]) - 1.0, heap[1])


@settings(max_examples=200, deadline=None)
@given(case=one_prob_graphs(), k=st.integers(1, 10))
def test_level_yen_and_widest_equal_heap_with_one_link_probability(case, k):
    g, root, d, usable, _ = case
    s = root[1][0]
    metric = Metric.INVERSE_CREATION_RATE
    got = k_shortest_paths(g, s, d, k, metric, usable=usable)
    widest = widest_path(g, s, d)
    # the reference: every creation-rate search on the heap
    with mock.patch.object(pathfind, "_one_link_prob", lambda graph: None):
        assert got == plain_yen(g, s, d, k, metric, usable=usable)
        assert widest == widest_path(g, s, d)
    # both metrics rank paths by hop count, so Yen finds the same routes
    hops = k_shortest_paths(g, s, d, k, Metric.HOP_COUNT, usable=usable)
    assert [nodes for _, nodes in got] == [nodes for _, nodes in hops]


def _chain(probs, caps=None):
    caps = caps or [1] * len(probs)
    return build_graph(
        [NodeParams(id=f"n{i}") for i in range(len(probs) + 1)],
        [EdgeParams(u=f"n{i}", v=f"n{i + 1}", capacity=c, link_prob=p)
         for i, (p, c) in enumerate(zip(probs, caps))])


def test_level_step_needs_one_probability_below_one_and_a_finite_product():
    table = [
        # (link probabilities, capacities, the probe's p)
        ([0.5, 0.5, 0.5], None, 0.5),
        ([0.5, 0.8], None, None),
        ([0.5, 0.0], None, None),
        ([0.0, 0.0], None, None),
        # a capacity-0 edge is never searched, so its p does not count
        ([0.5, 0.0, 0.5], [1, 0, 2], 0.5),
        # 1e100 ** 3 is finite, 1e100 ** 4 is not: the probe returns p all
        # the same, since the heap drops every overflowing label (below)
        ([1e-100] * 3, None, 1e-100),
        ([1e-100] * 4, None, 1e-100),
        ([1e-100] * 5, None, 1e-100),
        ([1e-100] * 8, None, 1e-100),
    ]
    for probs, caps, want in table:
        assert _one_link_prob(_chain(probs, caps)) == want, (probs, caps)
    metric = Metric.INVERSE_CREATION_RATE
    for hops in (4, 5, 8):
        # the heap drops every label whose cost overflows
        tiny, end = _chain([1e-100] * hops), f"n{hops}"
        assert _search(tiny, _start(metric, "n0"), end, metric, [True] * hops) is None
        assert k_shortest_paths(tiny, "n0", end, 2, metric) == []


def test_certain_links_needs_p_one_on_every_edge_with_capacity():
    table = [
        # (link probabilities, capacities, the probe's p)
        ([1.0, 1.0], None, 1.0),
        ([1.0, 1.0], [1, 2], 1.0),
        ([1.0, 0.5], [1, 1], None),
        # a capacity-0 edge is never searched, so its p does not count
        ([0.5, 1.0], [0, 1], 1.0),
        ([1.0, 0.5], [1, 0], 1.0),
        ([1.0, 1.0], [0, 0], None),
    ]
    for probs, caps, want in table:
        assert _one_link_prob(_chain(probs, caps)) == want, (probs, caps)


# --------------------------------------------------------------------------
# p = 1: creation-rate searches run depth-first


@st.composite
def certain_graphs(draw):
    """`tied_graphs` with every link probability set to 1, so that every
    creation-rate label costs its root's cost, with a root label grown
    along a path the heap found, and banned nodes."""
    g, s, t, usable = draw(tied_graphs())
    assume(any(e.capacity >= 1 for e in g.edges))
    g = build_graph(list(g.nodes), [replace(e, link_prob=1.0) for e in g.edges])
    metric = Metric.INVERSE_CREATION_RATE
    root = _start(metric, s)
    found = _heap_search(g, root, t, metric, usable or [True] * len(g.edges))
    if found is not None:
        j = draw(st.integers(0, len(found[1]) - 2))
        root = (_prefix_costs(g, _path_edges(g, found[1]), metric)[j], found[1][:j + 1])
    rest = [v for v in g.node_ids() if v not in root[1]]
    d = draw(st.sampled_from(rest))
    banned = draw(st.sets(st.sampled_from(rest)))
    return g, root, d, usable, banned


@settings(max_examples=400, deadline=None)
@given(case=certain_graphs())
def test_depth_first_search_equals_heap_with_certain_links(case):
    g, root, d, usable, banned = case
    assert _one_link_prob(g) == 1.0
    metric = Metric.INVERSE_CREATION_RATE
    filt = usable or [True] * len(g.edges)
    # whole labels, cost included, compared with ==
    assert (_search(g, root, d, metric, filt, banned)
            == _heap_search(g, root, d, metric, filt, banned))


@settings(max_examples=200, deadline=None)
@given(case=certain_graphs(), k=st.integers(1, 10))
def test_depth_first_yen_and_widest_equal_heap_with_certain_links(case, k):
    g, root, d, usable, _ = case
    s = root[1][0]
    metric = Metric.INVERSE_CREATION_RATE
    got = k_shortest_paths(g, s, d, k, metric, usable=usable)
    widest = widest_path(g, s, d)
    # the reference: every creation-rate search on the heap
    with mock.patch.object(pathfind, "_one_link_prob", lambda graph: None):
        assert got == plain_yen(g, s, d, k, metric, usable=usable)
        assert widest == widest_path(g, s, d)
