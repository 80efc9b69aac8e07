import collections
import copy
import math
import pickle
import random
import warnings

import pytest
from hypothesis import given, strategies as st

from qroute import (
    EdgeParams,
    Metric,
    NodeParams,
    PhysicalConstants,
    Request,
    SimConfig,
    build_graph,
    grid_topology,
    k_shortest_paths,
    link_success_probability,
    simulate,
)
from qroute import netmodel
from qroute.netmodel import (
    SWAP_BOUND_MODES,
    GraphValidationError,
    NetworkGraph,
    classical_delay_ms,
    edge_key,
)


def test_minimal_graph():
    g = build_graph(
        [NodeParams(id="A"), NodeParams(id="B")],
        [EdgeParams(u="A", v="B", capacity=1, link_prob=0.5)],
    )
    assert len(g.nodes) == 2
    assert len(g.edges) == 1
    assert g.edge("A", "B").link_prob == 0.5
    assert g.edge("B", "A") is g.edge("A", "B")


def test_dangling_endpoint_rejected():
    with pytest.raises(GraphValidationError, match="unknown node 'X'"):
        build_graph([NodeParams(id="A")], [EdgeParams(u="A", v="X")])


def test_duplicate_node_id_rejected():
    with pytest.raises(GraphValidationError, match="duplicate node id 'A'"):
        build_graph([NodeParams(id="A"), NodeParams(id="A")], [])


def test_self_loop_rejected():
    with pytest.raises(GraphValidationError, match="self-loop"):
        build_graph([NodeParams(id="A")], [EdgeParams(u="A", v="A")])


def test_parallel_edges_rejected():
    with pytest.raises(GraphValidationError, match="duplicate edge"):
        build_graph(
            [NodeParams(id="A"), NodeParams(id="B")],
            [EdgeParams(u="A", v="B"), EdgeParams(u="B", v="A")],
        )


@pytest.mark.parametrize(
    "names,ends,message",
    [
        ("ba", [], "node 'a' follows 'b'"),
        ("aa", [], "duplicate node id 'a'"),
        ("abc", [("b", "a"), ("c", "b")], r"edge \('b', 'a'\) is not canonical"),
        ("ab", [("a", "a")], "self-loop on node 'a'"),
        ("abc", [("b", "c"), ("a", "b")], r"edge \('a', 'b'\) follows \('b', 'c'\)"),
        ("ab", [("a", "b"), ("a", "b")], "duplicate edge between 'a' and 'b'"),
        ("ab", [("a", "x")], "unknown node 'x'"),
    ],
    ids=["ids-descending", "ids-repeated", "edge-reversed", "self-loop",
         "edges-descending", "edges-repeated", "unknown-endpoint"],
)
def test_graph_constructor_rejects_specs_out_of_order(names, ends, message):
    # a node's rank and an edge's index are its place in the sorted tuples,
    # so a graph built without `build_graph` must already be in that order
    with pytest.raises(GraphValidationError, match=message):
        NetworkGraph(nodes=tuple(NodeParams(id=i) for i in names),
                     edges=tuple(EdgeParams(u=u, v=v, link_prob=0.5) for u, v in ends),
                     phys=PhysicalConstants())


FAULTS = ("duplicate node id", "self-loop", "unknown node", "duplicate edge")


@st.composite
def spec_lists(draw):
    """Small node and edge spec lists in any order, with at most one fault;
    capacity-0 edges are valid and drawn too."""
    names = draw(st.lists(st.sampled_from("abcde"), min_size=1, max_size=5, unique=True))
    pairs = [(u, v) for u in names for v in names if u < v]
    ends = [draw(st.sampled_from([(u, v), (v, u)]))
            for u, v in draw(st.lists(st.sampled_from(pairs), unique=True))] if pairs else []
    fault = draw(st.sampled_from((None,) + FAULTS))
    if fault == "duplicate node id":
        names.append(draw(st.sampled_from(names)))
    elif fault == "self-loop":
        node = draw(st.sampled_from(names))
        ends.append((node, node))
    elif fault == "unknown node":
        ends.append(draw(st.sampled_from([(names[0], "z"), ("z", names[0])])))
    elif fault == "duplicate edge" and ends:  # both orientations of one edge
        u, v = draw(st.sampled_from(ends))
        ends.append((v, u))
    nodes = draw(st.permutations([NodeParams(id=i) for i in names]))
    edges = draw(st.permutations([
        EdgeParams(u=u, v=v, capacity=draw(st.integers(0, 2)), link_prob=0.5)
        for u, v in ends
    ]))
    return nodes, edges


def naive_fault(nodes, edges):
    """The fault a set-based reading of the specs finds, or None."""
    ids = [n.id for n in nodes]
    if len(set(ids)) < len(ids):
        return "duplicate node id"
    if any(e.u == e.v for e in edges):
        return "self-loop"
    if any(end not in ids for e in edges for end in (e.u, e.v)):
        return "unknown node"
    if len({frozenset((e.u, e.v)) for e in edges}) < len(edges):
        return "duplicate edge"
    return None


@given(spec_lists())
def test_graph_checks_match_a_naive_checker(specs):
    nodes, edges = specs
    canonical = [e.replace(u=min(e.u, e.v), v=max(e.u, e.v)) for e in edges]
    sorted_nodes = tuple(sorted(nodes, key=lambda n: n.id))
    sorted_edges = tuple(sorted(canonical, key=lambda e: (e.u, e.v)))
    builds = (
        lambda: build_graph(nodes, edges),
        lambda: NetworkGraph(nodes=sorted_nodes, edges=sorted_edges,
                             phys=PhysicalConstants()),
    )
    fault = naive_fault(nodes, edges)
    for build in builds:
        if fault is None:
            g = build()
            assert (g.nodes, g.edges) == (sorted_nodes, sorted_edges)
        else:
            with pytest.raises(GraphValidationError, match=fault):
                build()


@pytest.mark.parametrize(
    "edge,message",
    [
        ({"capacity": -1}, "capacity"),
        ({"length_km": -2.0}, "length_km"),
        ({"link_prob": 1.5}, "link_prob"),
    ],
)
def test_edge_validation(edge, message):
    # the edge is built inside the check: `EdgeParams` rejects the range
    with pytest.raises(GraphValidationError, match=message):
        build_graph([NodeParams(id="A"), NodeParams(id="B")],
                    [EdgeParams(u="A", v="B", **edge)])


def test_node_validation():
    with pytest.raises(GraphValidationError, match="swap_prob: "):
        build_graph([NodeParams(id="A", swap_prob=1.2)], [])
    with pytest.raises(GraphValidationError, match="memory_cutoff_slots: "):
        build_graph([NodeParams(id="A", memory_cutoff_slots=0)], [])


def test_swap_bound_modes():
    high = [NodeParams(id="A", swap_prob=0.55)]
    build_graph(high, [], PhysicalConstants(swap_bound_mode="advanced"))
    with pytest.raises(GraphValidationError, match="linear-optics"):
        build_graph(high, [], PhysicalConstants(swap_bound_mode="linear-optics"))
    with pytest.raises(GraphValidationError, match="ancilla"):
        build_graph([NodeParams(id="A", swap_prob=0.6)], [],
                    PhysicalConstants(swap_bound_mode="advanced"))
    with pytest.warns(UserWarning, match="0.579"):
        build_graph([NodeParams(id="A", swap_prob=0.6)], [])


def test_swap_bound_warns_once_per_graph():
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        grid_topology(3, 3, default_node=NodeParams(id="", swap_prob=0.6))
    assert [str(w.message) for w in caught] == [
        "swap_prob: 9 of 9 nodes (first '0,0', at 0.6) have a swap_prob that "
        "exceeds the best demonstrated Bell-measurement success rate 0.579"]
    assert issubclass(caught[0].category, UserWarning)
    # under `-W error` the warning is raised, and reads as bad input
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="^swap_prob: 1 of 2 nodes .first 'B'"):
            build_graph([NodeParams(id="A"), NodeParams(id="B", swap_prob=0.7)], [])


def test_link_prob_derived_from_length():
    phys = PhysicalConstants(attenuation_alpha=0.046, attempts_per_slot=1,
                             base_efficiency=0.9)
    g = build_graph(
        [NodeParams(id="A"), NodeParams(id="B")],
        [EdgeParams(u="A", v="B", length_km=10.0)],
        phys,
    )
    expected = 0.9 * math.exp(-0.046 * 10.0)
    assert g.edge("A", "B").link_prob == pytest.approx(expected)


def test_link_success_probability_lossless():
    assert link_success_probability(0.0, 0.046, 1.0, 1) == 1.0


def test_link_success_probability_two_attempts():
    assert link_success_probability(0.0, 0.046, 0.5, 2) == pytest.approx(0.75)


def test_link_success_probability_lab_regime():
    # 20 km span at 0.2 dB/km with the efficiency dialed so one attempt
    # lands at the 1e-4 figure typical of heralded generation experiments
    eta = 1e-4 / math.exp(-0.046 * 20.0)
    p = link_success_probability(20.0, 0.046, eta, 1)
    assert p == pytest.approx(1e-4, rel=1e-9)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"length_km": -1.0, "alpha": 0.1, "eta": 1.0, "attempts": 1},
        {"length_km": 1.0, "alpha": -0.1, "eta": 1.0, "attempts": 1},
        {"length_km": 1.0, "alpha": 0.1, "eta": 0.0, "attempts": 1},
        {"length_km": 1.0, "alpha": 0.1, "eta": 1.1, "attempts": 1},
        {"length_km": 1.0, "alpha": 0.1, "eta": 1.0, "attempts": 0},
    ],
)
def test_link_success_probability_domain(kwargs):
    with pytest.raises(GraphValidationError):
        link_success_probability(**kwargs)


@given(
    length=st.floats(0.0, 200.0),
    delta=st.floats(0.0, 50.0),
    alpha=st.floats(0.0, 0.5),
    eta=st.floats(0.01, 1.0),
    attempts=st.integers(1, 20),
)
def test_link_probability_monotone(length, delta, alpha, eta, attempts):
    base = link_success_probability(length, alpha, eta, attempts)
    assert 0.0 <= base <= 1.0
    longer = link_success_probability(length + delta, alpha, eta, attempts)
    assert longer <= base + 1e-12
    more = link_success_probability(length, alpha, eta, attempts + 1)
    assert more >= base - 1e-12


def test_grid_1x2():
    g = grid_topology(1, 2)
    assert len(g.nodes) == 2
    assert len(g.edges) == 1


def test_grid_3x3():
    g = grid_topology(3, 3)
    assert len(g.nodes) == 9
    assert len(g.edges) == 12


def test_grid_template_propagation():
    g = grid_topology(2, 2, default_edge=EdgeParams(u="", v="", capacity=3))
    assert len(g.edges) == 4
    assert all(e.capacity == 3 for e in g.edges)


@given(rows=st.integers(1, 6), cols=st.integers(1, 6))
def test_grid_counts(rows, cols):
    g = grid_topology(rows, cols)
    assert len(g.nodes) == rows * cols
    assert len(g.edges) == rows * (cols - 1) + cols * (rows - 1)


def two_copy_grid(rows, cols, default_edge, default_node, phys):
    """The reference: `grid_topology` as it was built before, the templates
    copied once per node and edge, then every edge copied again by
    `build_graph` to make its endpoints canonical and set its link_prob."""
    node_tpl = default_node or NodeParams(id="")
    edge_tpl = default_edge or EdgeParams(u="", v="")
    nodes = [node_tpl.replace(id=f"{r},{c}")
             for r in range(rows) for c in range(cols)]
    pairs = [((r, c), (r + dr, c + dc)) for r in range(rows) for c in range(cols)
             for dr, dc in ((0, 1), (1, 0)) if r + dr < rows and c + dc < cols]
    edges = [edge_tpl.replace(u="%d,%d" % a, v="%d,%d" % b)
             for a, b in pairs]
    phys = phys or PhysicalConstants()
    netmodel._check_swap_bound(nodes, phys.swap_bound_mode)
    normalized = []
    for e in edges:
        u, v = edge_key(e.u, e.v)
        p = e.link_prob
        if p is None:
            p = link_success_probability(e.length_km, phys.attenuation_alpha,
                                         phys.base_efficiency, phys.attempts_per_slot)
        normalized.append(e.replace(u=u, v=v, link_prob=p))
    return NetworkGraph(tuple(sorted(nodes, key=lambda n: n.id)),
                        tuple(sorted(normalized, key=lambda e: (e.u, e.v))), phys)


def _outcome(build, *args):
    """The graph or error message `build` gives, and its warnings."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = build(*args)
        except GraphValidationError as exc:
            result = str(exc)
    return result, [(w.category, str(w.message)) for w in caught]


@given(
    # past 10 columns or rows, "r,9" sorts after "r,10": edges flip
    rows=st.integers(1, 12),
    cols=st.integers(1, 12),
    edge=st.none() | st.builds(
        EdgeParams, u=st.just(""), v=st.just(""), capacity=st.integers(0, 3),
        length_km=st.floats(0, 1e4),
        link_prob=st.sampled_from((None, 0.0, 1.0)) | st.floats(0, 1)),
    node=st.none() | st.builds(
        NodeParams, id=st.just(""), swap_prob=st.floats(0, 1),
        memory_cutoff_slots=st.integers(1, 5)),
    phys=st.none() | st.builds(
        PhysicalConstants, attenuation_alpha=st.floats(0, 1),
        attempts_per_slot=st.integers(1, 4), base_efficiency=st.floats(0.01, 1),
        swap_bound_mode=st.sampled_from(SWAP_BOUND_MODES)),
)
def test_grid_equals_two_copy_reference(rows, cols, edge, node, phys):
    assert _outcome(grid_topology, rows, cols, edge, node, phys) == _outcome(
        two_copy_grid, rows, cols, edge, node, phys)


def test_grid_round_trips_through_build_graph():
    g = grid_topology(3, 3, default_edge=EdgeParams(u="", v="", capacity=2,
                                                    link_prob=0.7))
    rebuilt = build_graph(list(g.nodes), list(g.edges), g.phys)
    assert rebuilt == g
    assert hash(rebuilt) == hash(g)


def test_build_graph_deterministic_hash():
    specs_nodes = [NodeParams(id="B"), NodeParams(id="A")]
    specs_edges = [EdgeParams(u="B", v="A", capacity=2, link_prob=0.3)]
    g1 = build_graph(specs_nodes, specs_edges)
    g2 = build_graph(list(reversed(specs_nodes)),
                     [EdgeParams(u="A", v="B", capacity=2, link_prob=0.3)])
    assert g1 == g2
    assert hash(g1) == hash(g2)


def test_connected_components_reported():
    g = build_graph(
        [NodeParams(id=i) for i in "ABCD"],
        [EdgeParams(u="A", v="B"), EdgeParams(u="C", v="D")],
    )
    assert not g.is_connected()


def random_sparse_graph(rnd):
    """Up to 9 nodes, some of them isolated, with capacity-0 edges among
    the rest."""
    ids = [f"v{i}" for i in range(rnd.randint(1, 9))]
    edges = [EdgeParams(u=u, v=v, capacity=rnd.choice((0, 0, 1, 2)), link_prob=0.5)
             for i, u in enumerate(ids) for v in ids[i + 1:]
             if rnd.random() < 0.25]
    return build_graph([NodeParams(id=v) for v in ids], edges)


def union_find_connected(graph):
    """The reference: union-find over `graph.edges`, any capacity."""
    parent = {n.id: n.id for n in graph.nodes}

    def root(v):
        while parent[v] != v:
            v = parent[v]
        return v

    for e in graph.edges:
        parent[root(e.u)] = root(e.v)
    return len({root(n.id) for n in graph.nodes}) <= 1


def test_is_connected_matches_union_find():
    rnd = random.Random(23)
    outcomes = set()
    for _ in range(400):
        g = random_sparse_graph(rnd)
        want = union_find_connected(g)
        assert g.is_connected() == want
        outcomes.add(want)
    assert outcomes == {True, False}
    # capacity-0 edges still connect
    g = build_graph([NodeParams(id=i) for i in "AB"],
                    [EdgeParams(u="A", v="B", capacity=0)])
    assert g.is_connected()


def test_adjacency_lists_each_edge_twice_in_rank_order():
    rnd = random.Random(29)
    for _ in range(200):
        g = random_sparse_graph(rnd)
        seen = collections.Counter()
        for r, nbrs in enumerate(g.adjacency):
            assert [nbr for nbr, _ in nbrs] == sorted({nbr for nbr, _ in nbrs})
            for nbr, i in nbrs:
                e = g.edges[i]
                assert {e.u, e.v} == {g.nodes[r].id, g.nodes[nbr].id}
                seen[i] += 1
            ids = g.neighbors(g.nodes[r].id)
            assert ids == tuple(sorted(ids))
            assert ids == tuple(g.nodes[nbr].id for nbr, _ in nbrs)
        assert seen == collections.Counter({i: 2 for i in range(len(g.edges))})


def test_classical_delay():
    assert classical_delay_ms(20.0) == pytest.approx(0.1)


def test_graph_survives_pickle_and_deepcopy():
    # a process pool hands each replica its graph by pickling it
    g = grid_topology(3, 3, EdgeParams(u="", v="", capacity=2, link_prob=0.8))
    requests = [Request(id="r", source="0,0", dest="2,2")]
    config = SimConfig(scheme="reactive", slots=200, seed=7)
    want_paths = k_shortest_paths(g, "0,0", "2,2", 5, Metric.HOP_COUNT)
    want_stats = simulate(g, requests, config).to_dict()
    for twin in (pickle.loads(pickle.dumps(g)), copy.deepcopy(g)):
        assert twin == g and twin is not g
        assert twin.edge_index == g.edge_index and twin.node_rank == g.node_rank
        with pytest.raises(TypeError):
            twin.edge_index[("0,0", "0,1")] = 5  # the maps stay read-only
        assert k_shortest_paths(twin, "0,0", "2,2", 5, Metric.HOP_COUNT) == want_paths
        assert simulate(twin, requests, config).to_dict() == want_stats
