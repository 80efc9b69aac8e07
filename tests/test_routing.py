import collections
import hashlib
import itertools
import random
from pathlib import Path

import pytest

from conftest import all_simple_paths, chain_graph, random_connected_graph
from qroute import (
    AllocationPlan,
    AllocatorConfig,
    EdgeParams,
    NodeParams,
    Request,
    SwapPolicy,
    UtilitySpec,
    allocate,
    build_graph,
    expected_throughput,
    Metric,
    grid_topology,
    max_hops,
    path_spec_from_nodes,
    policy_distribution,
    request_throughput,
    total_utility,
)
from qroute import pathfind, routing
from qroute.netmodel import edge_key
from qroute.routing import PathAllocation
from qroute.scenario import parse_scenario

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"


def one_path_plan(graph, req, nodes, width=1, policy=None):
    policy = policy or SwapPolicy("doubling")
    return AllocationPlan(
        requests=(req,),
        allocations=(
            PathAllocation(
                request_id=req.id,
                path=path_spec_from_nodes(graph, nodes, width=width),
                policy=policy,
            ),
        ),
        residual=(),
    )


def test_request_throughput_single_path():
    g = chain_graph(1, p=0.5)
    req = Request(id="r", source="n0", dest="n1")
    plan = one_path_plan(g, req, ("n0", "n1"))
    assert request_throughput(plan, req) == pytest.approx(0.5)


def test_request_throughput_sums_paths():
    g = build_graph(
        [NodeParams(id=i, swap_prob=0.5) for i in "SAD"],
        [
            EdgeParams(u="S", v="D", link_prob=0.5),
            EdgeParams(u="S", v="A", link_prob=1.0),
            EdgeParams(u="A", v="D", link_prob=0.5),
        ],
    )
    req = Request(id="r", source="S", dest="D")
    plan = AllocationPlan(
        requests=(req,),
        allocations=(
            PathAllocation(request_id="r",
                           path=path_spec_from_nodes(g, ("S", "D"), width=1),
                           policy=SwapPolicy("doubling")),
            PathAllocation(request_id="r",
                           path=path_spec_from_nodes(g, ("S", "A", "D"), width=1),
                           policy=SwapPolicy("doubling")),
        ),
        residual=(),
    )
    # 0.5 direct + 1.0 * 0.5 * q(A)=0.5 relayed
    assert request_throughput(plan, req) == pytest.approx(0.5 + 0.25)


def test_request_throughput_empty_paths():
    g = chain_graph(1, p=0.5)
    req = Request(id="r", source="n0", dest="n1")
    plan = AllocationPlan(requests=(req,), allocations=(), residual=())
    assert request_throughput(plan, req) == 0.0
    with pytest.raises(KeyError):
        plan.request("missing")


def test_total_utility_kinds():
    g = chain_graph(1, p=0.5)
    r1 = Request(id="a", source="n0", dest="n1", rate_target=0.6)
    plan = one_path_plan(g, r1, ("n0", "n1"))
    assert total_utility(plan, UtilitySpec("total_throughput")) == pytest.approx(0.5)
    # saturating clamps at the requested rate
    g2 = chain_graph(1, p=0.9)
    plan2 = one_path_plan(g2, Request(id="a", source="n0", dest="n1",
                                      rate_target=0.6), ("n0", "n1"))
    assert total_utility(plan2, UtilitySpec("saturating")) == pytest.approx(0.6)
    weighted = UtilitySpec("weighted_sum", weights=(("a", 2.0),))
    assert total_utility(plan, weighted) == pytest.approx(1.0)
    # the other kinds read no weights, so they take none
    for kind in ("total_throughput", "saturating"):
        with pytest.raises(ValueError, match="reads no weights"):
            UtilitySpec(kind, weights=(("a", 2.0),))


def test_total_utility_empty():
    plan = AllocationPlan(requests=(), allocations=(), residual=())
    assert total_utility(plan, UtilitySpec()) == 0.0


def test_allocate_fills_simple_chain():
    g = chain_graph(2, p=0.8, q=0.5, cap=2)
    req = Request(id="r1", source="n0", dest="n2")
    plan = allocate(g, [req], AllocatorConfig())
    assert len(plan.allocations) == 1
    alloc = plan.allocations[0]
    assert alloc.path.nodes == ("n0", "n1", "n2")
    assert alloc.path.per_hop_capacity == (2, 2)
    assert all(c == 0 for _, c in plan.residual)


def test_allocate_flags_infeasible_fidelity():
    g = chain_graph(2, p=0.8)
    good = Request(id="ok", source="n0", dest="n2", min_fidelity=0.8)
    bad = Request(id="bad", source="n0", dest="n2", min_fidelity=0.999)
    plan = allocate(g, [good, bad],
                    AllocatorConfig(elementary_fidelity=0.99))
    assert [rid for rid, _ in plan.infeasible] == ["bad"]
    assert all(a.request_id == "ok" for a in plan.allocations)


def test_allocate_respects_hop_bound():
    # ring where the short route is saturated by the first request; the
    # alternate route is too many hops for the fidelity floor
    nodes = [NodeParams(id=f"v{i}", swap_prob=0.5) for i in range(6)]
    edges = [
        EdgeParams(u="v0", v="v1", capacity=1, link_prob=0.9),
        EdgeParams(u="v1", v="v2", capacity=1, link_prob=0.9),
        EdgeParams(u="v0", v="v3", capacity=1, link_prob=0.9),
        EdgeParams(u="v3", v="v4", capacity=1, link_prob=0.9),
        EdgeParams(u="v4", v="v5", capacity=1, link_prob=0.9),
        EdgeParams(u="v5", v="v2", capacity=1, link_prob=0.9),
    ]
    g = build_graph(nodes, edges)
    f0 = 0.99
    req = Request(id="r", source="v0", dest="v2", min_fidelity=0.97)
    bound = max_hops(f0, req.min_fidelity)
    assert bound == 3  # the 4-hop detour is out of reach
    plan = allocate(g, [req, req.__class__(id="r2", source="v0", dest="v2",
                                           min_fidelity=0.97)],
                    AllocatorConfig(elementary_fidelity=f0))
    for alloc in plan.allocations:
        assert alloc.path.hop_count <= bound


def shared_edge_instance():
    """Five nodes; r1 and r2 both want the middle cap-1 edge but each has a
    longer private alternative."""
    nodes = [NodeParams(id=i, swap_prob=0.5) for i in "SMTAB"]
    edges = [
        EdgeParams(u="S", v="M", capacity=1, link_prob=0.9),
        EdgeParams(u="M", v="T", capacity=1, link_prob=0.9),
        EdgeParams(u="S", v="A", capacity=1, link_prob=0.8),
        EdgeParams(u="A", v="T", capacity=1, link_prob=0.8),
        EdgeParams(u="S", v="B", capacity=1, link_prob=0.7),
        EdgeParams(u="B", v="T", capacity=1, link_prob=0.7),
    ]
    g = build_graph(nodes, edges)
    reqs = [
        Request(id="r1", source="S", dest="T"),
        Request(id="r2", source="S", dest="T"),
    ]
    return g, reqs


def exhaustive_best_utility(graph, requests, utility, policy, max_width=2):
    """Oracle: try every assignment of widths to every simple path.

    Returns None when the assignment space is too big to enumerate.
    """
    per_req_paths = [
        list(all_simple_paths(graph, r.source, r.dest)) for r in requests
    ]
    pairs = [
        (ri, nodes)
        for ri, paths in enumerate(per_req_paths)
        for nodes in paths
    ]
    if (max_width + 1) ** len(pairs) > 300_000:
        return None
    best = 0.0
    caps = {edge_key(e.u, e.v): e.capacity for e in graph.edges}
    for widths in itertools.product(range(max_width + 1), repeat=len(pairs)):
        used: dict = {}
        ok = True
        for (ri, nodes), w in zip(pairs, widths):
            if w == 0:
                continue
            for u, v in zip(nodes, nodes[1:]):
                k = edge_key(u, v)
                used[k] = used.get(k, 0) + w
                if used[k] > caps[k]:
                    ok = False
                    break
            if not ok:
                break
        if not ok:
            continue
        value = 0.0
        for req, paths in zip(requests, per_req_paths):
            rate = 0.0
            for (ri, nodes), w in zip(pairs, widths):
                if requests[ri] is req and w > 0:
                    spec = path_spec_from_nodes(graph, nodes, width=w)
                    rate += expected_throughput(policy_distribution(spec, policy))
            value += utility.value(req, rate)
        best = max(best, value)
    return best


def test_allocate_shared_edge_matches_exhaustive():
    g, reqs = shared_edge_instance()
    config = AllocatorConfig(k=4)
    plan = allocate(g, reqs, config)
    # capacity feasibility on the contested edge
    used: dict = {}
    for a in plan.allocations:
        for h in range(a.path.hop_count):
            k = edge_key(a.path.nodes[h], a.path.nodes[h + 1])
            used[k] = used.get(k, 0) + a.path.per_hop_capacity[h]
    for k, total in used.items():
        assert total <= g.edge(*k).capacity
    got = total_utility(plan, config.utility)
    best = exhaustive_best_utility(g, reqs, config.utility, config.policy,
                                   max_width=1)
    assert got == pytest.approx(best, abs=1e-9)


def test_allocate_greedy_monotone_trace():
    g, reqs = shared_edge_instance()
    plan = allocate(g, reqs, AllocatorConfig())
    trace = plan.utility_trace
    assert all(b >= a - 1e-12 for a, b in zip(trace, trace[1:]))


def random_instance(rnd):
    g = random_connected_graph(rnd, rnd.randint(4, 7), max_cap=3)
    ids = list(g.node_ids())
    requests = []
    for i in range(rnd.randint(1, 3)):
        s, d = rnd.sample(ids, 2)
        requests.append(
            Request(id=f"r{i}", source=s, dest=d,
                    min_fidelity=rnd.uniform(0.8, 0.97))
        )
    return g, requests


def test_allocate_feasibility_randomized():
    rnd = random.Random(31)
    f0 = 0.98
    for _ in range(60):
        g, reqs = random_instance(rnd)
        plan = allocate(g, reqs, AllocatorConfig(k=3, elementary_fidelity=f0))
        used: dict = {}
        for a in plan.allocations:
            assert len(set(a.path.nodes)) == len(a.path.nodes)
            bound = max_hops(f0, plan.request(a.request_id).min_fidelity)
            assert a.path.hop_count <= bound
            for h in range(a.path.hop_count):
                k = edge_key(a.path.nodes[h], a.path.nodes[h + 1])
                used[k] = used.get(k, 0) + a.path.per_hop_capacity[h]
        for k, total in used.items():
            assert total <= g.edge(*k).capacity
        trace = plan.utility_trace
        assert all(b >= a - 1e-12 for a, b in zip(trace, trace[1:]))


def test_allocate_quality_floor_vs_exhaustive():
    rnd = random.Random(77)
    config = AllocatorConfig(k=4)
    for _ in range(12):
        g = random_connected_graph(rnd, rnd.randint(4, 6), max_cap=2)
        ids = list(g.node_ids())
        reqs = []
        for i in range(rnd.randint(1, 2)):
            s, d = rnd.sample(ids, 2)
            reqs.append(Request(id=f"r{i}", source=s, dest=d))
        plan = allocate(g, reqs, config)
        got = total_utility(plan, config.utility)
        best = exhaustive_best_utility(g, reqs, config.utility, config.policy,
                                       max_width=2)
        if best is not None and best > 0:
            assert got >= 0.5 * best - 1e-9


def test_utility_non_decreasing_in_rate():
    req = Request(id="a", source="s", dest="d", rate_target=0.7)
    rnd = random.Random(1)
    for spec in (UtilitySpec("total_throughput"), UtilitySpec("saturating"),
                 UtilitySpec("weighted_sum", weights=(("a", 3.0),))):
        rates = sorted(rnd.uniform(0, 2) for _ in range(50))
        values = [spec.value(req, r) for r in rates]
        assert all(b >= a for a, b in zip(values, values[1:]))


def test_allocate_rejects_repeated_request_ids():
    # widths and rates are keyed by request id, so the second request would
    # silently share the first one's allocation
    g = grid_topology(3, 3, EdgeParams(u="", v="", capacity=2, link_prob=0.9))
    requests = [Request(id="r", source="0,0", dest="2,2"),
                Request(id="r", source="0,2", dest="2,0")]
    with pytest.raises(ValueError, match="request id 'r' appears more than once"):
        allocate(g, requests, AllocatorConfig())


def test_allocator_config_validation():
    with pytest.raises(ValueError):
        AllocatorConfig(k=0)
    with pytest.raises(ValueError):
        AllocatorConfig(policy=SwapPolicy("adhoc"))
    with pytest.raises(ValueError):
        UtilitySpec("bogus")


# sha256 over every plan below: any change to a chosen path, width, trace
# float or residual changes it. Plans are part of the determinism contract,
# so a speedup must leave this digest as it is.
PINNED_PLANS_SHA256 = (
    "bb80c3fe46cc84cf82f242791bb8573b317e65044befef9d2ccd47dd9208870f"
)


def _plan_fingerprint(plan) -> str:
    return repr((
        tuple((a.request_id, a.path.nodes, a.path.per_hop_capacity)
              for a in plan.allocations),
        tuple(repr(u) for u in plan.utility_trace),
        plan.residual,
        plan.infeasible,
    ))


def test_allocate_plans_pinned():
    digest = hashlib.sha256()
    rnd = random.Random(4321)  # the instances of test_c07_allocator_feasibility
    for _ in range(1000):
        g, reqs = random_instance(rnd)
        plan = allocate(g, reqs, AllocatorConfig(k=3, elementary_fidelity=0.98))
        digest.update(_plan_fingerprint(plan).encode())
    for path in sorted(SCENARIOS.glob("*.json")):
        scenario = parse_scenario(path)
        plan = allocate(scenario.graph, list(scenario.requests), scenario.routing)
        digest.update(_plan_fingerprint(plan).encode())
    assert digest.hexdigest() == PINNED_PLANS_SHA256


def test_allocate_plan_ignores_request_order():
    # the first 150 c07 instances with two or more requests, each reversed
    # and shuffled once; only `infeasible` lists requests in input order
    rnd, shuffler = random.Random(4321), random.Random(5)
    config = AllocatorConfig(k=3, elementary_fidelity=0.98)
    instances = (random_instance(rnd) for _ in range(1000))
    for g, reqs in itertools.islice(((g, r) for g, r in instances if len(r) > 1), 150):
        shuffled = list(reqs)
        shuffler.shuffle(shuffled)
        want, *got = [(plan.allocations, plan.residual, plan.utility_trace,
                       set(plan.infeasible))
                      for plan in (allocate(g, order, config)
                                   for order in (reqs, reqs[::-1], shuffled))]
        assert got == [want, want]


def test_allocate_lists_infeasible_requests_in_input_order():
    # c07's instances never draw an infeasible request: the first 100 get
    # one to three, with an unknown endpoint or a fidelity floor above the
    # one-hop Werner fidelity f0, each at a random place in the list
    rnd, extra = random.Random(4321), random.Random(11)
    f0 = 0.98
    config = AllocatorConfig(k=3, elementary_fidelity=f0)
    for _ in range(100):
        g, reqs = random_instance(rnd)
        mixed = [(req, None) for req in reqs]  # (request, why it is infeasible)
        for i in range(extra.randint(1, 3)):
            source, dest = reqs[0].source, reqs[0].dest
            if extra.random() < 0.5:
                if extra.random() < 0.5:
                    source = "nowhere"
                else:
                    dest = "nowhere"
                req, why = Request(f"x{i}", source, dest), "unknown endpoint"
            else:
                floor = extra.uniform(0.981, 1.0)
                req = Request(f"x{i}", source, dest, min_fidelity=floor)
                why = f"fidelity floor {floor} exceeds elementary fidelity {f0}"
            mixed.insert(extra.randint(0, len(mixed)), (req, why))
        want = allocate(g, reqs, config)
        got = allocate(g, [req for req, _ in mixed], config)
        assert (got.allocations, got.residual, got.utility_trace) == (
            want.allocations, want.residual, want.utility_trace)
        assert want.infeasible == ()
        assert got.infeasible == tuple((req.id, why) for req, why in mixed if why)


def tied_grid(n, count):
    """The n x n grid with `grid_topology`'s defaults (capacity 1, 0 km, so
    p = 1: every creation-rate label ties) and `count` requests, each
    between two distinct nodes drawn in row-major id order."""
    g = grid_topology(n, n)
    ids = [f"{r},{c}" for r in range(n) for c in range(n)]
    rnd = random.Random(5)
    return g, [Request(id=f"r{i}", source=s, dest=d, min_fidelity=0.5)
               for i, (s, d) in enumerate(rnd.sample(ids, 2) for _ in range(count))]


# What `allocate` does on the plans above, and on the 8x8 tied grid: (Yen
# calls, `policy_distribution` calls, and `_search` calls run by levels, by
# the p = 1 depth-first search and on the heap). Candidates are cached per
# (source, dest, hop bound) with the edges of every path Yen returned for
# them (by hop count, only paths within the bound), and an entry is dropped
# only when an edge those paths use saturates, so Yen runs again exactly
# then: an entry dropped more often raises the Yen counts, and one kept too
# long lowers them (or changes a plan). Routes are priced by their link and swap probabilities and width,
# so routes alike in those share one pricing. Every scenario's edges share
# one link probability p < 1, so Yen runs once per cached key, under the
# hop count alone, by levels; the random instances mix probabilities and
# run it under the creation rate as well, on the heap. The tied grid has
# p = 1, so its creation-rate searches run depth-first, none on the heap.
PINNED_LEDGER = {
    "random instances": (14762, 8861, 26181, 0, 30437),
    "async_adhoc_chain.json": (2, 1, 5, 0, 0),
    "grid_3x3.json": (5, 2, 30, 0, 0),
    "two_hop_chain.json": (2, 1, 4, 0, 0),
    "tied grid 8x8": (156, 56, 1587, 3285, 0),
}


def test_allocate_yen_calls_pinned(monkeypatch):
    counts = collections.Counter()

    def count(module, name):
        real = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *args, **kwargs: (
            counts.update([name]) or real(*args, **kwargs)))

    count(routing, "k_shortest_paths")
    count(routing, "policy_distribution")
    for name in ("_hop_search", "_dfs_search", "_heap_search"):
        count(pathfind, name)

    def ledger():
        got = tuple(counts[name] for name in (
            "k_shortest_paths", "policy_distribution",
            "_hop_search", "_dfs_search", "_heap_search"))
        counts.clear()
        return got

    got = {}
    rnd = random.Random(4321)
    for _ in range(1000):
        g, reqs = random_instance(rnd)
        allocate(g, reqs, AllocatorConfig(k=3, elementary_fidelity=0.98))
    got["random instances"] = ledger()
    for path in sorted(SCENARIOS.glob("*.json")):
        scenario = parse_scenario(path)
        allocate(scenario.graph, list(scenario.requests), scenario.routing)
        got[path.name] = ledger()
    g, reqs = tied_grid(8, 8)
    allocate(g, reqs, AllocatorConfig(k=5))
    got["tied grid 8x8"] = ledger()
    assert got == PINNED_LEDGER


def cache_instances():
    """Allocator instances on which a kept cache entry can go stale."""
    instances = []
    rnd = random.Random(7)
    for _ in range(150):
        # k = 1 and 3-6 hop bounds on 7-9 nodes: Yen's one path often runs
        # past the bound, and its edges must count all the same
        g = random_connected_graph(rnd, rnd.randint(7, 9), max_cap=2)
        reqs = [Request(id=f"r{i}", source=s, dest=d,
                        min_fidelity=rnd.uniform(0.93, 0.97))
                for i, (s, d) in enumerate(rnd.sample(g.node_ids(), 2)
                                           for _ in range(rnd.randint(2, 3)))]
        instances.append((g, reqs, AllocatorConfig(k=1, elementary_fidelity=0.99)))
    for _ in range(100):
        g, reqs = random_instance(rnd)
        instances.append((g, reqs, AllocatorConfig(k=3, elementary_fidelity=0.98)))
    for n, count in ((3, 3), (4, 4), (5, 6)):
        for k in (1, 2, 5):
            instances.append((*tied_grid(n, count), AllocatorConfig(k=k)))
    return instances


def fingerprints(instances):
    return [_plan_fingerprint(allocate(g, reqs, config))
            for g, reqs, config in instances]


def test_allocate_per_edge_drop_equals_full_clear(monkeypatch):
    # the k best paths that avoid an edge no returned path uses are the
    # same k, so dropping only the entries whose paths use a saturated
    # edge must give the plans of clearing every entry on any saturation
    instances = cache_instances()
    per_edge = fingerprints(instances)
    monkeypatch.setattr(routing, "_drop_stale", lambda cache, i: cache.clear())
    assert per_edge == fingerprints(instances)


def tie_instances():
    """`weighted_sum` grids with one link probability, whose requests'
    weights differ by less than `beats`' tie window, by exactly nothing, or
    by a little more than the window: routes of one hop count and width
    gain alike, so many steps pick among near-ties."""
    instances = []
    rnd = random.Random(25)
    for _ in range(40):
        n = rnd.randint(3, 5)
        edge = EdgeParams(u="", v="", capacity=rnd.randint(1, 3), link_prob=0.8)
        g = grid_topology(n, n, edge)
        pairs = [rnd.sample(g.node_ids(), 2) for _ in range(rnd.randint(2, 5))]
        reqs = [Request(id=f"r{i}", source=s, dest=d) for i, (s, d) in enumerate(pairs)]
        weights = tuple(
            (req.id, rnd.choice((1.0, 1 + 3e-13, 1 - 3e-13, 1 + 3e-12))) for req in reqs)
        utility = UtilitySpec("weighted_sum", weights=weights)
        instances.append((g, reqs, AllocatorConfig(k=rnd.choice((1, 3, 5)), utility=utility)))
    return instances


def test_allocate_kept_scores_equal_full_rescan(monkeypatch):
    # a request's scores are kept until it is committed or an edge of its
    # Yen paths or allocated routes saturates; dropping every request's
    # scores on every step must give the same plans, near-ties included
    instances = cache_instances() + tie_instances()
    kept = fingerprints(instances)
    with monkeypatch.context() as m:
        m.setattr(routing, "_drop_scores", lambda scores, rid, saturated: scores.clear())
        assert kept == fingerprints(instances)

    # Yen keeps returning an open path it returned before, so an allocated
    # route stays watched through the Yen paths until it closes. A stand-in
    # that skips its best path whenever an odd number of edges is saturated
    # leaves the allocated routes' own edges as the only watch. Here r0
    # takes A-B; r1 saturates A-D, so r0's Yen paths are fetched again and
    # the stand-in leaves A-B out; r2 then saturates A-B, and r0 must not
    # widen it again
    g = build_graph(
        [NodeParams(id=i, swap_prob=0.5) for i in "ABDEF"],
        [EdgeParams(u="A", v="B", capacity=2, link_prob=0.9),
         EdgeParams(u="A", v="D", capacity=1, link_prob=0.6),
         EdgeParams(u="D", v="B", capacity=1, link_prob=0.1),
         EdgeParams(u="B", v="E", capacity=1, link_prob=1.0),
         EdgeParams(u="B", v="F", capacity=1, link_prob=0.5),
         EdgeParams(u="F", v="E", capacity=1, link_prob=1.0)],
    )
    reqs = [Request(id="r0", source="A", dest="B", rate_target=1.0),
            Request(id="r1", source="A", dest="D", rate_target=0.5),
            Request(id="r2", source="A", dest="E", rate_target=0.2)]
    instances.append((g, reqs, AllocatorConfig(k=2, utility=UtilitySpec("saturating"))))
    real = routing.k_shortest_paths

    def fickle(graph, s, d, k, metric, usable, max_len=None):
        return real(graph, s, d, k, metric, usable=usable,
                    max_len=max_len)[usable.count(0) % 2:]

    monkeypatch.setattr(routing, "k_shortest_paths", fickle)
    kept = fingerprints(instances)
    monkeypatch.setattr(routing, "_drop_scores", lambda scores, rid, saturated: scores.clear())
    assert kept == fingerprints(instances)


def test_allocate_prices_each_route_by_its_own_probabilities():
    # links share one p but nodes swap with different q, so routes of one
    # hop count share link probabilities and not swap probabilities: the
    # trace must still sum the gains of routes priced one by one
    rnd = random.Random(12)
    config = AllocatorConfig(k=4)
    for _ in range(20):
        g = grid_topology(4, 4, EdgeParams(u="", v="", capacity=2, link_prob=0.8))
        nodes = [v.replace(swap_prob=rnd.choice((0.3, 0.6, 0.9))) for v in g.nodes]
        g = build_graph(nodes, list(g.edges))
        pairs = (rnd.sample(g.node_ids(), 2) for _ in range(3))
        reqs = [Request(id=f"r{i}", source=s, dest=d) for i, (s, d) in enumerate(pairs)]
        plan = allocate(g, reqs, config)
        total = total_utility(plan, config.utility)
        assert plan.utility_trace[-1] == pytest.approx(total)


def test_allocate_with_one_link_probability_runs_yen_once_per_key(monkeypatch):
    # with one p < 1 on every edge both metrics rank paths by hop count, so
    # the creation-rate Yen pass that `allocate` skips could add no route
    rnd = random.Random(2071)
    config = AllocatorConfig(k=3, elementary_fidelity=0.98)
    instances = []
    for i in range(240):
        g, reqs = random_instance(rnd)
        p = (1e-100, 1e-60, 0.3, 0.5, 0.8, 0.99)[i % 6]  # tiny p overflows
        edges = [e.replace(link_prob=p) for e in g.edges]
        instances.append((build_graph(list(g.nodes), edges, g.phys), reqs))

    calls = []
    real = routing.k_shortest_paths
    monkeypatch.setattr(routing, "k_shortest_paths",
                        lambda *args, **kwargs: calls.append(1) or real(*args, **kwargs))

    def fingerprints():
        calls.clear()
        return [_plan_fingerprint(allocate(g, reqs, config)) for g, reqs in instances]

    one_pass = fingerprints()
    one_pass_calls = len(calls)
    for module in (pathfind, routing):
        monkeypatch.setattr(module, "_one_link_prob", lambda graph: None)
    assert one_pass == fingerprints()
    assert one_pass_calls < len(calls)


def test_allocate_takes_one_pass_whether_or_not_one_over_p_overflows(monkeypatch):
    # a 10x20 grid with one p: 1/p per hop overflows within the requests'
    # 10-hop bound for p = 1e-31 (1e300 is finite, 1e310 is not) and not
    # for p = 1e-30; for p = 0.01 it overflows at 155 hops, within the
    # 199-hop longest path, which is all f0 = 1 bounds. The heap never
    # pushes an overflowing label, so what the creation-rate pass keeps
    # within the bound is a prefix of the hop-count pass: on each grid
    # `allocate` runs Yen once per cached key, by hop count, to the two-pass
    # plan. The one pass watches only the hop-count paths, a subset of what
    # the two passes watch, so it fetches a key no more often
    rnd = random.Random(6)
    cells = [(r, c) for r in range(10) for c in range(20)]
    reqs = []
    for i in range(6):
        src = rnd.choice(cells)
        dst = rnd.choice([d for d in cells
                          if 2 <= abs(d[0] - src[0]) + abs(d[1] - src[1]) <= 8])
        reqs.append(Request(id=f"r{i}", source="%d,%d" % src, dest="%d,%d" % dst,
                            min_fidelity=0.9))
    assert max_hops(0.99, 0.9) == 10
    calls = []
    real = routing.k_shortest_paths
    monkeypatch.setattr(routing, "k_shortest_paths", lambda *args, **kwargs: (
        calls.append((args[4], kwargs["max_len"])) or real(*args, **kwargs)))

    def run(g, f0):
        calls.clear()
        plan = _plan_fingerprint(allocate(g, reqs, AllocatorConfig(k=3, elementary_fidelity=f0)))
        return plan, list(calls)

    rate = (Metric.INVERSE_CREATION_RATE, None)
    for p, f0 in ((0.01, 0.99), (1e-30, 0.99), (1e-31, 0.99), (0.01, 1.0)):
        g = grid_topology(10, 20, EdgeParams(u="", v="", capacity=2, link_prob=p))
        got, got_calls = run(g, f0)
        with monkeypatch.context() as m:
            m.setattr(routing, "_one_link_prob", lambda graph: None)
            want, want_calls = run(g, f0)
        assert got == want
        hop = (Metric.HOP_COUNT, max_hops(f0, 0.9))
        fetches = len(want_calls) // 2
        assert fetches and want_calls == [rate, hop] * fetches
        assert got_calls == [hop] * len(got_calls)
        assert len(got_calls) <= fetches
