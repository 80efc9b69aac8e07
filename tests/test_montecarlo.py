import hashlib
import json
import math
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from conftest import assert_pmf_close, chain_graph, make_path
from qroute import (
    AllocatorConfig,
    EdgeParams,
    NodeParams,
    Request,
    SimConfig,
    SwapPolicy,
    all_order_trees,
    allocate,
    brute_force_distribution,
    build_graph,
    grid_topology,
    link_distribution,
    path_spec_from_nodes,
    simulate,
    unheralded_path_distribution,
)
from qroute.analytics import sequential_tree
from qroute.cli import run_command
from qroute.routing import AllocationPlan, PathAllocation

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def plan_for_chain(graph, n_hops, width=1, policy=None, rid="r1"):
    req = Request(id=rid, source="n0", dest=f"n{n_hops}")
    path = path_spec_from_nodes(
        graph, tuple(f"n{i}" for i in range(n_hops + 1)), width=width
    )
    return AllocationPlan(
        requests=(req,),
        allocations=(
            PathAllocation(request_id=rid, path=path,
                           policy=policy or SwapPolicy.doubling()),
        ),
        residual=(),
    )


def chain_with_probs(probs, q=1.0, cutoff=1):
    """A chain whose hop h generates a link with probability probs[h]."""
    nodes = [NodeParams(id=f"n{i}", swap_prob=q, memory_cutoff_slots=cutoff)
             for i in range(len(probs) + 1)]
    edges = [EdgeParams(u=f"n{i}", v=f"n{i+1}", capacity=1, link_prob=p)
             for i, p in enumerate(probs)]
    return build_graph(nodes, edges)


def three_se(p, slots):
    return 3.0 * math.sqrt(max(p * (1.0 - p), 1e-12) / slots)


def ledger(consumed=0, expired=0, discarded=0, delivered=0):
    return {"consumed": consumed, "expired": expired,
            "discarded": discarded, "delivered": delivered}


# --------------------------------------------------------------------------
# link generation


def test_external_phase_certain_links():
    g = chain_graph(1, p=1.0, cap=2)
    stats = simulate(g, plan_for_chain(g, 1, width=2), SimConfig(slots=3))
    assert stats.links_generated == 6
    assert stats.per_path["r1[0]"]["hist"] == [0, 0, 3]


def test_external_phase_no_links_at_p_zero():
    g = chain_graph(1, p=0.0, cap=2)
    stats = simulate(g, plan_for_chain(g, 1, width=2), SimConfig(slots=50))
    assert stats.links_generated == 0
    assert stats.per_path["r1[0]"]["hist"] == [50, 0, 0]


def test_external_phase_deterministic_for_seed():
    g = chain_graph(3, p=0.5, cap=2)
    plan = plan_for_chain(g, 3, width=2)

    def realization(seed):
        return simulate(g, plan, SimConfig(slots=50, seed=seed)).to_dict()

    assert realization(42) == realization(42)
    assert realization(42) != realization(43)


def test_external_phase_skips_occupied_channels():
    # hop n1-n2 never links, so the n0-n1 link waits in memory until its
    # cutoff of 5 slots; its channel is not regenerated meanwhile
    g = chain_with_probs([1.0, 0.0], cutoff=5)
    plan = plan_for_chain(g, 2)
    stats = simulate(g, plan, SimConfig(forwarding="async", slots=12, seed=1))
    assert stats.links_generated == 3  # born in slots 0, 5 and 10
    assert stats.entities_disposed == ledger(expired=2)
    sync = simulate(g, plan, SimConfig(slots=12, seed=1))
    assert sync.links_generated == 12
    assert sync.entities_disposed == ledger(discarded=12)


# --------------------------------------------------------------------------
# swapping


@pytest.mark.parametrize(
    "policy",
    [SwapPolicy.sequential(), SwapPolicy.doubling(), SwapPolicy.parallel()],
)
def test_two_hop_lane_certain_swap(policy):
    g = chain_graph(2, p=1.0, q=1.0)
    plan = plan_for_chain(g, 2, policy=policy)
    for forwarding in ("sync", "async"):
        stats = simulate(g, plan, SimConfig(forwarding=forwarding, slots=1,
                                            policy=policy))
        assert stats.delivered_total == 1
        assert stats.swap_counters == {
            policy.kind: {"attempts": 1, "successes": 1}
        }
        assert stats.entities_disposed == ledger(consumed=2, delivered=1)


def test_parallel_missing_link_delivers_nothing():
    g = chain_with_probs([1.0, 0.0])
    plan = plan_for_chain(g, 2, policy=SwapPolicy.parallel())
    stats = simulate(g, plan, SimConfig(slots=1, policy=SwapPolicy.parallel()))
    assert stats.delivered_total == 0
    assert stats.swap_counters == {}
    # the surviving link is not swapped; sync discards it at slot end
    assert stats.links_generated == 1
    assert stats.entities_disposed == ledger(discarded=1)


def test_doubling_rate_all_links_live():
    # all links up every slot; doubling on 4 hops burns q^3 = 0.125
    g = chain_graph(4, p=1.0, q=0.5)
    plan = plan_for_chain(g, 4)
    slots = 100_000
    stats = simulate(g, plan, SimConfig(slots=slots, seed=5))
    rate = stats.delivered_total / slots
    assert abs(rate - 0.125) <= three_se(0.125, slots)


def test_single_edge_bernoulli_rate():
    g = chain_graph(1, p=0.5)
    plan = plan_for_chain(g, 1)
    slots = 100_000
    stats = simulate(g, plan, SimConfig(slots=slots, seed=8))
    rate = stats.delivered_total / slots
    assert abs(rate - 0.5) <= three_se(0.5, slots)


def test_three_hop_closed_form_rate():
    g = chain_graph(3, p=0.8, q=0.5)
    plan = plan_for_chain(g, 3)
    slots = 100_000
    stats = simulate(g, plan, SimConfig(slots=slots, seed=2))
    want = 0.8**3 * 0.5**2
    rate = stats.delivered_total / slots
    assert abs(rate - want) <= three_se(want, slots)


def test_async_adhoc_beats_sync_with_memory():
    g = chain_graph(3, p=0.8, q=0.5, cutoff=5)
    slots = 50_000
    sync = simulate(g, plan_for_chain(g, 3),
                    SimConfig(forwarding="sync", slots=slots, seed=11))
    adhoc = simulate(
        g, plan_for_chain(g, 3, policy=SwapPolicy.adhoc()),
        SimConfig(forwarding="async", policy=SwapPolicy.adhoc(),
                  slots=slots, seed=11),
    )
    assert set(adhoc.swap_counters) == {"adhoc"}
    assert adhoc.delivered_total > sync.delivered_total


STATIC_POLICIES = (
    SwapPolicy.sequential(), SwapPolicy.doubling(), SwapPolicy.parallel()
)


@st.composite
def sim_cases(draw):
    """A small chain or grid with memory cutoff 1 everywhere, and either a
    proactive plan or reactive requests."""
    chain = draw(st.booleans())
    if chain:
        n = draw(st.integers(1, 4))
        ids = [f"n{i}" for i in range(n + 1)]
        pairs = list(zip(ids, ids[1:]))
    else:
        rows, cols = draw(st.integers(1, 3)), draw(st.integers(2, 3))
        ids = [f"{r},{c}" for r in range(rows) for c in range(cols)]
        pairs = [(f"{r},{c}", f"{r},{c + 1}")
                 for r in range(rows) for c in range(cols - 1)]
        pairs += [(f"{r},{c}", f"{r + 1},{c}")
                  for r in range(rows - 1) for c in range(cols)]
    g = build_graph(
        [NodeParams(id=i, swap_prob=draw(st.sampled_from((0.3, 0.5, 1.0))),
                    memory_cutoff_slots=1) for i in ids],
        [EdgeParams(u=u, v=v, capacity=draw(st.integers(1, 3)),
                    link_prob=draw(st.sampled_from((0.0, 0.4, 0.8, 1.0))))
         for u, v in pairs],
    )
    policy = draw(st.sampled_from(STATIC_POLICIES))
    requests = [
        Request(id=f"r{i}", source=a, dest=b)
        for i, (a, b) in enumerate(
            draw(st.lists(st.lists(st.sampled_from(ids), min_size=2,
                                   max_size=2, unique=True),
                          min_size=1, max_size=3)))
    ]
    if draw(st.booleans()):
        config = dict(scheme="reactive", policy=policy,
                      max_paths_per_request=draw(st.integers(1, 4)),
                      node_disjoint=draw(st.booleans()))
        return g, requests, config
    if not chain:  # the allocator picks routes and mixed widths
        plan = allocate(g, requests, AllocatorConfig(k=2, policy=policy))
        return g, plan, dict(policy=policy)
    # chain: sub-paths with their own widths and policies, explicit trees too
    residual = {pair: g.edge(*pair).capacity for pair in pairs}
    allocations = []
    for i in range(draw(st.integers(1, 3))):
        a, b = sorted(draw(st.lists(st.integers(0, n), min_size=2,
                                    max_size=2, unique=True)))
        hops = pairs[a:b]
        width = draw(st.integers(1, 3))
        if any(residual[pair] < width for pair in hops):
            continue
        for pair in hops:
            residual[pair] -= width
        nodes = ids[a:b + 1]
        path = path_spec_from_nodes(
            g, nodes[::-1] if draw(st.booleans()) else nodes, width=width)
        trees = [SwapPolicy.explicit(t) for t in all_order_trees(b - a)]
        allocations.append(PathAllocation(
            request_id=f"r{i % 2}", path=path,
            policy=draw(st.sampled_from(STATIC_POLICIES + tuple(trees)))))
    plan = AllocationPlan(requests=tuple(requests),
                          allocations=tuple(allocations), residual=())
    return g, plan, dict(policy=policy)


@settings(max_examples=150, deadline=None)
@given(case=sim_cases(), seed=st.integers(0, 2**32))
def test_sync_async_coincide_without_memory(case, seed):
    # with W = 1 nothing outlives its slot, so the count kernel (sync) and
    # the record kernel (async) must see the same links and swap draws
    g, subject, config = case
    sync, async_ = (
        simulate(g, subject, SimConfig(forwarding=mode, slots=120, seed=seed,
                                       **config))
        for mode in ("sync", "async")
    )
    for name in ("per_path", "per_request", "swap_counters",
                 "links_generated", "delivered_total"):
        assert getattr(sync, name) == getattr(async_, name), name
    for reason in ("consumed", "delivered"):
        assert (sync.entities_disposed[reason]
                == async_.entities_disposed[reason]), reason


# sha256 of the simulate reports below, recorded before the sync simulator
# moved from spans to link counts
PINNED_REPORTS_SHA256 = (
    "d78b7da1d02b4415396b79665aabbf807d8068fa8577cc1c5df6ff5051cb87bc"
)


def test_simulate_reports_pinned(tmp_path):
    flag_sets = (
        [],
        ["--mode", "sync"],
        ["--scheme", "reactive", "--policy", "parallel"],
        ["--scheme", "reactive", "--mode", "async", "--policy", "doubling"],
    )
    digest = hashlib.sha256()
    for i, scenario in enumerate(sorted(SCENARIOS.glob("*.json"))):
        for j, flags in enumerate(flag_sets):
            for fmt in ("json", "csv"):
                out = tmp_path / f"{i}-{j}-{fmt}"
                rc = run_command(["simulate", "--scenario", str(scenario),
                                  "--slots", "2000", "--format", fmt,
                                  "--out", str(out), *flags])
                digest.update(
                    f"{scenario.name} {' '.join(flags)} {fmt} -> {rc}\n".encode()
                )
                for report in sorted(out.glob("*")) if rc == 0 else ():
                    digest.update(report.name.encode() + b"\n"
                                  + report.read_bytes())
    assert digest.hexdigest() == PINNED_REPORTS_SHA256


def test_sync_ledger_check_fails_loudly(monkeypatch):
    # a kernel that reports more consumption than the slot created
    from qroute import montecarlo

    kernel = montecarlo._exec_counts

    def overconsume(*args):
        delivered, consumed, segments = kernel(*args)
        return delivered, consumed + 3, segments

    monkeypatch.setattr(montecarlo, "_exec_counts", overconsume)
    g = chain_graph(2, p=1.0, q=1.0)
    with pytest.raises(AssertionError, match="slot 0: consumed 5"):
        simulate(g, plan_for_chain(g, 2), SimConfig(slots=1))


def _lose_a_link(kernel, rp, hops, store, async_kernel, *rest):
    got = kernel(rp, hops, store, async_kernel, *rest)
    next(hop for hop in hops if hop).pop()  # dropped without booking
    return got


def _book_delivery_twice(kernel, rp, hops, store, async_kernel, *rest):
    got = kernel(rp, hops, store, async_kernel, *rest)
    async_kernel.disposed["delivered"] += got
    return got


@pytest.mark.parametrize("fault, probs, message", [
    # hop n1-n2 never links, so the n0-n1 link waits in memory
    (_lose_a_link, [1.0, 0.0], "slot 0: entity ledger broken: created 1 "
                               "!= live 0 \\+ disposed 0"),
    (_book_delivery_twice, [1.0, 1.0], "slot 0: entity ledger broken: "
                                       "created 3 != live 0 \\+ disposed 4"),
])
def test_async_ledger_check_fails_loudly(monkeypatch, fault, probs, message):
    # a kernel that loses a record, or disposes one twice
    from qroute import montecarlo

    kernel = montecarlo._execute_policy
    monkeypatch.setattr(montecarlo, "_execute_policy",
                        lambda *args: fault(kernel, *args))
    g = chain_with_probs(probs, cutoff=5)
    with pytest.raises(AssertionError, match=message):
        simulate(g, plan_for_chain(g, 2),
                 SimConfig(forwarding="async", slots=3))


def memory_chain(n_hops, cap, p=0.6, q=0.5, cutoffs=(3, 2, 4)):
    """A chain whose node i keeps qubits for cutoffs[i % len(cutoffs)] slots."""
    nodes = [NodeParams(id=f"n{i}", swap_prob=q,
                        memory_cutoff_slots=cutoffs[i % len(cutoffs)])
             for i in range(n_hops + 1)]
    edges = [EdgeParams(u=f"n{i}", v=f"n{i+1}", capacity=cap, link_prob=p)
             for i in range(n_hops)]
    return build_graph(nodes, edges)


def chain_plan(g, paths):
    """A plan from (request id, node indices, per-hop widths, policy)."""
    allocations = []
    for rid, idx, widths, policy in paths:
        path = path_spec_from_nodes(g, tuple(f"n{i}" for i in idx), width=1)
        allocations.append(PathAllocation(
            request_id=rid, path=replace(path, per_hop_capacity=widths),
            policy=policy))
    requests = {a.request_id: Request(id=a.request_id, source=a.path.nodes[0],
                                      dest=a.path.nodes[-1])
                for a in allocations}
    return AllocationPlan(requests=tuple(requests.values()),
                          allocations=tuple(allocations), residual=())


def async_memory_cases():
    """(name, graph, plan or requests, config) async runs in which links
    and segments outlive their slot."""
    chain = memory_chain(4, cap=3)
    tree = SwapPolicy.explicit(list(all_order_trees(4))[3])
    for policy in (SwapPolicy.sequential(), SwapPolicy.doubling(),
                   SwapPolicy.parallel(), tree, SwapPolicy.adhoc()):
        # per-hop widths differ, and the path runs against the edge order
        plan = chain_plan(chain, [("r1", (4, 3, 2, 1, 0), (2, 3, 2, 3), policy)])
        yield policy.kind, chain, plan, dict(policy=policy)
    # paths that share edges at different channel offsets
    shared = memory_chain(5, cap=3, p=0.5, cutoffs=(4, 3, 5, 2))
    plan = chain_plan(shared, [
        ("r1", (0, 1, 2, 3), (1, 1, 1), SwapPolicy.adhoc()),
        ("r2", (5, 4, 3, 2, 1), (2, 2, 2, 1), SwapPolicy.doubling()),
        ("r2", (3, 4, 5), (1, 1), SwapPolicy.parallel()),
        ("r1", (0, 1), (2,), SwapPolicy.sequential()),
        ("r3", (1, 2), (1,), SwapPolicy.adhoc()),
    ])
    yield "shared", shared, plan, dict(policy=SwapPolicy.adhoc())
    grid = grid_topology(
        3, 3, default_node=NodeParams(id="", swap_prob=0.5,
                                      memory_cutoff_slots=3),
        default_edge=EdgeParams(u="", v="", capacity=2, link_prob=0.5))
    requests = [Request(id="a", source="0,0", dest="2,2"),
                Request(id="b", source="0,2", dest="2,0"),
                Request(id="c", source="1,0", dest="1,2")]
    for disjoint, policy in ((False, SwapPolicy.adhoc()),
                             (True, SwapPolicy.doubling()),
                             (False, SwapPolicy.sequential()),
                             (True, SwapPolicy.adhoc())):
        yield (f"reactive {disjoint} {policy.kind}", grid, requests,
               dict(scheme="reactive", policy=policy, node_disjoint=disjoint,
                    max_paths_per_request=3))
    # up to three paths a slot bind links off one cap-3 edge's FIFO
    chain = memory_chain(3, cap=3, p=0.7)
    requests = [Request(id="a", source="n0", dest="n3"),
                Request(id="b", source="n1", dest="n3")]
    yield "reactive shared edges", chain, requests, dict(
        scheme="reactive", policy=SwapPolicy.sequential(),
        max_paths_per_request=3)


def bench_async_chain(seed):
    """The bench `sim_async_chain` scenario: 8 hops of width 3, p = 0.6,
    q = 0.5, memory cutoff 5, async adhoc along one explicit path."""
    nodes = [f"n{i}" for i in range(9)]
    return {
        "version": 1,
        "graph": {
            "nodes": [{"id": n, "swap_prob": 0.5, "memory_cutoff_slots": 5}
                      for n in nodes],
            "edges": [{"u": u, "v": v, "capacity": 3, "length_km": 20.0,
                       "link_prob": 0.6} for u, v in zip(nodes, nodes[1:])],
        },
        "elementary_fidelity": 0.99,
        "requests": [{"id": "r0", "source": "n0", "dest": "n8",
                      "rate_target": 1.0, "min_fidelity": 0.9}],
        "sim": {"scheme": "proactive", "forwarding": "async",
                "policy": "adhoc", "slots": 2000, "seed": seed,
                "paths": [{"request": "r0", "nodes": nodes, "width": 3}]},
        "output": {"format": "json"},
    }


# sha256 of the async runs below, recorded before the async simulator moved
# from span objects to per-hop link records
PINNED_ASYNC_SHA256 = (
    "d812a36d04c9c5172344720ccf3b597cc732d6f38403529b1473da6b24b1046f"
)


def test_async_reports_pinned(tmp_path):
    digest = hashlib.sha256()
    for name, g, subject, config in async_memory_cases():
        stats = simulate(g, subject, SimConfig(forwarding="async", slots=1500,
                                               seed=5, **config))
        digest.update(f"{name}\n{json.dumps(stats.to_dict(), sort_keys=True)}\n"
                      .encode())
    for seed in (3, 1_000_003):
        scenario = tmp_path / f"chain-{seed}.json"
        scenario.write_text(json.dumps(bench_async_chain(seed)))
        out = tmp_path / f"out-{seed}"
        assert run_command(["simulate", "--scenario", str(scenario),
                            "--out", str(out)]) == 0
        digest.update((out / "simulate_report.json").read_bytes())
    assert digest.hexdigest() == PINNED_ASYNC_SHA256


def test_async_path_histogram_grows_past_width():
    # segments kept in memory can meet in one slot and deliver more pairs
    # than the path is wide (this overflowed the per-path histogram)
    g = memory_chain(4, cap=3)
    tree = SwapPolicy.explicit(list(all_order_trees(4))[3])
    plan = chain_plan(g, [("r1", (4, 3, 2, 1, 0), (2, 3, 1, 3), tree)])
    stats = simulate(g, plan, SimConfig(forwarding="async", slots=1500, seed=5))
    entry = stats.per_path["r1[0]"]
    assert entry["width"] == 1 and len(entry["hist"]) > 2
    assert sum(entry["hist"]) == 1500
    assert sum(k * c for k, c in enumerate(entry["hist"])) == entry["delivered"]
    assert entry["hist"] == stats.per_request["r1"]["hist"]


def test_simulate_deterministic():
    g = chain_graph(3, p=0.7, q=0.5, cap=2)
    plan = plan_for_chain(g, 3, width=2)
    r1 = simulate(g, plan, SimConfig(slots=3000, seed=42))
    r2 = simulate(g, plan, SimConfig(slots=3000, seed=42))
    assert r1.to_dict() == r2.to_dict()


def test_delivered_bounded_by_width_times_slots():
    g = chain_graph(2, p=1.0, q=1.0, cap=2)
    plan = plan_for_chain(g, 2, width=2)
    slots = 500
    stats = simulate(g, plan, SimConfig(slots=slots, seed=1))
    assert stats.delivered_total == 2 * slots  # perfect links and swaps
    hist = stats.per_path["r1[0]"]["hist"]
    assert len(hist) == 3 and hist[2] == slots


def test_conservation_after_sync_run():
    g = chain_graph(3, p=0.6, q=0.5, cap=2)
    plan = plan_for_chain(g, 3, width=2)
    stats = simulate(g, plan, SimConfig(slots=2000, seed=13))
    disposed = stats.entities_disposed
    created = stats.links_generated + stats.swap_counters.get(
        "doubling", {"successes": 0}
    )["successes"]
    assert sum(disposed.values()) == created
    assert disposed["expired"] == 0  # sync discards before anything ages


def test_swap_counters_tallied():
    g = chain_graph(2, p=1.0, q=0.5)
    plan = plan_for_chain(g, 2)
    stats = simulate(g, plan, SimConfig(slots=1000, seed=3))
    entry = stats.swap_counters["doubling"]
    assert entry["attempts"] == 1000
    assert 0 < entry["successes"] < 1000


def test_multi_path_plan_ownership():
    # two width-1 paths on a shared cap-2 edge: per-path rates stay
    # binomially independent because each owns its own channel
    g = chain_graph(1, p=0.5, cap=2)
    req = Request(id="r1", source="n0", dest="n1")
    path = path_spec_from_nodes(g, ("n0", "n1"), width=1)
    plan = AllocationPlan(
        requests=(req,),
        allocations=(
            PathAllocation(request_id="r1", path=path, policy=SwapPolicy.doubling()),
            PathAllocation(request_id="r1", path=path, policy=SwapPolicy.doubling()),
        ),
        residual=(),
    )
    slots = 40_000
    stats = simulate(g, plan, SimConfig(slots=slots, seed=21))
    for label in ("r1[0]", "r1[1]"):
        rate = stats.per_path[label]["delivered"] / slots
        assert abs(rate - 0.5) <= three_se(0.5, slots)
    # request histogram counts per-slot totals across both paths
    hist = stats.per_request["r1"]["hist"]
    assert sum(hist) == slots
    assert len(hist) == 3  # 0, 1 or 2 pairs per slot
    assert stats.per_request["r1"]["delivered"] == stats.delivered_total


def test_plan_overallocation_rejected():
    g = chain_graph(1, p=0.5, cap=1)
    req = Request(id="r1", source="n0", dest="n1")
    path = path_spec_from_nodes(g, ("n0", "n1"), width=2)
    plan = AllocationPlan(
        requests=(req,),
        allocations=(
            PathAllocation(request_id="r1", path=path,
                           policy=SwapPolicy.doubling()),
        ),
        residual=(),
    )
    with pytest.raises(ValueError, match="overallocates"):
        simulate(g, plan, SimConfig(slots=10, seed=0))


def test_adhoc_under_sync_rejected():
    with pytest.raises(ValueError, match="adhoc"):
        SimConfig(forwarding="sync", policy=SwapPolicy.adhoc())
    # the sync kernel has no adhoc order, so a plan cannot slip one in either
    g = chain_graph(2)
    plan = plan_for_chain(g, 2, policy=SwapPolicy.adhoc())
    with pytest.raises(ValueError, match=r"r1\[0\]: adhoc swapping needs async"):
        simulate(g, plan, SimConfig(slots=1))


def test_proactive_needs_plan_reactive_needs_requests():
    g = chain_graph(1)
    with pytest.raises(ValueError, match="AllocationPlan"):
        simulate(g, [Request(id="r", source="n0", dest="n1")],
                 SimConfig(scheme="proactive", slots=1))
    with pytest.raises(ValueError, match="requests"):
        simulate(g, plan_for_chain(g, 1),
                 SimConfig(scheme="reactive", slots=1))


# --------------------------------------------------------------------------
# reactive scheme


def test_reactive_single_chain_rate():
    # reactive on a bare chain: path exists only when every link came up,
    # then parallel swapping fires, so the rate matches the sync product
    g = chain_graph(3, p=0.8, q=0.5)
    req = Request(id="r1", source="n0", dest="n3")
    slots = 50_000
    stats = simulate(
        g, [req],
        SimConfig(scheme="reactive", policy=SwapPolicy.parallel(),
                  slots=slots, seed=6),
    )
    want = 0.8**3 * 0.5**2
    rate = stats.delivered_total / slots
    assert abs(rate - want) <= three_se(want, slots)


def test_reactive_grid_multi_request():
    g = grid_topology(3, 3, default_edge=None)
    reqs = [
        Request(id="a", source="0,0", dest="2,2"),
        Request(id="b", source="0,2", dest="2,0"),
    ]
    stats = simulate(
        g, reqs,
        SimConfig(scheme="reactive", policy=SwapPolicy.parallel(),
                  slots=3000, seed=14),
    )
    assert set(stats.per_request) == {"a", "b"}
    assert stats.delivered_total >= 0
    # entity ledger: every link plus every delivered lane's segment (the
    # parallel policy only materializes fully merged lanes) is disposed
    disposed = stats.entities_disposed
    assert sum(disposed.values()) == stats.links_generated + stats.delivered_total


def test_reactive_never_consumes_more_than_realized():
    g = grid_topology(2, 3)
    reqs = [Request(id="a", source="0,0", dest="1,2")]
    stats = simulate(
        g, reqs,
        SimConfig(scheme="reactive", policy=SwapPolicy.parallel(),
                  slots=2000, seed=77),
    )
    consumed = stats.entities_disposed["consumed"]
    assert consumed <= 2 * stats.links_generated


# --------------------------------------------------------------------------
# brute-force oracle


def test_oracle_single_hop_equals_binomial():
    path = make_path([2], [0.5], [])
    got = brute_force_distribution(path)
    assert_pmf_close(got.pmf, link_distribution(2, 0.5).pmf, 1e-15)


def test_oracle_two_hop_value():
    path = make_path([1, 1], [0.5, 0.5], [0.5])
    assert_pmf_close(brute_force_distribution(path).pmf, (0.875, 0.125), 1e-15)


def test_oracle_matches_analytics_three_hop():
    path = make_path([2, 1, 2], [0.9, 0.6, 0.7], [0.5, 0.5])
    bf = brute_force_distribution(path)
    assert_pmf_close(bf.pmf, unheralded_path_distribution(path).pmf, 1e-12)
    tree = sequential_tree(3)
    from qroute import heralded_path_distribution

    assert_pmf_close(
        brute_force_distribution(path, tree).pmf,
        heralded_path_distribution(path, tree).pmf,
        1e-12,
    )


def test_oracle_guards_state_space():
    big = make_path([4, 4], [0.5, 0.5], [0.5])
    with pytest.raises(ValueError, match="oracle limited"):
        brute_force_distribution(big)
    long = make_path([1] * 6, [0.5] * 6, [0.5] * 5)
    with pytest.raises(ValueError, match="oracle limited"):
        brute_force_distribution(long)
