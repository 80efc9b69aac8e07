import hashlib
import itertools
import json
import math
import os
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from conftest import assert_pmf_close, chain_graph, hash_run, make_path
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
    max_hops,
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
                           policy=policy or SwapPolicy("doubling")),
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
# keyed draws: the integer thresholds against the float draws they replace

MASK64 = (1 << 64) - 1
GAMMA, M1, M2 = 0x9E3779B97F4A7C15, 0xBF58476D1CE4E5B9, 0x94D049BB133111EB
LINK, SWAP = 0x4C494E4B, 0x53574150  # the two draw domains


def mix(base, *coords):
    """Absorb each coordinate into `base` with one splitmix64 round."""
    h = base
    for c in coords:
        h = (h + GAMMA * (c + 1)) & MASK64
        h = (h ^ (h >> 30)) * M1 & MASK64
        h = (h ^ (h >> 27)) * M2 & MASK64
        h ^= h >> 31
    return h


def float_draw(base, a, b):
    """The reference draw: absorb a, then b, into `base`, and scale the top
    53 bits of the hash into [0, 1)."""
    return (mix(base, a, b) >> 11) * 2.0**-53


def reference_link_counts(runs, base):
    """New links per channel run (edge index, first channel, width), one
    float draw per (edge index, channel)."""
    return {
        run: sum([float_draw(base, run[0], ch) < p
                  for ch in range(run[1], run[1] + run[2])])
        for run, p in runs
    }


class ReferenceSwapDraws:
    """Swap outcomes keyed (slot, node rank, per-node sequence number), one
    float draw each."""

    def __init__(self, rank, base):
        self._rank = rank
        self._base = base
        self.seq = {}

    def successes(self, node, q, m):
        seq = self.seq.get(node, 0)
        self.seq[node] = seq + m
        return [float_draw(self._base, self._rank[node], s) < q
                for s in range(seq, seq + m)]


def neighbours(p):
    return [math.nextafter(p, -math.inf), p, math.nextafter(p, math.inf)]


# 0, 1, k * 2**-53 and their float neighbours, plus plain floats
probs = st.one_of(
    st.sampled_from([0.0, 1.0]),
    st.integers(0, 2**53).map(lambda k: k * 2.0**-53),
    st.floats(0.0, 1.0),
).flatmap(lambda p: st.sampled_from(neighbours(p)))


@pytest.mark.parametrize("p", [
    q for p in (0.0, 2.0**-53, 0.5, 1.0 - 2.0**-53, 1.0) for q in neighbours(p)
] + [3 * 2.0**-1074])  # and a subnormal
def test_threshold_equals_float_comparison_at_its_boundary(p):
    from qroute.draws import _threshold

    t = _threshold(p)
    for h in (0, t - 2049, t - 2048, t - 1, t, t + 2047, MASK64):
        if 0 <= h <= MASK64:
            assert (h < t) == ((h >> 11) * 2.0**-53 < p), (p, h)


@settings(max_examples=200, deadline=None)
@given(
    key=st.integers(0, MASK64),
    first=st.one_of(st.integers(0, 10**6), st.integers(0, 2**62)),
    count=st.integers(1, 12),
    lanes=st.lists(
        st.tuples(st.one_of(st.integers(0, 10**4), st.integers(0, MASK64)),
                  st.one_of(st.integers(0, 10**4), st.integers(0, MASK64)),
                  probs),
        max_size=300,
    ),
)
def test_plane_equals_float_reference(key, first, count, lanes):
    # a block of `count` slots from `first`: slot by slot, lane by lane
    from qroute.draws import _Plane, _slot_bases, _threshold

    bases = _slot_bases(key, first, count)
    assert bases == b"".join(mix(key, slot).to_bytes(16, "little")
                             for slot in range(first, first + count))
    plane = _Plane([(a, b, _threshold(p)) for a, b, p in lanes])
    assert plane.block(bases) == bytes([
        float_draw(mix(key, slot), a, b) < p
        for slot in range(first, first + count) for a, b, p in lanes
    ])


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, MASK64),
    slot=st.integers(0, 10**6),
    edges=st.lists(
        st.tuples(st.integers(0, 10**4),  # edge index
                  st.integers(0, 3),  # first run's first channel
                  st.lists(st.integers(1, 4), min_size=1, max_size=3),  # widths
                  probs),
        min_size=1, max_size=4, unique_by=lambda e: e[0],
    ),
)
def test_link_counts_equal_float_reference(seed, slot, edges):
    from types import SimpleNamespace

    from qroute.draws import KeyedRng, _link_plane, _link_schedule, _slot_bases

    runs = []  # (run, p): several runs per edge, in channel order
    for eidx, start, widths, p in edges:
        for width in widths:
            runs.append(((eidx, start, width), p))
            start += width
    # a stub graph: just the link probability of each edge index drawn
    graph = SimpleNamespace(edges={eidx: SimpleNamespace(link_prob=p)
                                   for eidx, _, _, p in edges})
    schedule = _link_schedule(graph, [run for run, _ in runs])
    want = reference_link_counts(runs, mix(seed, LINK, slot))
    bits = _link_plane(schedule).block(_slot_bases(KeyedRng(seed).link_key,
                                                   slot, 1))
    assert [sum(bits[lo:hi]) for _, lo, hi, _ in schedule] \
        == [want[run] for run, *_ in schedule]


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, MASK64),
    first=st.integers(0, 10**6),
    k=st.integers(0, 3),
    nodes=st.lists(st.tuples(probs, st.integers(0, 8)),  # (q, plane cap)
                   min_size=1, max_size=4),
    calls=st.lists(st.tuples(st.integers(0, 3), st.integers(0, 6), st.booleans()),
                   max_size=12),
)
def test_swap_blocks_equal_float_reference(seed, first, k, nodes, calls):
    # slot first + k of a block; runs of draws stay inside a node's plane
    # cap or cross it, as one block or one byte at a time. Every byte within
    # the cap equals the reference, and the draw that crosses it raises
    from qroute.draws import KeyedRng, _slot_bases, _SwapDraws, _SwapLanes

    qs = [q for q, _ in nodes]
    caps = [cap for _, cap in nodes]
    rank = {f"v{i}": i for i in range(len(qs))}
    want = ReferenceSwapDraws(rank, mix(seed, SWAP, first + k))
    lanes = _SwapLanes(caps, qs)
    bases = _slot_bases(KeyedRng(seed).swap_key, first, k + 2)
    got = _SwapDraws(lanes.plane.block(bases), k, lanes)
    crossed = set()  # nodes whose draws crossed their cap
    for i, m, bytewise in calls:  # each call continues the node's sequence
        i %= len(qs)
        if i in crossed:
            continue
        fit = max(0, min(m, caps[i] - want.seq.get(f"v{i}", 0)))
        expected = bytes(want.successes(f"v{i}", qs[i], m))
        if bytewise:
            assert bytes(got.success(i) for _ in range(fit)) == expected[:fit]
        elif fit == m:
            assert got.successes(i, m) == expected
        if fit < m:
            crossed.add(i)
            with pytest.raises(AssertionError, match="past its plane cap"):
                got.success(i) if bytewise else got.successes(i, m)


@pytest.mark.parametrize("forwarding", ["sync", "async"])
def test_one_hop_run_has_an_empty_swap_plane(forwarding):
    # a one-hop path has no interior node, so its run's swap plane has no lane
    from qroute.draws import KeyedRng, _Plane, _slot_bases
    from qroute.montecarlo import _bind_plan, _swap_lanes

    assert _Plane([]).block(_slot_bases(KeyedRng(3).swap_key, 0, 5)) == b""
    g = chain_graph(1, p=0.6, cap=2)
    plan = plan_for_chain(g, 1, width=2, policy=SwapPolicy("parallel"))
    bound = _bind_plan(g, plan)
    assert _swap_lanes(g, bound).caps == [0, 0]
    stats = simulate(g, plan, SimConfig(forwarding=forwarding, slots=40, seed=4,
                                        policy=SwapPolicy("parallel")))
    assert stats.delivered_total == stats.links_generated > 0
    assert stats.swap_counters == {}


# --------------------------------------------------------------------------
# swapping


@pytest.mark.parametrize(
    "policy",
    [SwapPolicy("sequential"), SwapPolicy("doubling"), SwapPolicy("parallel")],
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
    plan = plan_for_chain(g, 2, policy=SwapPolicy("parallel"))
    stats = simulate(g, plan, SimConfig(slots=1, policy=SwapPolicy("parallel")))
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
        g, plan_for_chain(g, 3, policy=SwapPolicy("adhoc")),
        SimConfig(forwarding="async", policy=SwapPolicy("adhoc"),
                  slots=slots, seed=11),
    )
    assert set(adhoc.swap_counters) == {"adhoc"}
    assert adhoc.delivered_total > sync.delivered_total


STATIC_POLICIES = (
    SwapPolicy("sequential"), SwapPolicy("doubling"), SwapPolicy("parallel")
)


@pytest.mark.parametrize("forwarding", ["sync", "async"])
def test_one_hop_parallel_delivers_every_link(forwarding):
    # a one-hop path has no interior node: each link is already end to end
    g = chain_graph(1, p=0.6, cap=3)
    plan = plan_for_chain(g, 1, width=3, policy=SwapPolicy("parallel"))
    stats = simulate(g, plan, SimConfig(forwarding=forwarding, slots=50, seed=9))
    made = stats.links_generated
    assert made > 0 and stats.delivered_total == made
    assert stats.swap_counters == {}
    assert stats.entities_disposed == ledger(consumed=made, delivered=made)


@pytest.mark.parametrize("forwarding", ["sync", "async"])
@pytest.mark.parametrize("policy", STATIC_POLICIES, ids=lambda p: p.kind)
def test_zero_lane_slot_draws_nothing(forwarding, policy):
    # m-b never links, so path a-m-b never has a lane; had it drawn a swap
    # at m anyway, the later path a-m-c would see other outcomes there
    g = build_graph(
        [NodeParams(id=v, swap_prob=0.5) for v in "ambc"],
        [EdgeParams(u="a", v="m", capacity=2, link_prob=1.0),
         EdgeParams(u="m", v="b", capacity=1, link_prob=0.0),
         EdgeParams(u="m", v="c", capacity=1, link_prob=0.8)],
    )

    def run(*paths):
        plan = AllocationPlan(
            requests=tuple(Request(id=rid, source="a", dest=nodes[-1])
                           for rid, nodes in paths),
            allocations=tuple(
                PathAllocation(request_id=rid, policy=policy,
                               path=path_spec_from_nodes(g, nodes, width=1))
                for rid, nodes in paths),
            residual=(),
        )
        return simulate(g, plan, SimConfig(forwarding=forwarding, slots=200,
                                           seed=4))

    both = run(("dead", "amb"), ("live", "amc"))
    alone = run(("live", "amc"))
    assert both.per_path["dead[0]"]["delivered"] == 0
    assert both.per_path["live[0]"] == alone.per_path["live[0]"]
    assert both.swap_counters == alone.swap_counters
    assert 0 < alone.per_path["live[0]"]["delivered"] < 200


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
        trees = [SwapPolicy("explicit", t) for t in all_order_trees(b - a)]
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


def _exec_counts(rp, counts, draws, tally):
    """The reference swapping kernel on one slot's per-hop link counts;
    returns (delivered, consumed, segments created). The block kernel
    (`_exec_columns`) and the one-link kernel (`_exec_single`) must equal
    it, and `_exec_tree` on a slot that starts empty draws in its order.
    """
    from qroute.montecarlo import _tally

    swaps = rp.swaps
    n = len(counts)
    if rp.schedule is None:  # parallel: lane i takes each interior node's i-th draw
        lanes = min(counts)
        won = [draws.successes(r, lanes) for r in swaps]
        # the all-true column keeps every lane of a one-hop path, which has
        # no interior node to draw at
        delivered = sum(map(all, zip([True] * lanes, *won)))
        _tally(tally, "parallel", lanes * (n - 1), sum(map(sum, won)))
        return delivered, lanes * n, delivered
    pools = {(h, h + 1): c for h, c in enumerate(counts)}
    attempts = successes = 0
    for a, mid, b in rp.schedule:  # post-order: both inputs are filled
        m = min(pools[a, mid], pools[mid, b])
        pools[a, b] = sum(draws.successes(swaps[mid - 1], m))
        attempts += m
        successes += pools[a, b]
    _tally(tally, rp.policy.kind, attempts, successes)
    return pools[0, n], 2 * attempts, successes


def per_slot_sync(graph, plan, config):
    """The proactive sync run slot by slot, the reference for the block
    kernel: each slot's draws come from a one-slot block, its swaps from
    `_exec_counts`, and each histogram counts one slot at a time."""
    from qroute.draws import (
        KeyedRng, _link_plane, _link_schedule, _slot_bases, _SwapDraws,
    )
    from qroute.montecarlo import DISPOSE_REASONS, SimStats, _bind_plan, _swap_lanes

    def count(entry, got):
        entry["hist"] += [0] * (got + 1 - len(entry["hist"]))
        entry["hist"][got] += 1
        entry["delivered"] += got

    rng = KeyedRng(config.seed)
    bound = _bind_plan(graph, plan)
    schedule = _link_schedule(graph, [run for rp in bound for run in rp.channels])
    links, lanes = _link_plane(schedule), _swap_lanes(graph, bound)
    stats = SimStats(slots_run=config.slots, seed=config.seed,
                     scheme="proactive", forwarding="sync",
                     policy=config.policy.kind)
    for rp in bound:
        stats.per_path[rp.label] = {
            "request": rp.request_id, "nodes": list(rp.path.nodes),
            "width": rp.path.width, "delivered": 0,
            "hist": [0] * (rp.path.width + 1)}
    request_ids = sorted({rp.request_id for rp in bound}
                         | {r.id for r in plan.requests})
    stats.per_request = {rid: {"delivered": 0, "hist": [0]}
                         for rid in request_ids}
    tally = {}
    ledger = dict.fromkeys(DISPOSE_REASONS, 0)
    for slot in range(config.slots):
        bits = links.block(_slot_bases(rng.link_key, slot, 1))
        draws = _SwapDraws(lanes.plane.block(_slot_bases(rng.swap_key, slot, 1)),
                           0, lanes)
        made = {run: bits.count(1, lo, hi) for run, lo, hi, _ in schedule}
        created, consumed = sum(made.values()), 0
        totals = dict.fromkeys(request_ids, 0)
        for rp in bound:
            got, used, segments = _exec_counts(
                rp, [made[run] for run in rp.channels], draws, tally)
            consumed += used
            created += segments
            totals[rp.request_id] += got
            count(stats.per_path[rp.label], got)
        for rid, got in totals.items():
            count(stats.per_request[rid], got)
        delivered = sum(totals.values())
        assert consumed + delivered <= created
        stats.delivered_total += delivered
        stats.links_generated += sum(made.values())
        ledger["consumed"] += consumed
        ledger["discarded"] += created - consumed - delivered
        ledger["delivered"] += delivered
    stats.swap_counters = {kind: {"attempts": a, "successes": s}
                           for kind, (a, s) in sorted(tally.items())}
    stats.entities_disposed = ledger
    return stats


GRID = [f"{r},{c}" for r in range(3) for c in range(3)]
GRID_PATHS = [  # every simple path of 1 to 4 hops in a 3x3 grid
    p for p in (
        tuple(GRID[i] for i in idx)
        for n in range(2, 6) for idx in itertools.permutations(range(9), n)
    )
    if all(abs(int(a[0]) - int(b[0])) + abs(int(a[2]) - int(b[2])) == 1
           for a, b in zip(p, p[1:]))
]


@st.composite
def block_cases(draw):
    """A proactive sync plan on a 3x3 grid whose paths may share interior
    nodes, with mixed policies, one-hop paths and links that often fail,
    and a slot count at or around the block size."""
    from qroute.draws import _block_slots
    from qroute.montecarlo import _bind_plan, _swap_lanes

    g = grid_topology(3, 3, default_edge=EdgeParams(u="", v="", capacity=3))
    g = build_graph(
        [NodeParams(id=v, swap_prob=draw(st.sampled_from((0.3, 0.5, 1.0))))
         for v in GRID],
        [replace(e, link_prob=draw(st.sampled_from((0.0, 0.2, 0.7, 1.0))))
         for e in g.edges],
    )
    residual = {(e.u, e.v): e.capacity for e in g.edges}
    allocations = []
    for nodes in draw(st.lists(st.sampled_from(GRID_PATHS), min_size=1,
                               max_size=6)):
        width = draw(st.integers(1, 2))
        keys = [tuple(sorted(pair)) for pair in zip(nodes, nodes[1:])]
        if any(residual[key] < width for key in keys):
            continue
        for key in keys:
            residual[key] -= width
        allocations.append(PathAllocation(
            request_id=f"r{draw(st.integers(0, 2))}",
            path=path_spec_from_nodes(g, nodes, width=width),
            policy=draw(st.sampled_from(STATIC_POLICIES))))
    plan = AllocationPlan(
        requests=(Request(id="r3", source="0,0", dest="2,2"),),  # no path
        allocations=tuple(allocations), residual=())
    bound = _bind_plan(g, plan)
    link_lanes = sum(sum(rp.path.per_hop_capacity) for rp in bound)
    block = _block_slots((range(link_lanes), _swap_lanes(g, bound).plane))
    slots = draw(st.sampled_from((1, block - 1, block, block + 1,
                                  2 * block + 1, draw(st.integers(1, 99)) | 1)))
    return g, plan, max(slots, 1)


@settings(max_examples=60, deadline=None)
@given(case=block_cases(), seed=st.integers(0, MASK64))
def test_block_kernel_equals_per_slot_reference(case, seed):
    g, plan, slots = case
    config = SimConfig(slots=slots, seed=seed)
    got, want = simulate(g, plan, config), per_slot_sync(g, plan, config)
    assert got.to_dict() == want.to_dict()
    assert list(got.swap_counters) == list(want.swap_counters)


@st.composite
def one_link_cases(draw):
    """A path of 1 to 7 hops under `parallel`, `sequential`, `doubling` or
    an explicit tree, whose interior nodes are drawn from 9 ranks; each rank
    gets a count of sequence numbers used before the path, a plane cap that
    covers those and the path's one draw there, and a swap probability."""
    n = draw(st.integers(1, 7))
    tree = SwapPolicy("explicit", draw(st.sampled_from(list(all_order_trees(n)))))
    policy = draw(st.sampled_from(STATIC_POLICIES + (tree,)))
    path = make_path([1] * n, [0.5] * n, [0.5] * (n - 1))
    rank = dict(zip(path.nodes, draw(st.permutations(range(9)))))
    nodes = st.lists(st.integers(0, 4), min_size=9, max_size=9)
    used = draw(nodes)
    caps = [u + 1 + spare for u, spare in zip(used, draw(nodes))]
    return (path, policy, rank, caps, used,
            draw(st.lists(st.sampled_from((0.0, 0.3, 0.5, 1.0)),
                          min_size=9, max_size=9)))


@settings(max_examples=300, deadline=None)
@given(case=one_link_cases(), key=st.integers(0, MASK64), k=st.integers(0, 1))
def test_one_link_walk_equals_counts_reference(case, key, k):
    # reactive sync paths hold one link per hop: the flag walk must draw the
    # very bytes the counts kernel draws on all-ones counts, and no others
    from qroute.draws import _slot_bases, _SwapDraws, _SwapLanes
    from qroute.montecarlo import _exec_single, _RuntimePath

    path, policy, rank, caps, used, probs = case
    rp = _RuntimePath.build("r", path, policy, rank, ())
    lanes = _SwapLanes(caps, probs)
    bases = _slot_bases(key, 7, 2)  # slot k of a two-slot block
    bits = lanes.plane.block(bases)

    def run(kernel):
        draws = _SwapDraws(bits, k, lanes)
        for r, m in enumerate(used):
            draws.successes(r, m)
        tally = {"adhoc": [3, 1]}
        return kernel(draws, tally), tally, draws

    want, want_tally, ref = run(
        lambda draws, tally: _exec_counts(rp, [1] * path.hop_count, draws, tally))
    got, got_tally, walk = run(lambda draws, tally: _exec_single(rp, draws, tally))
    assert got == want
    assert got_tally == want_tally and list(got_tally) == list(want_tally)
    assert walk._seq == ref._seq


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
                hash_run(digest, f"{scenario.name} {' '.join(flags)} {fmt}",
                         ["simulate", "--scenario", str(scenario), "--slots", "2000",
                          "--format", fmt, *flags], tmp_path / f"{i}-{j}-{fmt}")
    assert digest.hexdigest() == PINNED_REPORTS_SHA256


# sha256 of the reactive reports below with `sim.node_disjoint` set, where
# each slot's searches may not enter an earlier path's interior nodes;
# recorded before hop-count searches moved from the heap to a BFS
PINNED_NODE_DISJOINT_SHA256 = (
    "5ce4edf5af3a5169b36007352b5039e55f511fffbed08a7e6485544b65b68829"
)


def test_node_disjoint_reactive_reports_pinned(tmp_path):
    digest = hashlib.sha256()
    for i, source in enumerate(sorted(SCENARIOS.glob("*.json"))):
        data = json.loads(source.read_text())
        data["sim"]["node_disjoint"] = True
        scenario = tmp_path / source.name
        scenario.write_text(json.dumps(data))
        # adhoc (the async chain's policy) needs async forwarding
        for flags in (["--mode", "sync", "--policy", "doubling"],
                      ["--mode", "async"]):
            for fmt in ("json", "csv"):
                hash_run(digest, f"{source.name} {' '.join(flags)} {fmt}",
                         ["simulate", "--scenario", str(scenario), "--scheme", "reactive",
                          *flags, "--slots", "2000", "--format", fmt],
                         tmp_path / f"{i}-{flags[1]}-{fmt}")
    assert digest.hexdigest() == PINNED_NODE_DISJOINT_SHA256


# sha256 of the reactive sync reports below, recorded while reactive sync
# still swapped each found path through the general counts kernel
PINNED_REACTIVE_SYNC_SHA256 = (
    "c78acdea09b2c90ba43f1d5fda35598ee9976ce41dd10971f48daefe86f35697"
)


def test_reactive_sync_reports_pinned(tmp_path):
    digest = hashlib.sha256()
    for i, scenario in enumerate(sorted(SCENARIOS.glob("*.json"))):
        for policy in ("doubling", "sequential"):
            for fmt in ("json", "csv"):
                hash_run(digest, f"{scenario.name} {policy} {fmt}",
                         ["simulate", "--scenario", str(scenario), "--scheme", "reactive",
                          "--mode", "sync", "--policy", policy, "--slots", "2000",
                          "--format", fmt], tmp_path / f"{i}-{policy}-{fmt}")
    assert digest.hexdigest() == PINNED_REACTIVE_SYNC_SHA256


def overconsume_at(monkeypatch, *slots):
    """Make the proactive sync kernel report 3 more entities consumed in
    each of `slots` than it consumed; returns the first slot of each block
    run in this process. A forked worker runs the patch on its own blocks."""
    from qroute import montecarlo

    kernel, plane_blocks = montecarlo._exec_columns, montecarlo._plane_blocks
    firsts = []

    def blocks(*args):
        for block in plane_blocks(*args):
            firsts.append(block[0])
            yield block

    def overconsume(*args):
        delivered, consumed, *rest = kernel(*args)
        consumed = list(consumed)
        for slot in slots:
            if 0 <= slot - firsts[-1] < len(consumed):
                consumed[slot - firsts[-1]] += 3
        return (delivered, consumed, *rest)

    monkeypatch.setattr(montecarlo, "_plane_blocks", blocks)
    monkeypatch.setattr(montecarlo, "_exec_columns", overconsume)
    return firsts


def test_sync_ledger_check_fails_loudly(monkeypatch):
    # a kernel that reports more consumption than the slot created
    overconsume_at(monkeypatch, 0)
    g = chain_graph(2, p=1.0, q=1.0)
    with pytest.raises(AssertionError, match="slot 0: consumed 5"):
        simulate(g, plan_for_chain(g, 2), SimConfig(slots=1))


def test_sync_ledger_check_names_a_slot_in_a_later_block(monkeypatch):
    # blocks of 2,048 slots; on one CPU both run here, and on two the
    # second runs in a forked worker, whose tally carries the failure
    g = chain_graph(2, p=1.0, q=1.0)
    for cpus in (1, 2):
        with monkeypatch.context() as patch:
            firsts = overconsume_at(patch, 2100)
            workers = usable_cpus(patch, cpus)
            # `failed` keeps the traceback, and with it simulate's frame, alive
            with pytest.raises(AssertionError, match="slot 2100: consumed 5 ") as failed:
                simulate(g, plan_for_chain(g, 2), SimConfig(slots=2500))
            if cpus == 1 or not hasattr(os, "fork"):
                assert firsts == [0, 2048] and workers == []
            else:  # the failed run reaped its worker
                assert firsts == [0] and len(workers) == 1
                with pytest.raises(ChildProcessError):
                    os.waitpid(-1, os.WNOHANG)
            assert failed.traceback


def test_reactive_sync_ledger_check_fails_loudly(monkeypatch):
    # reactive sync runs slot by slot, each path through `_exec_single`
    from qroute import montecarlo

    kernel = montecarlo._exec_single

    def overconsume(*args):
        delivered, consumed, segments = kernel(*args)
        return delivered, consumed + 3, segments

    monkeypatch.setattr(montecarlo, "_exec_single", overconsume)
    g = chain_graph(2, p=1.0, q=1.0)
    with pytest.raises(AssertionError,
                       match=r"slot 0: consumed 5 \+ delivered 1 > created 3"):
        simulate(g, [Request(id="r1", source="n0", dest="n2")],
                 SimConfig(scheme="reactive", slots=1))


needs_fork = pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork here")


def usable_cpus(monkeypatch, count):
    """Let a run use `count` CPUs on any host with `os.fork`: a run of two
    or more blocks splits its slots into that many ranges, at most one per
    block (per three for async), and forks a worker for each but the
    first; returns the pids of the processes forked."""
    pids = []
    fork = getattr(os, "fork", None)

    def counted():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "sched_getaffinity", lambda _: set(range(count)),
                        raising=False)
    if fork is not None:
        monkeypatch.setattr(os, "fork", counted)
    return pids


@settings(max_examples=40, deadline=None)
@given(case=sim_cases(), seed=st.integers(0, MASK64), slots=st.integers(1, 60),
       block_lanes=st.integers(1, 64))
def test_sharded_sync_runs_equal_the_serial_run(case, seed, slots, block_lanes):
    # a sync slot keeps nothing from the slot before and its draws are keyed
    # by slot, so any split into slot ranges merges to the serial result;
    # small blocks give runs of many blocks, most ending in a partial one
    from qroute import draws
    from qroute.montecarlo import _Run

    g, subject, config = case
    config = SimConfig(slots=slots, seed=seed, **config)
    with pytest.MonkeyPatch.context() as patch:
        usable_cpus(patch, 1)
        want = simulate(g, subject, config).to_dict()
        patch.setattr(draws, "_BLOCK_LANES", block_lanes)
        run = _Run(g, subject, config)
        step = draws._block_slots((run.links, run.swap_lanes.plane))
        for cpus in (1, 2, 3):
            with pytest.MonkeyPatch.context() as shards:
                workers = usable_cpus(shards, cpus)
                assert simulate(g, subject, config).to_dict() == want
            if hasattr(os, "fork"):  # at most one range per block
                assert len(workers) == min(cpus, len(range(0, slots, step))) - 1


def count_takes(monkeypatch):
    """Record each worker block tally this process takes: each one it
    starts its state from (`_Run.start`)."""
    from qroute.montecarlo import _Run

    taken, start = [], _Run.start

    def counted(run, done=None):
        if done:
            taken.append(done)
        start(run, done)

    monkeypatch.setattr(_Run, "start", counted)
    return taken


def no_child_left():
    with pytest.raises(ChildProcessError):  # every worker was reaped
        os.waitpid(-1, os.WNOHANG)


@needs_fork
@pytest.mark.parametrize("scheme", ["proactive", "reactive"])
def test_forked_draw_blocks_equal_in_process_blocks(monkeypatch, scheme):
    # an async worker's blocks equal the ones this process would run: the
    # proactive plan of a 3-hop width-2 chain, or reactive runs on a 3x3
    # grid of capacity 2, with memory, over six blocks and a partial one;
    # the worker starts a block early from empty memory, and its blocks
    # count from where its state meets this process's
    from qroute.draws import _block_slots
    from qroute.montecarlo import _Run

    if scheme == "proactive":
        g = memory_chain(3, cap=2, p=0.6)
        subject = plan_for_chain(g, 3, width=2, policy=SwapPolicy("adhoc"))
    else:
        g = grid_topology(3, 3, default_node=NodeParams(id="", swap_prob=0.5,
                                                        memory_cutoff_slots=3),
                          default_edge=EdgeParams(u="", v="", capacity=2, link_prob=0.7))
        subject = [Request(id="a", source="0,0", dest="2,2"),
                   Request(id="b", source="0,2", dest="1,0")]
    config = SimConfig(scheme=scheme, forwarding="async", seed=11,
                       policy=SwapPolicy("adhoc" if scheme == "proactive" else "doubling"))
    run = _Run(g, subject, config)
    config = replace(config, slots=6 * _block_slots((run.links, run.swap_lanes.plane)) + 5)
    with monkeypatch.context() as serial:
        usable_cpus(serial, 1)
        want = simulate(g, subject, config).to_dict()
    taken = count_takes(monkeypatch)
    workers = usable_cpus(monkeypatch, 2)
    assert simulate(g, subject, config).to_dict() == want
    # the worker's two extra blocks count as work: it gets the last three
    assert len(workers) == 1 and len(taken) == 3
    no_child_left()


@pytest.mark.parametrize("case", ["one block", "one cpu", "no fork"])
def test_draw_blocks_in_process_without_two_blocks_cpus_or_fork(monkeypatch, case):
    # sync and async runs alike stay one slot range, their plane blocks
    # drawn in this process; seven blocks would split on two CPUs
    g = chain_graph(2, p=0.7, q=0.6, cap=2, cutoff=4)
    plan = plan_for_chain(g, 2, width=2)
    configs = [SimConfig(forwarding=forwarding, seed=4,  # blocks of 1,024 slots
                         slots=1000 if case == "one block" else 7000)
               for forwarding in ("sync", "async")]
    want = [simulate(g, plan, config).to_dict() for config in configs]

    def fork():
        raise AssertionError("forked")

    monkeypatch.setattr(os, "fork", fork, raising=False)
    if case == "one cpu":
        monkeypatch.setattr(os, "sched_getaffinity", lambda _: {0}, raising=False)
    elif case == "no fork":
        monkeypatch.delattr(os, "fork")
    assert [simulate(g, plan, config).to_dict() for config in configs] == want


@needs_fork
def test_kernel_failure_reaps_a_worker_blocked_on_a_full_pipe(monkeypatch):
    # a worker's tallies padded past what a pipe holds, so the worker is
    # still writing when this process's range fails its async ledger check
    # at slot 0
    from qroute import montecarlo

    kernel, tally = montecarlo._execute_policy, montecarlo._Run.tally
    monkeypatch.setattr(montecarlo, "_execute_policy",
                        lambda *args: _book_delivery_twice(kernel, *args))
    monkeypatch.setattr(montecarlo._Run, "tally",
                        lambda *args: {**tally(*args), "pad": bytes(1 << 20)})
    workers = usable_cpus(monkeypatch, 2)
    g = chain_with_probs([1.0, 1.0], cutoff=5)
    with pytest.raises(AssertionError, match="slot 0: entity ledger broken") as failed:
        simulate(g, plan_for_chain(g, 2),
                 SimConfig(forwarding="async", slots=6 * 2048))
    assert len(workers) == 1
    no_child_left()
    assert failed.traceback  # kept alive until here


@needs_fork
@pytest.mark.parametrize("failing, cpus", [
    ((5000,), 2),  # in the worker's range
    ((3000, 5000), 3),  # in both workers' ranges: the earlier slot wins
    ((100, 5000), 2),  # in this process's range, before the worker's
])
def test_sharded_ledger_failure_raises_the_serial_error(monkeypatch, failing, cpus):
    # blocks of 2,048 slots: ranges from slot 0, 2,048 (three CPUs) and 4,096
    g = chain_graph(2, p=1.0, q=1.0)
    plan, config = plan_for_chain(g, 2), SimConfig(slots=3 * 2048 + 5)
    with monkeypatch.context() as serial:
        overconsume_at(serial, *failing)
        usable_cpus(serial, 1)
        with pytest.raises(AssertionError) as want:
            simulate(g, plan, config)
    assert str(want.value).startswith(f"slot {failing[0]}: consumed 5 ")
    overconsume_at(monkeypatch, *failing)
    workers = usable_cpus(monkeypatch, cpus)
    with pytest.raises(AssertionError) as got:
        simulate(g, plan, config)
    assert str(got.value) == str(want.value)
    assert len(workers) == cpus - 1
    with pytest.raises(ChildProcessError):  # every worker was reaped
        os.waitpid(-1, os.WNOHANG)


@needs_fork
def test_failed_worker_raises_runtime_error_and_exits_two(monkeypatch, tmp_path, capsys):
    from qroute import montecarlo

    parent, tally = os.getpid(), montecarlo._Run.tally

    def crash(*args):
        if os.getpid() != parent:
            raise MemoryError("worker")
        return tally(*args)

    monkeypatch.setattr(montecarlo._Run, "tally", crash)
    workers = usable_cpus(monkeypatch, 2)
    g = chain_graph(2, p=0.7, q=0.6, cap=2)
    # blocks of 1,024 slots; an async worker's warm-up and probe blocks
    # count as blocks of its range's share
    for forwarding, slots, first in (("sync", 5000, 2048), ("async", 7000, 4096)):
        with pytest.raises(RuntimeError, match=f"^worker for slots {first} to {slots} "
                                               "stopped, exit code 1: MemoryError: worker$"):
            simulate(g, plan_for_chain(g, 2, width=2),
                     SimConfig(forwarding=forwarding, slots=slots))
        assert run_command(["simulate", "--scenario", str(SCENARIOS / "two_hop_chain.json"),
                            "--mode", forwarding, "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith("qroute: RuntimeError: worker for slots ")
    assert len(workers) == 4
    no_child_left()


@needs_fork
def test_worker_that_stops_short_leaves_its_blocks_to_this_process(monkeypatch):
    # a worker that sends its warm-up and first block only: this process
    # takes that block and runs the worker's other two itself; one that
    # sends nothing and exits 0 raises
    from types import SimpleNamespace

    import marshal

    from qroute import draws

    g = chain_graph(2, p=0.7, q=0.6, cap=2, cutoff=3)
    plan, config = plan_for_chain(g, 2, width=2), SimConfig(forwarding="async", slots=7000)
    with monkeypatch.context() as serial:
        usable_cpus(serial, 1)
        want = simulate(g, plan, config).to_dict()
    taken = count_takes(monkeypatch)
    usable_cpus(monkeypatch, 2)
    short = SimpleNamespace(dumps=lambda parts: marshal.dumps(parts[:2]),
                            loads=marshal.loads)
    monkeypatch.setattr(draws, "marshal", short)
    assert simulate(g, plan, config).to_dict() == want
    assert len(taken) == 1
    short.dumps = lambda parts: b""
    with pytest.raises(RuntimeError, match="^worker for slots 4096 to 7000 stopped, "
                                           "exit code 0$"):
        simulate(g, plan, config)
    no_child_left()


def test_async_state_fingerprint_ranks_ids():
    # the kernels read ids only through their order, so the fingerprint
    # replaces each by its rank: ids shifted by an offset give the same
    # fingerprint, and two records in the other id order, or a segment that
    # expires at another slot, give another
    from qroute.montecarlo import _Run

    g = chain_graph(3, cap=2, cutoff=3)
    policy = SwapPolicy("adhoc")
    plan = plan_for_chain(g, 3, width=2, policy=policy)
    config = SimConfig(forwarding="async", policy=policy)

    def state(offset, swap=False, expiry=7):
        run = _Run(g, plan, config)
        first, _, last = run.kernel.runs.values()
        (store,) = run.held
        link, seg = offset + 3, offset + 1
        if swap:
            link, seg = seg, link
        first.append((offset, 4, 4, 0))
        last.append((link, 6, 6, 1))
        store.ends[2].append((seg, 4, 5, 0, 2, expiry))
        store.starts[0].append((seg, 4, 5, 0, 2, expiry))
        return run.kernel.state(run.held)

    assert state(0) == state(100)
    assert state(0) != state(0, swap=True)
    assert state(0) != state(0, expiry=8)
    # a run started from a tally's state has that state, its adhoc
    # segments filed again under the node each starts at, and its ledger
    # balanced
    run = _Run(g, plan, config)
    run.start({"state": state(100), "ledger": ledger(expired=2)})
    assert run.kernel.state(run.held) == state(0)
    assert run.held[0].starts[0] == [(1, 4, 5, 0, 2, 7)]
    assert run.kernel.next_id == 3 + 2
    assert run.kernel.disposed == ledger(expired=2)


@needs_fork
@pytest.mark.parametrize("policy, cutoff, sent, taken", [("adhoc", 5, 6, 5),
                                                        ("doubling", 100, 2, 0)])
def test_split_async_run_takes_worker_blocks_from_where_states_meet(monkeypatch, policy,
                                                                    cutoff, sent, taken):
    # a 4-hop width-2 chain over 12 blocks, the worker's range the last
    # five, as its warm-up and probe blocks count as work. Under adhoc at
    # cutoff 5 the worker's state meets this process's at its range's first
    # block, so it sends its warm-up and all five, and this process takes
    # them. Under doubling at cutoff 100 they never meet: the worker's probe
    # misses, so it ends after its first block, and this process runs all
    # five
    import marshal
    from types import SimpleNamespace

    from qroute import draws

    g = chain_graph(4, p=0.6, q=0.5, cap=2, cutoff=cutoff)
    plan = plan_for_chain(g, 4, width=2, policy=SwapPolicy(policy))
    config = SimConfig(forwarding="async", policy=SwapPolicy(policy), slots=6000, seed=7)
    with monkeypatch.context() as serial:
        usable_cpus(serial, 1)
        want = simulate(g, plan, config).to_dict()
    takes, received = count_takes(monkeypatch), []

    def loads(data):  # each worker's tallies, as this process reads them
        received.append(marshal.loads(data))
        return received[-1]

    monkeypatch.setattr(draws, "marshal", SimpleNamespace(dumps=marshal.dumps, loads=loads))
    workers = usable_cpus(monkeypatch, 2)
    assert simulate(g, plan, config).to_dict() == want
    assert len(workers) == 1 and [len(parts) for parts in received] == [sent]
    assert len(takes) == taken
    no_child_left()


@st.composite
def async_split_cases(draw):
    """A chain of up to 4 hops whose nodes keep qubits for 1 to 100 slots,
    so a worker's state may meet the serial run's soon, late or never;
    under `adhoc`, `doubling`, `sequential` or `parallel`, with a
    proactive plan along it, or reactive requests on it."""
    n = draw(st.integers(1, 4))
    cap = draw(st.integers(1, 3))
    g = build_graph(
        [NodeParams(id=f"n{i}", swap_prob=draw(st.sampled_from((0.3, 0.5, 1.0))),
                    memory_cutoff_slots=draw(st.integers(1, 100)))
         for i in range(n + 1)],
        [EdgeParams(u=f"n{i}", v=f"n{i + 1}", capacity=cap,
                    link_prob=draw(st.sampled_from((0.4, 0.8, 1.0))))
         for i in range(n)],
    )
    policy = SwapPolicy(draw(st.sampled_from(("adhoc", "doubling", "sequential",
                                              "parallel"))))
    if draw(st.booleans()):
        ends = draw(st.lists(st.lists(st.integers(0, n), min_size=2, max_size=2,
                                      unique=True), min_size=1, max_size=2))
        return g, [Request(id=f"r{i}", source=f"n{a}", dest=f"n{b}")
                   for i, (a, b) in enumerate(ends)], dict(
            scheme="reactive", policy=policy,
            max_paths_per_request=draw(st.integers(1, 3)))
    return g, plan_for_chain(g, n, width=draw(st.integers(1, cap)),
                             policy=policy), dict(policy=policy)


@settings(max_examples=40, deadline=None)
@given(case=async_split_cases(), seed=st.integers(0, MASK64), slots=st.integers(1, 300),
       block_lanes=st.integers(1, 64))
def test_split_async_runs_equal_the_serial_run(case, seed, slots, block_lanes):
    # a worker's blocks count only from where its state meets the serial
    # one, so any split into slot ranges merges to the serial result; small
    # blocks give runs of many blocks, most ending in a partial one
    from qroute import draws
    from qroute.montecarlo import _Run

    g, subject, config = case
    config = SimConfig(forwarding="async", slots=slots, seed=seed, **config)
    with pytest.MonkeyPatch.context() as patch:
        usable_cpus(patch, 1)
        want = simulate(g, subject, config).to_dict()
        patch.setattr(draws, "_BLOCK_LANES", block_lanes)
        run = _Run(g, subject, config)
        step = draws._block_slots((run.links, run.swap_lanes.plane))
        for cpus in (1, 2, 3):
            with pytest.MonkeyPatch.context() as shards:
                workers = usable_cpus(shards, cpus)
                assert simulate(g, subject, config).to_dict() == want
            if hasattr(os, "fork"):  # at most one range per three blocks, every worker reaped
                assert len(workers) == max(1, min(cpus, len(range(0, slots, step)) // 3)) - 1
                no_child_left()


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
    tree = SwapPolicy("explicit", list(all_order_trees(4))[3])
    for policy in (SwapPolicy("sequential"), SwapPolicy("doubling"),
                   SwapPolicy("parallel"), tree, SwapPolicy("adhoc")):
        # per-hop widths differ, and the path runs against the edge order
        plan = chain_plan(chain, [("r1", (4, 3, 2, 1, 0), (2, 3, 2, 3), policy)])
        yield policy.kind, chain, plan, dict(policy=policy)
    # paths that share edges at different channel offsets
    shared = memory_chain(5, cap=3, p=0.5, cutoffs=(4, 3, 5, 2))
    plan = chain_plan(shared, [
        ("r1", (0, 1, 2, 3), (1, 1, 1), SwapPolicy("adhoc")),
        ("r2", (5, 4, 3, 2, 1), (2, 2, 2, 1), SwapPolicy("doubling")),
        ("r2", (3, 4, 5), (1, 1), SwapPolicy("parallel")),
        ("r1", (0, 1), (2,), SwapPolicy("sequential")),
        ("r3", (1, 2), (1,), SwapPolicy("adhoc")),
    ])
    yield "shared", shared, plan, dict(policy=SwapPolicy("adhoc"))
    grid = grid_topology(
        3, 3, default_node=NodeParams(id="", swap_prob=0.5,
                                      memory_cutoff_slots=3),
        default_edge=EdgeParams(u="", v="", capacity=2, link_prob=0.5))
    requests = [Request(id="a", source="0,0", dest="2,2"),
                Request(id="b", source="0,2", dest="2,0"),
                Request(id="c", source="1,0", dest="1,2")]
    for disjoint, policy in ((False, SwapPolicy("adhoc")),
                             (True, SwapPolicy("doubling")),
                             (False, SwapPolicy("sequential")),
                             (True, SwapPolicy("adhoc"))):
        yield (f"reactive {disjoint} {policy.kind}", grid, requests,
               dict(scheme="reactive", policy=policy, node_disjoint=disjoint,
                    max_paths_per_request=3))
    # up to three paths a slot bind links off one cap-3 edge's FIFO
    chain = memory_chain(3, cap=3, p=0.7)
    requests = [Request(id="a", source="n0", dest="n3"),
                Request(id="b", source="n1", dest="n3")]
    yield "reactive shared edges", chain, requests, dict(
        scheme="reactive", policy=SwapPolicy("sequential"),
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


def _pop_lowest(links, segs, m, link_far, far, index):
    """Pop the m lowest-id records off a hop's links and an id-ordered
    segment list; return (far end position, record) pairs. A popped segment
    also leaves `index`, which files it under its far end `seg[far]`."""
    if not segs:
        taken = [(link_far, r) for r in links[:m]]
        del links[:m]
        return taken
    taken = []
    i = k = 0
    while i + k < m:
        if i < len(links) and (k == len(segs) or links[i][0] < segs[k][0]):
            taken.append((link_far, links[i]))
            i += 1
        else:
            seg = segs[k]
            index[seg[far]].remove(seg)
            taken.append((seg[far], seg))
            k += 1
    del links[:i], segs[:k]
    return taken


def _exec_adhoc(rp, hops, store, kernel, draws, tally):
    """The reference adhoc kernel, which merges each side's links and
    segments record by record and pairs (far end, record) tuples; the
    simulator's `_exec_adhoc` must equal it in results and draws."""
    from qroute.montecarlo import _tally

    swaps = rp.swaps
    n = rp.path.hop_count
    ends, starts, cut = store.ends, store.starts, store.cutoffs
    next_id = kernel.next_id
    attempts = delivered = 0
    if n == 1:  # a link is already end to end
        delivered = len(hops[0])
        hops[0].clear()
    for j in range(1, n):
        m = min(len(hops[j - 1]) + len(ends[j]), len(hops[j]) + len(starts[j]))
        if not m:
            continue
        attempts += m
        lefts = _pop_lowest(hops[j - 1], ends[j], m, j - 1, 3, starts)
        rights = _pop_lowest(hops[j], starts[j], m, j + 1, 4, ends)
        won = draws.successes(swaps[j - 1], m)
        for (a, left), (b, right), ok in zip(lefts, rights, won):
            if not ok:
                continue
            if a == 0 and b == n:
                delivered += 1
            else:
                lb = left[1]
                rb = right[2]
                seg = (next_id, lb, rb, a, b, min(lb + cut[a], rb + cut[b]))
                ends[b].append(seg)
                starts[a].append(seg)
            next_id += 1
    _tally(tally, "adhoc", attempts, next_id - kernel.next_id)
    kernel.next_id = next_id
    kernel.disposed["consumed"] += 2 * attempts
    kernel.disposed["delivered"] += delivered
    return delivered


ADHOC_CASES = [name for name, *_, config in async_memory_cases()
               if config["policy"].kind == "adhoc"]


@pytest.mark.parametrize("seed", (5, 12))
@pytest.mark.parametrize("name", ADHOC_CASES)
def test_adhoc_kernel_equals_pair_reference(monkeypatch, name, seed):
    # proactive, shared edges, and reactive with node_disjoint off and on:
    # the same stats, and the same swap bytes drawn at each node each slot
    from qroute import montecarlo

    ((g, subject, config),) = [case[1:] for case in async_memory_cases()
                               if case[0] == name]

    def run():
        slots = []

        class Draws(montecarlo._SwapDraws):
            def __init__(self, *args):
                super().__init__(*args)
                slots.append(self)

        with monkeypatch.context() as patch:
            patch.setattr(montecarlo, "_SwapDraws", Draws)
            stats = simulate(g, subject, SimConfig(forwarding="async", slots=1500,
                                                   seed=seed, **config))
        return stats, [d._seq for d in slots]

    got, got_draws = run()
    monkeypatch.setattr(montecarlo, "_exec_adhoc", _exec_adhoc)
    want, want_draws = run()
    assert got.swap_counters["adhoc"]["successes"] > 0
    assert got == want
    assert got_draws == want_draws


def test_adhoc_pairs_mixed_sides_in_id_order():
    # node 2 of a 5-hop path: its left side holds links of hop 1 and
    # segments (0, 2), its right side links of hop 2 and segments (2, 4)
    # and (2, 5), with ids interleaved across the two kinds on each side
    from types import SimpleNamespace

    from qroute.montecarlo import DISPOSE_REASONS, _exec_adhoc, _PathStore, _RuntimePath

    path = make_path([3] * 5, [0.5] * 5, [0.5] * 4)
    rp = _RuntimePath.build("r", path, SwapPolicy("adhoc"),
                            {v: i for i, v in enumerate(path.nodes)}, ())
    runs = [[] for _ in range(5)]
    store = _PathStore(rp, runs, (10,) * 6)

    def link(i, hop):
        runs[hop].append((i, 10 * i, 10 * i, 0))

    def seg(i, a, b):
        s = (i, 10 * i, 10 * i + 1, a, b, 99)
        store.ends[b].append(s)
        store.starts[a].append(s)

    link(1, 1), seg(2, 0, 2), seg(3, 2, 4), link(4, 1), link(5, 2)
    seg(6, 0, 2), seg(7, 2, 5), link(8, 2), link(9, 1)
    kernel = SimpleNamespace(next_id=20, disposed=dict.fromkeys(DISPOSE_REASONS, 0))
    draws = SimpleNamespace(successes=lambda rank, m: b"\x01" * m)
    tally = {}
    assert _exec_adhoc(rp, runs, store, kernel, draws, tally) == 0
    # left 1 (link), 2 (seg), 4 (link), 6 (seg) meet right 3 (seg), 5 (link),
    # 7 (seg), 8 (link) in id order, and link 9 waits. A new segment takes
    # its left record's left birth and far end, and its right record's
    made = [(20, 10, 31, 1, 4, 20), (21, 20, 50, 0, 3, 30),
            (22, 40, 71, 1, 5, 50), (23, 60, 80, 0, 3, 70)]
    # each sits under the node it ends at and the one it starts at, and no
    # popped segment stays in either list
    assert sorted(store.ends[3] + store.ends[4] + store.ends[5]) == made
    assert sorted(store.starts[0] + store.starts[1]) == made
    assert store.ends[2] == store.starts[2] == []
    assert runs[1] == [(9, 90, 90, 0)] and runs[2] == []
    assert tally == {"adhoc": [4, 4]} and kernel.next_id == 24


def test_take_hands_owned_runs_whole_and_cuts_shared_ones():
    # a reactive path one link wide, over a capacity-1 edge and a
    # capacity-3 edge: it owns the first run, and shares the second
    from qroute.draws import _link_schedule
    from qroute.montecarlo import _AsyncKernel, _RuntimePath

    g = build_graph([NodeParams(id=f"n{i}", swap_prob=0.5) for i in range(3)],
                    [EdgeParams(u="n0", v="n1", capacity=1, link_prob=0.5),
                     EdgeParams(u="n1", v="n2", capacity=3, link_prob=0.5)])
    runs = [(i, 0, e.capacity) for i, e in enumerate(g.edges)]
    kernel = _AsyncKernel(g, _link_schedule(g, runs))
    assert kernel.generate(b"\x01" * 4, 0) == 4
    path = path_spec_from_nodes(g, ("n0", "n1", "n2"), width=1)
    rp = _RuntimePath.build("r", path, SwapPolicy("adhoc"), g.node_rank, runs)
    store = kernel.bind(rp)
    owned, shared = store.runs
    assert not store.owned
    hops = kernel.take(rp, store)
    assert hops[0] is owned and hops[1] == [(1, 0, 0, 0)]
    assert shared == [(2, 0, 0, 1), (3, 0, 0, 2)]
    kernel.end_slot(0, [store])  # the unused link goes back in front
    assert shared == [(1, 0, 0, 0), (2, 0, 0, 1), (3, 0, 0, 2)]


def test_async_path_histogram_grows_past_width():
    # segments kept in memory can meet in one slot and deliver more pairs
    # than the path is wide (this overflowed the per-path histogram)
    g = memory_chain(4, cap=3)
    tree = SwapPolicy("explicit", list(all_order_trees(4))[3])
    plan = chain_plan(g, [("r1", (4, 3, 2, 1, 0), (2, 3, 1, 3), tree)])
    stats = simulate(g, plan, SimConfig(forwarding="async", slots=1500, seed=5))
    entry = stats.per_path["r1[0]"]
    assert entry["width"] == 1 and len(entry["hist"]) > 2
    assert sum(entry["hist"]) == 1500
    assert sum(k * c for k, c in enumerate(entry["hist"])) == entry["delivered"]
    assert entry["hist"] == stats.per_request["r1"]["hist"]


@st.composite
def per_hop_width_cases(draw):
    """An async proactive plan on a chain of 2 to 6 hops with node cutoffs 1
    to 8, and 100 to 300 slots: 1 to 3 paths of at least two hops, some
    against edge order, each with per-hop widths 1 to 4 and its own policy,
    a tree or adhoc; paths that share an edge bind it at different channel
    offsets."""
    n = draw(st.integers(2, 6))
    paths = []
    for i in range(draw(st.integers(1, 3))):
        lo = draw(st.integers(0, n - 2))
        idx = tuple(range(lo, draw(st.integers(lo + 2, n)) + 1))
        hops = len(idx) - 1
        trees = list(all_order_trees(hops))
        tree = SwapPolicy("explicit", draw(st.sampled_from(trees)))
        paths.append((
            f"r{i}", idx[::-1] if draw(st.booleans()) else idx,
            tuple(draw(st.lists(st.integers(1, 4), min_size=hops, max_size=hops))),
            draw(st.sampled_from(STATIC_POLICIES + (tree, SwapPolicy("adhoc")))),
        ))
    g = memory_chain(n, cap=12, p=draw(st.sampled_from((0.3, 0.6, 0.9))),
                     q=draw(st.sampled_from((0.5, 0.8, 1.0))),
                     cutoffs=draw(st.lists(st.integers(1, 8), min_size=1,
                                           max_size=n + 1)))
    return g, chain_plan(g, paths), draw(st.integers(100, 300))


def scalar_swap_draws(graph, seed):
    """A stand-in for `_SwapDraws` with no plane and no cap: each draw is
    one `float_draw`, and each instance is the next slot of the run, as
    `simulate` makes one per slot in order."""
    qs = [v.swap_prob for v in graph.nodes]  # by rank
    slots = itertools.count()

    class Draws:
        def __init__(self, *_):
            self.ref = ReferenceSwapDraws(range(len(qs)), mix(seed, SWAP, next(slots)))

        def successes(self, rank, m):
            return bytes(self.ref.successes(rank, qs[rank], m))

        def success(self, rank):
            return self.successes(rank, 1)[0]

    return Draws


@settings(max_examples=60, deadline=None)
@given(case=per_hop_width_cases(), seed=st.integers(0, MASK64))
def test_plane_draws_equal_scalar_reference_on_per_hop_widths(case, seed):
    # an async slot may draw up to a path's widest hop at a node: the plane
    # caps must hold every draw, and each one must equal the scalar draw
    from qroute import montecarlo

    g, plan, slots = case
    config = SimConfig(forwarding="async", slots=slots, seed=seed)
    got = simulate(g, plan, config)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(montecarlo, "_SwapDraws", scalar_swap_draws(g, seed))
        want = simulate(g, plan, config)
    assert got == want


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


@pytest.mark.parametrize("forwarding", ["sync", "async"])
def test_swap_counter_keys_follow_kind_order(forwarding):
    # plan order is (sequential, parallel, doubling); with seed 1 the
    # sequential path first attempts a swap after slot 0, so first-attempt
    # order is (parallel, doubling, sequential). The keys follow neither:
    # they come in sorted kind order, and a kind with no attempt yet has no
    # key
    g = build_graph(
        [NodeParams(id=v, swap_prob=0.5) for v in "ambcdexyz"],
        [EdgeParams(u="a", v="m", capacity=1, link_prob=0.3),
         EdgeParams(u="m", v="b", capacity=1, link_prob=0.3),
         EdgeParams(u="c", v="d", capacity=1, link_prob=1.0),
         EdgeParams(u="d", v="e", capacity=1, link_prob=1.0),
         EdgeParams(u="x", v="y", capacity=1, link_prob=1.0),
         EdgeParams(u="y", v="z", capacity=1, link_prob=1.0)],
    )
    paths = [("r1", "amb", SwapPolicy("sequential")),
             ("r2", "cde", SwapPolicy("parallel")),
             ("r3", "xyz", SwapPolicy("doubling"))]
    plan = AllocationPlan(
        requests=tuple(Request(id=rid, source=nodes[0], dest=nodes[-1])
                       for rid, nodes, _ in paths),
        allocations=tuple(
            PathAllocation(request_id=rid, policy=policy,
                           path=path_spec_from_nodes(g, tuple(nodes), width=1))
            for rid, nodes, policy in paths),
        residual=(),
    )

    def kinds(slots):
        config = SimConfig(forwarding=forwarding, slots=slots, seed=1)
        return list(simulate(g, plan, config).swap_counters)

    assert kinds(1) == ["doubling", "parallel"]
    assert kinds(30) == ["doubling", "parallel", "sequential"]


def test_multi_path_plan_ownership():
    # two width-1 paths on a shared cap-2 edge: per-path rates stay
    # binomially independent because each owns its own channel
    g = chain_graph(1, p=0.5, cap=2)
    req = Request(id="r1", source="n0", dest="n1")
    path = path_spec_from_nodes(g, ("n0", "n1"), width=1)
    plan = AllocationPlan(
        requests=(req,),
        allocations=(
            PathAllocation(request_id="r1", path=path, policy=SwapPolicy("doubling")),
            PathAllocation(request_id="r1", path=path, policy=SwapPolicy("doubling")),
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
                           policy=SwapPolicy("doubling")),
        ),
        residual=(),
    )
    with pytest.raises(ValueError, match="overallocates"):
        simulate(g, plan, SimConfig(slots=10, seed=0))


@pytest.mark.parametrize("forwarding", ["sync", "async"])
@pytest.mark.parametrize("field, value, graph_field", [
    ("per_hop_prob", (0.1, 0.1), "link_prob"),
    ("interior_swap_probs", (0.1,), "swap_prob"),
])
def test_plan_path_probabilities_must_match_the_graph(forwarding, field, value,
                                                      graph_field):
    # the simulator draws against the graph, so a path that disagrees with
    # it is rejected instead of being simulated with half of its numbers
    g = grid_topology(3, 3, EdgeParams(u="", v="", capacity=2, link_prob=0.9),
                      NodeParams(id="", swap_prob=0.5))
    req = Request(id="r1", source="0,0", dest="0,2")
    path = path_spec_from_nodes(g, ("0,0", "0,1", "0,2"))
    plan = AllocationPlan(
        requests=(req,),
        allocations=(PathAllocation(request_id="r1",
                                    path=replace(path, **{field: value}),
                                    policy=SwapPolicy("doubling")),),
        residual=(),
    )
    with pytest.raises(ValueError,
                       match=rf"path r1\[0\]: {field} .* graph's {graph_field}"):
        simulate(g, plan, SimConfig(forwarding=forwarding, slots=10))


@pytest.mark.parametrize("scheme", ["proactive", "reactive"])
def test_simulate_rejects_repeated_request_ids(scheme):
    # per-request stats are keyed by request id, so two requests would merge
    g = grid_topology(3, 3, EdgeParams(u="", v="", capacity=2, link_prob=0.9))
    requests = [Request(id="r", source="0,0", dest="2,2"),
                Request(id="r", source="0,2", dest="2,0")]
    work = (requests if scheme == "reactive"
            else AllocationPlan(requests=tuple(requests), allocations=(), residual=()))
    with pytest.raises(ValueError, match="request id 'r' appears more than once"):
        simulate(g, work, SimConfig(scheme=scheme, slots=10))


def test_adhoc_under_sync_rejected():
    with pytest.raises(ValueError, match="adhoc"):
        SimConfig(forwarding="sync", policy=SwapPolicy("adhoc"))
    # the sync kernel has no adhoc order, so a plan cannot slip one in either
    g = chain_graph(2)
    plan = plan_for_chain(g, 2, policy=SwapPolicy("adhoc"))
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
        SimConfig(scheme="reactive", policy=SwapPolicy("parallel"),
                  slots=slots, seed=6),
    )
    want = 0.8**3 * 0.5**2
    rate = stats.delivered_total / slots
    assert abs(rate - want) <= three_se(want, slots)


def test_reactive_ignores_fidelity_bound():
    # a proactive plan keeps every route within the request's fidelity hop
    # bound, so a 12-hop chain past the 10-hop bound gets no allocation; the
    # reactive scheme routes each slot by hop count with no limit, so it
    # still delivers there, a pair every slot with certain links and swaps
    g = chain_graph(12, p=1.0, q=1.0)
    req = Request(id="r1", source="n0", dest="n12", min_fidelity=0.9)
    assert max_hops(0.99, 0.9) == 10
    plan = allocate(g, [req], AllocatorConfig(elementary_fidelity=0.99))
    assert plan.allocations == () and plan.infeasible == ()
    for forwarding in ("sync", "async"):
        stats = simulate(g, [req], SimConfig(scheme="reactive",
                                             forwarding=forwarding, slots=50))
        assert stats.per_request["r1"]["delivered"] == 50


def test_reactive_grid_multi_request():
    g = grid_topology(3, 3, default_edge=None)
    reqs = [
        Request(id="a", source="0,0", dest="2,2"),
        Request(id="b", source="0,2", dest="2,0"),
    ]
    stats = simulate(
        g, reqs,
        SimConfig(scheme="reactive", policy=SwapPolicy("parallel"),
                  slots=3000, seed=14),
    )
    assert set(stats.per_request) == {"a", "b"}
    assert stats.delivered_total >= 0
    # entity ledger: every link plus every delivered lane's segment (the
    # parallel policy only materializes fully merged lanes) is disposed
    disposed = stats.entities_disposed
    assert sum(disposed.values()) == stats.links_generated + stats.delivered_total


@pytest.mark.parametrize("forwarding", ["sync", "async"])
def test_reactive_routes_through_the_module_attribute(monkeypatch, forwarding):
    # the traced benchmark wraps `qroute.montecarlo.disjoint_paths_on_logical`
    # as `pathfind.logical`; every reactive search must pass through it:
    # one call per request per slot, requests in id order
    from qroute import montecarlo

    calls = []
    search = montecarlo.disjoint_paths_on_logical

    def counted(counts, graph, s, d, *args):
        calls.append((s, d))
        return search(counts, graph, s, d, *args)

    monkeypatch.setattr(montecarlo, "disjoint_paths_on_logical", counted)
    g = grid_topology(3, 3, default_edge=EdgeParams(u="", v="", capacity=2,
                                                    link_prob=0.6))
    reqs = [Request(id="b", source="0,2", dest="2,0"),
            Request(id="a", source="0,0", dest="2,2")]
    slots = 40
    stats = simulate(g, reqs, SimConfig(scheme="reactive", forwarding=forwarding,
                                        node_disjoint=True, slots=slots, seed=4))
    assert stats.delivered_total > 0
    assert calls == [("0,0", "2,2"), ("0,2", "2,0")] * slots


def test_reactive_never_consumes_more_than_realized():
    g = grid_topology(2, 3)
    reqs = [Request(id="a", source="0,0", dest="1,2")]
    stats = simulate(
        g, reqs,
        SimConfig(scheme="reactive", policy=SwapPolicy("parallel"),
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
