"""Time-slotted stochastic simulator and the exact enumeration oracle.

Each slot runs purge -> external phase (link generation) -> optional
reactive path computation -> internal phase (swapping) -> bookkeeping.
All randomness comes from a counter-based stream keyed by the draw's
coordinates (`draws`), so runs with the same seed see identical link
realizations regardless of forwarding mode; that is what makes paired
sync-vs-async comparisons meaningful.

Sync forwarding discards everything at slot end, so a sync slot runs on
per-hop link counts alone. Async forwarding keeps links and segments until
a memory cutoff expires them, so it keeps each one as a small record: links
in per-hop FIFOs, segments in per-path lists, all in id order.
"""

from __future__ import annotations

import itertools
from dataclasses import asdict, dataclass, field
from functools import lru_cache

from .analytics import (
    Distribution,
    PathSpec,
    SwapOrderTree,
    SwapPolicy,
    validate_tree,
)
from .draws import MASK64, KeyedRng, _Plane, _SwapDraws, _SwapLanes, _threshold
from .netmodel import NetworkGraph, edge_key
from .pathfind import LogicalTopology, disjoint_paths_on_logical, path_spec_from_nodes
from .routing import AllocationPlan, Request, check_unique_ids


@dataclass(frozen=True)
class SimConfig:
    scheme: str = "proactive"  # proactive | reactive
    forwarding: str = "sync"  # sync | async
    policy: SwapPolicy = field(default_factory=SwapPolicy.doubling)
    slots: int = 1000
    seed: int = 0
    node_disjoint: bool = False
    max_paths_per_request: int = 4

    def __post_init__(self):
        if self.scheme not in ("proactive", "reactive"):
            raise ValueError(f"unknown scheme {self.scheme!r}")
        if self.forwarding not in ("sync", "async"):
            raise ValueError(f"unknown forwarding mode {self.forwarding!r}")
        if self.slots < 1:
            raise ValueError("slots must be >= 1")
        if not 0 <= self.seed <= MASK64:
            raise ValueError(f"seed {self.seed} outside 0 <= seed < 2**64")
        if self.max_paths_per_request < 1:
            raise ValueError("max_paths_per_request must be >= 1")
        if self.policy.kind == "adhoc" and self.forwarding == "sync":
            raise ValueError(
                "adhoc swapping needs asynchronous forwarding; under sync "
                "everything is regenerated each slot"
            )


@dataclass
class SimStats:
    slots_run: int
    seed: int
    scheme: str
    forwarding: str
    policy: str
    delivered_total: int = 0
    per_request: dict = field(default_factory=dict)
    per_path: dict = field(default_factory=dict)
    swap_counters: dict = field(default_factory=dict)
    links_generated: int = 0
    entities_disposed: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return asdict(self)


# ---------------------------------------------------------------------------
# Internal phase


def _tally(tally: dict, kind: str, attempts: int, successes: int) -> None:
    """Add one path's swaps in one slot to the run's per-kind totals; a kind
    enters when it first attempts a swap, which fixes the report's key order."""
    if attempts:
        entry = tally.setdefault(kind, [0, 0])
        entry[0] += attempts
        entry[1] += successes


@dataclass(frozen=True)
class _RuntimePath:
    """Per-path execution context precomputed once, reused every slot."""

    request_id: str
    path: PathSpec
    policy: SwapPolicy
    schedule: tuple[tuple[int, int, int], ...] | None  # tree policies only
    swaps: tuple[int, ...]  # node rank per interior node
    channels: tuple[tuple[tuple[str, str], int, int], ...] = ()
    label: str = ""  # a proactive path's key in the report

    @classmethod
    def build(cls, request_id, path, policy, rank, channels=(), label=""):
        """`rank`: the graph's node ranks, which key the swap draws."""
        schedule = (
            None if policy.kind in ("parallel", "adhoc")
            else policy.order_tree(path.hop_count).schedule
        )
        return cls(
            request_id=request_id, path=path, policy=policy, schedule=schedule,
            swaps=tuple(rank[v] for v in path.nodes[1:-1]),
            channels=tuple(channels), label=label,
        )


def _exec_counts(rp: _RuntimePath, counts: list[int], draws: _SwapDraws, tally):
    """Swapping on per-hop link counts; returns (delivered, consumed,
    segments created). Sync runs every policy through it, async `parallel`.

    Draws in the same order as `_exec_tree`, so the outcome equals its
    outcome on a slot that starts empty.
    """
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


# ---------------------------------------------------------------------------
# Async kernel


DISPOSE_REASONS = ("consumed", "expired", "discarded", "delivered")


class _Channels:
    """A run of an edge's channels that one owner binds from, and the live
    links on it as (id, birth, birth, channel) records in id order.

    A proactive path's hop owns its own run; under the reactive scheme a
    whole edge is one run. Ids come from one counter in creation order, so
    within a run id order is (birth slot, channel) order, and every policy,
    and expiry too, takes links off the front.
    """

    __slots__ = ("start", "width", "cutoff", "links")

    def __init__(self, start: int, width: int, cutoff: int):
        self.start = start
        self.width = width
        self.cutoff = cutoff  # slots a link lives: min over its two ends
        self.links: list[tuple[int, int, int, int]] = []


class _PathStore:
    """One path's async state: the link list of the run each hop binds
    from, and the path's live segments.

    A segment is an (id, left birth, right birth, a, b, expiry slot) record
    for path positions a < b; every list holds them in id order. Tree
    policies pool segments by extent (a, b). Adhoc files each one under the
    node it ends at (`ends`) and again under the node it starts at
    (`starts`), and takes it out of both together.
    """

    __slots__ = ("runs", "widths", "cutoffs", "pools", "ends", "starts", "held")

    def __init__(self, rp: _RuntimePath, runs: list[list], cutoffs: tuple[int, ...]):
        self.runs = runs
        self.widths = rp.path.per_hop_capacity
        self.cutoffs = cutoffs  # per path position
        self.pools = {(a, b): [] for a, _, b in rp.schedule or ()}
        adhoc = rp.policy.kind == "adhoc"
        self.ends = [[] for _ in cutoffs] if adhoc else []
        self.starts = [[] for _ in cutoffs] if adhoc else []
        self.held = [*self.pools.values(), *self.ends]  # each segment once

    def live(self) -> int:
        return sum(map(len, self.held))

    def purge(self, slot: int) -> int:
        expired = 0
        for held in self.held:
            for seg in [s for s in held if s[5] <= slot] if held else ():
                held.remove(seg)
                if self.starts:
                    self.starts[seg[3]].remove(seg)
                expired += 1
        return expired


class _AsyncKernel:
    """Async run state: link runs, the id counter and the entity ledger
    (created == live + disposed), checked every slot."""

    def __init__(self, graph: NetworkGraph, schedule):
        """`schedule`: the link schedule `simulate` builds."""
        cutoff = {v.id: v.memory_cutoff_slots for v in graph.nodes}
        self.runs = {  # (edge key, first channel)
            (key, start): _Channels(start, width, min(cutoff[key[0]], cutoff[key[1]]))
            for (key, start, width), *_ in schedule
        }
        self.schedule = list(zip(_link_spans(schedule), self.runs.values()))
        self.cutoff = cutoff
        self.next_id = 0  # = entities created
        self.disposed = dict.fromkeys(DISPOSE_REASONS, 0)
        self._links = [run.links for run in self.runs.values()]
        self._taken: list[tuple[list, list]] = []

    def bind(self, rp: _RuntimePath) -> _PathStore:
        """A path's store: a proactive hop binds the run it owns, a reactive
        hop its edge's one run."""
        nodes = rp.path.nodes
        spots = (
            [(key, start) for key, start, _ in rp.channels] if rp.channels
            else [(edge_key(u, v), 0) for u, v in zip(nodes, nodes[1:])]
        )
        return _PathStore(rp, [self.runs[spot].links for spot in spots],
                          tuple(self.cutoff[v] for v in nodes))

    def purge(self, slot: int, held) -> None:
        """Expire links and the segments in `held` whose memory ran out."""
        expired = sum(store.purge(slot) for store in held)
        for run in self.runs.values():
            links = run.links
            born_by = slot - run.cutoff  # links born then or earlier expire
            if links and links[0][1] <= born_by:
                k = 1
                while k < len(links) and links[k][1] <= born_by:
                    k += 1
                del links[:k]
                expired += k
        self.disposed["expired"] += expired

    def generate(self, bits: bytes, slot: int) -> int:
        """Link generation on every free channel from the slot's link plane
        `bits`; returns the links made. Draws are keyed by (slot, edge,
        channel), so the realization does not depend on which channels are
        occupied."""
        first = next_id = self.next_id
        for (lo, hi), run in self.schedule:
            links = run.links
            if len(links) == run.width or 1 not in bits[lo:hi]:
                continue
            busy = {r[3] for r in links}
            for ch, ok in enumerate(bits[lo:hi], run.start):
                if ok and ch not in busy:
                    links.append((next_id, slot, slot, ch))
                    next_id += 1
        self.next_id = next_id
        return next_id - first

    def take(self, store: _PathStore) -> list[list]:
        """The links a path works on this slot: on each hop, the lowest-id
        links that no earlier path took this slot, at most the hop's width."""
        hops = []
        for links, width in zip(store.runs, store.widths):
            # a proactive run has one owner, and a reactive path that takes
            # an edge's last links leaves none for a later path's counts
            if width >= len(links):
                hops.append(links)
                continue
            hop = links[:width]
            del links[:width]
            self._taken.append((links, hop))
            hops.append(hop)
        return hops

    def end_slot(self, slot: int, segments) -> None:
        """Put the links paths left unused back in front of their runs, in
        the order they were taken, then check the ledger."""
        for links, hop in reversed(self._taken):
            links[:0] = hop
        self._taken.clear()
        live = sum(map(len, self._links)) + sum(s.live() for s in segments)
        disposed = sum(self.disposed.values())
        if self.next_id != live + disposed:
            raise AssertionError(
                f"slot {slot}: entity ledger broken: created {self.next_id} "
                f"!= live {live} + disposed {disposed}"
            )


def _exec_parallel(rp: _RuntimePath, hops, store, kernel, draws, tally):
    """Lane i takes the i-th lowest-id link of every hop; only fully merged
    lanes make a segment, which is delivered at once."""
    delivered, consumed, _ = _exec_counts(rp, list(map(len, hops)), draws, tally)
    for hop in hops:
        del hop[:consumed // rp.path.hop_count]
    kernel.next_id += delivered
    kernel.disposed["consumed"] += consumed
    kernel.disposed["delivered"] += delivered
    return delivered


def _exec_tree(rp: _RuntimePath, hops, store, kernel, draws, tally):
    """Merge (a, mid, b) pairs the lowest-id records of extents (a, mid) and
    (mid, b), in post-order; links fill the one-hop extents."""
    swaps = rp.swaps
    n = rp.path.hop_count
    pools = store.pools
    cut = store.cutoffs
    next_id = kernel.next_id
    attempts = 0
    for a, mid, b in rp.schedule:
        lefts = hops[a] if mid == a + 1 else pools[a, mid]
        rights = hops[mid] if b == mid + 1 else pools[mid, b]
        m = min(len(lefts), len(rights))
        if not m:
            continue
        out = pools[a, b]
        won = draws.successes(swaps[mid - 1], m)
        for left, right, ok in zip(lefts, rights, won):
            if ok:
                lb = left[1]
                rb = right[2]
                out.append((next_id, lb, rb, a, b, min(lb + cut[a], rb + cut[b])))
                next_id += 1
        del lefts[:m], rights[:m]
        attempts += m
    done = hops[0] if n == 1 else pools[0, n]  # records already end to end
    delivered = len(done)
    done.clear()
    _tally(tally, rp.policy.kind, attempts, next_id - kernel.next_id)
    kernel.next_id = next_id
    kernel.disposed["consumed"] += 2 * attempts
    kernel.disposed["delivered"] += delivered
    return delivered


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


def _exec_adhoc(rp: _RuntimePath, hops, store, kernel, draws, tally):
    """Swap as soon as possible: one sweep of the interior nodes in path
    order; node j pairs, in id order, the records ending at j with those
    starting at j. A second sweep would pair nothing: a visit empties one
    side of node j, and a new segment starts where its left record starts
    and ends where its right record ends, so that side stays empty."""
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


def _execute_policy(rp: _RuntimePath, hops, store, kernel, draws, tally):
    if rp.policy.kind == "parallel":
        return _exec_parallel(rp, hops, store, kernel, draws, tally)
    if rp.policy.kind == "adhoc":
        return _exec_adhoc(rp, hops, store, kernel, draws, tally)
    return _exec_tree(rp, hops, store, kernel, draws, tally)


# ---------------------------------------------------------------------------
# Full simulation


def _bind_plan(graph: NetworkGraph, plan: AllocationPlan) -> list[_RuntimePath]:
    """Each plan path's runtime context on its channel runs. Every draw is
    made against the graph, so a path must carry the graph's probabilities."""
    rank = graph._node_rank()
    offsets: dict[tuple[str, str], int] = {}
    bound = []
    per_request_counter: dict[str, int] = {}
    for alloc in plan.allocations:
        i = per_request_counter.get(alloc.request_id, 0)
        per_request_counter[alloc.request_id] = i + 1
        label = f"{alloc.request_id}[{i}]"
        path, ours = alloc.path, path_spec_from_nodes(graph, alloc.path.nodes)
        for name, graph_name in (("per_hop_prob", "link_prob"),
                                 ("interior_swap_probs", "swap_prob")):
            if getattr(path, name) != getattr(ours, name):
                raise ValueError(
                    f"path {label}: {name} {getattr(path, name)} differs from "
                    f"the graph's {graph_name} {getattr(ours, name)}"
                )
        chans = []
        for h, cap in enumerate(ours.per_hop_capacity):
            key = edge_key(path.nodes[h], path.nodes[h + 1])
            width = path.per_hop_capacity[h]
            start = offsets.get(key, 0)
            if start + width > cap:
                raise ValueError(
                    f"plan overallocates edge {key}: {start + width} > {cap}")
            offsets[key] = start + width
            chans.append((key, start, width))
        bound.append(_RuntimePath.build(alloc.request_id, path, alloc.policy,
                                        rank, chans, label))
    return bound


def _reactive_paths(graph, requests, counts, config: SimConfig, built: dict):
    """One slot's reactive paths, request by request, found on the realized
    link `counts`; each path takes one link per hop off `counts`. `built`
    keeps each (request id, nodes) path's runtime context across slots."""
    rank = graph._node_rank()
    for req in requests:
        paths = disjoint_paths_on_logical(
            LogicalTopology(counts=counts), graph, req.source, req.dest,
            config.max_paths_per_request, config.node_disjoint,
        )
        for path in paths:
            for u, v in zip(path.nodes, path.nodes[1:]):
                counts[edge_key(u, v)] -= 1
            rp = built.get((req.id, path.nodes))
            if rp is None:
                rp = built[req.id, path.nodes] = _RuntimePath.build(
                    req.id, path, config.policy, rank)
            yield rp


def _link_spans(schedule) -> list[tuple[int, int]]:
    """Each link schedule entry's lanes (lo, hi) in the link plane, which
    has one lane per channel in schedule order."""
    ends = list(itertools.accumulate(len(chans) for _, _, chans, _ in schedule))
    return list(zip([0, *ends], ends))


def _swap_lanes(graph: NetworkGraph, bound) -> _SwapLanes:
    """The swap plane, with each node's cap set to the most draws a sync
    slot can make there; async draws past it take the scalar chain. Every
    draw at a node is against the graph's `swap_prob` there.

    A proactive path's merges, or its `parallel` lanes, at an interior node
    draw at most the smaller of the two hop widths beside it, and the node's
    cap sums that over the `bound` paths. Under the reactive scheme
    (`bound` None) every path through a node is one wide and takes two of
    its incident links, so the cap is half the incident capacity.
    """
    rank = graph._node_rank()
    caps = [0] * len(rank)
    if bound is not None:
        for rp in bound:
            widths = rp.path.per_hop_capacity
            for j, r in enumerate(rp.swaps):
                caps[r] += min(widths[j], widths[j + 1])
    else:
        for e in graph.edges:
            caps[rank[e.u]] += e.capacity
            caps[rank[e.v]] += e.capacity
        caps = [c // 2 for c in caps]
    return _SwapLanes(caps, [_threshold(v.swap_prob) for v in graph.nodes])


def _link_plane(schedule) -> _Plane:
    """The plane of every channel's link draw, keyed (edge index, channel)."""
    return _Plane((eidx, ch, threshold)
                  for _, eidx, chans, threshold in schedule for ch in chans)


def simulate(graph: NetworkGraph, plan_or_requests, config: SimConfig) -> SimStats:
    """Run the slotted simulation; fully deterministic for a given seed.

    Replicas with different seeds share no mutable state and can run in
    parallel; within one run, slots are processed sequentially.
    """
    rng = KeyedRng(config.seed)
    stats = SimStats(
        slots_run=config.slots,
        seed=config.seed,
        scheme=config.scheme,
        forwarding=config.forwarding,
        policy=config.policy.kind,
    )
    sync = config.forwarding == "sync"
    reactive = config.scheme == "reactive"

    if not reactive:
        if not isinstance(plan_or_requests, AllocationPlan):
            raise ValueError("proactive simulation needs an AllocationPlan")
        check_unique_ids(plan_or_requests.requests)
        bound = _bind_plan(graph, plan_or_requests)
        for rp in bound:
            if sync and rp.policy.kind == "adhoc":
                raise ValueError(
                    f"path {rp.label}: adhoc swapping needs async forwarding"
                )
            stats.per_path[rp.label] = {
                "request": rp.request_id,
                "nodes": list(rp.path.nodes),
                "width": rp.path.width,
                "delivered": 0,
                "hist": [0] * (rp.path.width + 1),
            }
        # unallocated requests still show up in the stats, at zero
        request_ids = sorted(
            {rp.request_id for rp in bound}
            | {r.id for r in plan_or_requests.requests}
        )
        runs = [run for rp in bound for run in rp.channels]
    else:
        if isinstance(plan_or_requests, AllocationPlan):
            raise ValueError(
                "reactive simulation needs a list of requests; paths are "
                "recomputed from the logical topology each slot"
            )
        requests = list(plan_or_requests)
        if not all(isinstance(r, Request) for r in requests):
            raise ValueError("reactive simulation needs a list of requests")
        check_unique_ids(requests)
        requests.sort(key=lambda r: r.id)
        runs = [(edge_key(e.u, e.v), 0, e.capacity) for e in graph.edges]
        request_ids = [r.id for r in requests]

    # the link schedule both forwarding modes generate on: one entry per
    # channel run, ((edge key, first channel, width), edge index, channel
    # range, threshold), in (edge key, first channel) order, which async
    # link ids follow
    eidx = {edge_key(e.u, e.v): i for i, e in enumerate(graph.edges)}
    schedule = [
        (run, eidx[run[0]], range(run[1], run[1] + run[2]),
         _threshold(graph.edge(*run[0]).link_prob))
        for run in sorted(runs)
    ]
    links = _link_plane(schedule)
    spans = _link_spans(schedule)
    swap_lanes = _swap_lanes(graph, bound if not reactive else None)
    if sync:
        # entities are tallied per slot, since nothing outlives it
        ledger = dict.fromkeys(DISPOSE_REASONS, 0)
        if not reactive:  # each hop's position in the schedule
            at = {run: i for i, (run, *_) in enumerate(schedule)}
            hop_runs = {rp.label: [at[run] for run in rp.channels] for rp in bound}
    else:
        kernel = _AsyncKernel(graph, schedule)
        # proactive segments persist across slots; reactive ones die with it
        held = {} if reactive else {rp.label: kernel.bind(rp) for rp in bound}

    for rid in request_ids:
        stats.per_request[rid] = {"delivered": 0, "hist": [0]}

    built: dict = {}  # reactive runtime paths by (request id, nodes)
    tally: dict[str, list[int]] = {}  # policy kind -> [attempts, successes]
    for slot in range(config.slots):
        draws = _SwapDraws(rng.swap_slot_base(slot), swap_lanes)
        bits = links.bits(rng.link_slot_base(slot))
        if sync:
            made = [bits.count(1, lo, hi) for lo, hi in spans]
            created = sum(made)
            consumed = 0
        else:
            kernel.purge(slot, held.values())
            created = kernel.generate(bits, slot)
        stats.links_generated += created

        if reactive:
            counts = (
                {run[0]: c for (run, *_), c in zip(schedule, made) if c} if sync
                else {key: len(run.links)
                      for (key, _), run in kernel.runs.items() if run.links}
            )
            paths = _reactive_paths(graph, requests, counts, config, built)
        else:
            paths = bound
        slot_totals = dict.fromkeys(request_ids, 0)
        for rp in paths:
            if sync:
                hops = ([1] * rp.path.hop_count if reactive
                        else [made[i] for i in hop_runs[rp.label]])
                got, used, segments = _exec_counts(rp, hops, draws, tally)
                consumed += used
                created += segments
            else:
                store = kernel.bind(rp) if reactive else held[rp.label]
                got = _execute_policy(rp, kernel.take(store), store, kernel,
                                      draws, tally)
                if reactive:  # its partial segments die with the slot's paths
                    kernel.disposed["discarded"] += store.live()
            slot_totals[rp.request_id] += got
            if not reactive:
                entry = stats.per_path[rp.label]
                _count(entry["hist"], got)
                entry["delivered"] += got
        for rid, got in slot_totals.items():
            entry = stats.per_request[rid]
            _count(entry["hist"], got)
            entry["delivered"] += got
            stats.delivered_total += got

        if sync:
            delivered = sum(slot_totals.values())
            if consumed + delivered > created:
                raise AssertionError(
                    f"slot {slot}: consumed {consumed} + delivered "
                    f"{delivered} > created {created}"
                )
            ledger["consumed"] += consumed
            ledger["discarded"] += created - consumed - delivered
            ledger["delivered"] += delivered
        else:
            kernel.end_slot(slot, held.values())

    stats.swap_counters = {kind: {"attempts": a, "successes": s}
                           for kind, (a, s) in tally.items()}
    stats.entities_disposed = ledger if sync else dict(kernel.disposed)
    return stats


def _count(hist: list[int], k: int) -> None:
    """Count one slot that delivered `k` pairs; async forwarding can deliver
    more pairs in one slot than a path is wide."""
    while len(hist) <= k:
        hist.append(0)
    hist[k] += 1


# ---------------------------------------------------------------------------
# Exact enumeration oracle

_ORACLE_MAX_HOPS = 5
_ORACLE_MAX_CAP = 3


@lru_cache(maxsize=None)
def _channel_count_weights(cap: int, p: float) -> tuple[float, ...]:
    """P(k of `cap` trials succeed), by enumerating every bit pattern; the
    oracle counts both link channels and swap attempts with it."""
    weights = [0.0] * (cap + 1)
    for bits in itertools.product((0, 1), repeat=cap):
        prob = 1.0
        for b in bits:
            prob *= p if b else (1.0 - p)
        weights[sum(bits)] += prob
    return tuple(weights)


def brute_force_distribution(
    path: PathSpec, order: SwapOrderTree | None = None
) -> Distribution:
    """Exact E2E pmf by joint enumeration of link and swap Bernoulli trials.

    `order=None` means unheralded (all interior nodes fire at once on the
    min-width lanes); a tree gives the heralded semantics where each merge
    pairs its children's counts. Guarded to tiny paths: the state space is
    exponential by design.
    """
    n = path.hop_count
    if n > _ORACLE_MAX_HOPS or max(path.per_hop_capacity) > _ORACLE_MAX_CAP:
        raise ValueError(
            f"oracle limited to {_ORACLE_MAX_HOPS} hops and cap "
            f"{_ORACLE_MAX_CAP}; got n={n}, caps={path.per_hop_capacity}"
        )
    if order is not None:
        validate_tree(order, n)

    width = min(path.per_hop_capacity)
    out = [0.0] * (width + 1)
    hop_weights = [
        _channel_count_weights(c, p)
        for c, p in zip(path.per_hop_capacity, path.per_hop_prob)
    ]

    for counts in itertools.product(
        *(range(c + 1) for c in path.per_hop_capacity)
    ):
        weight = 1.0
        for h, k in enumerate(counts):
            weight *= hop_weights[h][k]
        if weight == 0.0:
            continue
        if order is None:
            _accumulate_unheralded(path, counts, weight, out)
        else:
            for k, prob in _tree_outcomes(path, order, counts).items():
                out[k] += weight * prob
    return Distribution(cap=width, pmf=out)


def _accumulate_unheralded(path, counts, weight, out):
    n = path.hop_count
    lanes = min(counts)
    if lanes == 0:
        out[0] += weight
        return
    # one lane's end-to-end success needs every interior swap bit set
    lane_success = 0.0
    for bits in itertools.product((0, 1), repeat=n - 1):
        prob = 1.0
        for q, b in zip(path.interior_swap_probs, bits):
            prob *= q if b else (1.0 - q)
        if all(bits):
            lane_success += prob
    for lane_bits in itertools.product((0, 1), repeat=lanes):
        prob = 1.0
        for b in lane_bits:
            prob *= lane_success if b else (1.0 - lane_success)
        out[sum(lane_bits)] += weight * prob


def _tree_outcomes(path, tree, counts) -> dict[int, float]:
    if tree.is_leaf:
        return {counts[tree.hop]: 1.0}
    left = _tree_outcomes(path, tree.left, counts)
    right = _tree_outcomes(path, tree.right, counts)
    mid = tree.left.span()[1]
    q = path.interior_swap_probs[mid - 1]
    acc: dict[int, float] = {}
    for lc, lp in left.items():
        for rc, rp in right.items():
            for s, sp in enumerate(_channel_count_weights(min(lc, rc), q)):
                acc[s] = acc.get(s, 0.0) + lp * rp * sp
    return acc
