"""Time-slotted stochastic simulator.

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

Slots run a block at a time, with the block's draws from one plane pass.
Proactive sync paths are fixed, so that mode runs the block as columns,
one entry per slot; the others go slot by slot. A range of blocks
returns a plain tally (`_Run.tally`), merged into the stats in slot
order. A run may split its blocks across CPUs (`draws._slot_ranges`):
an async range's worker starts a block early from empty memory, and
counts from where its state meets the serial run's. The reports are the
same either way.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import asdict, dataclass, field
from itertools import repeat
from operator import add, and_, ge, gt, mul

from .analytics import PathSpec, SwapPolicy
from .draws import (
    MASK64,
    KeyedRng,
    _link_plane,
    _link_schedule,
    _plane_blocks,
    _slot_ranges,
    _span_counts,
    _SwapDraws,
    _SwapLanes,
)
from .netmodel import NetworkGraph
from .pathfind import _path_edges, disjoint_paths_on_logical, path_spec_from_nodes
from .routing import AllocationPlan, Request, check_unique_ids


@dataclass(frozen=True)
class SimConfig:
    scheme: str = "proactive"  # proactive | reactive
    forwarding: str = "sync"  # sync | async
    policy: SwapPolicy = SwapPolicy("doubling")
    slots: int = 1000
    seed: int = 0
    node_disjoint: bool = False
    max_paths_per_request: int = 4

    def __post_init__(self):
        # "<keyword>: why", so a scenario error can name the JSON field
        if self.scheme not in ("proactive", "reactive"):
            raise ValueError(f"scheme: unknown scheme {self.scheme!r}")
        if self.forwarding not in ("sync", "async"):
            raise ValueError(f"forwarding: unknown mode {self.forwarding!r}")
        if self.slots < 1:
            raise ValueError(f"slots: must be >= 1, got {self.slots}")
        if not 0 <= self.seed <= MASK64:
            raise ValueError(f"seed: {self.seed} outside 0 <= seed < 2**64")
        if self.max_paths_per_request < 1:
            raise ValueError(
                f"max_paths_per_request: must be >= 1, got "
                f"{self.max_paths_per_request}"
            )
        if self.policy.kind == "adhoc" and self.forwarding == "sync":
            raise ValueError(
                "policy: adhoc swapping needs asynchronous forwarding; under "
                "sync everything is regenerated each slot"
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
    """Add one path's swaps in one slot, or in a block of slots, to the
    run's per-kind totals; a kind enters at its first attempt, and
    `simulate` reports the kinds in sorted order."""
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
    # per hop, the channel run it binds: (edge index, first channel, width)
    channels: tuple[tuple[int, int, int], ...]
    label: str = ""  # a proactive path's key in the report

    @classmethod
    def build(cls, request_id, path, policy, rank, channels, label=""):
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


def _exec_single(rp: _RuntimePath, draws: _SwapDraws, tally):
    """Swapping on a reactive sync path, one link per hop; returns
    (delivered, consumed, segments created). Under `parallel` each interior
    node draws one byte, and a merge draws one when both sides hold a pair."""
    if rp.schedule is None:
        won = [draws.success(r) for r in rp.swaps]
        _tally(tally, "parallel", len(won), sum(won))
        # a one-hop path draws nothing and delivers its link
        return int(0 not in won), len(won) + 1, int(0 not in won)
    held, won = [], []  # post-order: flags of the extents no merge took yet
    for a, mid, b in rp.schedule:
        right = held.pop() if b > mid + 1 else 1  # a one-hop extent holds its link
        left = held.pop() if mid > a + 1 else 1
        if left and right:
            won.append(draws.success(rp.swaps[mid - 1]))
        held.append(left and right and won[-1])
    _tally(tally, rp.policy.kind, len(won), sum(won))
    return (held[0] if held else 1), 2 * len(won), sum(won)


def _exec_columns(rp: _RuntimePath, hops: list[list[int]], swaps: bytes, pos,
                  tally):
    """Swapping on a block of slots: `hops` holds each hop's column of link
    counts, and `pos[rank]` each slot's next byte of node `rank` in the
    block's swap plane `swaps`, moved past the draws made. Returns the
    columns (delivered, consumed, segments created). Each slot draws as the
    tests' reference `_exec_counts` and the one-link walk `_exec_single`
    do, within the node's plane cap (`_swap_lanes` states the rule)."""
    one = repeat(1)
    n = len(hops)
    if rp.schedule is None:  # parallel: lane i takes each interior node's i-th draw
        lanes = list(map(min, zip(*hops)))
        won, successes = None, 0
        for r in rp.swaps:
            p = pos[r]
            end = pos[r] = list(map(add, p, lanes))
            successes += sum(map(swaps.count, one, p, end))
            # lane i's outcome at this node is bit 8i of the int
            bits = map(int.from_bytes, map(swaps.__getitem__, map(slice, p, end)),
                       repeat("little"))
            won = bits if won is None else map(and_, won, bits)
        # a one-hop path has no interior node: every lane delivers
        delivered = lanes if won is None else list(map(int.bit_count, won))
        _tally(tally, "parallel", sum(lanes) * (n - 1), successes)
        return delivered, [k * n for k in lanes], delivered
    pools = {(h, h + 1): c for h, c in enumerate(hops)}
    attempts = segments = [0] * len(hops[0])
    for a, mid, b in rp.schedule:  # post-order: both inputs are filled
        m = list(map(min, pools[a, mid], pools[mid, b]))
        r = rp.swaps[mid - 1]
        p = pos[r]
        end = pos[r] = list(map(add, p, m))
        pools[a, b] = list(map(swaps.count, one, p, end))
        attempts = list(map(add, attempts, m))
        segments = list(map(add, segments, pools[a, b]))
    _tally(tally, rp.policy.kind, sum(attempts), sum(segments))
    return pools[0, n], list(map(add, attempts, attempts)), segments


def _sync_block(bound, runs: dict, swaps: bytes, pos, tally, size: int):
    """A block of `size` proactive sync slots, path by path, on each channel
    run's column of new links; returns each path's delivered column and the
    consumed and segments-created columns. Each path's kernel adds its swaps
    to `tally` as it runs."""
    delivered = []
    consumed = segments = [0] * size
    for rp in bound:
        got, used, made = _exec_columns(
            rp, [runs[run] for run in rp.channels], swaps, pos, tally)
        delivered.append(got)
        consumed = list(map(add, consumed, used))
        segments = list(map(add, segments, made))
    return delivered, consumed, segments


# ---------------------------------------------------------------------------
# Async kernel


DISPOSE_REASONS = ("consumed", "expired", "discarded", "delivered")


class _PathStore:
    """One path's async state: the link list of the run each hop binds
    from, and the path's live segments.

    A segment is an (id, left birth, right birth, a, b, expiry slot) record
    for path positions a < b; every list holds them in id order. Tree
    policies pool segments by extent (a, b). Adhoc files each one under the
    node it ends at (`ends`) and again under the node it starts at
    (`starts`), and takes it out of both together.
    """

    __slots__ = ("runs", "owned", "cutoffs", "pools", "ends", "starts", "held")

    def __init__(self, rp: _RuntimePath, runs: list[list], cutoffs: tuple[int, ...]):
        self.runs = runs
        self.owned = all(map(ge, rp.path.per_hop_capacity,
                             (width for *_, width in rp.channels)))
        self.cutoffs = cutoffs  # per path position
        self.pools = {(a, b): [] for a, _, b in rp.schedule or ()}
        adhoc = rp.policy.kind == "adhoc"
        self.ends = [[] for _ in cutoffs] if adhoc else []
        self.starts = [[] for _ in cutoffs] if adhoc else []
        self.held = [*self.pools.values(), *self.ends]  # each segment once

    def live(self) -> int:
        return sum(map(len, self.held))

    def discard(self) -> int:
        """Drop every segment; returns how many there were."""
        live = self.live()
        for held in self.held + self.starts if live else ():
            held.clear()
        return live

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
    """Async run state: each channel run's live links, the id counter and
    the entity ledger (created == live + disposed), checked every slot.

    `runs` maps each run of the link schedule to its live links, as
    (id, birth, birth, channel) records in id order. A proactive path's hop
    owns its own run; under the reactive scheme a whole edge is one run. Ids
    come from one counter in creation order, so within a run id order is
    (birth slot, channel) order, and every policy, and expiry too, takes
    links off the front. A new segment has the largest id so far, so
    appending keeps every list in id order.
    """

    def __init__(self, graph: NetworkGraph, schedule):
        """`schedule`: the run's link schedule (`_link_schedule`)."""
        cutoff = {v.id: v.memory_cutoff_slots for v in graph.nodes}
        # slots a link lives: the shorter memory of its edge's two ends
        lifetime = [min(cutoff[e.u], cutoff[e.v]) for e in graph.edges]
        self.runs = {run: [] for run, *_ in schedule}
        # (lo, hi, first channel, lifetime, links) per run, in schedule order
        self.schedule = [(lo, hi, run[1], lifetime[run[0]], self.runs[run])
                         for run, lo, hi, _ in schedule]
        self.cutoff = cutoff
        self.next_id = 0  # = entities created
        self.disposed = dict.fromkeys(DISPOSE_REASONS, 0)
        self._taken: list[tuple[list, list]] = []

    def bind(self, rp: _RuntimePath) -> _PathStore:
        """A path's store on the runs its hops bind."""
        return _PathStore(rp, [self.runs[run] for run in rp.channels],
                          tuple(self.cutoff[v] for v in rp.path.nodes))

    def purge(self, slot: int, held) -> None:
        """Expire links and the segments in `held` whose memory ran out."""
        expired = sum(store.purge(slot) for store in held)
        for _, _, _, lifetime, links in self.schedule:
            born_by = slot - lifetime  # links born then or earlier expire
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
        for lo, hi, start, _, links in self.schedule:
            busy = {r[3] for r in links} if links else ()  # channels in use
            for ch in itertools.compress(itertools.count(start), bits[lo:hi]):
                if ch not in busy:
                    links.append((next_id, slot, slot, ch))
                    next_id += 1
        self.next_id = next_id
        return next_id - first

    def take(self, rp: _RuntimePath, store: _PathStore) -> list[list]:
        """The links a path works on this slot: on each hop, the lowest-id
        links that no earlier path took this slot, at most the hop's width.
        A hop that may take all of its run's links gets the run's own list;
        so does every hop of a path as wide as its runs, as proactive ones are."""
        if store.owned:
            return store.runs
        hops = []
        for links, width in zip(store.runs, rp.path.per_hop_capacity):
            if width < len(links):
                hop = links[:width]
                del links[:width]
                self._taken.append((links, hop))
                links = hop
            hops.append(links)
        return hops

    def end_slot(self, slot: int, segments) -> str | None:
        """Put the links paths left unused back in front of their runs, in
        the order they were taken, then check the ledger; returns None, or
        the failure's message."""
        for links, hop in reversed(self._taken):
            links[:0] = hop
        self._taken.clear()
        live = sum(map(len, self.runs.values())) + sum(s.live() for s in segments)
        disposed = sum(self.disposed.values())
        if self.next_id != live + disposed:
            return (f"slot {slot}: entity ledger broken: created {self.next_id} "
                    f"!= live {live} + disposed {disposed}")
        return None

    def records(self, held) -> list[list]:
        """Each run's live links, in schedule order, then each segment list
        of the stores in `held`."""
        return [*self.runs.values(), *(h for store in held for h in store.held)]

    def state(self, held) -> list[list]:
        """The fingerprint of the run's state with the stores in `held`:
        `records`, each id replaced by its rank among the live ids. The
        kernels read ids only through their order, so runs whose
        fingerprints are equal go on equal under the same draws."""
        lists = self.records(held)
        rank = {r[0]: i for i, r in enumerate(sorted(itertools.chain(*lists)))}
        return [[(rank[r[0]], *r[1:]) for r in records] for records in lists]


def _exec_parallel(rp: _RuntimePath, hops, store, kernel, draws, tally):
    """Lane i takes each hop's i-th lowest-id link and each interior node's
    i-th draw, as the tests' reference `_exec_counts` does, and one lane as
    `_exec_single` does; a fully merged lane delivers at once."""
    lanes = min(map(len, hops))
    won = [draws.successes(r, lanes) for r in rp.swaps]
    # the all-true column keeps every lane of a one-hop path, which has no
    # interior node to draw at
    delivered = sum(map(all, zip([True] * lanes, *won)))
    _tally(tally, "parallel", lanes * len(won), sum(map(sum, won)))
    for hop in hops:
        del hop[:lanes]
    kernel.next_id += delivered
    kernel.disposed["consumed"] += lanes * len(hops)
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


def _pop_lowest(links, segs, m, far, index):
    """Pop the m lowest-id records off a hop's links and an id-ordered
    segment list. A popped segment also leaves `index`, which files it under
    its far end `seg[far]`."""
    if not segs:  # no merge: the m lowest links
        taken = links[:m]
        del links[:m]
        return taken
    taken = []
    while len(taken) < m:
        if links and (not segs or links[0][0] < segs[0][0]):
            taken.append(links.pop(0))
        else:
            seg = segs.pop(0)
            index[seg[far]].remove(seg)
            taken.append(seg)
    return taken


def _exec_adhoc(rp: _RuntimePath, hops, store, kernel, draws, tally):
    """Swap as soon as possible: one sweep of the interior nodes in path
    order; node j pairs, in id order, the records ending at j with those
    starting at j. A second sweep would pair nothing: a visit empties one
    side of node j, and a new segment starts where its left record starts
    and ends where its right record ends, so that side stays empty. The
    pops hand over bare records, and each pair reads its far ends off them:
    a segment (a 6-tuple) holds its own, and a link's is the next node."""
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
        lefts = _pop_lowest(hops[j - 1], ends[j], m, 3, starts)
        rights = _pop_lowest(hops[j], starts[j], m, 4, ends)
        won = draws.successes(swaps[j - 1], m)
        for left, right in itertools.compress(zip(lefts, rights), won):
            a = left[3] if len(left) == 6 else j - 1
            b = right[4] if len(right) == 6 else j + 1
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


_EXECUTE = {"parallel": _exec_parallel, "adhoc": _exec_adhoc}  # else `_exec_tree`


def _execute_policy(rp: _RuntimePath, *args):
    return _EXECUTE.get(rp.policy.kind, _exec_tree)(rp, *args)


def _swap_lanes(graph: NetworkGraph, bound) -> _SwapLanes:
    """The swap plane, each node's cap the most draws one slot, sync or
    async, makes there; a draw past it raises.

    A proactive path draws at most its widest hop's width at a node each
    slot, and the cap sums that over the `bound` paths. `parallel` lanes
    draw at most the narrowest hop. A tree merge, or an adhoc visit of node
    j, empties one of its two sides, which then gains at most one hop's
    width of records before the next: a hop holds at most its width of
    links, a tree pool gains only what the merge making it makes just
    before, and an adhoc merge that makes a record ending (starting) at j
    takes one. Reactive paths (`bound` None) are one wide and take two
    incident links each, so the cap is half the incident capacity.
    """
    if bound is None:
        caps = [sum(graph.edges[i].capacity for _, i in edges) // 2
                for edges in graph.adjacency]
    else:
        caps = [0] * len(graph.nodes)
        for rp in bound:
            for r in rp.swaps:
                caps[r] += max(rp.path.per_hop_capacity)
    return _SwapLanes(caps, [v.swap_prob for v in graph.nodes])


# ---------------------------------------------------------------------------
# Full simulation


def _bind_plan(graph: NetworkGraph, plan: AllocationPlan) -> list[_RuntimePath]:
    """Each plan path's runtime context on its channel runs. Every draw is
    made against the graph, so a path must carry the graph's probabilities."""
    offsets: dict[int, int] = {}  # edge index -> next free channel
    bound = []
    paths = Counter()  # request id -> its paths bound so far
    for alloc in plan.allocations:
        label = f"{alloc.request_id}[{paths[alloc.request_id]}]"
        paths[alloc.request_id] += 1
        path, ours = alloc.path, path_spec_from_nodes(graph, alloc.path.nodes)
        for name, graph_name in (("per_hop_prob", "link_prob"),
                                 ("interior_swap_probs", "swap_prob")):
            if getattr(path, name) != getattr(ours, name):
                raise ValueError(
                    f"path {label}: {name} {getattr(path, name)} differs from "
                    f"the graph's {graph_name} {getattr(ours, name)}"
                )
        chans = []
        for i, width in zip(_path_edges(graph, path.nodes), path.per_hop_capacity):
            e, start = graph.edges[i], offsets.get(i, 0)
            if start + width > e.capacity:
                raise ValueError(f"plan overallocates edge {(e.u, e.v)}: "
                                 f"{start + width} > {e.capacity}")
            offsets[i] = start + width
            chans.append((i, start, width))
        bound.append(_RuntimePath.build(alloc.request_id, path, alloc.policy,
                                        graph.node_rank, chans, label))
    return bound


def _reactive_paths(graph, requests, counts, config: SimConfig, built: dict, bind):
    """One slot's reactive paths, request by request, found on the realized
    link `counts` (a list in `graph.edges` order); each path takes one link
    per hop off `counts`. Yields (runtime context, store): `built` keeps
    both for each (request id, nodes) across slots, the store bound once by
    `bind` (None under sync forwarding); each hop binds its edge's one run."""
    for req in requests:
        paths = disjoint_paths_on_logical(
            counts, graph, req.source, req.dest,
            config.max_paths_per_request, config.node_disjoint,
        )
        for path in paths:
            entry = built.get((req.id, path.nodes))
            if entry is None:
                rp = _RuntimePath.build(
                    req.id, path, config.policy, graph.node_rank,
                    [(i, 0, graph.edges[i].capacity)
                     for i in _path_edges(graph, path.nodes)])
                entry = built[req.id, path.nodes] = (rp, bind and bind(rp))
            for i, _, _ in entry[0].channels:
                counts[i] -= 1
            yield entry


class _Run:
    """A run's setup, which its slot ranges share: proactive paths
    (`bound`) or reactive requests by id, the request ids in report order,
    the link schedule, the link plane and the swap lanes; and the run's
    state (`start`)."""

    __slots__ = ("config", "graph", "bound", "requests", "request_ids",
                 "schedule", "links", "swap_lanes", "kernel", "held")

    def __init__(self, graph: NetworkGraph, plan_or_requests, config: SimConfig):
        self.config, self.graph = config, graph
        if config.scheme == "proactive":
            if not isinstance(plan_or_requests, AllocationPlan):
                raise ValueError("proactive simulation needs an AllocationPlan")
            check_unique_ids(plan_or_requests.requests)
            bound = _bind_plan(graph, plan_or_requests)
            for rp in bound:
                if config.forwarding == "sync" and rp.policy.kind == "adhoc":
                    raise ValueError(
                        f"path {rp.label}: adhoc swapping needs async forwarding"
                    )
            # unallocated requests still show up in the stats, at zero
            self.request_ids = sorted(
                {rp.request_id for rp in bound}
                | {r.id for r in plan_or_requests.requests}
            )
            self.bound, self.requests = bound, []
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
            self.bound, self.requests = [], requests
            self.request_ids = [r.id for r in requests]
            runs = [(i, 0, e.capacity) for i, e in enumerate(graph.edges)]
        self.schedule = _link_schedule(graph, runs)
        self.links = _link_plane(self.schedule)
        self.swap_lanes = _swap_lanes(
            graph, self.bound if config.scheme == "proactive" else None)
        self.start()

    def start(self, done: dict | None = None) -> None:
        """Set up the state async ranges carry on: the `kernel` and the
        proactive paths' stores (`held`); sync keeps none. It starts empty,
        or, given `done`, a tally another process ran from an equal state,
        as `done` leaves it: ids are ranks, and the ledger balances."""
        if self.config.forwarding == "sync":
            self.kernel = self.held = None
            return
        kernel = _AsyncKernel(self.graph, self.schedule)
        # a reactive path's store is kept in `built`
        held = [kernel.bind(rp) for rp in self.bound]
        if done:
            for records, saved in zip(kernel.records(held), done["state"]):
                records[:] = saved
            for store in held:  # adhoc: each segment again under the node it starts at
                for seg in sorted(itertools.chain(*store.ends)):
                    store.starts[seg[3]].append(seg)
            kernel.disposed = {reason: self.kernel.disposed[reason] + count
                               for reason, count in done["ledger"].items()}
            kernel.next_id = (sum(map(len, kernel.records(held)))
                              + sum(kernel.disposed.values()))
        self.kernel, self.held = kernel, held

    def tally(self, first: int, stop: int) -> dict:
        """Run slots `first` to `stop`, whole plane blocks, and return the
        range's tally, in plain ints, strs, lists and dicts, which `marshal`
        carries: "paths", each proactive path's histogram of pairs delivered
        per slot, in `bound` order; "requests", each request's, by id;
        "swaps", [attempts, successes] by policy kind; "links", the links
        generated; "ledger", the entities disposed by reason; "failed",
        None, or the message of the first slot whose ledger check failed,
        where the range stops; and "state", None, or the fingerprint of the
        async state it leaves (`_AsyncKernel.state`). An async range goes on
        from the run's state."""
        config, graph, bound = self.config, self.graph, self.bound
        sync = config.forwarding == "sync"
        reactive = config.scheme == "reactive"
        schedule, swap_lanes, request_ids = self.schedule, self.swap_lanes, self.request_ids
        out = {"paths": [[] for _ in bound], "requests": {rid: [] for rid in request_ids},
               "swaps": {}, "links": 0, "ledger": dict.fromkeys(DISPOSE_REASONS, 0),
               "failed": None, "state": None}
        tally, ledger = out["swaps"], out["ledger"]
        kernel, held = self.kernel, self.held
        if not sync:  # entities outlive slots, so the range tallies the kernel's change
            disposed = dict(kernel.disposed)
        built: dict = {}  # reactive (runtime path, store) by (request id, nodes)
        width = len(self.links)  # a slot's bytes in the link plane
        for start, size, bits, swaps in _plane_blocks(
                self.links, swap_lanes.plane, KeyedRng(config.seed), stop, first):
            if sync:  # each run's column of new links, and each slot's total
                made = [_span_counts(bits, width, lo, hi, size)
                        for _, lo, hi, _ in schedule]
                created = list(map(sum, zip(repeat(0, size), *made)))
                out["links"] += sum(created)
            path_cols = [[] for _ in bound]
            request_cols = {rid: [0] * size for rid in request_ids}
            consumed = [0] * size
            if sync and not reactive:
                path_cols, consumed, segments = _sync_block(
                    bound, dict(zip((run for run, *_ in schedule), made)), swaps,
                    swap_lanes.starts(size), tally, size)
                created = list(map(add, created, segments))
            else:  # the paths, or the links they bind, depend on the slot
                for k in range(size):
                    slot = start + k
                    draws = _SwapDraws(swaps, k, swap_lanes)
                    if not sync:
                        kernel.purge(slot, held)
                        out["links"] += kernel.generate(
                            bits[k * width:(k + 1) * width], slot)
                    if reactive:  # one run per edge, so both follow edge order
                        counts = ([c[k] for c in made] if sync else
                                  list(map(len, kernel.runs.values())))
                    paths = (_reactive_paths(graph, self.requests, counts, config,
                                             built, None if sync else kernel.bind)
                             if reactive else zip(bound, held))
                    for i, (rp, store) in enumerate(paths):
                        if sync:  # reactive: every path holds one link per hop
                            got, used, new = _exec_single(rp, draws, tally)
                            consumed[k] += used
                            created[k] += new
                        else:
                            got = _execute_policy(rp, kernel.take(rp, store), store,
                                                  kernel, draws, tally)
                            if reactive:  # its partial segments die with the slot's path
                                kernel.disposed["discarded"] += store.discard()
                        if reactive:
                            request_cols[rp.request_id][k] += got
                        else:
                            path_cols[i].append(got)
                    if not sync:
                        out["failed"] = kernel.end_slot(slot, held)
                        if out["failed"]:
                            return out

            for rp, hist, col in zip(bound, out["paths"], path_cols):
                request_cols[rp.request_id] = list(
                    map(add, request_cols[rp.request_id], col))
                _count(hist, Counter(col).items())
            for rid, col in request_cols.items():
                _count(out["requests"][rid], Counter(col).items())
            if sync:  # a slot may not use more than it made
                delivered = list(map(sum, zip(repeat(0, size), *request_cols.values())))
                over = list(map(gt, map(add, consumed, delivered), created))
                if True in over:
                    k = over.index(True)
                    out["failed"] = (f"slot {start + k}: consumed {consumed[k]} + "
                                     f"delivered {delivered[k]} > created {created[k]}")
                    return out
                ledger["consumed"] += sum(consumed)
                ledger["discarded"] += sum(created) - sum(consumed) - sum(delivered)
                ledger["delivered"] += sum(delivered)
        if not sync:
            out["ledger"] = {r: kernel.disposed[r] - n for r, n in disposed.items()}
            out["state"] = kernel.state(held)
        return out


def _merge(stats: SimStats, part: dict) -> None:
    """Add a slot range's tally (`_Run.tally`) to `stats`. Ranges merge in
    slot order, and each stops at its first failing slot, so the first
    failed tally raises the run's earliest failure, as one range would."""
    if part["failed"]:
        raise AssertionError(part["failed"])
    for entry, hist in zip(stats.per_path.values(), part["paths"]):
        _count(entry["hist"], enumerate(hist))
    for rid, hist in part["requests"].items():
        _count(stats.per_request[rid]["hist"], enumerate(hist))
    for kind, (attempts, successes) in part["swaps"].items():
        entry = stats.swap_counters.setdefault(kind, {"attempts": 0, "successes": 0})
        entry["attempts"] += attempts
        entry["successes"] += successes
    stats.links_generated += part["links"]
    for reason, count in part["ledger"].items():
        stats.entities_disposed[reason] += count


def simulate(graph: NetworkGraph, plan_or_requests, config: SimConfig) -> SimStats:
    """Run the slotted simulation; fully deterministic for a given seed.

    Every slot checks the entity ledger: under sync, from the block's
    columns, that no slot used more than it made; under async,
    `_AsyncKernel.end_slot`.

    Replicas with different seeds share no mutable state and can run in
    parallel. Within one run, the slots may split into contiguous ranges
    across CPUs (`draws._slot_ranges`). An async range's worker starts from
    empty memory and counts from the block where its state meets the
    serial run's; this process runs every block before that itself, all of
    them when the two never meet, and a worker whose first block ends
    elsewhere when run from empty memory again stops there. Every process
    a run starts is reaped before it returns or raises.
    """
    run = _Run(graph, plan_or_requests, config)
    stats = SimStats(
        slots_run=config.slots,
        seed=config.seed,
        scheme=config.scheme,
        forwarding=config.forwarding,
        policy=config.policy.kind,
        entities_disposed=dict.fromkeys(DISPOSE_REASONS, 0),
    )
    for rp in run.bound:
        stats.per_path[rp.label] = {
            "request": rp.request_id,
            "nodes": list(rp.path.nodes),
            "width": rp.path.width,
            "delivered": 0,
            "hist": [0] * (rp.path.width + 1),
        }
    for rid in run.request_ids:
        stats.per_request[rid] = {"delivered": 0, "hist": [0]}
    tallies = _slot_ranges(run, config.slots)
    try:  # closing the tallies reaps every worker, also when a check fails
        for part in tallies:
            _merge(stats, part)
    finally:
        tallies.close()
    for entry in (*stats.per_path.values(), *stats.per_request.values()):
        entry["delivered"] = sum(map(mul, entry["hist"], itertools.count()))
    stats.delivered_total = sum(e["delivered"] for e in stats.per_request.values())
    stats.swap_counters = dict(sorted(stats.swap_counters.items()))
    return stats


def _count(hist: list[int], counts) -> None:
    """Add (pairs delivered in a slot, slots) counts to a histogram, which
    grows: async forwarding can deliver more pairs in one slot than a path
    is wide."""
    for k, slots in counts:
        if k >= len(hist):
            hist.extend([0] * (k + 1 - len(hist)))
        hist[k] += slots
