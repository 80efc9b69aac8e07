"""Time-slotted stochastic simulator and the exact enumeration oracle.

Each slot runs purge -> external phase (link generation) -> optional
reactive path computation -> internal phase (swapping) -> bookkeeping.
All randomness comes from a counter-based stream keyed by the draw's
coordinates, so runs with the same seed see identical link realizations
regardless of forwarding mode; that is what makes paired sync-vs-async
comparisons meaningful.

Sync forwarding discards everything at slot end, so a sync slot runs on
per-hop link counts alone. Async forwarding keeps links and segments until
a memory cutoff expires them, so it tracks each one as an aged `Span`.
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
    doubling_tree,
    sequential_tree,
    validate_tree,
)
from .netmodel import NetworkGraph, edge_key
from .pathfind import LogicalTopology, disjoint_paths_on_logical
from .routing import AllocationPlan, Request

MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_M1 = 0xBF58476D1CE4E5B9
_M2 = 0x94D049BB133111EB
_LINK_DOMAIN = 0x4C494E4B
_SWAP_DOMAIN = 0x53574150
_INV53 = 2.0**-53


def _mix64(h: int) -> int:
    """splitmix64 finalizer."""
    h = (h ^ (h >> 30)) * _M1 & MASK64
    h = (h ^ (h >> 27)) * _M2 & MASK64
    return h ^ (h >> 31)


class KeyedRng:
    """Stateless uniform stream: each draw is a pure function of the seed
    and its coordinates (domain, slot, entity index, sequence number)."""

    __slots__ = ("_link_base", "_swap_base")

    def __init__(self, seed: int):
        seed &= MASK64
        self._link_base = _mix64((seed + _GAMMA * (_LINK_DOMAIN + 1)) & MASK64)
        self._swap_base = _mix64((seed + _GAMMA * (_SWAP_DOMAIN + 1)) & MASK64)

    def link_slot_base(self, slot: int) -> int:
        return _mix64((self._link_base + _GAMMA * (slot + 1)) & MASK64)

    def swap_slot_base(self, slot: int) -> int:
        return _mix64((self._swap_base + _GAMMA * (slot + 1)) & MASK64)

    @staticmethod
    def draw_from_base(base: int, a: int, b: int) -> float:
        # two absorb/finalize rounds, inlined: this is the simulator's
        # innermost loop
        h = (base + _GAMMA * (a + 1)) & MASK64
        h = (h ^ (h >> 30)) * _M1 & MASK64
        h = (h ^ (h >> 27)) * _M2 & MASK64
        h ^= h >> 31
        h = (h + _GAMMA * (b + 1)) & MASK64
        h = (h ^ (h >> 30)) * _M1 & MASK64
        h = (h ^ (h >> 27)) * _M2 & MASK64
        h ^= h >> 31
        return (h >> 11) * _INV53


@dataclass(slots=True)
class Span:
    """A live entanglement: elementary link (one hop) or swapped segment."""

    span_id: int
    left: str
    right: str
    left_birth: int
    right_birth: int
    edge: tuple[str, str] | None = None  # set for elementary links
    channel: int = -1
    owner: str | None = None  # path label for persisted segments
    alive: bool = True


DISPOSE_REASONS = ("consumed", "expired", "discarded", "delivered")


class SlotState:
    """Async run state: live links per edge channel plus segments.

    Keeps an entity ledger (created == live + disposed, no double disposal)
    that is checked every slot.
    """

    def __init__(self, graph: NetworkGraph):
        self.graph = graph
        self.links: dict[tuple[str, str], dict[int, Span]] = {}
        self.segments: list[Span] = []
        self._next_id = 0
        self.created = 0
        self.disposed = dict.fromkeys(DISPOSE_REASONS, 0)

    def add_link(self, u: str, v: str, channel: int, slot: int) -> Span:
        key = edge_key(u, v)
        span = Span(
            span_id=self._next_id, left=key[0], right=key[1],
            left_birth=slot, right_birth=slot, edge=key, channel=channel,
        )
        self._next_id += 1
        self.created += 1
        self.links.setdefault(key, {})[channel] = span
        return span

    def add_segment(
        self, left: str, right: str, left_birth: int, right_birth: int,
        owner: str | None,
    ) -> Span:
        span = Span(
            span_id=self._next_id, left=left, right=right,
            left_birth=left_birth, right_birth=right_birth, owner=owner,
        )
        self._next_id += 1
        self.created += 1
        self.segments.append(span)
        return span

    def dispose(self, span: Span, reason: str) -> None:
        if not span.alive:
            raise AssertionError(f"span {span.span_id} disposed twice")
        span.alive = False
        self.disposed[reason] += 1
        if span.edge is not None:
            channels = self.links.get(span.edge)
            if channels and channels.get(span.channel) is span:
                del channels[span.channel]

    def live_spans(self) -> list[Span]:
        out = [s for chans in self.links.values() for s in chans.values()]
        out.extend(s for s in self.segments if s.alive)
        return out

    def purge_expired(self, slot: int) -> None:
        node = self.graph.node
        for span in self.live_spans():
            if (
                slot - span.left_birth >= node(span.left).memory_cutoff_slots
                or slot - span.right_birth >= node(span.right).memory_cutoff_slots
            ):
                self.dispose(span, "expired")
        self.segments = [s for s in self.segments if s.alive]

    def check_conservation(self) -> None:
        live = len(self.live_spans())
        total_disposed = sum(self.disposed.values())
        if self.created != live + total_disposed:
            raise AssertionError(
                f"entity ledger broken: created {self.created} != "
                f"live {live} + disposed {total_disposed}"
            )


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

    def record_swaps(self, policy_kind: str, attempts: int, successes: int) -> None:
        if not attempts:
            return
        entry = self.swap_counters.setdefault(
            policy_kind, {"attempts": 0, "successes": 0}
        )
        entry["attempts"] += attempts
        entry["successes"] += successes

    def to_dict(self) -> dict:
        return asdict(self)


def _generate_links(schedule, state: SlotState, rng: KeyedRng, slot: int) -> int:
    """Async link generation on every free in-scope channel; returns the
    number of links created. Draws are keyed by (slot, edge, channel), so
    the realization does not depend on which channels are occupied."""
    created = 0
    base = rng.link_slot_base(slot)
    draw = rng.draw_from_base
    for key, eidx, p, width in schedule:
        occupied = state.links.get(key)
        for ch in range(width):
            if occupied and ch in occupied:
                continue
            if draw(base, eidx, ch) < p:
                state.add_link(key[0], key[1], ch, slot)
                created += 1
    return created


# ---------------------------------------------------------------------------
# Internal phase


class _SwapDraws:
    """One slot's swap randomness: sequence numbers count per node from 0,
    so identical event orders reproduce identical outcomes across runs."""

    __slots__ = ("_rank", "_base", "seq")

    def __init__(self, rank: dict[str, int], base: int):
        self._rank = rank
        self._base = base
        self.seq: dict[str, int] = {}

    def success(self, node: str, q: float) -> bool:
        seq = self.seq.get(node, 0)
        self.seq[node] = seq + 1
        return KeyedRng.draw_from_base(self._base, self._rank[node], seq) < q


def _merge_schedule_from_tree(tree: SwapOrderTree) -> tuple[tuple[int, int, int], ...]:
    """Post-order (left_start, merge_node, right_end) triples for a tree."""
    ops: list[tuple[int, int, int]] = []

    def walk(node: SwapOrderTree) -> tuple[int, int]:
        if node.is_leaf:
            return node.hop, node.hop + 1
        a, mid = walk(node.left)
        mid2, b = walk(node.right)
        ops.append((a, mid, b))
        return a, b

    walk(tree)
    return tuple(ops)


@lru_cache(maxsize=None)
def _static_merge_schedule(kind: str, n_hops: int) -> tuple[tuple[int, int, int], ...]:
    tree = sequential_tree(n_hops) if kind == "sequential" else doubling_tree(n_hops)
    return _merge_schedule_from_tree(tree)


@dataclass(frozen=True)
class _RuntimePath:
    """Per-path execution context precomputed once, reused every slot."""

    label: str
    request_id: str
    path: PathSpec
    policy: SwapPolicy
    pos: dict  # node id -> path position
    schedule: tuple[tuple[int, int, int], ...] | None  # tree policies only
    channels: tuple[tuple[tuple[str, str], int, int], ...] = ()

    @classmethod
    def build(cls, label, request_id, path, policy, channels=()):
        if policy.kind in ("sequential", "doubling"):
            schedule = _static_merge_schedule(policy.kind, path.hop_count)
        elif policy.kind == "explicit":
            validate_tree(policy.tree, path.hop_count)
            schedule = _merge_schedule_from_tree(policy.tree)
        else:
            schedule = None
        return cls(
            label=label, request_id=request_id, path=path, policy=policy,
            pos={node: i for i, node in enumerate(path.nodes)},
            schedule=schedule, channels=tuple(channels),
        )


def _exec_counts(rp: _RuntimePath, counts: list[int], draws: _SwapDraws, stats):
    """Sync swapping on per-hop link counts; returns (delivered, consumed,
    segments created).

    Draws in the same order as `_exec_tree` and `_exec_parallel`, so the
    outcome equals theirs on a slot that starts empty.
    """
    nodes = rp.path.nodes
    qs = rp.path.interior_swap_probs
    n = len(counts)
    if rp.schedule is None:  # parallel: each lane draws every interior swap
        lanes = min(counts)
        delivered = successes = 0
        for _ in range(lanes):
            won = [draws.success(nodes[j], qs[j - 1]) for j in range(1, n)]
            successes += sum(won)
            delivered += all(won)
        stats.record_swaps("parallel", lanes * (n - 1), successes)
        return delivered, lanes * n, delivered
    pools = {(h, h + 1): c for h, c in enumerate(counts)}
    attempts = successes = 0
    for a, mid, b in rp.schedule:  # post-order: both inputs are filled
        m = min(pools[a, mid], pools[mid, b])
        pools[a, b] = sum(draws.success(nodes[mid], qs[mid - 1]) for _ in range(m))
        attempts += m
        successes += pools[a, b]
    stats.record_swaps(rp.policy.kind, attempts, successes)
    return pools[0, n], 2 * attempts, successes


def _exec_parallel(rp: _RuntimePath, spans, state, draws, stats):
    path = rp.path
    n = path.hop_count
    pos = rp.pos
    by_hop: list[list[Span]] = [[] for _ in range(n)]
    for s in spans:
        if s.alive and s.edge is not None:
            a = pos[s.left]
            b = pos[s.right]
            by_hop[a if a < b else b].append(s)
    lanes = min(len(lst) for lst in by_hop)
    if not lanes:
        return 0
    for lst in by_hop:
        lst.sort(key=_span_order)
    delivered = successes = 0
    nodes = path.nodes
    qs = path.interior_swap_probs
    for i in range(lanes):
        won = [draws.success(nodes[j], qs[j - 1]) for j in range(1, n)]
        successes += sum(won)
        lane = [by_hop[h][i] for h in range(n)]
        for s in lane:
            state.dispose(s, "consumed")
        if all(won):
            e2e = state.add_segment(
                nodes[0], nodes[-1],
                lane[0].left_birth, lane[-1].right_birth, owner=rp.label,
            )
            state.dispose(e2e, "delivered")
            delivered += 1
    stats.record_swaps("parallel", lanes * (n - 1), successes)
    return delivered


def _span_order(s: Span) -> int:
    return s.span_id


def _exec_tree(rp: _RuntimePath, spans, state, draws, stats):
    path = rp.path
    pos = rp.pos
    n = path.hop_count
    pools: dict[tuple[int, int], list[Span]] = {}
    for s in spans:
        if not s.alive:
            continue
        a = pos[s.left]
        b = pos[s.right]
        if a > b:
            a, b = b, a
        pools.setdefault((a, b), []).append(s)
    for pool in pools.values():
        pool.sort(key=_span_order)

    attempts = successes = 0
    nodes = path.nodes
    qs = path.interior_swap_probs
    empty: list[Span] = []
    for a, mid, b in rp.schedule:
        lefts = pools.get((a, mid), empty)
        rights = pools.get((mid, b), empty)
        m = min(len(lefts), len(rights))
        if not m:
            continue
        node = nodes[mid]
        q = qs[mid - 1]
        out = pools.setdefault((a, b), [])
        for i in range(m):
            ls = lefts[i]
            rs = rights[i]
            attempts += 1
            ok = draws.success(node, q)
            state.dispose(ls, "consumed")
            state.dispose(rs, "consumed")
            if ok:
                successes += 1
                out.append(
                    state.add_segment(
                        nodes[a], nodes[b],
                        ls.left_birth, rs.right_birth, owner=rp.label,
                    )
                )
        del lefts[:m]
        del rights[:m]

    delivered = 0
    for s in pools.get((0, n), ()):
        state.dispose(s, "delivered")
        delivered += 1
    stats.record_swaps(rp.policy.kind, attempts, successes)
    return delivered


def _exec_adhoc(rp: _RuntimePath, spans, state, draws, stats):
    path = rp.path
    pos = rp.pos
    n = path.hop_count
    attempts = successes = delivered = 0
    # extents tracked alongside each span to avoid re-deriving positions
    avail: list[tuple[int, int, Span]] = []
    for s in spans:
        if not s.alive:
            continue
        a = pos[s.left]
        b = pos[s.right]
        if a > b:
            a, b = b, a
        if (a, b) == (0, n):
            state.dispose(s, "delivered")
            delivered += 1
        else:
            avail.append((a, b, s))

    nodes = path.nodes
    qs = path.interior_swap_probs
    changed = True
    while changed:
        changed = False
        for j in range(1, n):
            lefts = sorted(
                (t for t in avail if t[2].alive and t[1] == j),
                key=lambda t: t[2].span_id,
            )
            rights = sorted(
                (t for t in avail if t[2].alive and t[0] == j),
                key=lambda t: t[2].span_id,
            )
            if not lefts or not rights:
                continue
            node = nodes[j]
            q = qs[j - 1]
            for (la, _, ls), (_, rb, rs) in zip(lefts, rights):
                changed = True
                attempts += 1
                ok = draws.success(node, q)
                state.dispose(ls, "consumed")
                state.dispose(rs, "consumed")
                if ok:
                    successes += 1
                    merged = state.add_segment(
                        nodes[la], nodes[rb],
                        ls.left_birth, rs.right_birth, owner=rp.label,
                    )
                    if (la, rb) == (0, n):
                        state.dispose(merged, "delivered")
                        delivered += 1
                    else:
                        avail.append((la, rb, merged))
        avail = [t for t in avail if t[2].alive]
    stats.record_swaps("adhoc", attempts, successes)
    return delivered


def _execute_policy(rp: _RuntimePath, spans, state, draws, stats):
    if rp.policy.kind == "parallel":
        return _exec_parallel(rp, spans, state, draws, stats)
    if rp.policy.kind == "adhoc":
        return _exec_adhoc(rp, spans, state, draws, stats)
    return _exec_tree(rp, spans, state, draws, stats)


def _bind_rank(state: SlotState, rp: _RuntimePath, assigned: set[int]) -> list[Span]:
    """Ascending-id binding: per hop take the lowest-id free live links."""
    path = rp.path
    spans = []
    for h in range(path.hop_count):
        live = sorted(
            state.links.get(
                edge_key(path.nodes[h], path.nodes[h + 1]), {}
            ).values(),
            key=_span_order,
        )
        free = [s for s in live if s.span_id not in assigned]
        free = free[:path.per_hop_capacity[h]]
        assigned.update(s.span_id for s in free)
        spans.extend(free)
    for seg in state.segments:
        if seg.alive and seg.owner == rp.label:
            spans.append(seg)
    return spans


# ---------------------------------------------------------------------------
# Full simulation


def _bind_plan(graph: NetworkGraph, plan: AllocationPlan) -> list[_RuntimePath]:
    offsets: dict[tuple[str, str], int] = {}
    bound = []
    per_request_counter: dict[str, int] = {}
    for alloc in plan.allocations:
        i = per_request_counter.get(alloc.request_id, 0)
        per_request_counter[alloc.request_id] = i + 1
        chans = []
        for h in range(alloc.path.hop_count):
            key = edge_key(alloc.path.nodes[h], alloc.path.nodes[h + 1])
            width = alloc.path.per_hop_capacity[h]
            start = offsets.get(key, 0)
            if start + width > graph.edge(*key).capacity:
                raise ValueError(
                    f"plan overallocates edge {key}: {start + width} > "
                    f"{graph.edge(*key).capacity}"
                )
            offsets[key] = start + width
            chans.append((key, start, width))
        bound.append(
            _RuntimePath.build(
                label=f"{alloc.request_id}[{i}]",
                request_id=alloc.request_id,
                path=alloc.path,
                policy=alloc.policy,
                channels=chans,
            )
        )
    return bound


def _collect_owned(state: SlotState, rp: _RuntimePath) -> list[Span]:
    spans = []
    links = state.links
    for key, start, width in rp.channels:
        chans = links.get(key)
        if not chans:
            continue
        if width == 1:
            span = chans.get(start)
            if span is not None:
                spans.append(span)
            continue
        for ch in range(start, start + width):
            span = chans.get(ch)
            if span is not None:
                spans.append(span)
    for seg in state.segments:
        if seg.alive and seg.owner == rp.label:
            spans.append(seg)
    return spans


def _reactive_paths(graph, requests, counts, config: SimConfig, slot: int):
    """One slot's reactive paths, request by request, found on the realized
    link `counts`; each path takes one link per hop off `counts`."""
    for req in requests:
        paths = disjoint_paths_on_logical(
            LogicalTopology(counts=dict(counts)), graph, req.source, req.dest,
            config.max_paths_per_request, config.node_disjoint,
        )
        for p_idx, path in enumerate(paths):
            for u, v in zip(path.nodes, path.nodes[1:]):
                counts[edge_key(u, v)] -= 1
            yield _RuntimePath.build(
                f"{req.id}/{slot}/{p_idx}", req.id, path, config.policy
            )


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
        policy=config.policy.label(),
    )
    sync = config.forwarding == "sync"
    reactive = config.scheme == "reactive"

    if not reactive:
        if not isinstance(plan_or_requests, AllocationPlan):
            raise ValueError("proactive simulation needs an AllocationPlan")
        bound = _bind_plan(graph, plan_or_requests)
        scope: dict[tuple[str, str], int] = {}
        for rp in bound:
            if sync and rp.policy.kind == "adhoc":
                raise ValueError(
                    f"path {rp.label}: adhoc swapping needs async forwarding"
                )
            for key, start, width in rp.channels:
                scope[key] = max(scope.get(key, 0), start + width)
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
    else:
        if isinstance(plan_or_requests, AllocationPlan):
            raise ValueError(
                "reactive simulation needs a list of requests; paths are "
                "recomputed from the logical topology each slot"
            )
        requests = list(plan_or_requests)
        if not all(isinstance(r, Request) for r in requests):
            raise ValueError("reactive simulation needs a list of requests")
        requests.sort(key=lambda r: r.id)
        scope = {edge_key(e.u, e.v): e.capacity for e in graph.edges}
        request_ids = [r.id for r in requests]

    gen_schedule = [
        (key, graph.edge_index(*key), graph.edge(*key).link_prob, width)
        for key, width in sorted(scope.items())
        if width >= 1
    ]

    for rid in request_ids:
        stats.per_request[rid] = {"delivered": 0, "hist": [0]}

    def record_request(rid: str, count: int) -> None:
        entry = stats.per_request[rid]
        entry["delivered"] += count
        stats.delivered_total += count
        hist = entry["hist"]
        while len(hist) <= count:
            hist.append(0)
        hist[count] += 1

    rank = graph._node_rank()
    draw = rng.draw_from_base
    # sync tallies entities per slot; async keeps live spans across slots
    ledger = dict.fromkeys(DISPOSE_REASONS, 0)
    state = None if sync else SlotState(graph)
    for slot in range(config.slots):
        draws = _SwapDraws(rank, rng.swap_slot_base(slot))
        if sync:
            base = rng.link_slot_base(slot)
            bits = {
                key: [draw(base, eidx, ch) < p for ch in range(width)]
                for key, eidx, p, width in gen_schedule
            }
            created = sum(map(sum, bits.values()))
            consumed = 0
        else:
            state.purge_expired(slot)
            created = _generate_links(gen_schedule, state, rng, slot)
        stats.links_generated += created

        if reactive:
            if sync:
                counts = {key: c for key, b in bits.items() if (c := sum(b))}
            else:
                counts = {key: len(ch) for key, ch in state.links.items() if ch}
                assigned: set[int] = set()
            paths = _reactive_paths(graph, requests, counts, config, slot)
        else:
            paths = bound
        slot_totals = dict.fromkeys(request_ids, 0)
        for rp in paths:
            if sync:
                hops = (
                    [1] * rp.path.hop_count if reactive
                    else [sum(bits[key][start:start + width])
                          for key, start, width in rp.channels]
                )
                got, used, segments = _exec_counts(rp, hops, draws, stats)
                consumed += used
                created += segments
            else:
                spans = (
                    _bind_rank(state, rp, assigned) if reactive
                    else _collect_owned(state, rp)
                )
                got = _execute_policy(rp, spans, state, draws, stats)
            slot_totals[rp.request_id] += got
            if not reactive:
                entry = stats.per_path[rp.label]
                entry["hist"][got] += 1
                entry["delivered"] += got
        for rid in request_ids:
            record_request(rid, slot_totals[rid])

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
            if reactive:  # partial segments die once paths are recomputed
                for seg in state.segments:
                    if seg.alive:
                        state.dispose(seg, "discarded")
            state.segments = [s for s in state.segments if s.alive]
            state.check_conservation()

    stats.entities_disposed = ledger if sync else dict(state.disposed)
    return stats


# ---------------------------------------------------------------------------
# Exact enumeration oracle

_ORACLE_MAX_HOPS = 5
_ORACLE_MAX_CAP = 3


@lru_cache(maxsize=None)
def _channel_count_weights(cap: int, p: float) -> tuple[float, ...]:
    """P(k of `cap` channels succeed), by enumerating every bit pattern."""
    weights = [0.0] * (cap + 1)
    for bits in itertools.product((0, 1), repeat=cap):
        prob = 1.0
        for b in bits:
            prob *= p if b else (1.0 - p)
        weights[sum(bits)] += prob
    return tuple(weights)


@lru_cache(maxsize=None)
def _swap_pattern_outcomes(m: int, q: float) -> tuple[tuple[int, float], ...]:
    """P(s of m independent swap attempts succeed), by bit enumeration."""
    acc: dict[int, float] = {}
    for bits in itertools.product((0, 1), repeat=m):
        prob = 1.0
        for b in bits:
            prob *= q if b else (1.0 - q)
        s = sum(bits)
        acc[s] = acc.get(s, 0.0) + prob
    return tuple(sorted(acc.items()))


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
            m = min(lc, rc)
            if m == 0:
                acc[0] = acc.get(0, 0.0) + lp * rp
                continue
            for s, sp in _swap_pattern_outcomes(m, q):
                acc[s] = acc.get(s, 0.0) + lp * rp * sp
    return acc
