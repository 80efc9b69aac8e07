"""Time-slotted stochastic simulator and the exact enumeration oracle.

Each slot runs purge -> external phase (link generation) -> optional
reactive path computation -> internal phase (swapping) -> bookkeeping.
All randomness comes from a counter-based stream keyed by the draw's
coordinates, so runs with the same seed see identical link realizations
regardless of forwarding mode; that is what makes paired sync-vs-async
comparisons meaningful.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
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

    __slots__ = ("seed", "_link_base", "_swap_base")

    def __init__(self, seed: int):
        self.seed = seed & MASK64
        self._link_base = _mix64((self.seed + _GAMMA * (_LINK_DOMAIN + 1)) & MASK64)
        self._swap_base = _mix64((self.seed + _GAMMA * (_SWAP_DOMAIN + 1)) & MASK64)

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

    def link_draw(self, slot: int, edge_index: int, channel: int) -> float:
        return self.draw_from_base(self.link_slot_base(slot), edge_index, channel)

    def swap_draw(self, slot: int, node_index: int, seq: int) -> float:
        return self.draw_from_base(self.swap_slot_base(slot), node_index, seq)


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
    """Mutable per-run state: live links per edge channel plus segments.

    Keeps an entity ledger (created == live + disposed, no double disposal)
    so tests can assert conservation each slot.
    """

    def __init__(self, graph: NetworkGraph):
        self.graph = graph
        self.slot_index = 0
        self.links: dict[tuple[str, str], dict[int, Span]] = {}
        self.segments: list[Span] = []
        self._next_id = 0
        self.created = 0
        self.disposed = {reason: 0 for reason in DISPOSE_REASONS}

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

    def link_count(self, u: str, v: str) -> int:
        return len(self.links.get(edge_key(u, v), {}))

    def purge_expired(self, slot: int) -> int:
        expired = 0
        node = self.graph.node
        for span in self.live_spans():
            if (
                slot - span.left_birth >= node(span.left).memory_cutoff_slots
                or slot - span.right_birth >= node(span.right).memory_cutoff_slots
            ):
                self.dispose(span, "expired")
                expired += 1
        if expired or self.segments:
            self.segments = [s for s in self.segments if s.alive]
        return expired

    def discard_all(self) -> None:
        for span in self.live_spans():
            self.dispose(span, "discarded")
        self.segments = []

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
        return {
            "slots_run": self.slots_run,
            "seed": self.seed,
            "scheme": self.scheme,
            "forwarding": self.forwarding,
            "policy": self.policy,
            "delivered_total": self.delivered_total,
            "per_request": self.per_request,
            "per_path": self.per_path,
            "swap_counters": self.swap_counters,
            "links_generated": self.links_generated,
            "entities_disposed": self.entities_disposed,
        }


def sample_external_phase(
    graph: NetworkGraph,
    scope: dict[tuple[str, str], int],
    state: SlotState,
    rng: KeyedRng,
    slot: int,
) -> list[Span]:
    """Attempt link generation on every free in-scope channel.

    Draws are keyed by (slot, edge, channel), so the realization for a
    given seed does not depend on scope or occupancy of other channels.
    """
    schedule = [
        (key, graph.edge_index(*key), graph.edge(*key).link_prob, width)
        for key, width in sorted(scope.items())
        if width >= 1
    ]
    return _generate_links(schedule, state, rng, slot)


def _generate_links(schedule, state: SlotState, rng: KeyedRng, slot: int) -> list[Span]:
    created = []
    base = rng.link_slot_base(slot)
    draw = rng.draw_from_base
    for key, eidx, p, width in schedule:
        occupied = state.links.get(key)
        for ch in range(width):
            if occupied and ch in occupied:
                continue
            if draw(base, eidx, ch) < p:
                created.append(state.add_link(key[0], key[1], ch, slot))
    return created


# ---------------------------------------------------------------------------
# Internal phase


class _SwapDraws:
    """Per-slot swap randomness: sequence numbers restart every slot so
    identical event orders reproduce identical outcomes across runs."""

    __slots__ = ("_rank", "_rng", "_base", "seq")

    def __init__(self, graph: NetworkGraph, rng: KeyedRng, slot: int):
        self._rank = graph._node_rank()
        self._rng = rng
        self._base = rng.swap_slot_base(slot)
        self.seq: dict[str, int] = {}

    def reset(self, slot: int) -> None:
        self._base = self._rng.swap_slot_base(slot)
        self.seq.clear()

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
    delivered = 0
    attempts = successes = 0
    nodes = path.nodes
    qs = path.interior_swap_probs
    for i in range(lanes):
        ok = True
        for j in range(1, n):
            attempts += 1
            if draws.success(nodes[j], qs[j - 1]):
                successes += 1
            else:
                ok = False
        lane = [by_hop[h][i] for h in range(n)]
        for s in lane:
            state.dispose(s, "consumed")
        if ok:
            e2e = state.add_segment(
                nodes[0], nodes[-1],
                lane[0].left_birth, lane[-1].right_birth, owner=rp.label,
            )
            state.dispose(e2e, "delivered")
            delivered += 1
    stats.record_swaps("parallel", attempts, successes)
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


def run_internal_phase(
    state: SlotState,
    paths: list[tuple[PathSpec, SwapPolicy]],
    rng: KeyedRng,
    stats: SimStats | None = None,
) -> list[int]:
    """Execute swapping on live spans; returns deliveries per path.

    Each path binds live links on its hop edges in ascending id order (up
    to its per-hop width) plus any of its own persisted segments.
    """
    stats = stats or SimStats(0, rng.seed, "-", "-", "-")
    slot = state.slot_index
    draws = _SwapDraws(state.graph, rng, slot)
    assigned: set[int] = set()
    delivered = []
    for idx, (path, policy) in enumerate(paths):
        rp = _RuntimePath.build(f"path{idx}", f"path{idx}", path, policy)
        spans = _bind_rank(state, rp, assigned)
        delivered.append(_execute_policy(rp, spans, state, draws, stats))
    return delivered


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
        width = path.per_hop_capacity[h]
        taken = 0
        for s in live:
            if taken >= width:
                break
            if s.span_id in assigned:
                continue
            assigned.add(s.span_id)
            spans.append(s)
            taken += 1
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
    state = SlotState(graph)
    sync = config.forwarding == "sync"

    if config.scheme == "proactive":
        if not isinstance(plan_or_requests, AllocationPlan):
            raise ValueError("proactive simulation needs an AllocationPlan")
        bound = _bind_plan(graph, plan_or_requests)
        scope: dict[tuple[str, str], int] = {}
        for rp in bound:
            for key, start, width in rp.channels:
                scope[key] = max(scope.get(key, 0), start + width)
        # unallocated requests still show up in the stats, at zero
        request_ids = sorted(
            {rp.request_id for rp in bound}
            | {r.id for r in plan_or_requests.requests}
        )
        for rp in bound:
            stats.per_path[rp.label] = {
                "request": rp.request_id,
                "nodes": list(rp.path.nodes),
                "width": rp.path.width,
                "delivered": 0,
                "hist": [0] * (rp.path.width + 1),
            }
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
        hist = entry["hist"]
        while len(hist) <= count:
            hist.append(0)
        hist[count] += 1

    draws = _SwapDraws(graph, rng, 0)
    for slot in range(config.slots):
        state.slot_index = slot
        if not sync:
            state.purge_expired(slot)
        stats.links_generated += len(_generate_links(gen_schedule, state, rng, slot))
        draws.reset(slot)

        if config.scheme == "proactive":
            slot_totals = dict.fromkeys(request_ids, 0)
            for rp in bound:
                spans = _collect_owned(state, rp)
                got = _execute_policy(rp, spans, state, draws, stats)
                entry = stats.per_path[rp.label]
                entry["hist"][got] += 1
                if got:
                    entry["delivered"] += got
                    slot_totals[rp.request_id] += got
                    stats.delivered_total += got
            for rid in request_ids:
                record_request(rid, slot_totals[rid])
        else:
            counts = {
                key: len(chans) for key, chans in state.links.items() if chans
            }
            assigned: set[int] = set()
            for req in requests:
                logical = LogicalTopology(counts=dict(counts))
                paths = disjoint_paths_on_logical(
                    logical, graph, req.source, req.dest,
                    config.max_paths_per_request, config.node_disjoint,
                )
                got_total = 0
                for p_idx, path in enumerate(paths):
                    for u, v in zip(path.nodes, path.nodes[1:]):
                        counts[edge_key(u, v)] -= 1
                    rp = _RuntimePath.build(
                        f"{req.id}/{slot}/{p_idx}", req.id, path, config.policy
                    )
                    spans = _bind_rank(state, rp, assigned)
                    got_total += _execute_policy(rp, spans, state, draws, stats)
                record_request(req.id, got_total)
                stats.delivered_total += got_total
            # partial segments are not reusable once paths are recomputed
            for seg in state.segments:
                if seg.alive:
                    state.dispose(seg, "discarded")
            state.segments = []

        if sync:
            state.discard_all()
        elif state.segments:
            state.segments = [s for s in state.segments if s.alive]
        state.check_conservation()

    stats.entities_disposed = dict(state.disposed)
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
