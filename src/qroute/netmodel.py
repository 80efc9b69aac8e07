"""Physical topology model: nodes, edges, and per-slot link success probabilities.

The graph is immutable after construction and safe to share between threads;
all downstream computations treat it as read-only.
"""

from __future__ import annotations

import math
import warnings
from types import MappingProxyType

from .record import Record, _set

# Swap success bound for linear-optics Bell measurements; ancilla-assisted
# schemes reach ~0.579.
LINEAR_OPTICS_SWAP_BOUND = 0.5
ADVANCED_SWAP_BOUND = 0.579

SWAP_BOUND_MODES = ("off", "linear-optics", "advanced")

# One-way classical signalling speed in fiber, km/s.
CLASSICAL_SIGNAL_KM_PER_S = 2e5


class GraphValidationError(ValueError):
    """Raised when node/edge specs violate the model's invariants."""


class SwapBoundWarning(UserWarning, ValueError):
    """A swap_prob above the best demonstrated Bell-measurement success rate
    under swap_bound_mode "off". It is a ValueError too, so under `-W error`
    a scenario reports it as bad input, naming its JSON path."""


class NodeParams(Record):
    __slots__ = _fields = ("id", "swap_prob", "memory_cutoff_slots")

    def __init__(self, id: str, swap_prob: float = 0.5, memory_cutoff_slots: int = 1):
        _set(self, "id", id)
        _set(self, "swap_prob", swap_prob)
        _set(self, "memory_cutoff_slots", memory_cutoff_slots)
        if not 0 <= swap_prob <= 1:
            self._reject("swap_prob", "outside [0, 1]")
        if memory_cutoff_slots < 1:
            self._reject("memory_cutoff_slots", "below 1")

    def _reject(self, name: str, why: str):
        # "<keyword>: why", so a scenario error can name the JSON field; a
        # grid's template node has no id yet
        node = f"node {self.id!r}" if self.id else "template node"
        raise GraphValidationError(f"{name}: {node} has {name} {getattr(self, name)}, {why}")


class EdgeParams(Record):
    __slots__ = _fields = ("u", "v", "capacity", "length_km", "link_prob")

    def __init__(self, u: str, v: str, capacity: int = 1, length_km: float = 0.0,
                 link_prob: float | None = None):
        _set(self, "u", u)
        _set(self, "v", v)
        _set(self, "capacity", capacity)
        _set(self, "length_km", length_km)
        _set(self, "link_prob", link_prob)
        if capacity < 0:
            self._reject("capacity", "below 0")
        if length_km < 0:
            self._reject("length_km", "below 0")
        if link_prob is not None and not 0 <= link_prob <= 1:
            self._reject("link_prob", "outside [0, 1]")

    def _reject(self, name: str, why: str):
        # "<keyword>: why", so a scenario error can name the JSON field; a
        # grid's template edge has no endpoints yet
        edge = f"edge ({self.u!r}, {self.v!r})" if self.u or self.v else "template edge"
        raise GraphValidationError(f"{name}: {edge} has {name} {getattr(self, name)}, {why}")


class PhysicalConstants(Record):
    """Network-wide physical parameters.

    attenuation_alpha is the fiber loss exponent per km (0.046/km is the
    usual 0.2 dB/km telecom figure); base_efficiency collects source and
    detector efficiencies into one factor; attempts_per_slot is the number
    of generation attempts one channel gets within a slot's external phase;
    swap_bound_mode caps every node's swap_prob at a Bell-measurement bound
    ("off" only warns above the ancilla-assisted one).
    """

    __slots__ = _fields = ("attenuation_alpha", "attempts_per_slot",
                           "base_efficiency", "swap_bound_mode")

    def __init__(self, attenuation_alpha: float = 0.046, attempts_per_slot: int = 1,
                 base_efficiency: float = 1.0, swap_bound_mode: str = "off"):
        # "<keyword>: why", so a scenario error can name the JSON field
        if attenuation_alpha < 0:
            raise GraphValidationError("attenuation_alpha: must be >= 0")
        if attempts_per_slot < 1:
            raise GraphValidationError("attempts_per_slot: must be >= 1")
        if not 0 < base_efficiency <= 1:
            raise GraphValidationError("base_efficiency: must be in (0, 1]")
        if swap_bound_mode not in SWAP_BOUND_MODES:
            raise GraphValidationError(
                f"swap_bound_mode: must be one of {SWAP_BOUND_MODES}, "
                f"got {swap_bound_mode!r}"
            )
        _set(self, "attenuation_alpha", attenuation_alpha)
        _set(self, "attempts_per_slot", attempts_per_slot)
        _set(self, "base_efficiency", base_efficiency)
        _set(self, "swap_bound_mode", swap_bound_mode)


def link_success_probability(
    length_km: float, alpha: float, eta: float, attempts: int
) -> float:
    """Per-slot probability that a channel yields at least one entangled pair.

    A single attempt succeeds with eta * exp(-alpha * L); the `attempts`
    tries within one slot are treated as independent Bernoulli trials on
    the same channel.
    """
    if length_km < 0:
        raise GraphValidationError("length_km must be >= 0")
    if alpha < 0:
        raise GraphValidationError("alpha must be >= 0")
    if not 0 < eta <= 1:
        raise GraphValidationError("eta must be in (0, 1]")
    if attempts < 1:
        raise GraphValidationError("attempts must be >= 1")
    single = eta * math.exp(-alpha * length_km)
    return 1.0 - (1.0 - single) ** attempts


def edge_key(u: str, v: str) -> tuple[str, str]:
    """Canonical (sorted) key for an undirected edge."""
    return (u, v) if u <= v else (v, u)


def classical_delay_ms(length_km: float) -> float:
    """One-way classical signalling delay over a fiber span, in ms."""
    return length_km / CLASSICAL_SIGNAL_KM_PER_S * 1e3


class NetworkGraph(Record):
    """Validated, immutable undirected topology with physical parameters.

    Nodes are sorted by id and edges by canonical endpoint pair, so two
    graphs built from the same specs compare and hash identically. A node's
    rank is its place in `nodes`, and an edge's index its place in `edges`;
    since both are sorted, rank order is id order and index order is key
    order. The engine works on ranks and indices; ids and keys (u, v) are
    read only where callers see them, as in a plan's residual and in error
    messages. The constructor is the one check of a topology's structure: it
    rejects duplicate ids, self-loops, unknown endpoints, repeated edges, and
    nodes or edges out of that order.
    """

    _fields = ("nodes", "edges", "phys")
    # the lookups derived from nodes and edges, which are not fields, so
    # `replace`, `==` and `hash` pass them by: node_rank and edge_index;
    # adjacency[rank], ((neighbour rank, edge index), ...) over every edge,
    # capacity 0 included, sorted by neighbour rank; and _memo, the tables
    # built on first use (search tables, specs)
    __slots__ = (*_fields, "node_rank", "edge_index", "adjacency", "_memo")

    def __init__(self, nodes: tuple[NodeParams, ...], edges: tuple[EdgeParams, ...],
                 phys: PhysicalConstants):
        ids = [n.id for n in nodes]
        keys = [(e.u, e.v) for e in edges]
        # in sorted input a repeated id or edge sits next to its twin
        for prev, v in zip(ids, ids[1:]):
            if not prev < v:
                raise GraphValidationError(
                    f"duplicate node id {v!r}" if prev == v else
                    f"node {v!r} follows {prev!r}: node ids must be strictly increasing"
                )
        node_rank = {v: i for i, v in enumerate(ids)}
        adjacency: list[list[tuple[int, int]]] = [[] for _ in ids]
        for i, (u, v) in enumerate(keys):
            if u == v:
                raise GraphValidationError(f"self-loop on node {u!r}")
            for endpoint in (u, v):
                if endpoint not in node_rank:
                    raise GraphValidationError(
                        f"edge {(u, v)!r} references unknown node {endpoint!r}"
                    )
            if not u < v:
                raise GraphValidationError(f"edge {(u, v)!r} is not canonical: needs u < v")
            if i and not keys[i - 1] < (u, v):
                raise GraphValidationError(
                    f"duplicate edge between {u!r} and {v!r}; model parallel "
                    "channels via capacity, not repeated edges"
                    if keys[i - 1] == (u, v) else
                    f"edge {(u, v)!r} follows {keys[i - 1]!r}: edges must be "
                    "strictly increasing by (u, v)"
                )
            # edges come in (u, v) order, so a node's edges to lower ranks
            # all come before its edges to higher ranks, each run in
            # neighbour order: the lists are built sorted
            ru, rv = node_rank[u], node_rank[v]
            adjacency[ru].append((rv, i))
            adjacency[rv].append((ru, i))
        _set(self, "nodes", nodes)
        _set(self, "edges", edges)
        _set(self, "phys", phys)
        _set(self, "node_rank", MappingProxyType(node_rank))
        _set(self, "edge_index", MappingProxyType({k: i for i, k in enumerate(keys)}))
        _set(self, "adjacency", tuple(map(tuple, adjacency)))
        _set(self, "_memo", {})

    def node(self, node_id: str) -> NodeParams:
        try:
            return self.nodes[self.node_rank[node_id]]
        except KeyError:
            raise GraphValidationError(f"unknown node {node_id!r}") from None

    def has_node(self, node_id: str) -> bool:
        return node_id in self.node_rank

    def edge(self, u: str, v: str) -> EdgeParams:
        try:
            return self.edges[self.edge_index[edge_key(u, v)]]
        except KeyError:
            raise GraphValidationError(f"no edge between {u!r} and {v!r}") from None

    def has_edge(self, u: str, v: str) -> bool:
        return edge_key(u, v) in self.edge_index

    def neighbors(self, node_id: str) -> tuple[str, ...]:
        return tuple(self.nodes[r].id for r, _ in self.adjacency[self.node_rank[node_id]])

    def node_ids(self) -> tuple[str, ...]:
        return tuple(n.id for n in self.nodes)

    def is_connected(self) -> bool:
        """True when every node reaches every other; capacity-0 edges
        connect too."""
        seen = bytearray(len(self.nodes))
        stack = [0] if self.nodes else []
        while stack:
            cur = stack.pop()
            if not seen[cur]:
                seen[cur] = 1
                stack.extend(nbr for nbr, _ in self.adjacency[cur])
        return all(seen)


def _check_swap_bound(nodes, swap_bound_mode: str) -> None:
    """The swap-bound checks, which need the physical constants; the range
    checks are `NodeParams`'. A bound mode rejects the first node above its
    bound; "off" warns once per graph, naming how many nodes are above the
    ancilla-assisted bound and the first of them."""
    linear = swap_bound_mode == "linear-optics"
    bound = LINEAR_OPTICS_SWAP_BOUND if linear else ADVANCED_SWAP_BOUND
    over = [n for n in nodes if n.swap_prob > bound]
    if not over:
        return
    first = over[0]
    if swap_bound_mode != "off":
        raise GraphValidationError(
            f"node {first.id!r}: swap_prob {first.swap_prob} exceeds the "
            f"{'linear-optics' if linear else 'ancilla-assisted'} bound {bound}"
        )
    warnings.warn(SwapBoundWarning(
        f"swap_prob: {len(over)} of {len(nodes)} nodes (first {first.id!r}, at "
        f"{first.swap_prob}) have a swap_prob that exceeds the best demonstrated "
        f"Bell-measurement success rate {bound}"
    ), stacklevel=3)


def _link_prob(edge: EdgeParams, phys: PhysicalConstants) -> float:
    """The edge's link_prob, derived from its length when not given."""
    if edge.link_prob is not None:
        return edge.link_prob
    return link_success_probability(
        edge.length_km,
        phys.attenuation_alpha,
        phys.base_efficiency,
        phys.attempts_per_slot,
    )


def build_graph(
    node_specs: list[NodeParams],
    edge_specs: list[EdgeParams],
    phys: PhysicalConstants | None = None,
) -> NetworkGraph:
    """Check the nodes against `phys`'s swap bound, derive, canonicalise and
    sort the specs, then assemble an immutable topology; `NetworkGraph`'s
    constructor checks their structure.

    Edges without an explicit link_prob get one derived from their length
    via link_success_probability. Edge endpoint order is normalized, so
    specs listing (B, A) and (A, B) produce identical graphs. An edge is
    copied only when it needs either; the others are used as given.
    """
    phys = phys or PhysicalConstants()
    _check_swap_bound(node_specs, phys.swap_bound_mode)
    normalized = []
    for e in edge_specs:
        if e.link_prob is None or e.u > e.v:
            u, v = edge_key(e.u, e.v)
            e = e.replace(u=u, v=v, link_prob=_link_prob(e, phys))
        normalized.append(e)

    nodes = tuple(sorted(node_specs, key=lambda n: n.id))
    edges = tuple(sorted(normalized, key=lambda e: (e.u, e.v)))
    return NetworkGraph(nodes=nodes, edges=edges, phys=phys)


def grid_node_id(row: int, col: int) -> str:
    return f"{row},{col}"


def grid_topology(
    rows: int,
    cols: int,
    default_edge: EdgeParams | None = None,
    default_node: NodeParams | None = None,
    phys: PhysicalConstants | None = None,
) -> NetworkGraph:
    """rows x cols lattice with horizontal and vertical neighbor edges.

    Node ids are "row,col"; node and edge parameters are taken from the
    templates (their id/endpoints fields are ignored). Each node and edge is
    built once, with canonical endpoints and the template's link_prob, so
    `build_graph` copies none of them.
    """
    for name, n in (("rows", rows), ("cols", cols)):
        if n < 1:
            raise GraphValidationError(f"{name}: must be >= 1, got {n}")
    phys = phys or PhysicalConstants()
    node_tpl = default_node or NodeParams(id="")
    edge_tpl = default_edge or EdgeParams(u="", v="")
    p = _link_prob(edge_tpl, phys)
    ids = [[grid_node_id(r, c) for c in range(cols)] for r in range(rows)]
    nodes = [
        NodeParams(node_id, node_tpl.swap_prob, node_tpl.memory_cutoff_slots)
        for row in ids
        for node_id in row
    ]
    edges = []
    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                edges.append(edge_key(ids[r][c], ids[r][c + 1]))
            if r + 1 < rows:
                edges.append(edge_key(ids[r][c], ids[r + 1][c]))
    edge_specs = [
        EdgeParams(u, v, edge_tpl.capacity, edge_tpl.length_km, p) for u, v in edges
    ]
    return build_graph(nodes, edge_specs, phys)
