"""Path computation on the physical or per-slot logical topology.

All searches are deterministic: cost ties are broken by the
lexicographically smallest node-id sequence so repeated runs pick the
same routes.
"""

from __future__ import annotations

import heapq
import itertools
import math
from enum import Enum

from .analytics import PathSpec
from .netmodel import GraphValidationError, NetworkGraph, edge_key


class Metric(Enum):
    HOP_COUNT = "hop_count"
    SUM_NODE_DISTANCES = "sum_node_distances"
    INVERSE_CREATION_RATE = "inverse_creation_rate"


def _start(metric: Metric, s: str) -> tuple[float, tuple[str, ...]]:
    """The label (cost, nodes) of the empty path at `s`: cost 1 for the
    creation-rate product, 0 for the sums."""
    return (1.0 if metric is Metric.INVERSE_CREATION_RATE else 0.0), (s,)


def _steps(graph: NetworkGraph, metric: Metric) -> tuple[float, ...]:
    """Each edge's cost step in `graph.edges` order, built once per graph
    and metric: a factor 1/p under the creation-rate metric (infinite for
    p = 0 links, which no search extends), an addend 1 or `length_km`
    under the sums."""
    cache = graph._memo.setdefault("steps", {})
    steps = cache.get(metric)
    if steps is None:
        if metric is Metric.HOP_COUNT:
            steps = (1.0,) * len(graph.edges)
        elif metric is Metric.SUM_NODE_DISTANCES:
            steps = tuple(e.length_km for e in graph.edges)
        else:
            steps = tuple(1.0 / e.link_prob if e.link_prob > 0 else math.inf
                          for e in graph.edges)
        cache[metric] = steps
    return steps


def _rank_adjacency(graph: NetworkGraph):
    """(node ids by rank, rank -> ((nbr rank, edge index), ...)): the
    graph's adjacency without its capacity-0 edges, which no search may
    use, built once per graph. Rank order is id order."""
    table = graph._memo.get("rank_adjacency")
    if table is None:
        edges = graph.edges
        table = graph._memo["rank_adjacency"] = (graph.node_ids(), tuple(
            tuple((nbr, i) for nbr, i in nbrs if edges[i].capacity >= 1)
            for nbrs in graph.adjacency
        ))
    return table


def _path_edges(graph: NetworkGraph, nodes: tuple[str, ...]) -> tuple[int, ...]:
    """The `graph.edges` index of each hop along `nodes`."""
    index = graph.edge_index
    try:
        return tuple(index[edge_key(u, v)] for u, v in zip(nodes, nodes[1:]))
    except KeyError:
        for u, v in zip(nodes, nodes[1:]):
            graph.edge(u, v)  # raises, naming the first missing hop
        raise


def path_spec_from_nodes(
    graph: NetworkGraph, nodes: tuple[str, ...], width: int | None = None
) -> PathSpec:
    """Build a PathSpec along `nodes`, using edge capacities unless a
    uniform allocated width is given."""
    hops = [graph.edges[i] for i in _path_edges(graph, nodes)]
    return PathSpec(
        nodes=tuple(nodes),
        per_hop_capacity=tuple(e.capacity if width is None else width for e in hops),
        per_hop_prob=tuple(e.link_prob for e in hops),
        interior_swap_probs=tuple(graph.node(n).swap_prob for n in nodes[1:-1]),
    )


def _prefix_costs(graph: NetworkGraph, edges: tuple[int, ...], metric: Metric) -> list[float]:
    """Cost of every prefix of the path along the `graph.edges` indices
    `edges`, composed hop by hop from the empty path's cost (see `_start`)
    exactly as the searches compose it."""
    steps = _steps(graph, metric)
    multiply = metric is Metric.INVERSE_CREATION_RATE
    costs = [1.0 if multiply else 0.0]
    for i in edges:
        costs.append(costs[-1] * steps[i] if multiply else costs[-1] + steps[i])
    return costs


def path_cost(graph: NetworkGraph, path: PathSpec, metric: Metric) -> float:
    """Whole-path cost under a metric (lower is better), priced by the
    hop-by-hop rule the searches use, so a cost they return equals
    `path_cost` of its path exactly."""
    return _prefix_costs(graph, _path_edges(graph, path.nodes), metric)[-1]


def _check_endpoints(graph: NetworkGraph, s: str, d: str) -> None:
    graph.node(s)
    graph.node(d)
    if s == d:
        raise GraphValidationError("source and destination must differ")


def _one_link_prob(graph: NetworkGraph) -> float | None:
    """The link probability p that every edge with capacity >= 1 has
    (capacity-0 edges are never searched), when there is one and p > 0,
    else None; memoised on the graph.

    Then every creation-rate label h hops past its root carries 1/p per
    hop. For p < 1 each finite level costs strictly more than the one
    before (c / p > c for finite c >= 1), and the heap never pushes a label
    whose product overflows, so the paths it keeps are the shortest ones,
    ranked as the hop count ranks them, and `routing.allocate` runs Yen by
    hop count alone. For p = 1, `grid_topology`'s default, every label
    keeps its root's cost, no product grows, and `_search` runs depth-first.
    """
    memo = graph._memo
    if "one_link_prob" not in memo:
        probs = {e.link_prob for e in graph.edges if e.capacity >= 1}
        p = probs.pop() if len(probs) == 1 else 0.0
        memo["one_link_prob"] = p if p > 0 else None
    return memo["one_link_prob"]


def _search(
    graph: NetworkGraph,
    root: tuple[float, tuple[str, ...]],
    d: str,
    metric: Metric,
    usable,
    banned_nodes=(),
    max_len: int | None = None,
    work: _Workspace | None = None,
) -> tuple[float, tuple[str, ...]] | None:
    """Least-cost search from the label `root` = (cost, nodes): it extends
    the root's last node and returns the whole label (cost, nodes) that
    reaches `d`, ties going to the lexicographically smallest nodes.

    `usable` filters edges, one entry per edge in `graph.edges` order
    (truthy = usable); `banned_nodes` and the root's other nodes are never
    entered. `HOP_COUNT` runs the level search, which returns None when the
    best label runs past `max_len` hops (None = no bound; the other metrics
    take none). `INVERSE_CREATION_RATE` with p = 1 on every link (see
    `_one_link_prob`) runs the depth-first search: every label then costs
    the root's cost, and the heap would pop labels in node order alone.
    Every other case runs Dijkstra's heap. Each kernel marks nodes in
    `work`, a fresh one when None.
    """
    if metric is Metric.HOP_COUNT:
        return _hop_search(graph, root, d, usable, banned_nodes, max_len, work)
    if metric is Metric.INVERSE_CREATION_RATE and _one_link_prob(graph) == 1.0:
        return _dfs_search(graph, root, d, usable, banned_nodes, work)
    return _heap_search(graph, root, d, metric, usable, banned_nodes, work)


class _Workspace:
    """A seen stamp and a parent rank per node rank, allocated once and
    shared by the searches of one caller on one graph, so that a search
    costs what it touches, not the graph's size. Each search takes a new
    generation, and a node counts as seen or settled in it only when its
    stamp equals that generation, so no flag is ever cleared. Each call
    makes its own, not the graph: the graph is shared between threads (see
    `netmodel`)."""

    __slots__ = ("rank", "stamp", "parent", "gen")

    def __init__(self, graph: NetworkGraph):
        self.rank = graph.node_rank
        self.stamp = [0] * len(graph.nodes)
        self.parent = [0] * len(graph.nodes)
        self.gen = 0

    def fence(self, banned_nodes, root_nodes) -> int:
        """A new generation, stamped on `banned_nodes` and `root_nodes`: the
        nodes a search kernel starts with as seen or settled, never
        entered."""
        self.gen += 1
        rank, stamp, gen = self.rank, self.stamp, self.gen
        for v in itertools.chain(banned_nodes, root_nodes):
            stamp[rank[v]] = gen
        return gen


def _label(ids, parent: list[int], start: int, end: int, root) -> tuple[str, ...]:
    """The nodes of the label `root` extended to rank `end`, found by
    walking `parent` back from `end` to `start`, the root's last node."""
    tail = []
    while end != start:
        tail.append(ids[end])
        end = parent[end]
    return root[1] + tuple(reversed(tail))


def _heap_search(graph, root, d, metric, usable, banned_nodes=(), work=None):
    """`_search` by label-setting (Dijkstra) on node ranks: heap entries
    carry the rank sequence from the root's last node on, and rank order is
    id order, so equal costs resolve to the lexicographically smallest path.
    A hop of infinite cost (a p = 0 link under the creation-rate metric) is
    never pushed."""
    ids, adjacency = _rank_adjacency(graph)
    steps = _steps(graph, metric)
    multiply = metric is Metric.INVERSE_CREATION_RATE
    inf = math.inf
    work = work or _Workspace(graph)
    # the fenced nodes are never pushed, so they can share the settled set
    gen = work.fence(banned_nodes, root[1][:-1])
    done = work.stamp
    target = graph.node_rank[d]
    heap = [(root[0], (graph.node_rank[root[1][-1]],))]
    pop, push = heapq.heappop, heapq.heappush
    while heap:
        cost, path = pop(heap)
        cur = path[-1]
        if done[cur] == gen:
            continue
        done[cur] = gen
        if cur == target:
            return cost, root[1] + tuple(ids[r] for r in path[1:])
        for nbr, i in adjacency[cur]:
            if done[nbr] == gen or not usable[i]:
                continue
            nxt = cost * steps[i] if multiply else cost + steps[i]
            if nxt == inf:
                continue
            push(heap, (nxt, path + (nbr,)))
    return None


def _hop_search(graph, root, d, usable, banned_nodes, max_len=None, work=None):
    """`_search` under `HOP_COUNT`: every hop adds 1 to the cost, so a
    level-order search on node ranks replaces the heap. Scanning each
    node's neighbours in rank (= id) order keeps every level in label
    order, so `d` is first reached by the label the heap would pop. Each
    reached node keeps the node it was reached from; the label is built
    once, at `d`.

    `max_len` bounds the whole path's hops, the root's included: no level
    past it is expanded, and the search returns None when the best label
    would run past it (None = no bound)."""
    # the levels the bound leaves after the root's hops
    levels = math.inf if max_len is None else max_len - (len(root[1]) - 1)
    ids, adjacency = _rank_adjacency(graph)
    rank = graph.node_rank
    work = work or _Workspace(graph)
    # the root's last node is seen up front too, so no level enters it
    gen = work.fence(banned_nodes, root[1])
    seen, parent = work.stamp, work.parent
    start, target = rank[root[1][-1]], rank[d]
    cost, level = root[0], [start]
    while level and levels > 0:
        levels -= 1
        cost += 1.0
        reached = []
        for cur in level:
            for nbr, i in adjacency[cur]:
                if seen[nbr] == gen or not usable[i]:
                    continue
                parent[nbr] = cur
                if nbr == target:
                    return cost, _label(ids, parent, start, nbr, root)
                seen[nbr] = gen
                reached.append(nbr)
        level = reached
    return None


def _dfs_search(graph, root, d, usable, banned_nodes, work=None):
    """`_search` where every label costs the root's cost, so the heap pops
    the smallest node sequence: a depth-first search on node ranks replaces
    it. The label the heap pops is smaller than every other live label and
    no other live label extends it, so its smallest unsettled child is the
    heap's next pop; pushing children in reverse rank order puts that child
    on top of the stack. A node is settled, with its parent, when popped,
    and the label is built once, when `d` is popped."""
    ids, adjacency = _rank_adjacency(graph)
    rank = graph.node_rank
    work = work or _Workspace(graph)
    gen = work.fence(banned_nodes, root[1][:-1])
    done, parent = work.stamp, work.parent
    start, target = rank[root[1][-1]], rank[d]
    stack = [(start, start)]
    while stack:
        cur, up = stack.pop()
        if done[cur] == gen:
            continue
        parent[cur] = up
        if cur == target:
            return root[0], _label(ids, parent, start, cur, root)
        done[cur] = gen
        for nbr, i in reversed(adjacency[cur]):
            if done[nbr] != gen and usable[i]:
                stack.append((nbr, cur))
    return None


def shortest_path(
    graph: NetworkGraph, s: str, d: str, metric: Metric
) -> PathSpec | None:
    """Minimum-cost loop-free path under a metric, or None: Yen with
    k = 1."""
    found = k_shortest_paths(graph, s, d, 1, metric)
    return path_spec_from_nodes(graph, found[0][1]) if found else None


def k_shortest_paths(
    graph: NetworkGraph,
    s: str,
    d: str,
    k: int,
    metric: Metric,
    usable=None,
    max_len: int | None = None,
) -> list[tuple[float, tuple[str, ...]]]:
    """Yen's algorithm: up to k loop-free paths as (cost, nodes) labels in
    non-decreasing cost, each cost equal to `path_cost` of its path.

    Each spur search grows from the root's label, the root prefix with its
    cost, so it returns the whole candidate already priced. `usable` is a
    per-edge filter in `graph.edges` order (truthy = usable; None = every
    edge): every search sees only the usable edges, as if the others had no
    capacity. It is never written to: each call copies it once, and each
    spur search clears its banned next edges in that copy and restores them
    after. Its searches share one `_Workspace`.

    `max_len` bounds each path's hops (None = no bound), under `HOP_COUNT`
    only. There cost rises strictly with the hop count, so Yen accepts every
    path within the bound before any longer one, and a spur search whose
    best path runs past the bound has no path within it: the bounded list is
    the unbounded list's within-bound prefix.

    A candidate keeps the root index j its spur search found it at, and
    once accepted it spurs from j on (Lawler's deviation index; Lawler,
    Management Science 1972): each earlier root is its parent's root with
    the same next edge banned, so those searches would only find paths
    already seen.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if max_len is not None and metric is not Metric.HOP_COUNT:
        raise ValueError("max_len bounds hop-count searches only")
    _check_endpoints(graph, s, d)

    if usable is None:
        usable = [True] * len(graph.edges)
    work = _Workspace(graph)
    first = _search(graph, _start(metric, s), d, metric, usable, max_len=max_len,
                    work=work)
    if first is None:
        return []
    accepted: list[tuple[float, tuple[str, ...]]] = [first]
    hops: list[tuple[int, ...]] = []  # each accepted path's edge indices
    candidates: list[tuple[float, tuple[str, ...], int]] = []
    seen = {first[1]}
    deviation = 0
    spur = list(usable)

    while len(accepted) < k:
        _, prev = accepted[-1]
        hops.append(_path_edges(graph, prev))
        root_costs = _prefix_costs(graph, hops[-1], metric)
        for j in range(deviation, len(prev) - 1):
            root = prev[: j + 1]
            banned = [edges[j] for (_, p), edges in zip(accepted, hops)
                      if len(p) > j + 1 and p[: j + 1] == root]
            for i in banned:
                spur[i] = False
            found = _search(graph, (root_costs[j], root), d, metric, spur,
                            max_len=max_len, work=work)
            for i in banned:
                spur[i] = usable[i]
            if found is None or found[1] in seen:
                continue
            seen.add(found[1])
            heapq.heappush(candidates, (*found, j))  # unique nodes: j breaks no tie
        if not candidates:
            break
        *label, deviation = heapq.heappop(candidates)
        accepted.append(tuple(label))
    return accepted


def widest_path(graph: NetworkGraph, s: str, d: str) -> PathSpec | None:
    """Path maximizing the bottleneck capacity.

    Ties on width are resolved by creation rate (smallest product of
    inverse link probabilities), then lexicographically.
    """
    _check_endpoints(graph, s, d)
    # Any path inside the >= width subgraph has exactly that width when no
    # wider threshold connects s to d.
    for width in sorted({e.capacity for e in graph.edges if e.capacity >= 1}, reverse=True):
        usable = [e.capacity >= width for e in graph.edges]
        # creation-rate costs can all be infinite (p = 0 links); hop count
        # then still finds a route if one exists
        for metric in (Metric.INVERSE_CREATION_RATE, Metric.HOP_COUNT):
            found = _search(graph, _start(metric, s), d, metric, usable)
            if found is not None:
                return path_spec_from_nodes(graph, found[1])
    return None


def disjoint_paths_on_logical(
    counts: list[int],
    graph: NetworkGraph,
    s: str,
    d: str,
    max_paths: int,
    node_disjoint: bool = False,
) -> list[PathSpec]:
    """Greedy hop-count routing on a slot's realized links, `counts[i]` of
    them on edge `graph.edges[i]`.

    Repeatedly takes the shortest path through edges that still have an
    unconsumed link, then removes one link unit per used edge (and the
    interior nodes too, when node-disjoint paths are requested), in a copy:
    `counts` is left as it was. It searches by hop count only, so it calls
    `_hop_search` without `_search`'s dispatch, every search sharing one
    workspace, and each distinct path's width-1 spec is built once per
    graph.
    """
    _check_endpoints(graph, s, d)
    # the per-edge filter: an edge is usable while its count is positive
    remaining = list(counts)
    blocked: set[str] = set()
    # nodes -> (width-1 spec, edge indices)
    specs = graph._memo.setdefault("unit_specs", {})
    paths: list[PathSpec] = []
    work = _Workspace(graph)
    while len(paths) < max_paths:
        found = _hop_search(graph, _start(Metric.HOP_COUNT, s), d, remaining, blocked,
                            work=work)
        if found is None:
            break
        nodes = found[1]
        entry = specs.get(nodes)
        if entry is None:
            entry = specs[nodes] = (path_spec_from_nodes(graph, nodes, width=1),
                                    _path_edges(graph, nodes))
        for i in entry[1]:
            remaining[i] -= 1
        if node_disjoint:
            blocked.update(nodes[1:-1])
        paths.append(entry[0])
    return paths
