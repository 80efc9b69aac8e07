"""Multi-request path selection and capacity allocation by a greedy
marginal-utility heuristic (`allocate`). An exact MILP would be NP-hard
territory; the greedy trades optimality for anytime behavior.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

from .analytics import (
    FidelityInfeasibleError,
    PathSpec,
    SwapPolicy,
    expected_throughput,
    max_hops,
    policy_distribution,
)
from .netmodel import NetworkGraph
from .pathfind import (
    Metric,
    _one_link_prob,
    _path_edges,
    k_shortest_paths,
    path_spec_from_nodes,
)

MIN_GAIN = 1e-12  # utility increments at or below this are noise: stop there


@dataclass(frozen=True)
class Request:
    """Demand for `rate_target` E2E pairs per slot at fidelity >= min_fidelity."""

    id: str
    source: str
    dest: str
    rate_target: float = 1.0
    min_fidelity: float = 0.5

    def __post_init__(self):
        if self.source == self.dest:
            raise ValueError(f"dest: equals source {self.source!r}")
        if self.rate_target <= 0:
            raise ValueError(f"rate_target: must be > 0, got {self.rate_target}")
        if not 0.25 < self.min_fidelity <= 1:
            raise ValueError(
                f"min_fidelity: {self.min_fidelity} outside (0.25, 1]")


UTILITY_KINDS = ("total_throughput", "saturating", "weighted_sum")


def check_unique_ids(requests) -> None:
    """Results are keyed by request id, so a repeated id would merge two."""
    seen = set()
    for req in requests:
        if req.id in seen:
            raise ValueError(f"request id {req.id!r} appears more than once")
        seen.add(req.id)


@dataclass(frozen=True)
class UtilitySpec:
    """Per-request utility; all kinds are non-decreasing in the rate."""

    kind: str = "total_throughput"
    weights: tuple[tuple[str, float], ...] = ()

    def __post_init__(self):
        if self.kind not in UTILITY_KINDS:
            raise ValueError(f"kind: unknown utility kind {self.kind!r}")
        if self.weights and self.kind != "weighted_sum":
            raise ValueError(
                f"weights: utility {self.kind!r} reads no weights; only "
                "'weighted_sum' does"
            )

    def weight(self, request_id: str) -> float:
        return dict(self.weights).get(request_id, 1.0)

    def value(self, req: Request, rate: float) -> float:
        if self.kind == "total_throughput":
            return rate
        if self.kind == "saturating":
            return min(rate, req.rate_target)
        return self.weight(req.id) * rate


@dataclass(frozen=True)
class PathAllocation:
    request_id: str
    path: PathSpec  # per_hop_capacity holds the allocated widths
    policy: SwapPolicy

    @functools.cached_property
    def throughput(self) -> float:
        """Expected E2E pairs per slot on this path, priced once."""
        return expected_throughput(policy_distribution(self.path, self.policy))


@dataclass(frozen=True)
class AllocationPlan:
    requests: tuple[Request, ...]
    allocations: tuple[PathAllocation, ...]
    residual: tuple[tuple[tuple[str, str], int], ...]
    infeasible: tuple[tuple[str, str], ...] = ()  # (request id, reason)
    utility_trace: tuple[float, ...] = ()

    def request(self, request_id: str) -> Request:
        for r in self.requests:
            if r.id == request_id:
                return r
        raise KeyError(f"unknown request {request_id!r}")

    def allocations_for(self, request_id: str) -> tuple[PathAllocation, ...]:
        self.request(request_id)
        return tuple(a for a in self.allocations if a.request_id == request_id)


def request_throughput(plan: AllocationPlan, req: Request) -> float:
    """Expected E2E pairs per slot served to one request (sum over its paths)."""
    return math.fsum(a.throughput for a in plan.allocations_for(req.id))


def total_utility(plan: AllocationPlan, spec: UtilitySpec) -> float:
    return math.fsum(
        spec.value(r, request_throughput(plan, r)) for r in plan.requests
    )


@dataclass(frozen=True)
class AllocatorConfig:
    k: int = 5
    utility: UtilitySpec = field(default_factory=UtilitySpec)
    policy: SwapPolicy = SwapPolicy("doubling")
    elementary_fidelity: float = 1.0

    def __post_init__(self):
        if self.k < 1:
            raise ValueError(f"k: must be >= 1, got {self.k}")
        if self.policy.kind == "adhoc":
            raise ValueError(
                "policy: adhoc swapping has no closed-form throughput; plans "
                "need a static policy"
            )
        if not 0.25 < self.elementary_fidelity <= 1:
            raise ValueError("elementary_fidelity outside (0.25, 1]")


def _drop_stale(route_cache: dict, i: int) -> None:
    """Drop the cached candidates whose Yen paths use edge `i`, which has
    just saturated; the others stay exact (see `allocate`)."""
    for key in [key for key, (_, used) in route_cache.items() if i in used]:
        del route_cache[key]


def _drop_scores(scores: dict, rid: str, saturated: list[int]) -> None:
    """Drop the scored candidates of request `rid`, just committed, and of
    every request that watches an edge in `saturated`; the others stay
    exact (see `allocate`)."""
    scores.pop(rid, None)
    for other in [other for other, (_, watched) in scores.items()
                  if any(i in watched for i in saturated)]:
        del scores[other]


def allocate(
    graph: NetworkGraph, requests: list[Request], config: AllocatorConfig
) -> AllocationPlan:
    """Greedy marginal-utility allocation over k-shortest candidate paths.

    Each step commits one +1 width increment on the (request, path) pair
    with the largest utility gain. Every increment keeps the per-edge width
    sums within the edge capacities and every chosen route within the
    request's fidelity hop bound; infeasible requests are reported, not
    fatal.

    The residual capacities are one list in `graph.edges` order. Yen runs
    on `graph` itself with that list as its edge filter, so it sees only
    edges with residual capacity left; no residual graph is built. Its
    candidates for a request are therefore fixed by the request's
    endpoints, its hop bound and the set of saturated edges. They are
    cached under the first two, with the edge indices of every path Yen
    returned (before the hop-bound filter, under each metric). When a
    commit saturates an edge, only the entries whose paths use it are
    dropped: Yen returns the k best paths, and the k best that avoid an
    edge none of them uses are the same k.

    Under the hop count Yen stops at the request's hop bound. Cost rises
    strictly with hops there, so it returns the k best paths within the
    bound: the part of the unbounded list that the hop-bound filter keeps.
    The drop rule above holds for them as it stands.

    A request's scored candidates read only its rate, its widths and
    whether each edge of its routes still has residual capacity, so they
    are kept across steps and rebuilt only when the request was just
    committed or an edge they watch saturates: an edge of any path Yen
    returned for its key (the key's entry is then dropped too) or of one of
    its allocated routes. A kept score is the one a rebuild would compute,
    and every step folds all of them with `beats` in request order and then
    in scan order, so each plan is the one a full rescan gives, ties within
    `beats`' window included.

    A route is priced by its link probabilities, interior swap
    probabilities and width, all that `policy_distribution` reads under the
    call's one policy, so on a grid built from one template every route
    with the same hop count and width is priced once.

    Yen runs under the creation rate, then under the hop count for routes
    that ranking misses. On a graph with one link probability p < 1 (see
    `pathfind._one_link_prob`) Yen runs once per key, under the hop count:
    the creation rate ranks finite labels by (hops, nodes) too and never
    pushes one whose 1/p per hop overflows, so the routes within the bound
    that its pass returns are a prefix of the hop-count pass's.
    """
    check_unique_ids(requests)
    residual = [e.capacity for e in graph.edges]
    infeasible: list[tuple[str, str]] = []
    live: list[tuple[Request, int]] = []
    for req in requests:
        if not (graph.has_node(req.source) and graph.has_node(req.dest)):
            infeasible.append((req.id, "unknown endpoint"))
            continue
        try:
            bound = max_hops(config.elementary_fidelity, req.min_fidelity)
        except FidelityInfeasibleError as exc:
            infeasible.append((req.id, str(exc)))
            continue
        live.append((req, bound))

    # widths[request id][nodes] -> allocated width
    widths: dict[str, dict[tuple[str, ...], int]] = {req.id: {} for req, _ in live}
    rates: dict[str, float] = {req.id: 0.0 for req, _ in live}

    @functools.cache
    def route(nodes: tuple[str, ...]) -> tuple[tuple[int, ...], tuple]:
        """A route's edge indices, for the feasibility check and the commit,
        and its pricing key: its link and interior swap probabilities."""
        spec = path_spec_from_nodes(graph, nodes, width=1)
        return _path_edges(graph, nodes), (spec.per_hop_prob, spec.interior_swap_probs)

    # (link probabilities, swap probabilities, width) -> expected throughput
    priced: dict[tuple, float] = {}

    def ext_at(nodes: tuple[str, ...], width: int) -> float:
        if not width:
            return 0.0
        key = (*route(nodes)[1], width)
        ext = priced.get(key)
        if ext is None:
            spec = path_spec_from_nodes(graph, nodes, width=width)
            ext = priced[key] = expected_throughput(
                policy_distribution(spec, config.policy))
        return ext

    # (source, dest, hop bound) -> (candidate node sequences, the edge
    # indices of every path Yen returned for them)
    route_cache: dict[tuple, tuple[list[tuple[str, ...]], set[int]]] = {}
    p = _one_link_prob(graph)
    one_pass = p is not None and p < 1
    metrics = ((Metric.HOP_COUNT,) if one_pass
               else (Metric.INVERSE_CREATION_RATE, Metric.HOP_COUNT))

    def candidate_routes(req: Request, bound: int) -> tuple[list, set[int]]:
        key = (req.source, req.dest, bound)
        if key not in route_cache:
            routes, used = route_cache[key] = [], set()
            for metric in metrics:
                for _, nodes in k_shortest_paths(
                    graph, req.source, req.dest, config.k, metric, usable=residual,
                    max_len=bound if metric is Metric.HOP_COUNT else None,
                ):
                    used.update(route(nodes)[0])
                    if len(nodes) - 1 <= bound and nodes not in routes:
                        routes.append(nodes)
        return route_cache[key]

    def score(req: Request, bound: int) -> tuple[list[tuple], set[int]]:
        """The request's candidates (gain, request id, nodes, new width,
        rate delta) over its open routes in scan order, and the edges whose
        saturation would change them."""
        mine = widths[req.id]
        rate = rates[req.id]
        value = config.utility.value(req, rate)
        routes, used = candidate_routes(req, bound)
        cands = []
        for nodes in dict.fromkeys([*mine, *routes]):
            if not all(residual[i] for i in route(nodes)[0]):
                continue
            w = mine.get(nodes, 0)
            delta = ext_at(nodes, w + 1) - ext_at(nodes, w)
            gain = config.utility.value(req, rate + delta) - value
            cands.append((gain, req.id, nodes, w + 1, delta))
        return cands, used.union(*(route(nodes)[0] for nodes in mine))

    # gains computed at different accumulated rates pick up last-ulp noise,
    # so "equal" needs a window for the deterministic tie-break to apply
    def beats(cand, best):
        if best is None:
            return True
        tie = 1e-12 * max(1.0, abs(best[0]))
        if cand[0] > best[0] + tie:
            return True
        return cand[0] >= best[0] - tie and cand[1:3] < best[1:3]

    # request id -> (its candidates, the edges they watch), from `score`
    scores: dict[str, tuple[list[tuple], set[int]]] = {}
    trace = [0.0]
    while True:
        best = None  # (gain, request id, nodes, new width, rate delta)
        for req, bound in live:
            if req.id not in scores:
                scores[req.id] = score(req, bound)
            for cand in scores[req.id][0]:
                if beats(cand, best):
                    best = cand
        if best is None or best[0] <= MIN_GAIN:
            break
        gain, rid, nodes, w, delta = best
        widths[rid][nodes] = w
        saturated = []
        for i in route(nodes)[0]:
            residual[i] -= 1
            if not residual[i]:
                _drop_stale(route_cache, i)
                saturated.append(i)
        rates[rid] += delta
        _drop_scores(scores, rid, saturated)
        trace.append(trace[-1] + gain)

    allocations = tuple(
        PathAllocation(
            request_id=rid,
            path=path_spec_from_nodes(graph, nodes, width=w),
            policy=config.policy,
        )
        for rid, mine in sorted(widths.items())
        for nodes, w in sorted(mine.items())
    )
    return AllocationPlan(
        requests=tuple(requests),
        allocations=allocations,
        residual=tuple(zip(graph.edge_index, residual)),  # key order is index order
        infeasible=tuple(infeasible),
        utility_trace=tuple(trace),
    )
