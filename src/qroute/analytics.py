"""Exact end-to-end entanglement distributions for a single path.

Everything here is a pure function of its inputs. Link counts per channel
are independent Bernoulli trials, so a width-C edge carries Binomial(C, p)
links per slot. Swapping composes those link counts along a path, either
unheralded (all interior nodes fire independently, order irrelevant) or
heralded (swaps follow a binary order tree and each merge is a binomial
thinning of the paired count).
"""

from __future__ import annotations

import math
from functools import cached_property, lru_cache
from itertools import accumulate

from .record import Record, _set

NEG_CLAMP = 1e-15
PMF_SUM_TOL = 1e-9

# Sentinel for "no hop limit" when the elementary fidelity is perfect.
UNBOUNDED_HOPS = 10**9


class DistributionError(ValueError):
    """Internal consistency failure while assembling a pmf."""


class FidelityInfeasibleError(ValueError):
    """Requested fidelity exceeds what the elementary pairs can provide."""


class OpCounters:
    """Cheap operation tallies so tests can assert complexity contracts."""

    def __init__(self):
        self.reset()

    def reset(self):
        self.unheralded_states = 0
        self.heralded_merge_ops = 0
        self.trees_evaluated = 0


counters = OpCounters()


def _clean_pmf(values) -> tuple[float, ...]:
    out = []
    for v in values:
        if v < 0:
            if v < -NEG_CLAMP:
                raise DistributionError(f"pmf entry {v} below clamp threshold")
            v = 0.0
        out.append(float(v))
    total = math.fsum(out)
    if abs(total - 1.0) > PMF_SUM_TOL:
        raise DistributionError(f"pmf sums to {total}, expected 1")
    return tuple(out)


class Distribution(Record):
    """Pmf over the number of simultaneous entanglements, support 0..cap."""

    __slots__ = _fields = ("pmf",)

    def __init__(self, pmf: tuple[float, ...]):
        _set(self, "pmf", _clean_pmf(pmf))

    def mean(self) -> float:
        return math.fsum(k * p for k, p in enumerate(self.pmf))


class PathSpec(Record):
    """Loop-free node sequence with per-hop channel widths and probabilities.

    For n hops there are n entries in per_hop_capacity/per_hop_prob and
    n - 1 interior swap probabilities (one per repeater between the ends).
    """

    __slots__ = _fields = ("nodes", "per_hop_capacity", "per_hop_prob",
                           "interior_swap_probs")

    def __init__(self, nodes: tuple[str, ...], per_hop_capacity: tuple[int, ...],
                 per_hop_prob: tuple[float, ...], interior_swap_probs: tuple[float, ...]):
        nodes, caps = tuple(nodes), tuple(per_hop_capacity)
        probs, swaps = tuple(per_hop_prob), tuple(interior_swap_probs)
        n = len(nodes) - 1
        if n < 1:
            raise ValueError("path needs at least one hop")
        if len(set(nodes)) != len(nodes):
            raise ValueError(f"path has a loop: {nodes}")
        if len(caps) != n or len(probs) != n:
            raise ValueError("per-hop lists must have one entry per hop")
        if len(swaps) != n - 1:
            raise ValueError("need one swap probability per interior node")
        if any(c < 1 for c in caps):
            raise ValueError("allocated widths must be >= 1")
        for p in probs:
            if not 0 <= p <= 1:
                raise ValueError(f"hop probability {p} outside [0, 1]")
        for q in swaps:
            if not 0 <= q <= 1:
                raise ValueError(f"swap probability {q} outside [0, 1]")
        _set(self, "nodes", nodes)
        _set(self, "per_hop_capacity", caps)
        _set(self, "per_hop_prob", probs)
        _set(self, "interior_swap_probs", swaps)

    @property
    def hop_count(self) -> int:
        return len(self.nodes) - 1

    @property
    def width(self) -> int:
        return min(self.per_hop_capacity)


# ---------------------------------------------------------------------------
# Swap order trees


class SwapOrderTree(Record):
    """Binary order tree over a path's hops.

    Leaves are hop indices in left-to-right path order; an internal node is
    the swap event at the interior path node shared by its children's spans.
    """

    _fields = ("hop", "left", "right")
    __slots__ = (*_fields, "__dict__")  # the dict caches `schedule`

    def __init__(self, hop: int | None = None, left: SwapOrderTree | None = None,
                 right: SwapOrderTree | None = None):
        if (left is not None and right is not None) == (hop is not None):
            raise ValueError("node is either a leaf (hop) or has two children")
        _set(self, "hop", hop)
        _set(self, "left", left)
        _set(self, "right", right)

    @property
    def is_leaf(self) -> bool:
        return self.hop is not None

    def leaves(self) -> list[int]:
        if self.is_leaf:
            return [self.hop]
        return self.left.leaves() + self.right.leaves()

    def span(self) -> tuple[int, int]:
        """(first, last+1) hop range covered; merge node index is left.span()[1]."""
        lv = self.leaves()
        return lv[0], lv[-1] + 1

    @cached_property
    def schedule(self) -> tuple[tuple[int, int, int], ...]:
        """Post-order (left start, merge node, right end) triples, so both
        inputs of a swap exist before it; empty for a leaf. Computed once
        per tree, and each named tree is built once per size, so the
        analytic fold and the simulator share it."""
        ops: list[tuple[int, int, int]] = []

        def walk(node: SwapOrderTree) -> tuple[int, int]:
            if node.is_leaf:
                return node.hop, node.hop + 1
            a, mid = walk(node.left)
            b = walk(node.right)[1]
            ops.append((a, mid, b))
            return a, b

        walk(self)
        return tuple(ops)


def leaf(hop: int) -> SwapOrderTree:
    return SwapOrderTree(hop=hop)


def merge(left: SwapOrderTree, right: SwapOrderTree) -> SwapOrderTree:
    return SwapOrderTree(left=left, right=right)


@lru_cache(maxsize=None)
def sequential_tree(n_hops: int) -> SwapOrderTree:
    """Left-deep tree: swaps run left to right, one interior node at a time."""
    tree = leaf(0)
    for h in range(1, n_hops):
        tree = merge(tree, leaf(h))
    return tree


@lru_cache(maxsize=None)
def doubling_tree(n_hops: int) -> SwapOrderTree:
    """Balanced tree of height ceil(log2 n); same-level swaps are parallel."""

    def build(lo: int, hi: int) -> SwapOrderTree:
        if hi - lo == 1:
            return leaf(lo)
        mid = (lo + hi + 1) // 2
        return merge(build(lo, mid), build(mid, hi))

    if n_hops < 1:
        raise ValueError("need at least one hop")
    return build(0, n_hops)


def all_order_trees(n_hops: int):
    """Yield every order tree in canonical order (left-deep tree first).

    The count for n hops is the (n-1)-th Catalan number.
    """

    def gen(lo: int, hi: int):
        if hi - lo == 1:
            yield leaf(lo)
            return
        for split in range(hi - 1, lo, -1):
            for left_sub in gen(lo, split):
                for right_sub in gen(split, hi):
                    yield merge(left_sub, right_sub)

    if n_hops < 1:
        raise ValueError("need at least one hop")
    yield from gen(0, n_hops)


def validate_tree(tree: SwapOrderTree, n_hops: int) -> None:
    if tree.leaves() != list(range(n_hops)):
        raise ValueError(
            f"order tree leaves {tree.leaves()} do not match hops 0..{n_hops - 1}"
        )


# ---------------------------------------------------------------------------
# Swapping policies

POLICY_KINDS = ("sequential", "doubling", "parallel", "adhoc", "explicit")


class SwapPolicy(Record):
    """Swapping policy selector; `tree` is set only for kind='explicit'."""

    __slots__ = _fields = ("kind", "tree")

    def __init__(self, kind: str, tree: SwapOrderTree | None = None):
        if kind not in POLICY_KINDS:
            raise ValueError(f"unknown policy kind {kind!r}")
        if (kind == "explicit") != (tree is not None):
            raise ValueError("explicit policies carry a tree; others must not")
        _set(self, "kind", kind)
        _set(self, "tree", tree)

    def order_tree(self, n_hops: int) -> SwapOrderTree:
        if self.kind == "sequential":
            return sequential_tree(n_hops)
        if self.kind == "doubling":
            return doubling_tree(n_hops)
        if self.kind == "explicit":
            validate_tree(self.tree, n_hops)
            return self.tree
        raise ValueError(f"policy {self.kind!r} has no static order tree")


# ---------------------------------------------------------------------------
# Distributions

@lru_cache(maxsize=4096)
def _binom_row(n: int, p: float) -> tuple[float, ...]:
    if p <= 0.0:
        return (1.0,) + (0.0,) * n
    if p >= 1.0:
        return (0.0,) * n + (1.0,)
    return tuple(_binom_term(math.comb(n, k), k, n - k, p) for k in range(n + 1))


def _binom_term(coefficient: int, k: int, rest: int, p: float) -> float:
    """`coefficient * p**k * (1 - p)**rest`, in log space only when the
    coefficient is past float range (n >= 1,030 at the middle of the row)."""
    try:
        return coefficient * p**k * (1.0 - p) ** rest
    except OverflowError:
        return math.exp(math.log(coefficient) + k * math.log(p) + rest * math.log(1.0 - p))


def link_distribution(cap: int, p: float) -> Distribution:
    """Binomial(cap, p) count of simultaneous links on a width-cap edge."""
    if not 0 <= p <= 1:
        raise ValueError(f"link probability {p} outside [0, 1]")
    if cap < 0:
        raise ValueError("cap must be >= 0")
    return Distribution(_binom_row(cap, p))


def _min_pmf(left, right) -> list[float]:
    """P(min(i, j) = m) for independent counts i ~ left, j ~ right.

    Splitting on which side attains the min keeps this O(cap) per entry
    instead of summing over every (i, j) pair.
    """
    left_tail = [*accumulate(reversed(left), initial=0.0)][::-1]  # P(i >= k)
    right_tail = [*accumulate(reversed(right), initial=0.0)][::-1]
    return [
        left[m] * right_tail[m] + right[m] * left_tail[m + 1]
        for m in range(min(len(left), len(right)))
    ]


def _thin(paired, q: float) -> list[float]:
    """Pmf of successes when each of m ~ `paired` pairs succeeds with q."""
    out = [0.0] * len(paired)
    for m in range(1, len(paired)):
        if paired[m] == 0.0:
            continue
        thin = _binom_row(m, q)
        for k in range(1, m + 1):
            out[k] += paired[m] * thin[k]
    out[0] = 1.0 - math.fsum(out[1:])
    return out


def unheralded_path_distribution(path: PathSpec) -> Distribution:
    """E2E pmf when all interior nodes swap independently in one step.

    Pairs the hops' link counts from the left into the pmf of their
    minimum, the number of bound lanes, then thins those lanes once by the
    product of the interior swap probabilities. The result does not depend
    on any swap ordering.
    """
    lanes = _binom_row(path.per_hop_capacity[0], path.per_hop_prob[0])
    counters.unheralded_states += len(lanes)
    for c, p in zip(path.per_hop_capacity[1:], path.per_hop_prob[1:]):
        lanes = _min_pmf(lanes, _binom_row(c, p))
        counters.unheralded_states += len(lanes)
    out = _thin(lanes, math.prod(path.interior_swap_probs))
    return Distribution(out)


def heralded_swap_merge(
    left: Distribution, right: Distribution, q: float
) -> Distribution:
    """Pmf of entanglements spanning two adjacent segments after swapping.

    With i links on the left and j on the right the merge node pairs them
    in id order and attempts min(i, j) swaps, each succeeding with q, so
    the result's cap is the smaller of the two.
    """
    if not 0 <= q <= 1:
        raise ValueError(f"swap probability {q} outside [0, 1]")
    out = _thin(_min_pmf(left.pmf, right.pmf), q)
    counters.heralded_merge_ops += len(out) ** 2
    return Distribution(out)


def heralded_path_distribution(path: PathSpec, order: SwapOrderTree) -> Distribution:
    """E2E pmf when swaps follow `order`, each conditioned on its children.

    Folds per-extent pmfs over the order's merge schedule: merge
    (a, mid, b) swaps at path node mid the pmfs of extents (a, mid) and
    (mid, b).
    """
    validate_tree(order, path.hop_count)
    pools = {
        (h, h + 1): link_distribution(c, p)
        for h, (c, p) in enumerate(zip(path.per_hop_capacity, path.per_hop_prob))
    }
    for a, mid, b in order.schedule:
        pools[a, b] = heralded_swap_merge(
            pools[a, mid], pools[mid, b], path.interior_swap_probs[mid - 1]
        )
    return pools[0, path.hop_count]


def policy_distribution(path: PathSpec, policy: SwapPolicy) -> Distribution:
    """E2E pmf for a path under a policy with a closed form."""
    if policy.kind == "parallel":
        return unheralded_path_distribution(path)
    if policy.kind == "adhoc":
        raise ValueError(
            "adhoc swapping has no closed-form distribution; use the simulator"
        )
    return heralded_path_distribution(path, policy.order_tree(path.hop_count))


def expected_throughput(dist: Distribution) -> float:
    """Expected E2E entanglements per slot (sum of k * pmf[k])."""
    return dist.mean()


# the longest path the exhaustive search takes: 58,786 trees at 12 hops
ORDER_SEARCH_MAX_HOPS = 12


def optimal_order_search(path: PathSpec) -> tuple[SwapOrderTree, float]:
    """Exhaustive search over all order trees for the best expected throughput.

    The tree count is Catalan(n-1), so this is only viable for short paths;
    ties keep the first tree in canonical enumeration order.
    """
    n = path.hop_count
    if n > ORDER_SEARCH_MAX_HOPS:
        raise ValueError(
            f"path has {n} hops; exhaustive order search is limited to "
            f"{ORDER_SEARCH_MAX_HOPS}"
        )
    best_tree = None
    best_ext = -1.0
    for tree in all_order_trees(n):
        counters.trees_evaluated += 1
        ext = expected_throughput(heralded_path_distribution(path, tree))
        if ext > best_ext:
            best_tree, best_ext = tree, ext
    return best_tree, best_ext


# ---------------------------------------------------------------------------
# Werner-state fidelity bounds


def werner_fidelity_after_swaps(f0: float, n_hops: int) -> float:
    """Fidelity of the pair spanning n hops of elementary fidelity f0.

    Werner-state composition multiplies the Werner parameters, so n hops
    give w^n with w = (4 f0 - 1) / 3.
    """
    if not 0.25 <= f0 <= 1:
        raise ValueError(f"elementary fidelity {f0} outside [0.25, 1]")
    if n_hops < 1:
        raise ValueError("n_hops must be >= 1")
    w = (4.0 * f0 - 1.0) / 3.0
    return (1.0 + 3.0 * w**n_hops) / 4.0


def max_hops(f0: float, f_min: float) -> int:
    """Longest hop count whose end-to-end Werner fidelity still meets f_min."""
    if not 0.25 < f_min <= 1:
        raise ValueError(f"fidelity floor {f_min} outside (0.25, 1]")
    if not 0.25 < f0 <= 1:
        raise ValueError(f"elementary fidelity {f0} outside (0.25, 1]")
    if f_min > f0:
        raise FidelityInfeasibleError(
            f"fidelity floor {f_min} exceeds elementary fidelity {f0}"
        )
    if f0 == 1.0:
        return UNBOUNDED_HOPS
    estimate = math.log((4.0 * f_min - 1.0) / 3.0) / math.log((4.0 * f0 - 1.0) / 3.0)
    h = max(1, math.floor(estimate))
    # Settle boundary rounding against the actual fidelity formula.
    while werner_fidelity_after_swaps(f0, h + 1) >= f_min:
        h += 1
    while h > 1 and werner_fidelity_after_swaps(f0, h) < f_min:
        h -= 1
    return h
