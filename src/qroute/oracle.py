"""The exact enumeration oracle: a path's end-to-end pmf by enumerating
every joint outcome of its link and swap trials, the brute-force check on
the analytics and the simulator. Guarded to tiny paths: the state space is
exponential by design."""

from __future__ import annotations

import itertools
from functools import lru_cache

from .analytics import Distribution, PathSpec, SwapOrderTree, validate_tree

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
    pairs its children's counts, by a walk of the tree itself, not of the
    `schedule` the analytics and the simulator share, so it checks that
    too. Guarded to tiny paths: the state space is exponential by design.
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
    return Distribution(out)


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
