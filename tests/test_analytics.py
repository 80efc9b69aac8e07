import hashlib
import math
import random

import pytest
from hypothesis import given, settings

from conftest import assert_pmf_close, make_path, path_specs, random_path
from qroute import (
    Distribution,
    PathSpec,
    SwapPolicy,
    all_order_trees,
    expected_throughput,
    heralded_path_distribution,
    heralded_swap_merge,
    link_distribution,
    max_hops,
    optimal_order_search,
    policy_distribution,
    unheralded_path_distribution,
    werner_fidelity_after_swaps,
)
from qroute.analytics import (
    DistributionError,
    FidelityInfeasibleError,
    UNBOUNDED_HOPS,
    counters,
    doubling_tree,
    sequential_tree,
)
from qroute.oracle import brute_force_distribution


# --------------------------------------------------------------------------
# link_distribution


def test_link_distribution_certain():
    assert link_distribution(1, 1.0).pmf == (0.0, 1.0)


def test_link_distribution_fair_pair():
    assert_pmf_close(link_distribution(2, 0.5).pmf, (0.25, 0.5, 0.25), 1e-15)


def test_link_distribution_binomial_expansion():
    assert_pmf_close(
        link_distribution(3, 0.9).pmf, (0.001, 0.027, 0.243, 0.729), 1e-12
    )


def test_link_distribution_past_float_range_coefficients():
    # C(1030, 515) is past float range, so the middle terms go by logs
    assert abs(math.fsum(link_distribution(1030, 0.5).pmf) - 1.0) < 1e-9
    for n in range(65):  # smaller rows keep the direct product, bit for bit
        for p in (0.1, 0.5, 0.8, 0.93):
            assert link_distribution(n, p).pmf == tuple(
                math.comb(n, k) * p**k * (1.0 - p) ** (n - k) for k in range(n + 1))


def test_link_distribution_zero_cap():
    assert link_distribution(0, 0.7).pmf == (1.0,)


def test_link_distribution_rejects_bad_p():
    with pytest.raises(ValueError):
        link_distribution(2, 1.5)


# --------------------------------------------------------------------------
# unheralded swapping


def test_unheralded_two_hop_unit():
    path = make_path([1, 1], [0.5, 0.5], [0.5])
    assert_pmf_close(unheralded_path_distribution(path).pmf, (0.875, 0.125))


def test_unheralded_two_certain_links():
    path = make_path([2, 2], [1.0, 1.0], [0.5])
    assert_pmf_close(
        unheralded_path_distribution(path).pmf, (0.25, 0.5, 0.25)
    )


def test_unheralded_matches_brute_force():
    path = make_path([2, 1, 2], [0.9, 0.6, 0.7], [0.5, 0.5])
    got = unheralded_path_distribution(path)
    want = brute_force_distribution(path)
    assert_pmf_close(got.pmf, want.pmf, 1e-9)


def test_unheralded_single_hop_is_link_distribution():
    path = make_path([3], [0.4], [])
    assert_pmf_close(
        unheralded_path_distribution(path).pmf, link_distribution(3, 0.4).pmf
    )


# --------------------------------------------------------------------------
# heralded swapping


def test_merge_unit():
    one = Distribution((0.0, 1.0))
    assert_pmf_close(heralded_swap_merge(one, one, 0.5).pmf, (0.5, 0.5))


def test_merge_two_attempts():
    two = Distribution((0.0, 0.0, 1.0))
    assert_pmf_close(
        heralded_swap_merge(two, two, 0.5).pmf, (0.25, 0.5, 0.25)
    )


def test_merge_perfect_swap_passes_min():
    left = Distribution((0.5, 0.5))
    right = Distribution((0.0, 1.0))
    assert_pmf_close(heralded_swap_merge(left, right, 1.0).pmf, (0.5, 0.5))


def test_merge_cap_is_the_smaller_cap():
    one = Distribution((0.5, 0.5))
    two = Distribution((0.5, 0.25, 0.25))
    # one swap is tried with probability 0.5 * 0.5 and succeeds half the time
    for merged in (heralded_swap_merge(one, two, 0.5),
                   heralded_swap_merge(two, one, 0.5)):
        assert len(merged.pmf) == 2
        assert_pmf_close(merged.pmf, (0.875, 0.125))


def test_two_hop_heralded_equals_unheralded():
    path = make_path([2, 3], [0.7, 0.9], [0.45])
    tree = next(all_order_trees(2))
    assert_pmf_close(
        heralded_path_distribution(path, tree).pmf,
        unheralded_path_distribution(path).pmf,
    )


def test_unit_capacity_order_independent():
    path = make_path([1, 1, 1, 1], [0.9, 0.8, 0.7, 0.6], [0.5, 0.45, 0.4])
    want = math.prod(path.per_hop_prob) * math.prod(path.interior_swap_probs)
    for tree in all_order_trees(4):
        dist = heralded_path_distribution(path, tree)
        assert dist.pmf[1] == pytest.approx(want, abs=1e-12)
    assert unheralded_path_distribution(path).pmf[1] == pytest.approx(
        want, abs=1e-12
    )


def test_heterogeneous_heralded_vs_brute_force():
    path = make_path([3, 1, 2, 2], [0.9, 0.5, 0.8, 0.7], [0.5, 0.4, 0.6])
    for tree in (doubling_tree(4), sequential_tree(4)):
        got = heralded_path_distribution(path, tree)
        want = brute_force_distribution(path, tree)
        assert_pmf_close(got.pmf, want.pmf, 1e-9)


# --------------------------------------------------------------------------
# throughput and order search


def test_expected_throughput_values():
    assert expected_throughput(Distribution((0.25, 0.5, 0.25))) == 1.0
    assert expected_throughput(Distribution((0.0, 1.0))) == 1.0
    assert expected_throughput(Distribution((0.875, 0.125))) == 0.125


def test_order_search_enumeration_counts():
    for n, count in ((3, 2), (5, 14)):
        counters.reset()
        path = make_path([2] * n, [0.8] * n, [0.5] * (n - 1))
        optimal_order_search(path)
        assert counters.trees_evaluated == count


def test_order_search_matches_brute_force_max():
    path = make_path([2] * 4, [0.8] * 4, [0.5] * 3)
    _, best = optimal_order_search(path)
    exact = max(
        expected_throughput(brute_force_distribution(path, tree))
        for tree in all_order_trees(4)
    )
    assert best == pytest.approx(exact, abs=1e-9)


def test_order_search_limit():
    path = make_path([1] * 13, [0.9] * 13, [0.5] * 12)
    with pytest.raises(ValueError, match="limited"):
        optimal_order_search(path)


def test_order_search_tie_break_is_first_tree():
    # width-1 paths make every order equivalent, so the canonical first
    # (left-deep) tree must win
    path = make_path([1, 1, 1], [0.9, 0.9, 0.9], [0.5, 0.5])
    tree, _ = optimal_order_search(path)
    assert tree == sequential_tree(3)


def _schedule_from_spans(tree):
    """Post-order merge triples, derived from the leaves of each subtree."""
    if tree.is_leaf:
        return []
    a, mid = tree.left.span()
    b = tree.right.span()[1]
    return (_schedule_from_spans(tree.left) + _schedule_from_spans(tree.right)
            + [(a, mid, b)])


def test_schedule_matches_spans_for_every_tree():
    for n in range(1, 8):
        for tree in all_order_trees(n):
            assert list(tree.schedule) == _schedule_from_spans(tree)
    assert sequential_tree(5) is sequential_tree(5)
    assert doubling_tree(5).schedule is doubling_tree(5).schedule


# sha256 of the pmfs, order-search results and counter totals below,
# recorded before the heralded fold ran on the shared merge schedule
PINNED_PATH_DISTRIBUTIONS = (
    "291fa1c1408ef1662d372ed23ef29fc88d3a236f5be8751e03e288ac37e6cbbb"
)


def test_path_distributions_pinned():
    rnd = random.Random(2029)

    def prob():
        return rnd.choice((0.0, 1.0, rnd.random(), rnd.random()))

    digest = hashlib.sha256()
    counters.reset()
    for _ in range(1000):
        n = rnd.randint(1, 7)
        path = make_path([rnd.randint(1, 6) for _ in range(n)],
                         [prob() for _ in range(n)],
                         [prob() for _ in range(n - 1)])
        dists = [unheralded_path_distribution(path),
                 heralded_path_distribution(path, sequential_tree(n)),
                 heralded_path_distribution(path, doubling_tree(n))]
        trees = list(all_order_trees(n))
        for tree in rnd.sample(trees, min(3, len(trees))):
            dists.append(heralded_path_distribution(path, tree))
        for dist in dists:
            digest.update(repr(dist.pmf).encode())
        if n <= 5:
            digest.update(repr(optimal_order_search(path)).encode())
    digest.update(repr((counters.unheralded_states, counters.heralded_merge_ops,
                        counters.trees_evaluated)).encode())
    assert digest.hexdigest() == PINNED_PATH_DISTRIBUTIONS


# --------------------------------------------------------------------------
# fidelity bounds


def test_werner_perfect():
    assert werner_fidelity_after_swaps(1.0, 7) == 1.0


def test_werner_identity():
    assert werner_fidelity_after_swaps(0.99, 1) == pytest.approx(0.99)


def test_werner_five_hops():
    assert werner_fidelity_after_swaps(0.99, 5) == pytest.approx(
        0.9513156737580247, abs=1e-12
    )


def test_werner_domain():
    with pytest.raises(ValueError):
        werner_fidelity_after_swaps(0.2, 1)


def test_max_hops_equal_fidelities():
    assert max_hops(0.9, 0.9) == 1


def test_max_hops_spot_value():
    assert max_hops(0.99, 0.95) == 5


def test_max_hops_infeasible():
    with pytest.raises(FidelityInfeasibleError):
        max_hops(0.9, 0.95)


def test_max_hops_perfect_sentinel():
    assert max_hops(1.0, 0.99) == UNBOUNDED_HOPS


def test_max_hops_consistency_randomized():
    rnd = random.Random(123)
    for _ in range(1000):
        f0 = rnd.uniform(0.5, 0.999)
        f_min = rnd.uniform(0.3, f0)
        h = max_hops(f0, f_min)
        assert h >= 1
        assert werner_fidelity_after_swaps(f0, h) >= f_min
        assert werner_fidelity_after_swaps(f0, h + 1) < f_min


# --------------------------------------------------------------------------
# validation and policies


def test_distribution_clamps_tiny_negatives():
    d = Distribution((1.0, -1e-16))
    assert d.pmf[1] == 0.0


def test_distribution_rejects_real_negatives():
    with pytest.raises(DistributionError):
        Distribution((1.1, -0.1))


def test_distribution_rejects_bad_sum():
    with pytest.raises(DistributionError):
        Distribution((0.6, 0.5))


def test_path_spec_rejects_loops():
    with pytest.raises(ValueError, match="loop"):
        PathSpec(("a", "b", "a"), (1, 1), (0.5, 0.5), (0.5,))


def test_path_spec_shape_checks():
    with pytest.raises(ValueError):
        PathSpec(("a", "b", "c"), (1,), (0.5, 0.5), (0.5,))
    with pytest.raises(ValueError):
        PathSpec(("a", "b", "c"), (1, 1), (0.5, 0.5), ())


def test_policy_distribution_adhoc_rejected():
    path = make_path([1, 1], [0.5, 0.5], [0.5])
    with pytest.raises(ValueError, match="adhoc"):
        policy_distribution(path, SwapPolicy("adhoc"))


def test_policy_distribution_selects_formula():
    path = make_path([2, 2], [0.7, 0.8], [0.5])
    assert_pmf_close(
        policy_distribution(path, SwapPolicy("parallel")).pmf,
        unheralded_path_distribution(path).pmf,
    )
    assert_pmf_close(
        policy_distribution(path, SwapPolicy("doubling")).pmf,
        heralded_path_distribution(path, doubling_tree(2)).pmf,
    )


# --------------------------------------------------------------------------
# properties


@given(path_specs(max_hops=6, max_cap=4))
@settings(max_examples=150, deadline=None)
def test_distributions_are_normalized(path):
    for dist in (
        unheralded_path_distribution(path),
        heralded_path_distribution(path, doubling_tree(path.hop_count)),
    ):
        assert all(v >= 0 for v in dist.pmf)
        assert math.fsum(dist.pmf) == pytest.approx(1.0, abs=1e-9)


@given(path_specs(max_hops=6, max_cap=4))
@settings(max_examples=150, deadline=None)
def test_unheralded_direction_invariance(path):
    forward = unheralded_path_distribution(path)
    backward = unheralded_path_distribution(PathSpec(
        nodes=path.nodes[::-1],
        per_hop_capacity=path.per_hop_capacity[::-1],
        per_hop_prob=path.per_hop_prob[::-1],
        interior_swap_probs=path.interior_swap_probs[::-1],
    ))
    assert_pmf_close(forward.pmf, backward.pmf, 1e-9)


@given(path_specs(max_hops=5, max_cap=3, min_p=0.05, min_q=0.05))
@settings(max_examples=100, deadline=None)
def test_throughput_monotone_in_probabilities(path):
    base = expected_throughput(unheralded_path_distribution(path))
    rnd = random.Random(0)
    h = rnd.randrange(path.hop_count)
    probs = list(path.per_hop_prob)
    probs[h] = min(1.0, probs[h] + 0.1)
    bumped = PathSpec(path.nodes, path.per_hop_capacity, tuple(probs),
                      path.interior_swap_probs)
    assert expected_throughput(unheralded_path_distribution(bumped)) >= base - 1e-12
    if path.hop_count > 1:
        qs = list(path.interior_swap_probs)
        qs[0] = min(1.0, qs[0] + 0.1)
        bumped_q = PathSpec(path.nodes, path.per_hop_capacity,
                            path.per_hop_prob, tuple(qs))
        dist = heralded_path_distribution(bumped_q, doubling_tree(path.hop_count))
        ref = heralded_path_distribution(path, doubling_tree(path.hop_count))
        assert expected_throughput(dist) >= expected_throughput(ref) - 1e-12


@given(path_specs(max_hops=8, max_cap=1, min_p=0.05, min_q=0.05))
@settings(max_examples=60, deadline=None)
def test_width_one_policy_equivalence(path):
    want = unheralded_path_distribution(path)
    for tree in all_order_trees(path.hop_count):
        got = heralded_path_distribution(path, tree)
        assert_pmf_close(got.pmf, want.pmf, 1e-12)


def test_oracle_equivalence_randomized():
    rnd = random.Random(2024)
    for _ in range(40):
        path = random_path(rnd, max_hops=4, max_cap=2)
        assert_pmf_close(
            unheralded_path_distribution(path).pmf,
            brute_force_distribution(path).pmf,
        )
        for tree in all_order_trees(path.hop_count):
            assert_pmf_close(
                heralded_path_distribution(path, tree).pmf,
                brute_force_distribution(path, tree).pmf,
            )


def test_complexity_counters():
    n, cap = 60, 12
    path = make_path([cap] * n, [0.8] * n, [0.5] * (n - 1))
    counters.reset()
    unheralded_path_distribution(path)
    # O(n * maxC) states, small constant
    assert counters.unheralded_states <= 4 * n * (cap + 1)
    counters.reset()
    heralded_path_distribution(path, doubling_tree(n))
    # O(C^2) per merge node, n - 1 merges
    assert counters.heralded_merge_ops <= (n - 1) * (cap + 1) ** 2
