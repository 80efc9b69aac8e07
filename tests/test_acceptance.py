"""Acceptance suite: one test per release criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS/FAIL line
per criterion. Statistical checks use fixed seeds, so results are stable
across runs.
"""

import json
import math
import random
import time

from conftest import (
    all_simple_paths,
    chain_graph,
    make_path,
    oracle_bottleneck,
    oracle_cost,
    random_connected_graph,
)
from qroute import (
    AllocatorConfig,
    EdgeParams,
    Metric,
    NodeParams,
    Request,
    SimConfig,
    SwapPolicy,
    allocate,
    all_order_trees,
    brute_force_distribution,
    build_graph,
    heralded_path_distribution,
    k_shortest_paths,
    link_distribution,
    max_hops,
    optimal_order_search,
    path_cost,
    path_spec_from_nodes,
    policy_distribution,
    shortest_path,
    simulate,
    unheralded_path_distribution,
    werner_fidelity_after_swaps,
    widest_path,
)
from qroute.analytics import counters, doubling_tree
from qroute.cli import run_command
from qroute.netmodel import edge_key
from qroute.routing import AllocationPlan, PathAllocation


def _verdict(num: int, desc: str, check) -> None:
    try:
        check()
    except BaseException:
        print(f"ACCEPTANCE {num:02d} FAIL  {desc}")
        raise
    print(f"ACCEPTANCE {num:02d} PASS  {desc}")


def test_c01_link_distribution_exactness():
    def check():
        start = time.perf_counter()
        for cap in range(0, 33):
            for tenths in range(0, 11):
                p = tenths / 10.0
                got = link_distribution(cap, p)
                for k in range(cap + 1):
                    want = math.comb(cap, k) * p**k * (1.0 - p) ** (cap - k)
                    assert abs(got.pmf[k] - want) <= 1e-12
        assert time.perf_counter() - start < 1.0

    _verdict(1, "link pmf matches closed-form binomial (cap<=32, 1e-12)", check)


def test_c02_oracle_equivalence_randomized():
    def check():
        start = time.perf_counter()
        rnd = random.Random(20240)
        for _ in range(200):
            n = rnd.randint(1, 4)
            path = make_path(
                caps=[rnd.randint(1, 2) for _ in range(n)],
                probs=[rnd.uniform(0.2, 1.0) for _ in range(n)],
                qs=[rnd.uniform(0.2, 1.0) for _ in range(n - 1)],
            )
            exact = brute_force_distribution(path)
            got = unheralded_path_distribution(path)
            for a, b in zip(exact.pmf, got.pmf):
                assert abs(a - b) <= 1e-9
            for tree in all_order_trees(n):
                exact = brute_force_distribution(path, tree)
                got = heralded_path_distribution(path, tree)
                for a, b in zip(exact.pmf, got.pmf):
                    assert abs(a - b) <= 1e-9
        assert time.perf_counter() - start < 30.0

    _verdict(2, "analytic distributions match enumeration oracle (1e-9)", check)


def test_c03_unit_capacity_policy_equivalence():
    def check():
        rnd = random.Random(31337)
        for _ in range(100):
            n = rnd.randint(1, 8)
            path = make_path(
                caps=[1] * n,
                probs=[rnd.uniform(0.2, 1.0) for _ in range(n)],
                qs=[rnd.uniform(0.2, 1.0) for _ in range(n - 1)],
            )
            product = math.prod(path.per_hop_prob) * math.prod(
                path.interior_swap_probs
            )
            # exact up to float associativity across merge orders
            reference = unheralded_path_distribution(path)
            assert abs(reference.pmf[1] - product) <= 1e-12
            for tree in all_order_trees(n):
                dist = heralded_path_distribution(path, tree)
                assert dist.cap == 1
                assert abs(dist.pmf[1] - product) <= 1e-12
                assert abs(dist.pmf[0] - reference.pmf[0]) <= 1e-12

    _verdict(3, "width-1 paths are swap-order independent (product form)", check)


def test_c04_catalan_enumeration_counts():
    def check():
        for n, want in ((2, 1), (3, 2), (4, 5), (5, 14), (6, 42)):
            counters.reset()
            path = make_path([1] * n, [0.9] * n, [0.5] * (n - 1))
            optimal_order_search(path)
            assert counters.trees_evaluated == want

    _verdict(4, "order search enumerates Catalan(n-1) trees for n=2..6", check)


def test_c05_fidelity_hop_bound_consistency():
    def check():
        rnd = random.Random(555)
        for _ in range(1000):
            f0 = rnd.uniform(0.5, 0.9999)
            f_min = rnd.uniform(0.3, f0)
            h = max_hops(f0, f_min)
            assert werner_fidelity_after_swaps(f0, h) >= f_min
            assert werner_fidelity_after_swaps(f0, h + 1) < f_min
        assert max_hops(0.99, 0.95) == 5

    _verdict(5, "Werner hop bound consistent; F0=0.99, Fmin=0.95 -> 5 hops", check)


def test_c06_path_search_oracle():
    def check():
        start = time.perf_counter()
        rnd = random.Random(808)
        metrics = (
            Metric.HOP_COUNT,
            Metric.SUM_NODE_DISTANCES,
            Metric.INVERSE_CREATION_RATE,
        )
        for _ in range(100):
            g = random_connected_graph(rnd, rnd.randint(4, 8))
            s, d = rnd.sample(g.node_ids(), 2)
            enumerated = list(all_simple_paths(g, s, d))
            for metric in metrics:
                all_costs = sorted(
                    oracle_cost(g, p, metric.value) for p in enumerated
                )
                got = shortest_path(g, s, d, metric)
                assert math.isclose(
                    path_cost(g, got, metric), all_costs[0], rel_tol=1e-9
                )
                ranked = k_shortest_paths(g, s, d, 5, metric)
                for want, (cost, _) in zip(all_costs, ranked):
                    assert math.isclose(cost, want, rel_tol=1e-9)
            widest = widest_path(g, s, d)
            assert min(widest.per_hop_capacity) == max(
                oracle_bottleneck(g, p) for p in enumerated
            )
        assert time.perf_counter() - start < 60.0

    _verdict(6, "shortest/k-shortest/widest agree with path enumeration", check)


def test_c07_allocator_feasibility():
    def check():
        rnd = random.Random(4321)
        f0 = 0.98
        for _ in range(1000):
            g = random_connected_graph(rnd, rnd.randint(4, 7), max_cap=3)
            ids = list(g.node_ids())
            requests = []
            for i in range(rnd.randint(1, 3)):
                s, d = rnd.sample(ids, 2)
                requests.append(
                    Request(id=f"r{i}", source=s, dest=d,
                            min_fidelity=rnd.uniform(0.8, 0.97))
                )
            plan = allocate(
                g, requests, AllocatorConfig(k=3, elementary_fidelity=f0)
            )
            used: dict = {}
            for a in plan.allocations:
                bound = max_hops(f0, plan.request(a.request_id).min_fidelity)
                assert a.path.hop_count <= bound
                assert len(set(a.path.nodes)) == len(a.path.nodes)
                for h in range(a.path.hop_count):
                    k = edge_key(a.path.nodes[h], a.path.nodes[h + 1])
                    used[k] = used.get(k, 0) + a.path.per_hop_capacity[h]
            for k, total in used.items():
                assert total <= g.edge(*k).capacity

    _verdict(7, "1000 allocation plans satisfy capacity and hop bounds", check)


def _fixed_validation_paths():
    """20 fixed (caps, probs, swap probs, policy) tuples, n<=4, caps<=2."""
    rnd = random.Random(90125)
    policies = [
        SwapPolicy.parallel(),
        SwapPolicy.doubling(),
        SwapPolicy.sequential(),
    ]
    cases = []
    for i in range(20):
        n = (i % 4) + 1
        caps = [rnd.randint(1, 2) for _ in range(n)]
        probs = [rnd.uniform(0.3, 0.95) for _ in range(n)]
        qs = [rnd.uniform(0.3, 0.9) for _ in range(n - 1)]
        cases.append((caps, probs, qs, policies[i % 3]))
    return cases


def test_c08_monte_carlo_matches_analytics():
    def check():
        start = time.perf_counter()
        slots = 100_000
        total = 0
        misses = 0
        for caps, probs, qs, policy in _fixed_validation_paths():
            n = len(caps)
            nodes = [
                NodeParams(id=f"n{i}", swap_prob=(qs[i - 1] if 0 < i < n else 0.5))
                for i in range(n + 1)
            ]
            edges = [
                EdgeParams(u=f"n{i}", v=f"n{i+1}", capacity=caps[i],
                           link_prob=probs[i])
                for i in range(n)
            ]
            g = build_graph(nodes, edges)
            path = path_spec_from_nodes(g, tuple(f"n{i}" for i in range(n + 1)))
            req = Request(id="r1", source="n0", dest=f"n{n}")
            plan = AllocationPlan(
                requests=(req,),
                allocations=(
                    PathAllocation(request_id="r1", path=path, policy=policy),
                ),
                residual=(),
            )
            stats = simulate(g, plan, SimConfig(slots=slots, seed=2718))
            hist = stats.per_path["r1[0]"]["hist"]
            analytic = policy_distribution(path, policy)
            assert len(hist) == analytic.cap + 1
            for k, p in enumerate(analytic.pmf):
                total += 1
                se = math.sqrt(max(p * (1.0 - p), 1e-12) / slots)
                if abs(hist[k] / slots - p) > 3.0 * se:
                    misses += 1
        assert misses <= math.floor(0.01 * total), f"{misses}/{total} components"
        assert time.perf_counter() - start < 120.0

    _verdict(8, "Monte Carlo pmfs within 3 SE of analytics (>=99%)", check)


def test_c09_async_strictly_beats_sync():
    def check():
        g = chain_graph(3, p=0.8, q=0.5, cutoff=5)
        req = Request(id="r1", source="n0", dest="n3")
        path = path_spec_from_nodes(g, ("n0", "n1", "n2", "n3"), width=1)

        def plan(policy):
            return AllocationPlan(
                requests=(req,),
                allocations=(
                    PathAllocation(request_id="r1", path=path, policy=policy),
                ),
                residual=(),
            )

        slots = 100_000
        sync = simulate(
            g, plan(SwapPolicy.doubling()),
            SimConfig(forwarding="sync", slots=slots, seed=99),
        )
        adhoc = simulate(
            g, plan(SwapPolicy.adhoc()),
            SimConfig(forwarding="async", policy=SwapPolicy.adhoc(),
                      slots=slots, seed=99),
        )
        assert adhoc.delivered_total > sync.delivered_total

    _verdict(9, "async ad-hoc beats sync under the shared-seed protocol", check)


def test_c10_classical_delay_metadata(tmp_path):
    def check():
        scenario = {
            "version": 1,
            "graph": {
                "nodes": [{"id": "A"}, {"id": "B"}],
                "edges": [{"u": "A", "v": "B", "capacity": 1,
                           "length_km": 20.0, "link_prob": 0.5}],
            },
            "analytics": {"paths": [["A", "B"]]},
        }
        spath = tmp_path / "delay.json"
        spath.write_text(json.dumps(scenario))
        rc = run_command(["analyze", "--scenario", str(spath),
                          "--out", str(tmp_path / "out")])
        assert rc == 0
        report = json.loads(
            (tmp_path / "out" / "analyze_report.json").read_text()
        )
        delay = report["metadata"]["one_way_classical_delay_ms"]["A|B"]
        assert abs(delay - 0.1) <= 1e-12

    _verdict(10, "20 km hop reports 0.1 ms one-way classical delay", check)


def test_c11_heralded_throughput_performance():
    def check():
        n, cap = 100, 16
        path = make_path([cap] * n, [0.9] * n, [0.5] * (n - 1))
        tree = doubling_tree(n)
        heralded_path_distribution(path, tree)  # warm caches
        start = time.perf_counter()
        dist = heralded_path_distribution(path, tree)
        elapsed = time.perf_counter() - start
        assert math.fsum(dist.pmf) == 1.0 or abs(math.fsum(dist.pmf) - 1.0) < 1e-9
        assert elapsed < 0.1, f"took {elapsed * 1e3:.1f} ms"

    _verdict(11, "n=100, width-16 heralded distribution in < 100 ms", check)


def test_c12_simulate_reports_byte_identical(tmp_path):
    def check():
        scenario = {
            "version": 1,
            "graph": {
                "nodes": [{"id": n, "swap_prob": 0.5} for n in "ABC"],
                "edges": [
                    {"u": "A", "v": "B", "capacity": 2, "link_prob": 0.7},
                    {"u": "B", "v": "C", "capacity": 2, "link_prob": 0.6},
                ],
            },
            "requests": [{"id": "r1", "source": "A", "dest": "C"}],
            "sim": {"slots": 2000, "seed": 31415},
        }
        spath = tmp_path / "det.json"
        spath.write_text(json.dumps(scenario))
        blobs = []
        for sub in ("a", "b"):
            out = tmp_path / sub
            rc = run_command(["simulate", "--scenario", str(spath),
                              "--out", str(out)])
            assert rc == 0
            blobs.append((out / "simulate_report.json").read_bytes())
        assert blobs[0] == blobs[1]

    _verdict(12, "repeated simulate runs emit byte-identical reports", check)
