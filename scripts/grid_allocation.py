"""Multi-request allocation on a grid, with a simulation cross-check.

Allocates capacity for diagonal requests on an n x n grid, prints the
chosen paths (including how each k-shortest candidate's expected
throughput under sequential swapping, `expected_throughput` of its
`policy_distribution`, re-ranks the creation-rate order), then simulates
the plan and compares simulated rates against the analytic expectation.

Usage: python scripts/grid_allocation.py [--size 3] [--cap 2] [--slots 20000]
"""

import argparse

from qroute import (
    AllocatorConfig,
    Metric,
    Request,
    SimConfig,
    SwapPolicy,
    UtilitySpec,
    allocate,
    expected_throughput,
    grid_topology,
    k_shortest_paths,
    path_spec_from_nodes,
    policy_distribution,
    request_throughput,
    simulate,
    total_utility,
)
from qroute.netmodel import EdgeParams, NodeParams


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--size", type=int, default=3)
    ap.add_argument("--cap", type=int, default=2)
    ap.add_argument("--p", type=float, default=0.7)
    ap.add_argument("--q", type=float, default=0.5)
    ap.add_argument("--k", type=int, default=4)
    ap.add_argument("--slots", type=int, default=20_000)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()

    n = args.size
    g = grid_topology(
        n, n,
        default_node=NodeParams(id="", swap_prob=args.q),
        default_edge=EdgeParams(u="", v="", capacity=args.cap,
                                length_km=20.0, link_prob=args.p),
    )
    corner = f"{n-1},{n-1}"
    mid = n // 2
    # saturating utility: once a request hits its target rate, the greedy
    # stops pouring width into it and serves the other request
    requests = [
        Request(id="r1", source="0,0", dest=corner, rate_target=0.12),
        Request(id="r2", source=f"{mid},0", dest=f"{mid},{n-1}",
                rate_target=0.12),
    ]

    print(f"candidate re-ranking for r1 (k={args.k}, creation-rate order):")
    for _, nodes in k_shortest_paths(g, "0,0", corner, args.k,
                                     Metric.INVERSE_CREATION_RATE):
        cand = path_spec_from_nodes(g, nodes)
        score = expected_throughput(policy_distribution(cand, SwapPolicy("sequential")))
        print(f"  {'->'.join(nodes):<40} seq-throughput {score:.4f}")

    config = AllocatorConfig(k=args.k, utility=UtilitySpec("saturating"))
    plan = allocate(g, requests, config)
    print("\nallocated plan:")
    for alloc in plan.allocations:
        print(f"  {alloc.request_id}: {'->'.join(alloc.path.nodes)} "
              f"width {alloc.path.width} ({alloc.policy.kind})")
    print(f"total utility: {total_utility(plan, config.utility):.4f}")

    stats = simulate(g, plan, SimConfig(slots=args.slots, seed=args.seed))
    print(f"\nsimulated {args.slots} slots (seed {args.seed}):")
    for req in requests:
        analytic = request_throughput(plan, req)
        entry = stats.per_request[req.id]
        print(f"  {req.id}: simulated rate "
              f"{entry['delivered'] / args.slots:.4f}  analytic {analytic:.4f}")
    for label, entry in stats.per_path.items():
        print(f"  {label}: delivered {entry['delivered']} "
              f"(rate {entry['delivered'] / args.slots:.4f})")


if __name__ == "__main__":
    main()
