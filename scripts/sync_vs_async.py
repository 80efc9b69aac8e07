"""Paired sync-vs-async simulation on a repeater chain.

Both runs share the seed, so they see identical link realizations; the
delivery gap is purely the effect of quantum memory (cutoff W) plus the
swap-as-soon-as-possible policy.

Usage: python scripts/sync_vs_async.py [--hops 3] [--cutoff 5] [--slots 100000]
"""

import argparse

from qroute import (
    AllocatorConfig,
    Request,
    SimConfig,
    SwapPolicy,
    allocate,
    simulate,
)
from qroute.netmodel import EdgeParams, NodeParams, build_graph


def chain(n_hops, p, q, cutoff):
    nodes = [
        NodeParams(id=f"n{i}", swap_prob=q, memory_cutoff_slots=cutoff)
        for i in range(n_hops + 1)
    ]
    edges = [
        EdgeParams(u=f"n{i}", v=f"n{i+1}", capacity=1, link_prob=p)
        for i in range(n_hops)
    ]
    return build_graph(nodes, edges)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--hops", type=int, default=3)
    ap.add_argument("--p", type=float, default=0.8)
    ap.add_argument("--q", type=float, default=0.5)
    ap.add_argument("--cutoff", type=int, default=5)
    ap.add_argument("--slots", type=int, default=100_000)
    ap.add_argument("--seed", type=int, default=11)
    args = ap.parse_args()

    g = chain(args.hops, args.p, args.q, args.cutoff)
    req = Request(id="r1", source="n0", dest=f"n{args.hops}")
    plan = allocate(g, [req], AllocatorConfig())

    runs = {
        "sync doubling": SimConfig(forwarding="sync", slots=args.slots,
                                   seed=args.seed),
        "async doubling": SimConfig(forwarding="async", slots=args.slots,
                                    seed=args.seed),
        "async adhoc": SimConfig(forwarding="async", policy=SwapPolicy("adhoc"),
                                 slots=args.slots, seed=args.seed),
    }
    closed_form = args.p**args.hops * args.q ** (args.hops - 1)
    print(f"{args.hops}-hop chain, p={args.p}, q={args.q}, W={args.cutoff}, "
          f"{args.slots} slots, seed {args.seed}")
    print(f"sync closed form rate: {closed_form:.5f}")
    for name, config in runs.items():
        # the allocator priced the path; each run swaps with its own policy
        run_plan = plan.replace(allocations=tuple(
            a.replace(policy=config.policy) for a in plan.allocations
        ))
        stats = simulate(g, run_plan, config)
        rate = stats.delivered_total / stats.slots_run
        print(f"{name:>15}: delivered {stats.delivered_total:>7}  "
              f"rate {rate:.5f}")


if __name__ == "__main__":
    main()
