"""A fixed pure-Python kernel that measures how fast the machine is right now.

On a shared machine the same run can take 1.7x longer from one half-minute to
the next, while the ratio of a run's time to this kernel's time, measured in
the same interpreter just before and just after it, moves far less. The
benchmark therefore reports times scaled by REF_S / kernel time: seconds at
a fixed reference speed. The kernel uses nothing from qroute, so no change
to the program can move it.
"""

from __future__ import annotations

import heapq
import time

REF_S = 0.12  # the kernel's time at the reference speed
_MASK64 = (1 << 64) - 1


def _grid_searches(n: int = 14, searches: int = 360) -> int:
    """Dijkstra with tuple paths on a grid: heap, dict, set and tuple work."""
    adj = {
        (r, c): tuple(
            (r + dr, c + dc)
            for dr, dc in ((0, 1), (1, 0), (0, -1), (-1, 0))
            if 0 <= r + dr < n and 0 <= c + dc < n
        )
        for r in range(n)
        for c in range(n)
    }
    total = 0
    for s in range(searches):
        src, dst = (s % n, 0), (n - 1, (s * 5) % n)
        heap = [(0.0, (src,))]
        done = set()
        while heap:
            cost, nodes = heapq.heappop(heap)
            cur = nodes[-1]
            if cur in done:
                continue
            done.add(cur)
            if cur == dst:
                total += len(nodes)
                break
            for nb in adj[cur]:
                if nb not in done:
                    step = 1.0 + (nb[0] * 7 + nb[1]) % 3 * 0.1
                    heapq.heappush(heap, (cost + step, nodes + (nb,)))
    return total


def _hash_draws(count: int = 40_000) -> int:
    """splitmix64-style integer mixing, as in the keyed RNG."""
    acc = 0
    for i in range(count):
        h = (i * 0x9E3779B97F4A7C15) & _MASK64
        h = (h ^ (h >> 30)) * 0xBF58476D1CE4E5B9 & _MASK64
        h = (h ^ (h >> 27)) * 0x94D049BB133111EB & _MASK64
        acc ^= h ^ (h >> 31)
    return acc


def kernel_seconds() -> float:
    """Wall time of one pass of the kernel."""
    t0 = time.perf_counter()
    _grid_searches()
    _hash_draws()
    return time.perf_counter() - t0
