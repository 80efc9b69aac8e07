"""Each layer at network size, to a pinned digest within a time budget.

Each row of ROWS is (what, budget in s, pinned sha256, run). Every row runs
in this process; the script prints its time and the sha256 of what `run()`
returns, and exits 1 when a digest differs from its pin or a row takes
longer than its budget. A plan digest covers `tests/test_routing.py`'s
`_plan_fingerprint`, and a simulate digest the canonical JSON of the
`simulate` report's results, so a row checks exactness, not only speed.

    python scripts/scale.py
"""

import hashlib
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from qroute import AllocatorConfig, allocate, grid_topology  # noqa: E402
from qroute.cli import _cmd_simulate  # noqa: E402
from qroute.report import canonical_json  # noqa: E402
from qroute.scenario import scenario_from_dict  # noqa: E402
from test_op_counts import route_grid_scenario  # noqa: E402
from test_routing import _plan_fingerprint, tied_grid  # noqa: E402


def route_grid(n: int, count: int) -> str:
    """The bench's `route_grid` shape at n x n with `count` requests."""
    scenario = scenario_from_dict(route_grid_scenario(n, count))
    return _plan_fingerprint(allocate(scenario.graph, list(scenario.requests),
                                      scenario.routing))


def simulate_grid(n: int, count: int, scheme: str, slots: int) -> str:
    """`simulate` under sync doubling on the `route_grid` shape at n x n
    with `count` requests, seed 5: its report's results."""
    doc = route_grid_scenario(n, count)
    doc["sim"] = {"scheme": scheme, "forwarding": "sync", "policy": "doubling",
                  "slots": slots, "seed": 5}
    return canonical_json(_cmd_simulate(scenario_from_dict(doc)))


def async_chain(hops: int, width: int, cutoff: int, slots: int) -> str:
    """`simulate` under async adhoc along a chain of `hops` hops of width
    `width`, p = 0.6 and q = 0.5, where every node keeps qubits for
    `cutoff` slots, seed 5: its report's results."""
    nodes = [f"n{i}" for i in range(hops + 1)]
    doc = {
        "version": 1,
        "graph": {
            "nodes": [{"id": n, "swap_prob": 0.5, "memory_cutoff_slots": cutoff}
                      for n in nodes],
            "edges": [{"u": u, "v": v, "capacity": width, "link_prob": 0.6}
                      for u, v in zip(nodes, nodes[1:])],
        },
        "requests": [{"id": "r0", "source": nodes[0], "dest": nodes[-1]}],
        "sim": {"scheme": "proactive", "forwarding": "async", "policy": "adhoc",
                "slots": slots, "seed": 5,
                "paths": [{"request": "r0", "nodes": nodes, "width": width}]},
    }
    return canonical_json(_cmd_simulate(scenario_from_dict(doc)))


ROWS = (
    # p = 1 ties every creation-rate label; about 4 minutes with them all on the heap
    ("tied 20x20, 20 requests", 60,
     "34b46f6f9b923c381fd9821ddae8eddfddad9451d416f26926a0e0032011cfa3",
     lambda: _plan_fingerprint(allocate(*tied_grid(20, 20), AllocatorConfig(k=5)))),
    ("route_grid 48x48, 288 requests", 60,
     "d096bbef21b8df51484873b4c2a8f2db543d9fa7bec8163139e0fa9cd63fa95e",
     lambda: route_grid(48, 288)),
    # 1/p per hop over the graph overflows past 56x56: 60 s before Yen's hop bound
    ("route_grid 64x64, 512 requests", 30,
     "f1dda9ebc7b37aa73c7334e179592653519e7e071a2d1960978c635056f9e938",
     lambda: route_grid(64, 512)),
    ("route_grid 96x96, 1,152 requests", 75,
     "b972726ef0137a0e5825f8af7facc0a2e1fcee400edb8efa66615113d7bbc374",
     lambda: route_grid(96, 1152)),
    # a quadratic duplicate-id check took 25.5 s at 200x200
    ("grid_topology 300x300", 60,
     "982acbd7414a9582df0f069832c2d5e0afacd43e427cc374b83c830e4be8e08f",
     lambda: repr((len((g := grid_topology(300, 300)).nodes), len(g.edges)))),
    # many blocks of a few slots each; 1.2 s and 2.2 s in process before the
    # planes moved to a helper process
    ("proactive sync simulate 24x24, 64 requests, 500 slots", 6,
     "85b29dcb91c3d61d24e67fb87d73bed907e5168f61c1871be133f1a5afe00780",
     lambda: simulate_grid(24, 64, "proactive", 500)),
    ("reactive sync simulate 24x24, 64 requests, 200 slots", 12,
     "0f5083520cae0d6ef63ca4d409c551ec8395949b8018d8520e1e9b3a56f870ac",
     lambda: simulate_grid(24, 64, "reactive", 200)),
    # blocks of 64 slots, so 100 of them, and memory that crosses slots;
    # 0.65-0.93 s when its digest was recorded
    ("async adhoc simulate, 32-hop width-2 chain, cutoff 5, 6,400 slots", 5,
     "6a3fa1103e01c3da71a5ab4c2039eb0ddab6e519ec0ced6f04f6c8460049c285",
     lambda: async_chain(32, 2, 5, 6400)),
)


def main() -> int:
    failed = 0
    for what, budget, pinned, run in ROWS:
        start = time.perf_counter()
        digest = hashlib.sha256(run().encode()).hexdigest()
        took = time.perf_counter() - start
        ok = digest == pinned and took <= budget
        failed += not ok
        print(f"{'ok' if ok else 'FAIL':4} {what}: {took:.1f} s of {budget} s, "
              f"sha256 {digest}", flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
