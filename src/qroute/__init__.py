"""Entanglement routing engine for first-generation quantum repeater networks.

Exact analytics for swap-based end-to-end entanglement distributions,
multi-request path computation and capacity allocation, and a slotted
Monte Carlo simulator that cross-validates the analytics.
"""

__version__ = "0.1.0"

from .analytics import (
    Distribution,
    PathSpec,
    SwapOrderTree,
    SwapPolicy,
    all_order_trees,
    doubling_tree,
    expected_throughput,
    heralded_path_distribution,
    heralded_swap_merge,
    link_distribution,
    max_hops,
    optimal_order_search,
    policy_distribution,
    sequential_tree,
    subpath_capacity,
    unheralded_path_distribution,
    werner_fidelity_after_swaps,
)
from .draws import KeyedRng
from .montecarlo import SimConfig, SimStats, simulate
from .netmodel import (
    EdgeParams,
    NetworkGraph,
    NodeParams,
    PhysicalConstants,
    build_graph,
    grid_topology,
    link_success_probability,
)
from .pathfind import (
    LogicalTopology,
    Metric,
    disjoint_paths_on_logical,
    k_shortest_paths,
    path_cost,
    path_spec_from_nodes,
    shortest_path,
    widest_path,
)
from .routing import (
    AllocationPlan,
    AllocatorConfig,
    Request,
    UtilitySpec,
    allocate,
    request_throughput,
    total_utility,
)
from .scenario import Scenario, parse_scenario, scenario_from_dict, scenario_to_dict


def __getattr__(name):
    # the brute-force oracle is loaded on first use: no other command needs
    # it, and every run compiles what it imports when bytecode is not cached
    if name == "brute_force_distribution":
        from .oracle import brute_force_distribution

        return brute_force_distribution
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
