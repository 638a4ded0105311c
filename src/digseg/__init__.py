"""digseg: ordered segmentation of directed, feature-attributed graphs.

Partitions the vertices of a directed graph into an ordered sequence of k
coherent groups, trading L2 within-group error against weighted forward and
backward cross edges.  Solvers: exact dynamic programming on arborescence
forests, exact minimum-cut for two groups with a pairwise sweep for general
k, and greedy local search; all run under an alternating driver with random
restarts.
"""

from .config import SolveConfig, SolveResult
from .core import (
    DirectedGraph,
    EdgeListError,
    FeatureFileError,
    FeatureMatrix,
    OrderedPartition,
    Penalties,
    features_to_table,
    graph_to_edge_list,
    load_features,
    load_graph,
)
from .driver import multi_restart, random_init, repair_empty_groups, run_iterative
from .experiments import (
    SyntheticInstance,
    adjusted_rand_index,
    gen_sdag,
    gen_stree,
    inject_noise,
    run_noise_sweep,
    write_sweep_csv,
)
from .greedy import best_move, run_greedy
from .mincut import (
    FlowNetwork,
    build_cut_graph_k2,
    build_cut_graph_pair,
    max_flow_min_cut,
    run_mcut,
    solve_two_partition,
)
from .objective import (
    Centroids,
    CostBreakdown,
    SolveState,
    coherence_l2,
    fixed_centroid_cost,
    move_delta,
    total_cost,
    update_centroids,
)
from .oracle import OracleSizeError, brute_force_dgs, brute_force_fixed_centroids
from .treedp import ArborescenceError, TreeLayout, check_arborescence, solve_tree_partition

__version__ = "0.1.0"

__all__ = [
    "ArborescenceError",
    "Centroids",
    "CostBreakdown",
    "DirectedGraph",
    "EdgeListError",
    "FeatureFileError",
    "FeatureMatrix",
    "FlowNetwork",
    "OracleSizeError",
    "OrderedPartition",
    "Penalties",
    "SolveConfig",
    "SolveResult",
    "SolveState",
    "SyntheticInstance",
    "TreeLayout",
    "adjusted_rand_index",
    "best_move",
    "brute_force_dgs",
    "brute_force_fixed_centroids",
    "build_cut_graph_k2",
    "build_cut_graph_pair",
    "check_arborescence",
    "coherence_l2",
    "features_to_table",
    "fixed_centroid_cost",
    "gen_sdag",
    "gen_stree",
    "graph_to_edge_list",
    "inject_noise",
    "load_features",
    "load_graph",
    "max_flow_min_cut",
    "move_delta",
    "multi_restart",
    "random_init",
    "repair_empty_groups",
    "run_greedy",
    "run_iterative",
    "run_mcut",
    "run_noise_sweep",
    "solve_tree_partition",
    "solve_two_partition",
    "total_cost",
    "update_centroids",
    "write_sweep_csv",
]
