"""Which digseg functions the traced run wraps, and which workloads must reach them.

Every hook names the attribute that digseg's own callers look up at call
time, so patching it intercepts every call made during a solve.  Names are
`<module>.<function>`; the module prefix is the layer.
"""

from __future__ import annotations

from tracer import Hook

TREE, MCUT, GREEDY = "tree-treedp", "dag-mcut", "dag-greedy"
ALL = (TREE, MCUT, GREEDY)


def build_hooks(digseg) -> list[Hook]:
    """The traced attributes; a missing attribute raises here, loudly."""
    from digseg import config, core, driver, greedy, mincut, objective, treedp

    state = objective.SolveState
    return [
        Hook("core.load_graph", core, "load_graph"),
        Hook("core.load_features", core, "load_features"),
        Hook("driver.multi_restart", digseg, "multi_restart"),
        Hook("driver.repair_empty_groups", driver, "repair_empty_groups"),
        Hook("treedp.solve_tree_partition", treedp, "solve_tree_partition"),
        Hook("treedp.compute_dp_tables", treedp, "compute_dp_tables"),
        Hook("treedp.check_arborescence", treedp, "check_arborescence"),
        Hook(
            "mincut.pair_sweep", mincut, "pair_sweep",
            count=lambda args, commits: {"mincut.pair_commits": commits},
        ),
        Hook(
            "mincut.build_cut_graph_pair", mincut, "build_cut_graph_pair",
            count=lambda args, net: {"mincut.arcs": net.num_arcs},
        ),
        Hook("mincut.from_arcs", mincut.FlowNetwork, "from_arcs", kind="classmethod"),
        Hook("mincut.max_flow_min_cut", mincut, "max_flow_min_cut"),
        Hook(
            "greedy.sweep", greedy, "sweep",
            count=lambda args, commits: {"greedy.commits": commits},
        ),
        Hook("greedy.best_move", greedy, "best_move"),
        Hook("objective.from_partition", state, "from_partition", kind="classmethod"),
        Hook("objective.apply_move", state, "apply_move"),
        Hook("objective.rebuild", state, "rebuild"),
        Hook("objective.centroids", state, "centroids"),
        Hook("objective.loss_parts", state, "loss_parts"),
        Hook("objective.total_cost", config, "total_cost"),
    ]


# name -> (workloads that must call it, workloads that may call it).  Every
# other workload must not call it.  Empty-group repair (and the moves it
# makes) depends on where a run lands, so it is allowed but not required.
EXPECTED_HITS: dict[str, tuple[tuple[str, ...], tuple[str, ...]]] = {
    "core.load_graph": (ALL, ()),
    "core.load_features": (ALL, ()),
    "driver.multi_restart": (ALL, ()),
    "driver.repair_empty_groups": ((), (TREE, MCUT)),
    "treedp.solve_tree_partition": ((TREE,), ()),
    "treedp.compute_dp_tables": ((TREE,), ()),
    "treedp.check_arborescence": ((TREE,), ()),
    "mincut.pair_sweep": ((MCUT,), ()),
    "mincut.build_cut_graph_pair": ((MCUT,), ()),
    "mincut.from_arcs": ((MCUT,), ()),
    "mincut.max_flow_min_cut": ((MCUT,), ()),
    "greedy.sweep": ((GREEDY,), ()),
    "greedy.best_move": ((GREEDY,), ()),
    "objective.from_partition": (ALL, ()),
    "objective.apply_move": ((MCUT, GREEDY), (TREE,)),
    "objective.rebuild": (ALL, ()),
    "objective.centroids": ((TREE, MCUT), ()),
    "objective.loss_parts": ((MCUT,), ()),
    "objective.total_cost": (ALL, ()),
}


def layer_hit_problems(workload: str, calls: dict[str, int]) -> list[str]:
    """Names whose call count contradicts the expectation for `workload`."""
    problems = []
    for name, count in calls.items():
        must, may = EXPECTED_HITS[name]
        if workload in must and count == 0:
            problems.append(f"{name}: expected calls on {workload}, got none")
        elif workload not in must and workload not in may and count:
            problems.append(f"{name}: expected no calls on {workload}, got {count}")
    return problems
