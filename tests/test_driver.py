import math

import numpy as np
import pytest

from digseg import (
    ArborescenceError,
    DirectedGraph,
    FeatureMatrix,
    OrderedPartition,
    Penalties,
    SolveConfig,
    SolveState,
    coherence_l2,
    multi_restart,
    random_init,
    repair_empty_groups,
    run_iterative,
    total_cost,
)
from digseg import driver
from digseg.config import REL_TOL, alternate, small_improvement
from digseg.driver import _solver_step, order_groups
from digseg.greedy import scan_step
from digseg.mincut import sweep_step
from digseg.experiments import gen_sdag, gen_stree, inject_noise
from digseg.treedp import TreeLayout, solve_tree_partition, tree_step
from conftest import finite_parts, random_digraph, random_features, rel_close


def test_random_init_single_group():
    part = random_init(8, 1, 0)
    assert (part.assign == 1).all()


def test_random_init_deterministic():
    a = random_init(50, 4, 123)
    b = random_init(50, 4, 123)
    assert np.array_equal(a.assign, b.assign)
    c = random_init(50, 4, 124)
    assert not np.array_equal(a.assign, c.assign)


def test_random_init_balanced_within_five_sigma():
    n, k = 100_000, 5
    part = random_init(n, k, 7)
    sizes = part.group_sizes()[1:]
    sigma = math.sqrt(n * (1 / k) * (1 - 1 / k))
    assert (np.abs(sizes - n / k) <= 5 * sigma).all()


def test_run_iterative_treedp_path_example():
    g = DirectedGraph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    f = FeatureMatrix.from_array([[0.0], [0.0], [1.0], [1.0]])
    cfg = SolveConfig(solver_kind="treedp", restarts=8, seed=0)
    res = multi_restart(g, f, Penalties(0.0, 1e5), 2, cfg)
    assert list(res.partition.assign) == [1, 1, 2, 2]
    assert res.breakdown.coherence == 0.0
    assert res.breakdown.forward_edges == 1 and res.breakdown.backward_edges == 0
    assert res.breakdown.total == 0.0


def test_run_iterative_k1_single_group():
    rng = np.random.default_rng(71)
    g = random_digraph(rng, 12, 20)
    f = random_features(rng, 12, 3)
    res = run_iterative(g, f, Penalties(1.0, 2.0), 1, SolveConfig(seed=0))
    assert res.converged and res.iterations == 1
    assert rel_close(res.breakdown.total, coherence_l2(range(12), f))


def test_run_iterative_max_iters_one_not_converged():
    rng = np.random.default_rng(72)
    g = random_digraph(rng, 40, 60)
    f = random_features(rng, 40, 3)
    cfg = SolveConfig(max_iters=1, seed=2)
    res = run_iterative(g, f, Penalties(0.0, 0.0), 4, cfg)
    assert res.iterations == 1 and not res.converged


def test_run_iterative_treedp_rejects_non_tree():
    g = DirectedGraph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
    f = FeatureMatrix.from_array([[0.0], [0.5], [1.0]])
    with pytest.raises(ArborescenceError):
        run_iterative(g, f, Penalties(0, 0), 2, SolveConfig(solver_kind="treedp", seed=0))


def test_repair_noop_without_empty_groups():
    g = DirectedGraph.from_edges(2, [])
    f = FeatureMatrix.from_array([[0.0], [1.0]])
    st = SolveState(g, f, Penalties(0, 0), [1, 2], 2)
    before = st.assign.copy()
    repair_empty_groups(st)
    assert np.array_equal(st.assign, before)


def test_repair_seeds_empty_group_with_outlier():
    g = DirectedGraph.from_edges(4, [])
    f = FeatureMatrix.from_array([[0.0], [0.1], [0.2], [50.0]])
    st = SolveState(g, f, Penalties(0, 0), [1, 1, 1, 1], 2)
    repair_empty_groups(st)
    assert list(st.assign) == [1, 1, 1, 2]


def test_repair_with_fewer_vertices_than_groups():
    g = DirectedGraph.from_edges(1, [])
    f = FeatureMatrix.from_array([[3.0]])
    st = SolveState(g, f, Penalties(0, 0), [1], 2)
    repair_empty_groups(st)
    assert st.empty_groups() == [2]


def test_multi_restart_single_restart_equals_run_iterative():
    rng = np.random.default_rng(73)
    g = random_digraph(rng, 20, 30)
    f = random_features(rng, 20, 2)
    cfg = SolveConfig(restarts=1, seed=11)
    a = multi_restart(g, f, Penalties(0.5, 1.5), 3, cfg)
    b = run_iterative(g, f, Penalties(0.5, 1.5), 3, cfg)
    assert np.array_equal(a.partition.assign, b.partition.assign)
    assert rel_close(a.breakdown.total, b.breakdown.total)


def test_multi_restart_returns_minimum_loss():
    rng = np.random.default_rng(74)
    g = random_digraph(rng, 25, 50)
    f = random_features(rng, 25, 3)
    pen = Penalties(0.2, 2.0)
    cfg = SolveConfig(restarts=6, seed=100)
    best = multi_restart(g, f, pen, 4, cfg)
    singles = [
        run_iterative(g, f, pen, 4, cfg.with_seed(100 + r)) for r in range(6)
    ]
    assert all(best.breakdown.total <= s.breakdown.total + 1e-9 for s in singles)
    assert any(
        rel_close(best.breakdown.total, s.breakdown.total) and best.seed == s.seed
        for s in singles
    )


def test_multi_restart_prefers_fewest_infinitely_weighted_edges():
    # every restart totals inf here; the pick must still rank them by how
    # many backward edges they carry, not fall back to the lowest seed
    rng = np.random.default_rng(0)
    g = random_digraph(rng, 200, 600)
    f = random_features(rng, 200, 3)
    pen = Penalties(0.0, math.inf)
    cfg = SolveConfig(solver_kind="greedy", restarts=6, seed=0)
    singles = [run_iterative(g, f, pen, 4, cfg.with_seed(r)) for r in range(6)]
    best = multi_restart(g, f, pen, 4, cfg)
    assert best.breakdown.total == math.inf
    assert best.breakdown.backward_edges == min(s.breakdown.backward_edges for s in singles) == 44
    assert best.seed == 2


def test_multi_restart_deterministic():
    rng = np.random.default_rng(75)
    g = random_digraph(rng, 15, 25)
    f = random_features(rng, 15, 2)
    cfg = SolveConfig(restarts=3, seed=5)
    a = multi_restart(g, f, Penalties(0, 1.0), 3, cfg)
    b = multi_restart(g, f, Penalties(0, 1.0), 3, cfg)
    assert np.array_equal(a.partition.assign, b.partition.assign)
    assert a.breakdown.total == b.breakdown.total and a.seed == b.seed


def test_result_breakdown_revalidates():
    rng = np.random.default_rng(76)
    for kind in ("greedy", "mcut"):
        g = random_digraph(rng, 30, 60)
        f = random_features(rng, 30, 2)
        pen = Penalties(0.3, 3.0)
        res = run_iterative(g, f, pen, 3, SolveConfig(solver_kind=kind, seed=4))
        fresh = total_cost(g, f, res.partition, pen)
        assert rel_close(res.breakdown.total, fresh.total)
        assert res.breakdown.forward_edges == fresh.forward_edges


def test_iteration_losses_non_increasing():
    rng = np.random.default_rng(77)
    edges = [(int(rng.integers(0, v)), v) for v in range(1, 50)]
    g = DirectedGraph.from_edges(50, edges)
    f = random_features(rng, 50, 3)
    cfg = SolveConfig(solver_kind="treedp", seed=6, track_steps=True)
    res = run_iterative(g, f, Penalties(0.0, 50.0), 3, cfg)
    losses = finite_parts(res.step_losses or [])
    if losses and len(losses) > 1:
        assert (np.diff(losses) <= 1e-7).all()


def test_mcut_via_driver_requires_k2():
    g = DirectedGraph.from_edges(2, [(0, 1)])
    f = FeatureMatrix.from_array([[0.0], [1.0]])
    with pytest.raises(ValueError):
        run_iterative(g, f, Penalties(0, 0), 1, SolveConfig(solver_kind="mcut", seed=0))


@pytest.mark.parametrize("run", [run_iterative, multi_restart], ids=["run_iterative", "multi_restart"])
def test_mcut_requires_k_at_least_two(run):
    g = DirectedGraph.from_edges(2, [(0, 1)])
    f = FeatureMatrix.from_array([[0.0], [1.0]])
    with pytest.raises(ValueError, match="k >= 2"):
        run(g, f, Penalties(0, 0), 1, SolveConfig(solver_kind="mcut"))


@pytest.mark.parametrize("pen", [Penalties(0.0, 0.0), Penalties(0.5, 2.0)], ids=["zero", "weighted"])
@pytest.mark.parametrize("kind, repairs", [("treedp", True), ("mcut", True), ("greedy", False)])
def test_run_phase_repairs_empty_groups_for_tree_and_cut_steps_only(kind, repairs, pen, monkeypatch):
    # the driver looks the repair up when it builds a run's step, so a patched
    # module attribute sees every call
    calls = []

    def counting_repair(state):
        calls.append(state.empty_groups())
        return repair_empty_groups(state)

    monkeypatch.setattr(driver, "repair_empty_groups", counting_repair)
    rng = np.random.default_rng(81)
    g = DirectedGraph.from_edges(30, [(int(rng.integers(0, v)), v) for v in range(1, 30)])
    f = random_features(rng, 30, 2)
    init = OrderedPartition.from_labels(3, rng.integers(1, 3, size=30))  # group 3 empty
    cfg = SolveConfig(solver_kind=kind, seed=2)
    alternate(g, f, pen, init, cfg, *_solver_step(g, 3, cfg))
    assert bool(calls) == repairs
    if repairs:
        assert calls[0] == [3]


def test_order_groups_acyclic_group_graph_is_topological():
    rng = np.random.default_rng(78)
    for _ in range(20):
        n, k = 40, 5
        rank = rng.permutation(k) + 1  # rank[g - 1]: true position of group g
        assign = rng.integers(1, k + 1, size=n)
        edges = []
        while len(edges) < 80:
            u, v = (int(x) for x in rng.integers(0, n, size=2))
            if u != v and rank[assign[u] - 1] <= rank[assign[v] - 1]:
                edges.append((u, v))
        g = DirectedGraph.from_edges(n, edges)
        f = random_features(rng, n, 2)
        part = OrderedPartition.from_labels(k, assign)
        pen = Penalties(0.0, 1e5)
        ordered = order_groups(g, pen, part)
        assert total_cost(g, f, ordered, pen).backward_edges == 0
        # a relabelling: each old group maps onto exactly one new group
        pairs = set(zip(assign.tolist(), ordered.assign.tolist()))
        assert len(pairs) == len({a for a, _ in pairs}) == len({b for _, b in pairs})


def test_order_groups_ranks_infinite_costs_by_edge_count():
    # three edges 2->1 and one edge 1->2: either order leaves infinitely
    # weighted backward edges, but group 2 first leaves only one
    g = DirectedGraph.from_edges(4, [(2, 0), (3, 1), (2, 1), (0, 3)])
    f = FeatureMatrix.from_array([[0.0], [0.0], [1.0], [1.0]])
    pen = Penalties(0.0, math.inf)
    ordered = order_groups(g, pen, OrderedPartition.from_labels(2, [1, 1, 2, 2]))
    assert list(ordered.assign) == [2, 2, 1, 1]
    assert total_cost(g, f, ordered, pen).backward_edges == 1


def test_run_iterative_zero_weights_is_one_phase_from_random_init():
    rng = np.random.default_rng(79)
    g = random_digraph(rng, 30, 60)
    f = random_features(rng, 30, 2)
    pen = Penalties(0.0, 0.0)
    for kind, step in (("greedy", scan_step(8)), ("mcut", sweep_step())):
        cfg = SolveConfig(solver_kind=kind, seed=8, track_steps=True)
        a = run_iterative(g, f, pen, 3, cfg)
        b = alternate(g, f, pen, random_init(30, 3, 8), cfg, step)
        assert np.array_equal(a.partition.assign, b.partition.assign)
        assert a.breakdown == b.breakdown
        assert a.iterations == b.iterations and a.converged == b.converged
        assert a.step_losses == b.step_losses


def test_multi_restart_serial_and_parallel_agree():
    rng = np.random.default_rng(80)
    g = random_digraph(rng, 40, 80)
    f = random_features(rng, 40, 2)
    pen = Penalties(0.5, 1e5)
    cfg = SolveConfig(solver_kind="mcut", restarts=3, seed=9)
    a = multi_restart(g, f, pen, 3, cfg)
    b = multi_restart(g, f, pen, 3, cfg, threads=2)
    assert np.array_equal(a.partition.assign, b.partition.assign)
    assert a.breakdown == b.breakdown
    assert (a.seed, a.iterations, a.converged) == (b.seed, b.iterations, b.converged)


def dp_step(graph):
    """The tree step that runs the DP at every weight, zero included."""
    layout = TreeLayout.from_graph(graph)

    def step(state, it, step_log):
        part, _ = solve_tree_partition(
            graph, state.features, state.centroids(), state.penalties, layout=layout
        )
        changed = part.assign != state.assign
        if changed.any():
            state.assign[changed] = part.assign[changed]
            state.rebuild()
            if step_log is not None:
                step_log.append(state.breakdown().key)
        return int(changed.sum())

    return step


@pytest.mark.parametrize("k, seed", [(2, 0), (5, 3)])
def test_zero_weight_treedp_run_equals_the_tree_dp_run(k, seed):
    # at zero weights the nearest-center step is the tree DP's exact answer;
    # with continuous features no two centers tie, so every float agrees
    inst = gen_stree(n=4000, d=10, k=k, sigma2=0.5, seed=seed)
    g, f, pen = inst.graph, inst.features, Penalties(0.0, 0.0)
    cfg = SolveConfig(solver_kind="treedp", seed=seed, track_steps=True)
    ours = run_iterative(g, f, pen, k, cfg)
    dp = alternate(g, f, pen, random_init(g.n, k, seed), cfg, dp_step(g), repair_empty_groups)
    assert ours.partition.assign.tobytes() == dp.partition.assign.tobytes()
    assert (ours.iterations, ours.converged) == (dp.iterations, dp.converged)
    assert ours.breakdown == dp.breakdown
    assert ours.step_losses == dp.step_losses and len(ours.step_losses) > 1


def test_nearest_step_ties_go_to_the_lowest_group():
    # both vertices sit on both centers: each moves to the lowest group
    g = DirectedGraph.from_edges(2, [(0, 1)])
    f = FeatureMatrix.from_array([[1.0], [1.0]])
    st = SolveState(g, f, Penalties(0.0, 0.0), [2, 1], 2)
    assert tree_step(g)(st, 1, None) == 1
    assert list(st.assign) == [1, 1] and st.cache_drift() == 0.0
    # an empty group has no center, so the lowest defined one wins
    st = SolveState(g, f, Penalties(0.0, 0.0), [3, 2], 3)
    assert tree_step(g)(st, 1, None) == 1
    assert list(st.assign) == [2, 2]


def test_nearest_step_and_tree_dp_differ_only_in_a_tie():
    # vertices 1 and 2 are equidistant from centers 1 and 3; the DP may keep
    # the higher group, the nearest-center step takes the lower one, and both
    # partitions cost the same under the fixed centers
    g = DirectedGraph.from_edges(3, [(0, 1), (1, 2)])
    f = FeatureMatrix.from_array([[2.0], [1.0], [1.0]])
    pen = Penalties(0.0, 0.0)
    near, dp = (SolveState(g, f, pen, [2, 3, 1], 3) for _ in range(2))
    tree_step(g)(near, 1, None)
    dp_step(g)(dp, 1, None)
    assert list(near.assign) == [2, 1, 1] and list(dp.assign) == [2, 3, 3]
    assert near.total() == dp.total()


def test_zero_weight_treedp_step_losses_never_increase():
    for seed in range(4):
        inst = gen_stree(n=500, d=3, k=4, sigma2=1.0, seed=seed)
        cfg = SolveConfig(solver_kind="treedp", seed=seed, track_steps=True)
        res = run_iterative(inst.graph, inst.features, Penalties(0.0, 0.0), 4, cfg)
        assert len(res.step_losses) > 1
        assert (np.diff(finite_parts(res.step_losses)) <= 0.0).all()


def test_small_improvement_compares_loss_keys():
    assert not small_improvement((2, 5.0), (1, 9.0))  # fewer infinitely weighted edges
    assert small_improvement((1, 9.0), (2, 5.0))
    assert not small_improvement((1, 9.0), (1, 9.0 * (1 - 2 * REL_TOL)))
    assert small_improvement((1, 9.0), (1, 9.0 * (1 - REL_TOL / 2)))
    assert small_improvement((1, 9.0), (1, 9.5))
    assert small_improvement((0, 0.5), (0, 0.5 - REL_TOL / 2))  # scaled by max(old, 1)


def test_keyed_step_log_is_monotone_under_infinite_weights():
    # without repair nothing moves vertices between commits, so successive
    # logged keys measure exactly the committed steps
    steps = inf_steps = 0
    for seed in range(3):
        tree = gen_stree(n=300, d=5, k=5, sigma2=0.05, seed=seed)
        dag = gen_sdag(n=300, d=5, k=5, sigma2=0.05, edge_prob=0.01, seed=seed)
        for inst, own_steps in ((tree, [tree_step(tree.graph)]), (inject_noise(dag, 0.3, seed), [])):
            init = random_init(300, 5, seed)
            cfg = SolveConfig(seed=seed, track_steps=True)
            for pen in (Penalties(0.0, math.inf), Penalties(math.inf, math.inf),
                        Penalties(0.5, math.inf), Penalties(math.inf, 2.0)):
                for step in [scan_step(seed), sweep_step()] + own_steps:
                    log = alternate(inst.graph, inst.features, pen, init, cfg, step).step_losses
                    for (count, finite), (next_count, next_finite) in zip(log, log[1:]):
                        assert next_count <= count
                        assert next_count < count or next_finite <= finite + 1e-7
                    steps += len(log)
                    inf_steps += sum(count > 0 for count, _ in log)
    assert inf_steps > steps // 2


def test_repair_cycle_under_infinite_weights_stops():
    # an empty-group repair and the pair sweep that follows return the state
    # to the same key with the group empty again; the loop must stop there
    # rather than repeat the cycle until max_iters
    inst = inject_noise(gen_stree(n=300, d=5, k=5, sigma2=0.05, seed=27), 0.3, 27)
    pen = Penalties(math.inf, math.inf)
    short, long = (
        run_iterative(inst.graph, inst.features, pen, 5,
                      SolveConfig(solver_kind="mcut", seed=27, max_iters=cap))
        for cap in (40, 100)
    )
    assert short.converged and short.iterations < 46
    assert np.array_equal(short.partition.assign, long.partition.assign)
