import itertools
import math

import numpy as np
import pytest

from digseg import (
    Centroids,
    DirectedGraph,
    FeatureMatrix,
    OrderedPartition,
    Penalties,
    SolveConfig,
    SolveState,
    build_cut_graph_k2,
    build_cut_graph_pair,
    fixed_centroid_cost,
    max_flow_min_cut,
    run_mcut,
    solve_tree_partition,
    solve_two_partition,
    total_cost,
    update_centroids,
)
from digseg.driver import random_init
from digseg.greedy import run_greedy
from digseg.mincut import FlowNetwork, pair_sweep, redistribute_pair
from digseg.experiments import adjusted_rand_index, gen_stree, inject_noise
from conftest import random_digraph, random_features, rel_close


def brute_force_min_cut(net: FlowNetwork) -> float:
    """Minimum over all 2^(n-2) source-side choices (independent route)."""
    others = [x for x in range(net.num_nodes) if x not in (net.source, net.sink)]
    best = math.inf
    for bits in itertools.product((False, True), repeat=len(others)):
        side = {net.source} | {x for x, b in zip(others, bits) if b}
        best = min(best, net.cut_weight(side))
    return best


def test_flow_two_arc_chain():
    net = FlowNetwork.from_arcs(3, 0, 2, [0, 1], [1, 2], [3.0, 1.0])
    value, side = max_flow_min_cut(net)
    assert rel_close(value, 1.0)
    assert side == {0, 1}


def test_flow_single_direct_arc():
    net = FlowNetwork.from_arcs(2, 0, 1, [0], [1], [7.0])
    value, _ = max_flow_min_cut(net)
    assert rel_close(value, 7.0)


def test_flow_two_parallel_paths():
    net = FlowNetwork.from_arcs(4, 0, 3, [0, 1, 0, 2], [1, 3, 2, 3], [2.0, 2.0, 5.0, 1.0])
    value, _ = max_flow_min_cut(net)
    assert rel_close(value, 3.0)


def test_flow_matches_brute_force():
    rng = np.random.default_rng(51)
    for _ in range(30):
        n = int(rng.integers(3, 9))
        tails, heads, caps = [], [], []
        for _ in range(int(rng.integers(2, 16))):
            u, v = int(rng.integers(0, n)), int(rng.integers(0, n))
            if u != v:
                tails.append(u)
                heads.append(v)
                caps.append(float(rng.uniform(0, 4)))
        net = FlowNetwork.from_arcs(n, 0, n - 1, tails, heads, caps)
        value, side = max_flow_min_cut(net)
        assert 0 in side and n - 1 not in side
        best = brute_force_min_cut(net)
        assert abs(value - best) <= 1e-9
        assert abs(net.cut_weight(side) - best) <= 1e-9


def test_from_arcs_rejects_invalid_input():
    with pytest.raises(ValueError, match="NaN"):
        FlowNetwork.from_arcs(2, 0, 1, [0], [1], [math.nan])
    with pytest.raises(ValueError, match="endpoints"):
        FlowNetwork.from_arcs(2, 0, 1, [0], [2], [1.0])
    with pytest.raises(ValueError, match="endpoints"):
        FlowNetwork.from_arcs(3, 0, 2, [-1], [2], [1.0])
    with pytest.raises(ValueError, match="equal length"):
        FlowNetwork.from_arcs(3, 0, 2, [0, 1], [1, 2], [1.0])
    with pytest.raises(ValueError, match="non-negative"):
        FlowNetwork.from_arcs(2, 0, 1, [0], [1], [-1.0])


def test_from_arcs_snaps_and_sums_the_sentinel_in_arc_order():
    net = FlowNetwork.from_arcs(3, 0, 2, [0, 1, 0], [1, 2, 2], [0.1, math.inf, 5000.3])
    assert net.caps.tolist() == [round(0.1 * 2.0**40) / 2.0**40, net.sentinel, 5000.3]
    # grid steps below the ulp of 8192: added one at a time left to right, each
    # rounds away (a compensated or pairwise sum would keep them)
    caps = [8192.0] + [2.0**-40] * 15 + [math.inf]
    net = FlowNetwork.from_arcs(2, 0, 1, [0] * 17, [1] * 17, caps)
    assert net.sentinel == 8193.0 and net.caps[-1] == net.sentinel


# graph 0 -> 1, 3 -> 0, 0 -> 2, 1 -> 2, 2 -> 0, 2 -> 3 over features 0, 1, 2, 3
_PIN_EDGES = [(0, 1), (3, 0), (0, 2), (1, 2), (2, 0), (2, 3)]
_PIN_FEATURES = [[0.0], [1.0], [2.0], [3.0]]


def test_k2_network_arc_sequence():
    g = DirectedGraph.from_edges(4, _PIN_EDGES)
    f = FeatureMatrix.from_array(_PIN_FEATURES)
    net = build_cut_graph_k2(g, f, [0.0], [3.0], Penalties(0.5, 2.0))
    s, t = 4, 5
    # (s, v) at the squared distance to mu2, (v, t) at the one to mu1, per vertex;
    # then (u, w) at lambda_f and (w, u) at lambda_b, per edge in edge order
    assert net.tails.tolist() == [s, 0, s, 1, s, 2, s, 3, 0, 1, 3, 0, 0, 2, 1, 2, 2, 0, 2, 3]
    assert net.heads.tolist() == [0, t, 1, t, 2, t, 3, t, 1, 0, 0, 3, 2, 0, 2, 1, 0, 2, 3, 2]
    assert net.caps.tolist() == [9.0, 0.0, 4.0, 1.0, 1.0, 4.0, 0.0, 9.0] + [0.5, 2.0] * 6
    assert net.node_labels.tolist() == [0, 1, 2, 3]


def test_pair_network_arc_sequence():
    # groups 1, 2, 3, 4 hold one vertex each; the pair (1, 3) has group 2 between
    # it and group 4 outside, so only 0 and 2 become nodes (local 0 and 1)
    g = DirectedGraph.from_edges(4, _PIN_EDGES)
    f = FeatureMatrix.from_array(_PIN_FEATURES)
    pen = Penalties(0.5, 2.0)
    st = SolveState(g, f, pen, [1, 2, 3, 4], 4)
    net = build_cut_graph_pair(st, 1, 3)
    s, t = 2, 3
    assert net.node_labels.tolist() == [0, 2]
    assert net.tails.tolist() == [s, 0, s, 1, 0, 1, 1, 0]
    assert net.heads.tolist() == [0, t, 1, t, 1, 0, 0, 1]
    # (s, 0): |0-2|^2 + lambda_b for 0 -> 1; (0, t): 0 + lambda_f for 0 -> 1;
    # (s, 1): 0 + lambda_f for 1 -> 2;      (1, t): |2-0|^2 + lambda_b for 1 -> 2;
    # then the in-pair edges 0 -> 2 and 2 -> 0
    assert net.caps.tolist() == [6.0, 0.5, 0.5, 6.0, 0.5, 2.0, 0.5, 2.0]


def test_k2_network_arc_weights():
    g = DirectedGraph.from_edges(2, [(0, 1)])
    f = FeatureMatrix.from_array([[0.0], [1.0]])
    net = build_cut_graph_k2(g, f, [0.0], [1.0], Penalties(0.0, 5.0))
    got = {(int(u), int(v)): c for u, v, c in zip(net.tails, net.heads, net.caps)}
    s, t = 2, 3
    assert got == {
        (s, 0): 1.0,
        (0, t): 0.0,
        (s, 1): 0.0,
        (1, t): 1.0,
        (0, 1): 0.0,
        (1, 0): 5.0,
    }


def test_k2_infinite_weight_becomes_sentinel():
    g = DirectedGraph.from_edges(2, [(0, 1)])
    f = FeatureMatrix.from_array([[0.0], [1.0]])
    net = build_cut_graph_k2(g, f, [0.0], [1.0], Penalties(0.0, math.inf))
    caps = {(int(u), int(v)): c for u, v, c in zip(net.tails, net.heads, net.caps)}
    assert caps[(1, 0)] == net.sentinel
    assert net.sentinel == 1.0 + 2.0  # one plus the finite capacity total


def test_identical_features_zero_cut():
    g = DirectedGraph.from_edges(3, [])
    f = FeatureMatrix.from_array([[2.0], [2.0], [2.0]])
    part, cost = solve_two_partition(g, f, [2.0], [5.0], Penalties(1.0, 1.0))
    assert rel_close(cost, 0.0)
    assert list(part.assign) == [1, 1, 1]


def test_solve_two_worked_examples():
    g = DirectedGraph.from_edges(2, [(0, 1)])
    f = FeatureMatrix.from_array([[0.0], [1.0]])
    part, cost = solve_two_partition(g, f, [0.0], [1.0], Penalties(0.0, 5.0))
    assert list(part.assign) == [1, 2] and rel_close(cost, 0.0)

    g1 = DirectedGraph.from_edges(1, [])
    part, cost = solve_two_partition(
        g1, FeatureMatrix.from_array([[0.4]]), [0.0], [1.0], Penalties(0.0, 0.0)
    )
    assert list(part.assign) == [1] and rel_close(cost, 0.16)


def test_zero_penalties_nearest_centroid_ties_to_group_one():
    g = DirectedGraph.from_edges(3, [])
    f = FeatureMatrix.from_array([[0.5], [0.2], [0.9]])
    part, _ = solve_two_partition(g, f, [0.0], [1.0], Penalties(0.0, 0.0))
    assert list(part.assign) == [1, 1, 2]


def test_cut_weight_equals_objective_for_every_cut():
    rng = np.random.default_rng(52)
    for _ in range(10):
        n = int(rng.integers(2, 7))
        g = random_digraph(rng, n, int(rng.integers(0, 10)))
        f = random_features(rng, n, 2)
        mu1, mu2 = rng.normal(0, 1, 2 * 2).reshape(2, 2)
        pen = Penalties(float(rng.uniform(0, 2)), float(rng.uniform(0, 2)))
        net = build_cut_graph_k2(g, f, mu1, mu2, pen)
        cents = Centroids.from_rows([mu1, mu2])
        for bits in itertools.product((1, 2), repeat=n):
            part = OrderedPartition.from_labels(2, list(bits))
            side = {net.source} | {v for v in range(n) if bits[v] == 1}
            q = fixed_centroid_cost(g, f, part, cents, pen)
            assert abs(net.cut_weight(side) - q) <= 1e-9 * max(1.0, q)


def test_pair_network_weight_corrections():
    # v (a=1) in group 1 with mean 0 thanks to x (a=-1); z (a=1) defines group 3;
    # w sits between them, so the single edge v->w flips between forward/backward
    g = DirectedGraph.from_edges(4, [(0, 2)])
    f = FeatureMatrix.from_array([[1.0], [-1.0], [0.5], [1.0]])
    st = SolveState(g, f, Penalties(2.0, 7.0), [1, 1, 2, 3], 3)
    net = build_cut_graph_pair(st, 1, 3)
    assert list(net.node_labels) == [0, 1, 3]
    caps = {(int(u), int(v)): c for u, v, c in zip(net.tails, net.heads, net.caps)}
    s, t = 3, 4
    assert rel_close(caps[(s, 0)], 0.0 + 7.0)  # to group 3: ||1-1||^2 + lambda_b * |E(v,W)|
    assert rel_close(caps[(0, t)], 1.0 + 2.0)  # to group 1: ||1-0||^2 + lambda_f * |E(v,W)|


def test_pair_network_empty_w_matches_k2():
    rng = np.random.default_rng(53)
    g = random_digraph(rng, 6, 8)
    f = random_features(rng, 6, 2)
    pen = Penalties(0.8, 1.7)
    assign = rng.integers(1, 3, size=6)
    assign[0], assign[1] = 1, 2  # both groups nonempty
    st = SolveState(g, f, pen, assign, 2)
    net_pair = build_cut_graph_pair(st, 1, 2)
    cents = st.centroids()
    net_k2 = build_cut_graph_k2(g, f, cents.mu[0], cents.mu[1], pen)
    pair_caps = sorted(zip(net_pair.tails.tolist(), net_pair.heads.tolist(), net_pair.caps.tolist()))
    k2_caps = sorted(zip(net_k2.tails.tolist(), net_k2.heads.tolist(), net_k2.caps.tolist()))
    assert len(pair_caps) == len(k2_caps)
    for (u1, v1, c1), (u2, v2, c2) in zip(pair_caps, k2_caps):
        assert (u1, v1) == (u2, v2) and rel_close(c1, c2)


def test_pair_step_is_optimal_redistribution():
    rng = np.random.default_rng(54)
    for _ in range(12):
        n = int(rng.integers(4, 11))
        k = int(rng.integers(3, 5))
        g = random_digraph(rng, n, int(rng.integers(2, 18)))
        f = random_features(rng, n, 2)
        pen = Penalties(float(rng.uniform(0, 2)), float(rng.uniform(0, 3)))
        assign = rng.integers(1, k + 1, size=n)
        st = SolveState(g, f, pen, assign, k)
        i, j = sorted(rng.choice(np.arange(1, k + 1), size=2, replace=False).tolist())
        result = redistribute_pair(st, i, j)
        if result is None:
            continue
        members, targets = result
        cents = st.centroids()
        base = st.assign.copy()

        def score(labels):
            trial = base.copy()
            trial[members] = labels
            return fixed_centroid_cost(
                g, f, OrderedPartition.from_labels(k, trial), cents, pen
            )

        got = score(targets)
        for bits in itertools.product((i, j), repeat=len(members)):
            assert got <= score(np.array(bits)) + 1e-9


def test_pair_sweep_skips_empty_groups():
    g = DirectedGraph.from_edges(3, [(0, 1), (1, 2)])
    f = FeatureMatrix.from_array([[0.0], [0.1], [1.0]])
    st = SolveState(g, f, Penalties(0.0, 1.0), [1, 1, 3], 3)  # group 2 empty
    commits = pair_sweep(st)
    assert st.counts[2] == 0  # untouched
    assert commits >= 0


def test_run_mcut_k2_matches_manual_alternation():
    rng = np.random.default_rng(55)
    g = random_digraph(rng, 12, 20)
    f = random_features(rng, 12, 2)
    pen = Penalties(0.2, 3.0)
    init = random_init(12, 2, 5)
    res = run_mcut(g, f, pen, 2, init, SolveConfig(solver_kind="mcut", seed=5))

    state = SolveState.from_partition(g, f, pen, init)
    for _ in range(100):
        cents = state.centroids()
        if not cents.defined.all():
            break
        part, _ = solve_two_partition(g, f, cents.mu[0], cents.mu[1], pen)
        if np.array_equal(part.assign, state.assign):
            break
        new_total = total_cost(g, f, part, pen).total
        if new_total >= state.total() - 1e-9:
            break
        state = SolveState.from_partition(g, f, pen, part)
    assert rel_close(res.breakdown.total, state.total())


@pytest.mark.parametrize("seed", range(4))
def test_two_partition_agrees_with_tree_dp_at_full_size(seed):
    # for k = 2 on an arborescence both solvers are exact, so their optima agree
    inst = inject_noise(gen_stree(n=1500, k=2, seed=seed), 0.5, seed=seed + 100)
    g, f = inst.graph, inst.features
    cents = update_centroids(inst.ground_truth, f)
    for pen in (Penalties(0.0, 1e5), Penalties(0.5, 2.0), Penalties(0.0, math.inf), Penalties(1e7, 1e7)):
        _, cut_cost = solve_two_partition(g, f, cents.mu[0], cents.mu[1], pen)
        tree_part, tree_cost = solve_tree_partition(g, f, cents, pen)
        assert math.isfinite(cut_cost)
        assert rel_close(cut_cost, tree_cost)
        assert rel_close(fixed_centroid_cost(g, f, tree_part, cents, pen), tree_cost)


def test_run_mcut_fixed_point_on_optimal_init():
    g = DirectedGraph.from_edges(4, [(0, 1), (2, 3)])
    f = FeatureMatrix.from_array([[0.0], [0.0], [10.0], [10.0]])
    init = OrderedPartition.from_labels(2, [1, 1, 2, 2])
    res = run_mcut(g, f, Penalties(0.0, 1.0), 2, init, SolveConfig(solver_kind="mcut"))
    assert res.converged and res.iterations == 1
    assert np.array_equal(res.partition.assign, init.assign)


def test_run_mcut_monotone_committed_steps():
    rng = np.random.default_rng(56)
    g = random_digraph(rng, 60, 150)
    f = random_features(rng, 60, 3)
    pen = Penalties(0.5, 4.0)
    cfg = SolveConfig(solver_kind="mcut", seed=3, track_steps=True)
    res = run_mcut(g, f, pen, 4, random_init(60, 4, 3), cfg)
    losses = res.step_losses
    assert losses is not None and len(losses) >= 1
    assert (np.diff(losses) <= 1e-7).all()


def test_mcut_beats_greedy_on_structured_instances():
    # compares the two partition steps from identical uniform random starts;
    # the driver would first give each solver a zero-weight clustering of its
    # own, so its results would compare the starts as well as the steps
    pen = Penalties(0.0, 1e5)

    def best_loss(runner, kind, inst):
        return min(
            runner(inst.graph, inst.features, pen, 5, random_init(100, 5, r),
                   SolveConfig(solver_kind=kind, restarts=1, seed=r)).breakdown.total
            for r in range(10)
        )

    wins = 0
    for seed in range(5):
        inst = gen_stree(n=100, d=10, k=5, sigma2=0.01, seed=seed)
        noisy = inject_noise(inst, 0.2, seed=seed + 50)
        if best_loss(run_mcut, "mcut", noisy) <= best_loss(run_greedy, "greedy", noisy) + 1e-9:
            wins += 1
    assert wins >= 4


def test_run_mcut_clears_infinite_backward_edges():
    # from an order-violating init, pair steps must keep shedding the
    # infinitely-penalized edges even though both totals print as inf
    rng = np.random.default_rng(57)
    inst = gen_stree(n=60, d=3, k=3, sigma2=0.02, seed=2)
    pen = Penalties(0.0, math.inf)
    init = OrderedPartition.from_labels(3, rng.integers(1, 4, size=60))
    res = run_mcut(inst.graph, inst.features, pen, 3, init, SolveConfig(solver_kind="mcut", seed=0))
    assert res.breakdown.backward_edges == 0
    assert math.isfinite(res.breakdown.total)


def test_run_mcut_requires_k_at_least_two():
    g = DirectedGraph.from_edges(2, [(0, 1)])
    f = FeatureMatrix.from_array([[0.0], [1.0]])
    with pytest.raises(ValueError, match="k >= 2"):
        run_mcut(g, f, Penalties(0, 0), 1, OrderedPartition.from_labels(1, [1, 1]),
                 SolveConfig(solver_kind="mcut"))
