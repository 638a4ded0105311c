import functools
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

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
    alternate,
    max_flow_min_cut,
    solve_tree_partition,
    solve_two_partition,
    total_cost,
    update_centroids,
)
from digseg.driver import random_init, repair_empty_groups, run_iterative
from digseg.greedy import scan_step
from digseg import mincut
from digseg.mincut import FlowNetwork, pair_sweep, redistribute_pair, sweep_step
from digseg.objective import cross_edge_counts, vertex_group_costs
from digseg.experiments import adjusted_rand_index, gen_sdag, gen_stree, inject_noise
from conftest import finite_parts, random_digraph, random_features, rel_close
import pair_network_reference


def all_source_sides(net: FlowNetwork):
    """Every one of the 2^(n-2) source sides as node masks (independent route)."""
    others = [x for x in range(net.num_nodes) if x not in (net.source, net.sink)]
    for bits in itertools.product((False, True), repeat=len(others)):
        side = np.zeros(net.num_nodes, dtype=bool)
        side[net.source] = True
        side[others] = bits
        yield side


def brute_force_min_cut(net: FlowNetwork) -> float:
    """Minimum over all 2^(n-2) source-side choices."""
    return min(net.cut_weight(side) for side in all_source_sides(net))


def plain_dinic(net: FlowNetwork) -> tuple[float, np.ndarray]:
    """Dinic on the whole network, without the forced-node reduction."""
    side = mincut._dinic(net.num_nodes, net.source, net.sink, net.tails, net.heads, net.caps)
    return net.cut_weight(side), side


def same_cut(a, b) -> bool:
    """Equal values and the same source-side mask, flag for flag."""
    return a[0] == b[0] and a[1].dtype == b[1].dtype == bool and np.array_equal(a[1], b[1])


def test_flow_two_arc_chain():
    net = FlowNetwork.from_arcs(3, 0, 2, [0, 1], [1, 2], [3.0, 1.0])
    value, side = max_flow_min_cut(net)
    assert rel_close(value, 1.0)
    assert np.array_equal(side, [True, True, False])


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
        assert side.shape == (n,) and side[0] and not side[n - 1]
        best = brute_force_min_cut(net)
        assert abs(value - best) <= 1e-9
        assert abs(net.cut_weight(side) - best) <= 1e-9


def test_flow_side_is_the_union_of_all_minimum_cuts():
    # integer capacities make exact ties common; the returned side must be the
    # largest minimum cut, which is the union of every minimum cut's source side,
    # both after the forced-node reduction and from Dinic on the whole network
    rng = np.random.default_rng(58)
    for _ in range(60):
        n = int(rng.integers(3, 9))
        tails, heads, caps = [], [], []
        for _ in range(int(rng.integers(0, 18))):
            u, v = int(rng.integers(0, n)), int(rng.integers(0, n))
            tails.append(u)
            heads.append(v)
            caps.append(float(rng.choice([0, 0, 1, 1, 2, 3, math.inf])))
        net = FlowNetwork.from_arcs(n + 1, 0, n - 1, tails, heads, caps)  # node n has no arc
        weights = [(net.cut_weight(c), c) for c in all_source_sides(net)]
        best = min(w for w, _ in weights)
        union = np.logical_or.reduce([c for w, c in weights if w == best])
        for value, side in (max_flow_min_cut(net), plain_dinic(net)):
            assert value == best
            assert np.array_equal(side, union)


@hst.composite
def flow_networks(draw):
    """Random networks with parallel arcs, loops, sentinel arcs and capacities
    whose folded sums pass 2^12."""
    n = draw(hst.integers(2, 9))
    ends = hst.integers(0, n - 1)
    cap = hst.one_of(
        hst.sampled_from([0.0, 0.0, 1.0, 2.0, 0.5, math.inf, 1e5, 5000.3]),
        hst.floats(0.0, 3.0),
        hst.floats(4000.0, 2e5),
    )
    arcs = draw(hst.lists(hst.tuples(ends, ends, cap), max_size=24))
    source, sink = draw(hst.permutations(range(n)))[:2]
    tails, heads, caps = zip(*arcs) if arcs else ((), (), ())
    return FlowNetwork.from_arcs(n, source, sink, tails, heads, caps)


@settings(max_examples=400, deadline=None)
@given(flow_networks())
def test_reduction_matches_plain_dinic(net):
    assert same_cut(max_flow_min_cut(net), plain_dinic(net))


def test_zero_weight_network_without_ties_needs_no_flow(monkeypatch):
    # at zero weights every edge arc weighs 0, so each vertex's side follows
    # from its two terminal arcs alone and Dinic is never entered
    def refuse(*args):
        raise AssertionError("Dinic entered")

    rng = np.random.default_rng(59)
    g = random_digraph(rng, 40, 120)
    f = FeatureMatrix.from_array(rng.uniform(0.0, 1.0, size=(40, 1)))
    net = build_cut_graph_k2(g, f, [0.0], [1.0], Penalties(0.0, 0.0))
    expected = plain_dinic(net)
    monkeypatch.setattr(mincut, "_dinic", refuse)
    value, side = max_flow_min_cut(net)
    assert same_cut((value, side), expected)
    assert np.array_equal(np.flatnonzero(side[:40]), np.flatnonzero(f.values[:, 0] < 0.5))
    assert side[net.source] and not side[net.sink]


def test_from_arcs_rejects_invalid_input():
    with pytest.raises(ValueError, match="NaN"):
        FlowNetwork.from_arcs(2, 0, 1, [0], [1], [math.nan])
    with pytest.raises(ValueError, match="endpoints"):
        FlowNetwork.from_arcs(2, 0, 1, [0], [2], [1.0])
    with pytest.raises(ValueError, match="endpoints"):
        FlowNetwork.from_arcs(3, 0, 2, [-1], [2], [1.0])
    with pytest.raises(ValueError, match="equal length"):
        FlowNetwork.from_arcs(3, 0, 2, [0, 1], [1, 2], [1.0])
    for caps in ([-1.0], [-1e-13]):  # a tiny negative is refused before it could snap to zero
        with pytest.raises(ValueError, match="non-negative"):
            FlowNetwork.from_arcs(2, 0, 1, [0], [1], caps)
    with pytest.raises(ValueError, match="two different nodes"):
        FlowNetwork.from_arcs(2, 0, 0, [0], [1], [1.0])
    with pytest.raises(ValueError, match="two different nodes"):
        FlowNetwork.from_arcs(2, 0, 5, [0], [1], [1.0])
    with pytest.raises(ValueError, match="two different nodes"):
        FlowNetwork.from_arcs(2, -1, 1, [0], [1], [1.0])
    with pytest.raises(ValueError, match="one non-negative count per arc"):
        FlowNetwork.from_arcs(2, 0, 1, [0], [1], [1.0], inf_counts=[-1])
    with pytest.raises(ValueError, match="one non-negative count per arc"):
        FlowNetwork.from_arcs(2, 0, 1, [0], [1], [1.0], inf_counts=[1, 0])


def test_from_arcs_snaps_and_sums_the_sentinel_in_arc_order():
    net = FlowNetwork.from_arcs(3, 0, 2, [0, 1, 0], [1, 2, 2], [0.1, math.inf, 5000.3])
    assert net.caps.tolist() == [round(0.1 * 2.0**40) / 2.0**40, net.sentinel, 5000.3]
    # grid steps below the ulp of 8192: added one at a time left to right, each
    # rounds away (a compensated or pairwise sum would keep them)
    caps = [8192.0] + [2.0**-40] * 15 + [math.inf]
    net = FlowNetwork.from_arcs(2, 0, 1, [0] * 17, [1] * 17, caps)
    assert net.sentinel == 8193.0 and net.caps[-1] == net.sentinel


def test_from_arcs_prices_each_infinitely_weighted_edge():
    # finite part plus one sentinel per counted edge, an infinite capacity
    # counting as one; the sentinel sums the finite parts of counted arcs too
    net = FlowNetwork.from_arcs(3, 0, 2, [0, 1, 0], [1, 2, 2], [0.5, math.inf, 3.0],
                                inf_counts=[2, 0, 1])
    assert net.sentinel == 4.5
    assert net.caps.tolist() == [0.5 + 2 * 4.5, 4.5, 3.0 + 4.5]


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


def test_k2_network_rejects_feature_rows_not_matching_vertices():
    g = DirectedGraph.from_edges(3, [(0, 1), (1, 2)])
    for rows in ([[0.0], [1.0]], [[0.0], [1.0], [2.0], [3.0]]):
        with pytest.raises(ValueError, match="feature row count"):
            build_cut_graph_k2(g, FeatureMatrix.from_array(rows), [0.0], [3.0], Penalties(0.0, 1.0))


@pytest.mark.parametrize("solve", [build_cut_graph_k2, solve_two_partition])
def test_k2_rejects_centers_that_are_not_two_feature_rows(solve):
    g = DirectedGraph.from_edges(2, [(0, 1)])
    f = FeatureMatrix.from_array([[0.0, 1.0], [1.0, 0.0]])
    pen = Penalties(0.0, 1.0)
    with pytest.raises(ValueError, match="centroid rows must form a 2-dimensional matrix"):
        solve(g, f, 0.0, 1.0, pen)
    with pytest.raises(ValueError, match="centers have dimension 1 but features have dimension 2"):
        solve(g, f, [0.0], [1.0], pen)


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
            side = np.append(np.array(bits) == 1, [True, False])  # then the source n, the sink n + 1
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
    # at k = 2 no group lies between the pair, so the pair network of groups 1
    # and 2 is the k = 2 network at their centers, arc for arc
    rng = np.random.default_rng(53)
    g = random_digraph(rng, 6, 8)
    f = random_features(rng, 6, 2)
    assign = rng.integers(1, 3, size=6)
    assign[0], assign[1] = 1, 2  # both groups nonempty
    for pen in (Penalties(0.8, 1.7), Penalties(0.0, 1e5), Penalties(0.0, math.inf)):
        st = SolveState(g, f, pen, assign, 2)
        net_pair = build_cut_graph_pair(st, 1, 2)
        cents = st.centroids()
        net_k2 = build_cut_graph_k2(g, f, cents.mu[0], cents.mu[1], pen)
        for name in ("tails", "heads", "caps", "node_labels"):
            assert np.array_equal(getattr(net_pair, name), getattr(net_k2, name)), name
        assert net_pair.sentinel == net_k2.sentinel


WEIGHTS = [0.0, 0.5, 2.0, 1e5, 1e7, math.inf]


@hst.composite
def pair_subproblems(draw):
    """A small digraph with features at one scale, weights that may be
    infinite, a labelling into k = 2..4 groups and a pair i < j of nonempty
    groups."""
    n = draw(hst.integers(2, 10))
    k = draw(hst.integers(2, 4))
    d = draw(hst.integers(1, 2))
    ends = hst.integers(0, n - 1)
    edges = [(u, v) for u, v in draw(hst.lists(hst.tuples(ends, ends), max_size=3 * n)) if u != v]
    scale = draw(hst.sampled_from([1.0, 1e3, 1e5]))
    unit = hst.floats(-1.0, 1.0, allow_subnormal=False)
    feats = draw(hst.lists(hst.lists(unit, min_size=d, max_size=d), min_size=n, max_size=n))
    pen = Penalties(draw(hst.sampled_from(WEIGHTS)), draw(hst.sampled_from(WEIGHTS)))
    i, j = sorted(draw(hst.permutations(range(1, k + 1)))[:2])
    assign = draw(hst.lists(hst.integers(1, k), min_size=n, max_size=n))
    assign[0], assign[1] = i, j
    graph = DirectedGraph.from_edges(n, edges)
    return graph, FeatureMatrix.from_array(np.array(feats) * scale), pen, assign, k, i, j


@settings(max_examples=500, deadline=None)
@given(pair_subproblems())
def test_pair_step_is_optimal_redistribution(problem):
    # the cut's reassignment costs no more than the best of all 2^|members|
    # reassignments under the same fixed centers; at k = 2 through
    # `solve_two_partition`, at k = 3, 4 through `redistribute_pair`.  Costs
    # compare as (count of infinitely weighted edges, finite part)
    g, f, pen, assign, k, i, j = problem
    st = SolveState(g, f, pen, assign, k)
    cents = st.centroids()
    if k == 2:
        part, _ = solve_two_partition(g, f, cents.mu[0], cents.mu[1], pen)
        members, targets = np.arange(g.n), part.assign
    else:
        members, targets = redistribute_pair(st, i, j)

    def score(labels):
        trial = st.assign.copy()
        trial[members] = labels
        part = OrderedPartition.from_labels(k, trial)
        inf_edges, cross = pen.split(*cross_edge_counts(g, part.assign))
        return inf_edges, fixed_centroid_cost(g, f, part, cents, Penalties(0, 0)) + cross

    best = min(score(np.array(bits)) for bits in itertools.product((i, j), repeat=members.size))
    got = score(targets)
    assert got[0] == best[0] and rel_close(got[1], best[1])


def test_pair_step_minimizes_infinitely_weighted_edges():
    # vertex 0 has 2 backward edges in group 1 (from 2 and 3) and 1 in group 3
    # (to 1); its terminal arcs must weigh 2 and 1 sentinels, not one each
    g = DirectedGraph.from_edges(5, [(0, 1), (2, 0), (3, 0)])
    f = FeatureMatrix.from_array([[0.0], [5.0], [5.0], [5.0], [1.0]])
    st = SolveState(g, f, Penalties(0.0, math.inf), [1, 2, 2, 2, 3], 3)
    members, targets = redistribute_pair(st, 1, 3)
    assert dict(zip(members.tolist(), targets.tolist()))[0] == 3


@pytest.mark.parametrize("weights", [(0.0, 0.0), (0.0, 2.0)], ids=["zero", "weighted"])
def test_pair_step_rejects_a_pair_out_of_order_or_range(weights, monkeypatch):
    # at every weight, and before the state is read: (0, 2) names an empty
    # group 0 and (1, 4) a group beyond k
    inst = gen_sdag(n=30, k=3, seed=0)
    st = SolveState.from_partition(inst.graph, inst.features, Penalties(*weights), inst.ground_truth)
    assert st.empty_groups() == []
    monkeypatch.setattr(mincut, "_pair_inputs", None)  # reading the pair's inputs would fail
    cuts = {}
    for i, j in ((3, 1), (2, 2), (0, 2), (1, 4)):
        for store in (None, cuts):
            with pytest.raises(ValueError, match=rf"expected 1 <= i < j <= 3, got \({i}, {j}\)"):
                redistribute_pair(st, i, j, store)
    assert cuts == {}


def test_pair_sweep_skips_empty_groups():
    g = DirectedGraph.from_edges(3, [(0, 1), (1, 2)])
    f = FeatureMatrix.from_array([[0.0], [0.1], [1.0]])
    st = SolveState(g, f, Penalties(0.0, 1.0), [1, 1, 3], 3)  # group 2 empty
    commits = pair_sweep(st)
    assert st.counts[2] == 0  # untouched
    assert commits >= 0


def test_pair_sweep_commits_fewer_infinitely_weighted_edges_at_a_higher_finite_part():
    # shedding the backward edge 0 -> 1 costs coherence; the key ranks the count first
    g = DirectedGraph.from_edges(4, [(0, 1)])
    f = FeatureMatrix.from_array([[10.0], [0.0], [0.0], [10.0]])
    st = SolveState(g, f, Penalties(0.0, math.inf), [2, 1, 1, 2], 2)
    assert st.loss_parts() == (1, 0.0)
    log = []
    assert pair_sweep(st, log) == 1
    assert log == [st.loss_parts()] and log[0][0] == 0 and log[0][1] > 0.0


def test_run_mcut_k2_matches_manual_alternation():
    rng = np.random.default_rng(55)
    g = random_digraph(rng, 12, 20)
    f = random_features(rng, 12, 2)
    pen = Penalties(0.2, 3.0)
    init = random_init(12, 2, 5)
    res = alternate(g, f, pen, init, SolveConfig(solver_kind="mcut", seed=5), sweep_step())

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


def test_two_partition_agrees_with_tree_dp_at_scale():
    # n = 20,000 at the instance's true centers: the same labels, not only the same cost
    inst = inject_noise(gen_stree(20000, 10, 2, 0.01, seed=1), 0.5, seed=101)
    g, f = inst.graph, inst.features
    cents = Centroids.from_rows(inst.true_centroids)
    for pen in (Penalties(0.0, 1e5), Penalties(0.0, math.inf), Penalties(0.5, 2.0), Penalties(1e7, 1e7)):
        cut_part, cut_cost = solve_two_partition(g, f, cents.mu[0], cents.mu[1], pen)
        tree_part, tree_cost = solve_tree_partition(g, f, cents, pen)
        assert np.array_equal(cut_part.assign, tree_part.assign)
        assert math.isfinite(cut_cost)
        assert abs(cut_cost - tree_cost) <= 1e-12 * abs(tree_cost)


def test_run_mcut_fixed_point_on_optimal_init():
    g = DirectedGraph.from_edges(4, [(0, 1), (2, 3)])
    f = FeatureMatrix.from_array([[0.0], [0.0], [10.0], [10.0]])
    init = OrderedPartition.from_labels(2, [1, 1, 2, 2])
    res = alternate(g, f, Penalties(0.0, 1.0), init, SolveConfig(solver_kind="mcut"), sweep_step())
    assert res.converged and res.iterations == 1
    assert np.array_equal(res.partition.assign, init.assign)


def test_run_mcut_monotone_committed_steps():
    rng = np.random.default_rng(56)
    g = random_digraph(rng, 60, 150)
    f = random_features(rng, 60, 3)
    pen = Penalties(0.5, 4.0)
    cfg = SolveConfig(solver_kind="mcut", seed=3, track_steps=True)
    res = alternate(g, f, pen, random_init(60, 4, 3), cfg, sweep_step())
    assert res.step_losses is not None
    losses = finite_parts(res.step_losses)
    assert len(losses) >= 1
    assert (np.diff(losses) <= 1e-7).all()


def test_mcut_beats_greedy_on_structured_instances():
    # compares the two partition steps from identical uniform random starts;
    # the driver would first give each solver a zero-weight clustering of its
    # own, so its results would compare the starts as well as the steps
    pen = Penalties(0.0, 1e5)

    def best_loss(step_for_seed, inst):
        return min(
            alternate(inst.graph, inst.features, pen, random_init(100, 5, r),
                      SolveConfig(restarts=1, seed=r), step_for_seed(r)).breakdown.total
            for r in range(10)
        )

    wins = 0
    for seed in range(5):
        inst = gen_stree(n=100, d=10, k=5, sigma2=0.01, seed=seed)
        noisy = inject_noise(inst, 0.2, seed=seed + 50)
        if best_loss(lambda r: sweep_step(), noisy) <= best_loss(scan_step, noisy) + 1e-9:
            wins += 1
    assert wins >= 4


def test_run_mcut_clears_infinite_backward_edges():
    # from an order-violating init, pair steps must keep shedding the
    # infinitely-penalized edges even though both totals print as inf
    rng = np.random.default_rng(57)
    inst = gen_stree(n=60, d=3, k=3, sigma2=0.02, seed=2)
    pen = Penalties(0.0, math.inf)
    init = OrderedPartition.from_labels(3, rng.integers(1, 4, size=60))
    res = alternate(inst.graph, inst.features, pen, init, SolveConfig(solver_kind="mcut"), sweep_step())
    assert res.breakdown.backward_edges == 0
    assert math.isfinite(res.breakdown.total)


def fresh_cuts_step(state, it, step_log):
    """The pair-cut step without reuse: every pair is cut anew."""
    state.rebuild()
    return pair_sweep(state, step_log, {})


def counting_builds(monkeypatch, name="build_cut_graph_pair"):
    """Count the calls to `mincut.<name>`, by default the pair network builds."""
    calls = [0]
    build = getattr(mincut, name)

    def counted(*args):
        calls[0] += 1
        return build(*args)

    monkeypatch.setattr(mincut, name, counted)
    return calls


REUSE_WEIGHTS = [(0.0, 0.0), (0.0, 1e5), (0.5, 2.0), (2.0, 0.5), (0.0, math.inf), (math.inf, math.inf)]


@pytest.mark.parametrize("model", ["dag", "tree"])
@pytest.mark.parametrize("k", [3, 4, 5])
def test_pair_cut_reuse_is_exact(model, k):
    # the reusing step and one that cuts every pair anew run the same sweeps,
    # through the driver's empty-group repair, so every float must agree
    seed = 30 + k
    gen = gen_stree if model == "tree" else functools.partial(gen_sdag, edge_prob=0.02)
    inst = inject_noise(gen(n=120, d=3, k=k, sigma2=0.05, seed=seed), 0.3, seed=seed)
    for lf, lb in REUSE_WEIGHTS:
        pen = Penalties(lf, lb)
        init = random_init(120, k, seed)
        cfg = SolveConfig(solver_kind="mcut", seed=seed, track_steps=True)
        reused, fresh = [
            alternate(inst.graph, inst.features, pen, init, cfg, step, repair_empty_groups)
            for step in (sweep_step(), fresh_cuts_step)
        ]
        assert reused.iterations == fresh.iterations and reused.converged == fresh.converged
        assert np.array_equal(reused.partition.assign, fresh.partition.assign)
        assert reused.step_losses == fresh.step_losses
        assert reused.breakdown == fresh.breakdown


def test_pair_cut_reuse_skips_builds(monkeypatch):
    calls = counting_builds(monkeypatch)
    inst = gen_sdag(n=300, d=3, k=5, sigma2=0.05, edge_prob=0.02, seed=21)
    pen = Penalties(0.0, 1e5)
    init = random_init(300, 5, 21)
    cfg = SolveConfig(solver_kind="mcut", seed=21, track_steps=True)
    counts = []
    results = []
    for step in (sweep_step(), fresh_cuts_step):
        calls[0] = 0
        results.append(alternate(inst.graph, inst.features, pen, init, cfg, step))
        counts.append(calls[0])
    assert results[0].step_losses == results[1].step_losses
    assert 0 < counts[0] < counts[1]


def test_pair_cut_step_forgets_cuts_of_another_state(monkeypatch):
    # two states with bit-equal labels and centers but different weights: no
    # cut kept from the first may be reused for the second
    calls = counting_builds(monkeypatch)
    rng = np.random.default_rng(58)
    g = random_digraph(rng, 40, 90)
    f = random_features(rng, 40, 2)
    labels = rng.integers(1, 5, size=40)
    assert set(labels.tolist()) == {1, 2, 3, 4}
    step = sweep_step()
    step(SolveState(g, f, Penalties(0.0, 0.0), labels, 4), 1, None)
    second = SolveState(g, f, Penalties(0.0, math.inf), labels, 4)
    reference = SolveState(g, f, Penalties(0.0, math.inf), labels, 4)
    calls[0] = 0
    commits = step(second, 1, None)
    assert calls[0] == 6  # each of the 4 * 3 / 2 pairs is cut anew for the second state
    assert commits == fresh_cuts_step(reference, 1, None)
    assert np.array_equal(second.assign, reference.assign)


def test_pair_cut_step_sees_a_move_into_a_group_between():
    # moving x from group 4 to group 2 leaves the centers of groups 1 and 3
    # as they were, but makes c's edge from x cheaper with c in group 1
    g = DirectedGraph.from_edges(8, [(6, 2)])  # x = 6, c = 2
    f = FeatureMatrix.from_array([[0.0], [0.0], [10.0], [10.0], [5.0], [5.0], [5.0], [5.0]])
    pen = Penalties(1000.0, 0.0)
    labels = [1, 1, 3, 3, 2, 2, 4, 4]
    state = SolveState(g, f, pen, labels, 4)
    step = sweep_step()
    assert step(state, 1, None) == 0
    state.apply_move(6, 2)
    reference = SolveState(g, f, pen, state.assign, 4)
    assert step(state, 2, None) == fresh_cuts_step(reference, 2, None) == 1
    assert state.assign[2] == 1
    assert np.array_equal(state.assign, reference.assign)


def cut_every_pair(state, i, j, cuts=None):
    """`redistribute_pair` that cuts the pair network anew at every weight, zero included.

    `cuts` is accepted, as `pair_sweep` passes it, and ignored.
    """
    if state.counts[i] == 0 or state.counts[j] == 0:
        return None
    net = mincut.build_cut_graph_pair(state, i, j)
    _, side = max_flow_min_cut(net)
    return net.node_labels, np.where(side[: net.node_labels.size], i, j)


@hst.composite
def pair_states(draw, weights=hst.just((0.0, 0.0))):
    """A small digraph with small-integer features, often duplicated, at a scale
    whose prices stay below 2^12 (snapped) or pass it (not snapped); a
    labelling into k = 2..4 groups, weights drawn from `weights` (both 0 by
    default) and a pair i < j of nonempty groups.  Such points often lie
    exactly equidistant from the two centers, so exact price ties are common."""
    n = draw(hst.integers(2, 12))
    k = draw(hst.integers(2, 4))
    d = draw(hst.integers(1, 2))
    ends = hst.integers(0, n - 1)
    edges = [(u, v) for u, v in draw(hst.lists(hst.tuples(ends, ends), max_size=2 * n)) if u != v]
    pool = draw(hst.lists(hst.lists(hst.integers(-3, 3), min_size=d, max_size=d), min_size=1, max_size=n))
    rows = [pool[draw(hst.integers(0, len(pool) - 1))] for _ in range(n)]
    scale = draw(hst.sampled_from([1.0, 0.1, 1e5]))
    i, j = sorted(draw(hst.permutations(range(1, k + 1)))[:2])
    assign = draw(hst.lists(hst.integers(1, k), min_size=n, max_size=n))
    assign[0], assign[1] = i, j
    graph = DirectedGraph.from_edges(n, edges)
    features = FeatureMatrix.from_array(np.array(rows, dtype=np.float64) * scale)
    return SolveState(graph, features, Penalties(*draw(weights)), assign, k), i, j


def assert_pair_step_is_the_cut(st, i, j):
    """The members and their groups, exact ties included, are those of the cut."""
    members, targets = redistribute_pair(st, i, j)
    cut_members, cut_targets = cut_every_pair(st, i, j)
    assert np.array_equal(members, cut_members)
    assert np.array_equal(targets, cut_targets)


@settings(max_examples=500, deadline=None)
@given(pair_states())
def test_zero_weight_pair_pricing_matches_the_cut(problem):
    assert_pair_step_is_the_cut(*problem)


CERTIFICATE_WEIGHTS = [
    (0.0, 0.0), (0.0, 1e5), (0.5, 2.0), (2.0, 0.0), (1e7, 1e7),
    (0.0, math.inf), (math.inf, math.inf),
]


@settings(max_examples=1000, deadline=None)
@given(pair_states(hst.sampled_from(CERTIFICATE_WEIGHTS)))
def test_pair_network_cut_matches_plain_dinic(problem):
    # whether the cheaper-terminal choice is the cut or the reduction and
    # Dinic run, the pair network's cut is the largest minimum cut, and the
    # pair step's members and groups are that cut's, exact ties included
    st, i, j = problem
    net = mincut.build_cut_graph_pair(st, i, j)
    assert same_cut(max_flow_min_cut(net), plain_dinic(net))
    assert_pair_step_is_the_cut(st, i, j)


def test_pair_cut_reduces_only_when_an_edge_crosses_the_cheaper_terminals(monkeypatch):
    # groups 1 and 2 have centers 7/3 and 10: vertex 2 at 7 is cheaper in
    # group 2.  Its forward edge from vertex 0 weighs 0, so that choice is
    # the cut; a backward edge into group 1 crosses it, and the reduction
    # and Dinic place vertex 2 in group 1 instead.
    f = FeatureMatrix.from_array([[0.0], [0.0], [7.0], [10.0], [10.0]])
    pen = Penalties(0.0, 1e5)
    builds = counting_builds(monkeypatch)
    reductions = counting_builds(monkeypatch, "_fix_forced_nodes")
    for edges, reduced, expected in [
        ([(0, 2), (2, 3), (1, 4)], 0, [1, 1, 2, 2, 2]),
        ([(0, 2), (2, 3), (1, 4), (2, 0)], 1, [1, 1, 1, 2, 2]),
    ]:
        st = SolveState(DirectedGraph.from_edges(5, edges), f, pen, [1, 1, 1, 2, 2], 2)
        builds[0] = reductions[0] = 0
        members, targets = redistribute_pair(st, 1, 2)
        assert (builds[0], reductions[0]) == (1, reduced)
        assert members.tolist() == [0, 1, 2, 3, 4]
        assert targets.tolist() == expected
        net = mincut.build_cut_graph_pair(st, 1, 2)
        assert np.array_equal(np.where(plain_dinic(net)[1][:5], 1, 2), targets)


def test_cheaper_terminals_weigh_the_sentinel_of_an_infinitely_weighted_edge(monkeypatch):
    # vertex 1 is nearer group 1, but its edge from vertex 4 in group 2, the
    # group between, lies backward there at infinite weight: its arc to the
    # sink carries the sentinel, so its cheaper terminal is group 3, and no
    # arc crosses that choice
    f = FeatureMatrix.from_array([[0.0], [1.0], [10.0], [10.0], [5.0]])
    g = DirectedGraph.from_edges(5, [(4, 1)])
    st = SolveState(g, f, Penalties(0.0, math.inf), [1, 1, 3, 3, 2], 3)
    reductions = counting_builds(monkeypatch, "_fix_forced_nodes")
    members, targets = redistribute_pair(st, 1, 3)
    assert reductions[0] == 0
    assert members.tolist() == [0, 1, 2, 3]
    assert targets.tolist() == [1, 3, 3, 3]
    net = mincut.build_cut_graph_pair(st, 1, 3)
    assert same_cut(max_flow_min_cut(net), plain_dinic(net))


def test_zero_weight_pair_pricing_sends_exact_ties_to_i(monkeypatch):
    # groups 1 and 3 have centers 0 and 4: vertices 1 and 2, both at 2, are
    # equidistant from them and go to group 1 whichever group they are in;
    # vertex 4 in group 2 is no member.  No network is built.
    g = DirectedGraph.from_edges(5, [(0, 2), (2, 1), (3, 4)])
    calls = counting_builds(monkeypatch)
    for scale in (1.0, 1e5):  # prices on the snapped grid, then above 2^12
        f = FeatureMatrix.from_array(np.array([[-2.0], [2.0], [2.0], [6.0], [9.0]]) * scale)
        st = SolveState(g, f, Penalties(0.0, 0.0), [1, 1, 3, 3, 2], 3)
        calls[0] = 0
        members, targets = redistribute_pair(st, 1, 3)
        assert calls[0] == 0
        assert members.tolist() == [0, 1, 2, 3]
        assert targets.tolist() == [1, 1, 1, 3]
        assert targets.tolist() == cut_every_pair(st, 1, 3)[1].tolist()


@pytest.mark.parametrize("model", ["dag", "tree"])
@pytest.mark.parametrize("k", [3, 4, 5])
def test_zero_weight_pair_pricing_matches_the_cut_over_whole_runs(monkeypatch, model, k):
    # whole runs with every pair step cut through its network by the
    # reduction and Dinic, from the same starts, must agree bit for bit: the
    # zero-weight sweeps through the driver's repair, and both phases of
    # `run_iterative` at three weight pairs
    seed = 40 + k
    gen = gen_stree if model == "tree" else functools.partial(gen_sdag, edge_prob=0.02)
    inst = inject_noise(gen(n=120, d=3, k=k, sigma2=0.05, seed=seed), 0.3, seed=seed)
    g, f = inst.graph, inst.features
    cfg = SolveConfig(solver_kind="mcut", seed=seed, track_steps=True)

    def runs():
        return [
            alternate(g, f, Penalties(0.0, 0.0), random_init(120, k, seed), cfg,
                      sweep_step(), repair_empty_groups),
            *(run_iterative(g, f, Penalties(*w), k, cfg)
              for w in [(0.0, 1e5), (0.5, 2.0), (0.0, math.inf)]),
        ]

    calls = counting_builds(monkeypatch)
    priced = runs()
    built = calls[0]
    cut = runs_by_the_reduction(monkeypatch, runs)
    assert 0 < built < calls[0] - built  # the zero-weight steps built no network
    assert_same_runs(priced, cut)


def runs_by_the_reduction(monkeypatch, runs):
    """`runs()` with every pair step cut anew and no cheaper-terminal shortcut."""
    monkeypatch.setattr(mincut, "redistribute_pair", cut_every_pair)
    monkeypatch.setattr(mincut, "_cheaper_terminals", lambda net: None)
    return runs()


def assert_same_runs(runs, others):
    for a, b in zip(runs, others, strict=True):
        assert a.iterations == b.iterations and a.converged == b.converged
        assert np.array_equal(a.partition.assign, b.partition.assign)
        assert a.step_losses == b.step_losses
        assert a.breakdown == b.breakdown


def test_cheaper_terminals_match_the_reduction_at_full_size(monkeypatch):
    # a noisy n = 1000 DAG at (0, 1e5): the run whose cuts end at the
    # cheaper-terminal choice where no arc crosses it agrees bit for bit with
    # the run that reduces and cuts every pair network; both ends occur
    inst = inject_noise(gen_sdag(1000, 10, 5, 0.01, 0.01, seed=1), 0.3, seed=101)
    cfg = SolveConfig(solver_kind="mcut", seed=0, track_steps=True)

    def runs():
        return [run_iterative(inst.graph, inst.features, Penalties(0.0, 1e5), 5, cfg)]

    builds = counting_builds(monkeypatch)
    reductions = counting_builds(monkeypatch, "_fix_forced_nodes")
    shortcut = runs()
    assert 0 < reductions[0] < builds[0]
    assert_same_runs(shortcut, runs_by_the_reduction(monkeypatch, runs))


@settings(max_examples=300, deadline=None)
@given(
    hst.integers(2, 60), hst.integers(1, 12), hst.integers(2, 5), hst.booleans(),
    hst.sampled_from([1.0, 0.1, 1e5]), hst.integers(0, 2**32 - 1),
)
def test_pair_prices_match_vertex_group_costs(n, d, k, integer, scale, seed):
    # integer or float features, with prices below 2^12 (snapped) or above it:
    # the prices from the state's point norms equal, bit for bit, the
    # objective's squared distances of the member rows to the pair's centers
    rng = np.random.default_rng(seed)
    raw = rng.integers(-3, 4, size=(n, d)) if integer else rng.normal(size=(n, d))
    f = FeatureMatrix.from_array(raw * scale)
    st = SolveState(DirectedGraph.from_edges(n, []), f, Penalties(0.0, 0.0),
                    rng.integers(1, k + 1, size=n), k)
    for i, j in itertools.combinations(range(1, k + 1), 2):
        if st.counts[i] == 0 or st.counts[j] == 0:
            continue
        bands, centers = mincut._pair_inputs(st, i, j)
        members = np.flatnonzero(bands == 1)
        prices = mincut._member_prices(st.values, st.point_sqnorm, members, centers)
        costs = vertex_group_costs(FeatureMatrix(f.values[members]), Centroids.from_rows(centers))
        assert prices.tobytes() == costs.tobytes()


@settings(max_examples=500, deadline=None)
@given(pair_states(hst.sampled_from(CERTIFICATE_WEIGHTS)))
def test_pair_network_matches_the_reference_builder(problem):
    st, i, j = problem
    reference = pair_network_reference.state_pair_network(st, i, j)
    assert pair_network_reference.same_network(build_cut_graph_pair(st, i, j), reference)
    inputs = mincut._pair_inputs(st, i, j)
    assert pair_network_reference.same_network(build_cut_graph_pair(st, i, j, inputs), reference)


def test_pair_network_matches_the_reference_builder_over_a_full_size_run(monkeypatch):
    # every weighted pair step of a noisy n = 1000 DAG run at (0, 1e5) lays out
    # the reference builder's network
    inst = inject_noise(gen_sdag(1000, 10, 5, 0.01, 0.01, seed=1), 0.3, seed=101)
    build = mincut.build_cut_graph_pair
    checked = [0]

    def checked_build(state, i, j, *inputs):
        net = build(state, i, j, *inputs)
        assert pair_network_reference.same_network(
            net, pair_network_reference.state_pair_network(state, i, j)
        )
        checked[0] += 1
        return net

    monkeypatch.setattr(mincut, "build_cut_graph_pair", checked_build)
    cfg = SolveConfig(solver_kind="mcut", seed=0, track_steps=True)
    run_iterative(inst.graph, inst.features, Penalties(0.0, 1e5), 5, cfg)
    assert checked[0] > 0


def test_pair_step_reads_its_inputs_once(monkeypatch):
    # one `_pair_inputs` call per non-empty pair step serves the reuse key,
    # the zero-weight prices and the build
    inst = gen_sdag(1000, 10, 5, 0.01, 0.01, seed=1)
    reads = counting_builds(monkeypatch, "_pair_inputs")
    builds = counting_builds(monkeypatch)
    step = mincut.redistribute_pair
    steps = [0]

    def counted_step(*args):
        result = step(*args)
        steps[0] += result is not None
        return result

    monkeypatch.setattr(mincut, "redistribute_pair", counted_step)
    cfg = SolveConfig(solver_kind="mcut", seed=0)
    run_iterative(inst.graph, inst.features, Penalties(0.0, 1e5), 5, cfg)
    assert builds[0] > 0
    assert reads[0] == steps[0]
