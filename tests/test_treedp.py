import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from digseg import (
    ArborescenceError,
    Centroids,
    DirectedGraph,
    FeatureMatrix,
    Penalties,
    SolveConfig,
    brute_force_fixed_centroids,
    check_arborescence,
    fixed_centroid_cost,
    random_init,
    run_iterative,
    solve_tree_partition,
    total_cost,
    update_centroids,
)
from digseg.config import REL_TOL
from digseg.treedp import TreeLayout, compute_dp_tables
from conftest import finite_parts, random_arborescence, random_features, rel_close
from treedp_reference import reference_dp_tables, reference_solve


def test_check_arborescence_examples():
    assert check_arborescence(DirectedGraph.from_edges(3, [(0, 1), (1, 2)])) == [0]
    assert check_arborescence(DirectedGraph.from_edges(4, [(0, 1), (2, 3)])) == [0, 2]
    with pytest.raises(ArborescenceError, match="vertex 1"):
        check_arborescence(DirectedGraph.from_edges(3, [(0, 1), (2, 1)]))
    with pytest.raises(ArborescenceError, match="cycle"):
        check_arborescence(DirectedGraph.from_edges(3, [(0, 1), (1, 2), (2, 0)]))


def test_cycle_error_names_a_vertex_on_the_cycle():
    # 1 hangs below the 2 <-> 3 cycle; 0 is an isolated root.
    g = DirectedGraph.from_edges(4, [(2, 3), (3, 2), (3, 1)])
    with pytest.raises(ArborescenceError, match=r"vertex [23] lies on a directed cycle"):
        check_arborescence(g)
    # A long tail below a 3-cycle: the walk climbs the tail to the cycle.
    tail = [(v + 1, v) for v in range(10)] + [(11, 10), (12, 11), (10, 12)]
    with pytest.raises(ArborescenceError, match=r"vertex 1[012] lies on a directed cycle"):
        check_arborescence(DirectedGraph.from_edges(13, tail))


def test_three_vertex_worked_example():
    g = DirectedGraph.from_edges(3, [(0, 1), (0, 2)])
    f = FeatureMatrix.from_array([[0.0], [0.0], [1.0]])
    cents = Centroids.from_rows([[0.0], [1.0]])
    pen = Penalties(0.5, 10.0)
    part, cost = solve_tree_partition(g, f, cents, pen)
    assert rel_close(cost, 0.5)
    assert list(part.assign) == [1, 1, 2]
    c, _ = compute_dp_tables(g, f, cents, pen)
    assert rel_close(float(c[0, 0]), 0.5)
    assert rel_close(float(c[0, 1]), 2.0)


def test_zero_penalties_decouple_to_nearest_centroid():
    rng = np.random.default_rng(41)
    g = random_arborescence(rng, 30)
    f = random_features(rng, 30, 2)
    cents = Centroids.from_rows(rng.normal(0, 1, (3, 2)))
    part, cost = solve_tree_partition(g, f, cents, Penalties(0.0, 0.0))
    diffs = f.values[:, None, :] - cents.mu[None, :, :]
    nearest = np.argmin((diffs * diffs).sum(axis=2), axis=1) + 1
    assert np.array_equal(part.assign, nearest)


def test_single_vertex_picks_best_group():
    g = DirectedGraph.from_edges(1, [])
    f = FeatureMatrix.from_array([[1.5]])
    cents = Centroids.from_rows([[0.0], [1.0], [2.0]])
    part, cost = solve_tree_partition(g, f, cents, Penalties(1.0, 1.0))
    assert list(part.assign) == [2]
    assert rel_close(cost, 0.25)


def test_ties_within_a_range_go_by_subtree_cost_not_branch_sum():
    # Vertex 1 costs (0.1 + 0.2)**2 = 0.09000000000000002 in group 1 and
    # 0.3**2 = 0.09 in group 2.  With vertex 0 in group 3 both are backward
    # branches, and 1e5 plus either cost rounds to the same 100000.09, so
    # only the raw subtree cost can tell them apart: group 2 must win.
    g = DirectedGraph.from_edges(2, [(0, 1)])
    f = FeatureMatrix.from_array([[400.0], [0.0]])
    cents = Centroids.from_rows([[0.1 + 0.2], [0.3], [400.0]])
    part, cost = solve_tree_partition(g, f, cents, Penalties(0, 1e5))
    assert list(part.assign) == [3, 2]
    assert cost == 100000.09


def test_exactness_against_oracle():
    rng = np.random.default_rng(43)
    lams = [0.0, 0.1, 1.0, 10.0, math.inf]
    for _ in range(60):
        n = int(rng.integers(2, 10))
        k = int(rng.integers(2, 4))
        d = int(rng.integers(1, 3))
        g = random_arborescence(rng, n)
        f = random_features(rng, n, d)
        cents = Centroids.from_rows(rng.normal(0, 1, (k, d)))
        pen = Penalties(float(rng.choice(lams)), float(rng.choice(lams)))
        part, cost = solve_tree_partition(g, f, cents, pen)
        _, ocost = brute_force_fixed_centroids(g, f, cents, pen, k)
        assert rel_close(cost, ocost)
        rescored = fixed_centroid_cost(g, f, part, cents, pen)
        assert rel_close(cost, rescored)


def test_forest_additivity():
    rng = np.random.default_rng(44)
    g1 = random_arborescence(rng, 5)
    g2 = random_arborescence(rng, 4)
    shifted = [(u + 5, v + 5) for u, v in g2.edges]
    forest = DirectedGraph.from_edges(9, g1.edges + shifted)
    f = random_features(rng, 9, 2)
    cents = Centroids.from_rows(rng.normal(0, 1, (3, 2)))
    pen = Penalties(0.4, 3.0)
    _, whole = solve_tree_partition(forest, f, cents, pen)
    f1 = FeatureMatrix.from_array(f.values[:5])
    f2 = FeatureMatrix.from_array(f.values[5:])
    _, c1 = solve_tree_partition(g1, f1, cents, pen)
    _, c2 = solve_tree_partition(g2, f2, cents, pen)
    assert rel_close(whole, c1 + c2)


def test_undefined_centroid_group_is_forbidden():
    g = DirectedGraph.from_edges(2, [(0, 1)])
    f = FeatureMatrix.from_array([[0.0], [10.0]])
    cents = Centroids(mu=np.array([[5.0], [0.0]]), defined=np.array([True, False]))
    part, cost = solve_tree_partition(g, f, cents, Penalties(0.0, 0.0))
    assert list(part.assign) == [1, 1]
    assert rel_close(cost, 25.0 + 25.0)


def test_infinite_both_weights_keeps_tree_in_one_group():
    g = DirectedGraph.from_edges(3, [(0, 1), (1, 2)])
    f = FeatureMatrix.from_array([[0.0], [5.0], [0.0]])
    cents = Centroids.from_rows([[0.0], [5.0]])
    part, cost = solve_tree_partition(g, f, cents, Penalties(math.inf, math.inf))
    assert len(set(part.assign.tolist())) == 1
    assert math.isfinite(cost)


def test_deep_path_runs_without_recursion_limit():
    n = 30000
    g = DirectedGraph.from_edges(n, [(v, v + 1) for v in range(n - 1)])
    vals = np.zeros((n, 1))
    vals[n // 2:] = 1.0
    f = FeatureMatrix.from_array(vals)
    cents = Centroids.from_rows([[0.0], [1.0]])
    part, cost = solve_tree_partition(g, f, cents, Penalties(0.0, 1e5))
    assert rel_close(cost, 0.0)
    assert part.assign[0] == 1 and part.assign[-1] == 2


def test_run_iterative_treedp_matches_manual_alternation():
    rng = np.random.default_rng(31)
    g = random_arborescence(rng, 80)
    f = random_features(rng, 80, 2)
    pen = Penalties(0.0, 0.0)
    cfg = SolveConfig(solver_kind="treedp", seed=4, track_steps=True)
    res = run_iterative(g, f, pen, 3, cfg)

    part = random_init(80, 3, 4)
    loss = total_cost(g, f, part, pen).total
    losses = []
    for it in range(1, cfg.max_iters + 1):
        cents = update_centroids(part, f)
        assert cents.defined.all()  # no empty-group repair on this instance
        new_part, _ = solve_tree_partition(g, f, cents, pen)
        if np.array_equal(new_part.assign, part.assign):
            break
        part = new_part
        new_loss = total_cost(g, f, part, pen).total
        losses.append(new_loss)
        if (loss - new_loss) / max(loss, 1.0) < REL_TOL:
            break
        loss = new_loss
    assert len(losses) >= 2
    assert np.array_equal(res.partition.assign, part.assign)
    assert res.iterations == it and res.converged
    assert len(res.step_losses) == len(losses)
    assert all(rel_close(a, b) for a, b in zip(finite_parts(res.step_losses), losses))


WEIGHTS = [0.0, 0.1, 1e5, math.inf]


@st.composite
def forest_problems(draw, max_n=40):
    """A shuffled forest with tie-prone features and centers, some undefined."""
    n = draw(st.integers(1, max_n))
    k = draw(st.integers(1, 4))
    d = draw(st.integers(1, 2))
    edges = []
    for v in range(1, n):  # parent: none (a new root), the previous vertex, or any earlier one
        p = draw(st.one_of(st.none(), st.just(v - 1), st.integers(0, v - 1)))
        if p is not None:
            edges.append((p, v))
    label = draw(st.permutations(range(n)))
    edges = draw(st.permutations([(label[p], label[v]) for p, v in edges]))
    scale = draw(st.sampled_from([1.0, 0.1, 0.37]))
    ints = st.integers(-2, 2)
    feats = np.array(draw(st.lists(st.lists(ints, min_size=d, max_size=d), min_size=n, max_size=n)))
    mu = np.array(draw(st.lists(st.lists(ints, min_size=d, max_size=d), min_size=k, max_size=k)))
    defined = np.array(draw(st.lists(st.booleans(), min_size=k, max_size=k)))
    mu = np.where(defined[:, None], mu * scale, 0.0)
    pen = Penalties(draw(st.sampled_from(WEIGHTS)), draw(st.sampled_from(WEIGHTS)))
    graph = DirectedGraph.from_edges(n, edges)
    return graph, FeatureMatrix.from_array(feats * scale), Centroids(mu=mu, defined=defined), pen


def assert_same_bits(a: np.ndarray, b: np.ndarray):
    assert a.dtype == b.dtype and a.shape == b.shape
    assert a.tobytes() == b.tobytes()


def assert_matches_reference(g, f, cents, pen):
    ref = reference_dp_tables(g, f, cents, pen)
    c, choice = compute_dp_tables(g, f, cents, pen)
    assert_same_bits(c, ref.c)
    inner = np.flatnonzero(np.bincount(g.edge_dst, minlength=g.n))  # every non-root
    assert_same_bits(choice[inner], ref.choice()[inner])
    ref_labels, ref_cost = reference_solve(g, f, cents, pen)
    part, cost = solve_tree_partition(g, f, cents, pen, layout=TreeLayout.from_graph(g))
    assert_same_bits(part.assign, ref_labels)
    assert_same_bits(np.float64(cost), np.float64(ref_cost))


@settings(max_examples=300, deadline=None)
@given(forest_problems())
def test_level_fill_matches_vertex_by_vertex_reference(problem):
    assert_matches_reference(*problem)


@settings(max_examples=200, deadline=None)
@given(forest_problems(max_n=8))
def test_forest_optimum_equals_the_oracle(problem):
    g, f, cents, pen = problem
    part, cost = solve_tree_partition(g, f, cents, pen)
    _, ocost = brute_force_fixed_centroids(g, f, cents, pen, cents.k)
    assert rel_close(cost, ocost)  # both inf, or equal
    if cents.defined.any():
        assert rel_close(cost, fixed_centroid_cost(g, f, part, cents, pen))
    else:  # every labelling puts a vertex in a group without a center
        assert cost == math.inf


@pytest.mark.parametrize("lam_f, lam_b", [(0.0, 1e5), (0.1, 0.1), (0.0, math.inf), (1.0, 0.0)])
def test_level_fill_matches_reference_on_a_large_forest(lam_f, lam_b):
    rng = np.random.default_rng(7)
    trees = [random_arborescence(rng, size) for size in (700, 500, 1)]
    edges, offset = [], 0
    for t, size in zip(trees, (700, 500, 1)):
        edges += [(a + offset, b + offset) for a, b in t.edges]
        offset += size
    order = rng.permutation(len(edges))
    g = DirectedGraph.from_edges(offset, [edges[i] for i in order])
    f = random_features(rng, offset, 3)
    cents = Centroids.from_rows(rng.normal(0, 1, (5, 3)))
    assert_matches_reference(g, f, cents, Penalties(lam_f, lam_b))


def test_layout_levels_follow_edge_order():
    g = DirectedGraph.from_edges(6, [(4, 1), (0, 5), (4, 3), (0, 4), (3, 2)])
    layout = TreeLayout.from_graph(g)
    assert [lv.tolist() for lv in layout.levels] == [[0], [5, 4], [1, 3], [2]]
    assert layout.parent.tolist() == [-1, 4, 3, 4, 0, 0]
