import itertools
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
    OrderedPartition,
    Penalties,
    SolveConfig,
    brute_force_dgs,
    brute_force_fixed_centroids,
    check_arborescence,
    fixed_centroid_cost,
    run_iterative,
    solve_tree_partition,
    solve_two_partition,
    total_cost,
)
from digseg.oracle import OracleSizeError
from conftest import multigraphs, random_digraph, random_features, rel_close, sse_of_partition


def test_single_vertex_lexicographic():
    g = DirectedGraph.from_edges(1, [])
    f = FeatureMatrix.from_array([[7.0]])
    part, cost = brute_force_dgs(g, f, Penalties(1.0, 1.0), 3)
    assert list(part.assign) == [1] and cost == 0.0


def test_path_with_heavy_backward_penalty():
    g = DirectedGraph.from_edges(3, [(0, 1), (1, 2)])
    f = FeatureMatrix.from_array([[0.0], [0.0], [1.0]])
    part, cost = brute_force_dgs(g, f, Penalties(0.0, 1e5), 2)
    assert list(part.assign) == [1, 1, 2]
    assert cost == 0.0


def test_zero_penalties_equals_exhaustive_kmeans():
    rng = np.random.default_rng(31)
    for _ in range(5):
        n, k = 5, 2
        g = random_digraph(rng, n, 6)
        f = random_features(rng, n, 2)
        _, cost = brute_force_dgs(g, f, Penalties(0.0, 0.0), k)
        best_sse = min(
            sse_of_partition(list(labels), f.values.tolist())
            for labels in itertools.product(range(1, k + 1), repeat=n)
        )
        assert rel_close(cost, best_sse)


def test_fixed_centroid_examples():
    # three-vertex star solved exactly by the tree solver too
    g = DirectedGraph.from_edges(3, [(0, 1), (0, 2)])
    f = FeatureMatrix.from_array([[0.0], [0.0], [1.0]])
    cents = Centroids.from_rows([[0.0], [1.0]])
    pen = Penalties(0.5, 10.0)
    part, cost = brute_force_fixed_centroids(g, f, cents, pen, 2)
    assert rel_close(cost, 0.5)
    _, dp_cost = solve_tree_partition(g, f, cents, pen)
    assert rel_close(cost, dp_cost)

    # two-vertex instance solved by the cut as well
    g2 = DirectedGraph.from_edges(2, [(0, 1)])
    f2 = FeatureMatrix.from_array([[0.0], [1.0]])
    pen2 = Penalties(0.0, 5.0)
    part2, cost2 = brute_force_fixed_centroids(g2, f2, Centroids.from_rows([[0.0], [1.0]]), pen2, 2)
    assert rel_close(cost2, 0.0) and list(part2.assign) == [1, 2]
    _, cut_cost = solve_two_partition(g2, f2, [0.0], [1.0], pen2)
    assert rel_close(cost2, cut_cost)


def test_equal_centroids_lexicographic_minimum():
    g = DirectedGraph.from_edges(3, [])
    f = FeatureMatrix.from_array([[1.0], [2.0], [3.0]])
    cents = Centroids.from_rows([[2.0], [2.0]])
    part, _ = brute_force_fixed_centroids(g, f, cents, Penalties(0.0, 0.0), 2)
    assert list(part.assign) == [1, 1, 1]


def test_guard_rejects_large_instances():
    g = DirectedGraph.from_edges(30, [])
    f = FeatureMatrix.from_array(np.zeros((30, 1)))
    with pytest.raises(OracleSizeError):
        brute_force_dgs(g, f, Penalties(0.0, 0.0), 3)


def test_permutation_stability():
    rng = np.random.default_rng(32)
    for trial in range(5):
        n, k = 6, 2
        g = random_digraph(rng, n, 8)
        f = random_features(rng, n, 2)
        pen = Penalties(0.3, 2.0)
        _, cost = brute_force_dgs(g, f, pen, k)
        perm = rng.permutation(n)
        remap = {int(old): pos for pos, old in enumerate(perm)}
        g2 = DirectedGraph.from_edges(n, [(remap[u], remap[v]) for u, v in g.edges])
        f2 = FeatureMatrix.from_array(f.values[perm])
        _, cost2 = brute_force_dgs(g2, f2, pen, k)
        assert rel_close(cost, cost2)


def test_oracle_never_above_solver():
    rng = np.random.default_rng(33)
    for _ in range(10):
        n, k = int(rng.integers(2, 8)), 2
        g = random_digraph(rng, n, int(rng.integers(0, 12)))
        f = random_features(rng, n, 2)
        cents = Centroids.from_rows(rng.normal(0, 1, (k, 2)))
        pen = Penalties(float(rng.uniform(0, 2)), float(rng.uniform(0, 2)))
        _, ocost = brute_force_fixed_centroids(g, f, cents, pen, k)
        part, scost = solve_two_partition(g, f, cents.mu[0], cents.mu[1], pen)
        assert ocost <= scost + 1e-9
        assert rel_close(ocost, scost)  # k = 2 cut is exact


def test_oracle_infinite_penalties():
    g = DirectedGraph.from_edges(2, [(0, 1), (1, 0)])
    f = FeatureMatrix.from_array([[0.0], [1.0]])
    part, cost = brute_force_dgs(g, f, Penalties(0.0, math.inf), 2)
    # any split has a backward edge; grouping everything together is optimal
    assert part.assign[0] == part.assign[1]
    assert rel_close(cost, 0.5)


@st.composite
def weighted_problems(draw):
    """A small multigraph, k = 2..3, integer features and each weight from 0 to inf."""
    graph = draw(multigraphs())
    d = draw(st.integers(1, 2))
    rows = st.lists(st.integers(-2, 2), min_size=d, max_size=d)
    features = draw(st.lists(rows, min_size=graph.n, max_size=graph.n))
    weights = st.sampled_from([0.0, 0.5, 2.0, 1e5, math.inf])
    pen = Penalties(draw(weights), draw(weights))
    return graph, FeatureMatrix.from_array(features), pen, draw(st.integers(2, 3)), draw(st.integers(0, 3))


@settings(max_examples=150, deadline=None)
@given(weighted_problems())
def test_no_solver_run_beats_the_oracle(problem):
    # one group holding every vertex has no cross edge, so the optimum is
    # finite at every weight, and no run of any solver may end below it
    g, f, pen, k, seed = problem
    part, cost = brute_force_dgs(g, f, pen, k)
    assert math.isfinite(cost)
    key = total_cost(g, f, part, pen).key
    assert key[0] == 0 and rel_close(key[1], cost)
    kinds = ["greedy", "mcut"]
    try:
        check_arborescence(g)
        kinds.append("treedp")
    except ArborescenceError:
        pass
    for kind in kinds:
        count, finite = run_iterative(g, f, pen, k, SolveConfig(solver_kind=kind, seed=seed)).breakdown.key
        assert count > 0 or finite >= cost - 1e-9 * max(1.0, cost)
