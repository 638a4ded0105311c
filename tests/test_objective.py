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
    SolveState,
    coherence_l2,
    fixed_centroid_cost,
    total_cost,
    update_centroids,
)
from digseg import objective
from digseg.objective import cross_edge_counts
from conftest import (
    multigraphs,
    random_digraph,
    random_features,
    random_state,
    rel_close,
    sse_of_partition,
)

NOPEN = Penalties(0.0, 0.0)


def test_coherence_empty_and_singleton():
    f = FeatureMatrix.from_array([[3.0, 4.0]])
    assert coherence_l2([], f) == 0.0
    assert coherence_l2([0], f) == 0.0


def test_coherence_two_points_matches_grid_scan():
    f = FeatureMatrix.from_array([[0.0], [1.0]])
    got = coherence_l2([0, 1], f)
    # independent check: scan candidate centers on a fine grid
    grid = np.linspace(-1.0, 2.0, 30001)
    best = min(((0.0 - mu) ** 2 + (1.0 - mu) ** 2) for mu in grid)
    assert abs(got - 0.5) < 1e-12
    assert got <= best + 1e-8


def test_update_centroids_examples():
    f = FeatureMatrix.from_array([[0.0], [1.0]])
    c = update_centroids(OrderedPartition.from_labels(2, [1, 2]), f)
    assert np.allclose(c.mu, [[0.0], [1.0]]) and c.defined.all()
    c = update_centroids(OrderedPartition.from_labels(1, [1, 1]), f)
    assert np.allclose(c.mu, [[0.5]])
    c = update_centroids(OrderedPartition.from_labels(2, [1, 1]), f)
    assert c.defined[0] and not c.defined[1]
    with pytest.raises(ValueError):
        c.mu_for(2)


def test_total_cost_path_example():
    g = DirectedGraph.from_edges(3, [(0, 1), (1, 2)])
    f = FeatureMatrix.from_array([[0.0], [0.0], [1.0]])
    pen = Penalties(0.0, 5.0)
    bd = total_cost(g, f, OrderedPartition.from_labels(2, [1, 1, 2]), pen)
    assert bd.coherence == 0.0 and bd.forward_edges == 1 and bd.backward_edges == 0
    assert bd.total == 0.0
    bd2 = total_cost(g, f, OrderedPartition.from_labels(2, [2, 2, 1]), pen)
    assert bd2.forward_edges == 0 and bd2.backward_edges == 1 and bd2.total == 5.0


def test_total_cost_zero_penalties_is_kmeans_sse():
    rng = np.random.default_rng(11)
    for _ in range(10):
        n, d, k = int(rng.integers(3, 20)), int(rng.integers(1, 4)), int(rng.integers(1, 4))
        g = random_digraph(rng, n, int(rng.integers(0, 2 * n)))
        f = random_features(rng, n, d)
        part = OrderedPartition.from_labels(k, rng.integers(1, k + 1, size=n))
        bd = total_cost(g, f, part, NOPEN)
        sse = sse_of_partition(part.assign, f.values.tolist())
        assert rel_close(bd.total, sse)


def test_cross_edge_counts_bounded_by_m():
    rng = np.random.default_rng(12)
    for _ in range(20):
        n = int(rng.integers(2, 12))
        g = random_digraph(rng, n, int(rng.integers(0, 25)))
        f = random_features(rng, n, 2)
        k = int(rng.integers(1, 5))
        part = OrderedPartition.from_labels(k, rng.integers(1, k + 1, size=n))
        bd = total_cost(g, f, part, Penalties(1.0, 1.0))
        within = g.m - bd.forward_edges - bd.backward_edges
        assert bd.forward_edges + bd.backward_edges <= g.m
        assert within == sum(1 for u, v in g.edges if part.assign[u] == part.assign[v])


def test_edge_reversal_and_order_reversal_symmetry():
    rng = np.random.default_rng(13)
    for _ in range(15):
        n, k = int(rng.integers(2, 10)), int(rng.integers(1, 5))
        g = random_digraph(rng, n, int(rng.integers(0, 20)))
        f = random_features(rng, n, 2)
        pen = Penalties(float(rng.uniform(0, 3)), float(rng.uniform(0, 3)))
        assign = rng.integers(1, k + 1, size=n)
        part = OrderedPartition.from_labels(k, assign)
        rev_g = DirectedGraph.from_edges(n, [(v, u) for u, v in g.edges])
        rev_part = OrderedPartition.from_labels(k, k + 1 - assign)
        a = total_cost(g, f, part, pen)
        b = total_cost(rev_g, f, rev_part, pen)
        assert rel_close(a.total, b.total)
        assert a.forward_edges == b.forward_edges and a.backward_edges == b.backward_edges


def test_fixed_centroid_cost_examples():
    # centroids equal to the means reproduce total_cost
    g = DirectedGraph.from_edges(3, [(0, 1), (1, 2)])
    f = FeatureMatrix.from_array([[0.0], [0.0], [1.0]])
    part = OrderedPartition.from_labels(2, [1, 1, 2])
    pen = Penalties(2.0, 5.0)
    cents = update_centroids(part, f)
    assert rel_close(fixed_centroid_cost(g, f, part, cents, pen), total_cost(g, f, part, pen).total)

    # single vertex at 0 with center 1, no edges
    g1 = DirectedGraph.from_edges(1, [])
    f1 = FeatureMatrix.from_array([[0.0]])
    cost = fixed_centroid_cost(
        g1, f1, OrderedPartition.from_labels(1, [1]), Centroids.from_rows([[1.0]]), pen
    )
    assert rel_close(cost, 1.0)

    # within-group edge is free
    g2 = DirectedGraph.from_edges(2, [(0, 1)])
    f2 = FeatureMatrix.from_array([[0.0], [1.0]])
    cost = fixed_centroid_cost(
        g2, f2, OrderedPartition.from_labels(1, [1, 1]), Centroids.from_rows([[0.0]]), pen
    )
    assert rel_close(cost, 1.0)


def test_fixed_centroid_cost_undefined_centroid_error():
    g = DirectedGraph.from_edges(1, [])
    f = FeatureMatrix.from_array([[0.0]])
    cents = Centroids(mu=np.zeros((2, 1)), defined=np.array([False, True]))
    with pytest.raises(ValueError, match="undefined"):
        fixed_centroid_cost(g, f, OrderedPartition.from_labels(2, [1]), cents, NOPEN)


def test_move_delta_worked_example():
    # groups {x: 0, z: 1} and {y: 2}; moving z changes nothing overall
    g = DirectedGraph.from_edges(3, [])
    f = FeatureMatrix.from_array([[0.0], [1.0], [2.0]])
    st = SolveState(g, f, NOPEN, [1, 1, 2], 2)
    assert abs(st.move_delta(1, 2)) < 1e-12


def test_move_delta_involution():
    rng = np.random.default_rng(21)
    for _ in range(20):
        st = random_state(rng, int(rng.integers(2, 10)), int(rng.integers(0, 12)), 2, 3,
                          Penalties(float(rng.uniform(0, 2)), float(rng.uniform(0, 2))))
        v = int(rng.integers(0, st.graph.n))
        i = int(st.assign[v])
        j = 1 + (i % 3)
        d1 = st.move_delta(v, j)
        st.apply_move(v, j)
        d2 = st.move_delta(v, i)
        assert abs(d1 + d2) < 1e-9


def test_move_delta_duplicate_points_symmetric():
    g = DirectedGraph.from_edges(2, [])
    f = FeatureMatrix.from_array([[1.5, -2.0], [1.5, -2.0]])
    st = SolveState(g, f, NOPEN, [1, 2], 2)
    assert abs(st.move_delta(0, 2)) < 1e-12


def test_move_delta_sole_member_allowed():
    g = DirectedGraph.from_edges(2, [])
    f = FeatureMatrix.from_array([[1.0], [5.0]])
    st = SolveState(g, f, NOPEN, [1, 2], 2)
    d = st.move_delta(0, 2)
    assert rel_close(d, 8.0)  # merged pair coherence (1-3)^2 + (5-3)^2
    st.apply_move(0, 2)
    assert st.counts[1] == 0
    assert rel_close(st.total(), 8.0)


def test_move_delta_matches_recompute():
    rng = np.random.default_rng(22)
    trials = 0
    while trials < 200:
        k = int(rng.integers(2, 5))
        st = random_state(rng, int(rng.integers(2, 12)), int(rng.integers(0, 20)), 3, k,
                          Penalties(float(rng.uniform(0, 4)), float(rng.uniform(0, 4))))
        v = int(rng.integers(0, st.graph.n))
        targets = [j for j in range(1, k + 1) if j != st.assign[v]]
        j = int(rng.choice(targets))
        before = total_cost(st.graph, st.features, st.partition(), st.penalties).total
        delta = st.move_delta(v, j)
        st.apply_move(v, j)
        after = total_cost(st.graph, st.features, st.partition(), st.penalties).total
        assert rel_close(delta, after - before)
        trials += 1


def test_decomposition_identity_randomized():
    rng = np.random.default_rng(23)
    for _ in range(50):
        d = int(rng.integers(1, 17))
        size = int(rng.integers(1, 101))
        pts = rng.normal(0, 2, size=(size, d))
        f = FeatureMatrix.from_array(pts)
        direct = coherence_l2(range(size), f)
        mu = pts.mean(axis=0)
        identity = float((pts * pts).sum() - size * (mu @ mu))
        assert rel_close(direct, identity)


def test_state_cache_matches_rebuild_after_moves():
    rng = np.random.default_rng(24)
    st = random_state(rng, 40, 80, 4, 4, Penalties(0.7, 1.3))
    for _ in range(300):
        v = int(rng.integers(0, 40))
        j = int(rng.integers(1, 5))
        if j != st.assign[v]:
            st.apply_move(v, j)
    assert st.cache_drift() <= 1e-9
    bd = st.breakdown()
    fresh = total_cost(st.graph, st.features, st.partition(), st.penalties)
    assert rel_close(bd.total, fresh.total)
    assert bd.forward_edges == fresh.forward_edges
    assert bd.backward_edges == fresh.backward_edges


def test_state_breakdown_consistent_under_saturating_arithmetic():
    g = DirectedGraph.from_edges(2, [(1, 0)])
    f = FeatureMatrix.from_array([[0.0], [1.0]])
    st = SolveState(g, f, Penalties(0.0, math.inf), [1, 2], 2)
    bd = st.breakdown()
    assert bd.backward_edges == 1 and bd.total == math.inf
    assert bd.coherence == 0.0


def _move_fixture():
    g = DirectedGraph.from_edges(3, [(0, 1), (1, 2)])
    f = FeatureMatrix.from_array([[0.0], [1.0], [5.0]])
    st = SolveState(g, f, Penalties(1.0, 2.0), [1, 1, 2], 2)
    return st, _caches(st)


def _caches(st):
    return (st.assign.copy(), st.counts.copy(), st.sums.copy(), st.group_sqnorm.copy(),
            st.edge_counts)


def _assert_unchanged(st, before):
    for a, b in zip(before, _caches(st)):
        assert np.array_equal(a, b)
    assert st.cache_drift() == 0.0


@pytest.mark.parametrize("target", [0, 3, -1])
def test_apply_move_rejects_target_out_of_range_before_mutating(target):
    st, before = _move_fixture()
    with pytest.raises(ValueError, match="out of range 1..2"):
        st.apply_move(1, target)
    _assert_unchanged(st, before)


@pytest.mark.parametrize("v", [-1, 3])
def test_moves_reject_vertex_out_of_range_before_mutating(v):
    st, before = _move_fixture()
    with pytest.raises(ValueError, match=f"vertex {v} out of range 0..2"):
        st.apply_move(v, 1)
    with pytest.raises(ValueError, match=f"vertex {v} out of range 0..2"):
        st.move_delta(v, 1)
    _assert_unchanged(st, before)


@pytest.mark.parametrize("vertices, targets, message", [
    ([0, 3], [2, 2], "vertex 3 out of range 0..2"),
    ([0, 1], [2, 0], "target group 0 out of range 1..2"),
    ([0, 2, 0], [2, 1, 2], "moved twice"),
    ([0, 1], [2], "2 vertices but 1 targets"),
])
def test_grouped_move_rejects_bad_input_before_mutating(vertices, targets, message):
    st, before = _move_fixture()
    with pytest.raises(ValueError, match=message):
        st.apply_move(vertices, targets)
    _assert_unchanged(st, before)


def _distinct_moves(n: int, k: int):
    """Moves of distinct vertices, as (vertices, targets) arrays; a target may be the own group."""
    moves = hst.lists(hst.tuples(hst.integers(0, n - 1), hst.integers(1, k)),
                      max_size=n, unique_by=lambda m: m[0])
    return moves.map(lambda ms: np.array(ms, dtype=np.int64).reshape(-1, 2).T)


@settings(max_examples=300, deadline=None)
@given(multigraphs(), hst.integers(1, 5), hst.data())
def test_grouped_move_equals_the_same_moves_one_at_a_time(g, k, data):
    weights = hst.sampled_from([0.0, 0.5, math.inf])
    pen = Penalties(data.draw(weights), data.draw(weights))
    floats = hst.floats(-1e3, 1e3, allow_nan=False, allow_subnormal=False)
    features = FeatureMatrix.from_array(
        data.draw(hst.lists(hst.tuples(floats, floats), min_size=g.n, max_size=g.n)))
    labels = data.draw(hst.lists(hst.integers(1, k), min_size=g.n, max_size=g.n))
    grouped = SolveState(g, features, pen, labels, k)
    single = SolveState(g, features, pen, labels, k)

    def move_both(vs, targets):
        grouped.apply_move(vs, targets)
        for v, target in zip(vs.tolist(), targets.tolist()):
            single.apply_move(v, target)
        for name in ("sums", "group_sqnorm", "counts", "assign"):
            mine, theirs = getattr(grouped, name), getattr(single, name)
            assert mine.dtype == theirs.dtype and mine.tobytes() == theirs.tobytes(), name
        assert grouped.edge_counts == single.edge_counts == cross_edge_counts(g, grouped.assign)
        assert all(type(c) is int for c in grouped.edge_counts + single.edge_counts)

    for revert in data.draw(hst.lists(hst.booleans(), min_size=1, max_size=4)):
        vs, targets = data.draw(_distinct_moves(g.n, k))
        olds = grouped.assign[vs]
        move_both(vs, targets)
        if revert:  # apply, read, then revert, as `pair_sweep` does
            grouped.loss_parts()
            move_both(vs, olds)


@settings(max_examples=300, deadline=None)
@given(multigraphs(), hst.integers(0, 2), hst.integers(1, 5), hst.data())
def test_cached_edge_counts_are_never_stale(g, isolated, k, data):
    # parallel edges and cycles come from `multigraphs`; `isolated` vertices
    # without edges are appended
    g = DirectedGraph.from_edges(g.n + isolated, np.column_stack((g.edge_src, g.edge_dst)))
    labels = hst.lists(hst.integers(1, k), min_size=g.n, max_size=g.n)
    weights = hst.sampled_from([0.0, 0.5, math.inf])
    pen = Penalties(data.draw(weights), data.draw(weights))
    features = FeatureMatrix.from_array(
        data.draw(hst.lists(hst.tuples(hst.integers(-3, 3)), min_size=g.n, max_size=g.n)))
    state = SolveState(g, features, pen, data.draw(labels), k)
    moves = hst.lists(hst.tuples(hst.integers(0, g.n - 1), hst.integers(1, k)), max_size=4)

    def assert_fresh():
        fresh = total_cost(g, features, state.partition(), pen)
        counts = cross_edge_counts(g, state.assign)
        assert state.edge_counts == counts and all(type(c) is int for c in state.edge_counts)
        bd = state.breakdown()
        assert (bd.forward_edges, bd.backward_edges) == counts
        assert rel_close(bd.total, fresh.total)
        inf_edges, finite = state.loss_parts()
        fresh_inf, fresh_finite = pen.split(*counts)
        assert inf_edges == fresh_inf
        assert rel_close(finite, fresh.coherence + fresh_finite)

    assert_fresh()
    ops = ["moves", "grouped moves", "revert", "rebuild", "write"]
    for op in data.draw(hst.lists(hst.sampled_from(ops), max_size=8)):
        if op == "moves":  # one call per move; targets may be a vertex's own group
            for v, target in data.draw(moves):
                state.apply_move(v, target)
        elif op == "grouped moves":
            state.apply_move(*data.draw(_distinct_moves(g.n, k)))
        elif op == "revert":  # apply, read, then revert, as `pair_sweep` does
            vs, targets = data.draw(_distinct_moves(g.n, k))
            olds = state.assign[vs]
            state.apply_move(vs, targets)
            state.loss_parts()
            state.apply_move(vs, olds)
        elif op == "rebuild":
            state.rebuild()
        else:  # a whole labelling written directly, then one rebuild
            state.assign[:] = data.draw(labels)
            state.rebuild()
        assert_fresh()


def test_zero_weight_loss_key_skips_the_edge_recount(monkeypatch):
    rng = np.random.default_rng(4)
    g = random_digraph(rng, 40, 120)
    features = random_features(rng, 40, 3)
    state = SolveState(g, features, NOPEN, rng.integers(1, 5, size=40), 4)
    for v in range(0, 40, 3):
        state.apply_move(v, v % 4 + 1)
    key = state.loss_parts()
    full = state.breakdown().key
    assert key == full and type(key[0]) is type(full[0])
    assert np.float64(key[1]).tobytes() == np.float64(full[1]).tobytes()

    def refuse(*args):
        raise AssertionError("cross edges recounted")
    monkeypatch.setattr(objective, "cross_edge_counts", refuse)
    state.apply_move(0, 2)
    assert state.loss_parts() == (0, state.coherence())


def test_counted_moves_keep_known_edge_counts_without_a_recount(monkeypatch):
    rng = np.random.default_rng(5)
    g = random_digraph(rng, 40, 160)
    state = SolveState(g, random_features(rng, 40, 3), Penalties(0.5, 2.0), rng.integers(1, 5, size=40), 4)
    singles = [(int(v), int(t)) for v, t in zip(rng.integers(0, 40, size=60), rng.integers(1, 5, size=60))]
    batches = [(rng.permutation(40)[:size], rng.integers(1, 5, size=size)) for size in (1, 5, 17, 40)]
    moves = singles + batches
    expected = []
    labels = state.assign.copy()
    for v, t in moves:
        labels[v] = t
        expected.append(cross_edge_counts(g, labels))

    def refuse(*args):
        raise AssertionError("cross edges recounted")
    monkeypatch.setattr(objective, "cross_edge_counts", refuse)
    for (v, t), counts in zip(moves, expected):
        state.apply_move(v, t)
        assert state.edge_counts == counts
        assert state.loss_parts() == state.breakdown().key
