import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from digseg import (
    DirectedGraph,
    EdgeListError,
    FeatureFileError,
    FeatureMatrix,
    OrderedPartition,
    Penalties,
    SolveState,
    graph_to_edge_list,
    load_features,
    load_graph,
)
from conftest import random_digraph


def test_load_header_only():
    g = load_graph("2\n")
    assert g.n == 2 and g.m == 0


def test_load_path_graph():
    g = load_graph("3\n0 1\n1 2\n")
    assert g.n == 3 and g.m == 2
    assert g.out_adj == [[1], [2], []]
    assert g.in_adj == [[], [0], [1]]


def test_load_rejects_self_loop():
    with pytest.raises(EdgeListError, match="self-loop"):
        load_graph("2\n0 0\n")


def test_load_without_header_infers_n():
    g = load_graph("0 3\n1 3\n")
    assert g.n == 4 and g.m == 2


def test_load_bounds_error_names_line():
    with pytest.raises(EdgeListError, match="line 3"):
        load_graph("2\n0 1\n0 5\n")


def test_load_malformed_line():
    with pytest.raises(EdgeListError, match="line 2"):
        load_graph("3\n0 1 2\n")
    with pytest.raises(EdgeListError, match="line 1"):
        load_graph("1 a\n")


def test_load_comments_and_blanks_ignored():
    g = load_graph("# header next\n3\n\n# an edge\n0 2\n")
    assert g.n == 3 and g.edges == [(0, 2)]


def test_load_accepts_byte_streams():
    g = load_graph(io.BytesIO(b"2\n0 1\n"))
    assert g.edges == [(0, 1)]


def test_load_empty_input_rejected():
    with pytest.raises(EdgeListError):
        load_graph("# only comments\n")


def test_parallel_edges_preserved():
    g = load_graph("2\n0 1\n0 1\n")
    assert g.m == 2 and g.out_adj[0] == [1, 1]


def test_roundtrip_edge_multiset():
    rng = np.random.default_rng(7)
    for _ in range(20):
        g = random_digraph(rng, int(rng.integers(2, 9)), int(rng.integers(0, 15)))
        back = load_graph(graph_to_edge_list(g))
        assert back.n == g.n
        assert sorted(back.edges) == sorted(g.edges)


def test_adjacency_mirrors_edge_multiset():
    rng = np.random.default_rng(8)
    for _ in range(20):
        g = random_digraph(rng, int(rng.integers(2, 9)), int(rng.integers(0, 15)))
        assert sum(len(a) for a in g.out_adj) == g.m
        assert sum(len(a) for a in g.in_adj) == g.m
        for u, v in g.edges:
            assert g.out_adj[u].count(v) == [e for e in g.edges].count((u, v))
            assert g.in_adj[v].count(u) == g.out_adj[u].count(v)


@st.composite
def multigraphs(draw):
    n = draw(st.integers(2, 8))
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda e: e[0] != e[1])
    edges = draw(st.lists(pairs, max_size=20))
    edges += draw(st.lists(st.sampled_from(edges), max_size=5)) if edges else []  # parallel edges
    return DirectedGraph.from_edges(n, edges)


@settings(max_examples=200, deadline=None)
@given(multigraphs())
def test_csr_rows_and_state_views_equal_adjacency_lists(g):
    state = SolveState(g, FeatureMatrix.from_array(np.zeros((g.n, 1))), Penalties(1, 1), [1] * g.n, 1)
    for (indptr, nbrs), views, adj in (
        (g.out_csr, state.out_nbrs, g.out_adj),
        (g.in_csr, state.in_nbrs, g.in_adj),
    ):
        assert indptr[0] == 0 and indptr[-1] == g.m and len(views) == g.n
        for v in range(g.n):
            assert nbrs[indptr[v]:indptr[v + 1]].tolist() == adj[v]
            assert views[v].tolist() == adj[v]
            assert np.shares_memory(views[v], nbrs) == bool(adj[v])  # a view, not a copy


def test_load_features_echo():
    g = load_graph("2\n")
    f = load_features("0,0.0\n1,1.0\n", g)
    assert f.n == 2 and f.d == 1
    assert np.array_equal(f.values, [[0.0], [1.0]])


def test_load_features_missing_vertex():
    g = load_graph("3\n")
    with pytest.raises(FeatureFileError, match="missing feature row.*1"):
        load_features("0,1.0\n2,2.0\n", g)


def test_load_features_non_finite():
    g = load_graph("1\n")
    with pytest.raises(FeatureFileError, match="non-finite"):
        load_features("0,NaN\n", g)
    with pytest.raises(FeatureFileError, match="non-finite"):
        load_features("0,inf\n", g)


def test_load_features_duplicate_row():
    g = load_graph("2\n")
    with pytest.raises(FeatureFileError, match="duplicate"):
        load_features("0,1.0\n0,2.0\n1,0.0\n", g)


def test_load_features_dimension_mismatch():
    g = load_graph("2\n")
    with pytest.raises(FeatureFileError, match="expected 1"):
        load_features("0,1.0\n1,2.0,3.0\n", g)


def test_load_features_out_of_range_id():
    g = load_graph("2\n")
    with pytest.raises(FeatureFileError, match="out of range"):
        load_features("0,1.0\n5,2.0\n", g)


def test_feature_matrix_rejects_non_finite_array():
    with pytest.raises(FeatureFileError):
        FeatureMatrix.from_array([[math.inf]])


def test_penalties_validation():
    with pytest.raises(ValueError):
        Penalties(-1.0, 0.0)
    with pytest.raises(ValueError):
        Penalties(0.0, math.nan)
    Penalties(0.0, math.inf)  # inf is legal


def test_penalties_cross_cost_saturating():
    p = Penalties(2.0, math.inf)
    assert p.cross_cost(3, 0) == 6.0  # 0 * inf contributes nothing
    assert p.cross_cost(0, 1) == math.inf
    assert p.cross_cost(0, 0) == 0.0


def test_penalties_cross_cost_delta():
    p = Penalties(2.0, math.inf)
    assert p.cross_cost_delta(1, 0) == 2.0
    assert p.cross_cost_delta(-3, 0) == -6.0
    assert p.cross_cost_delta(5, 1) == math.inf
    assert p.cross_cost_delta(5, -1) == -math.inf
    both = Penalties(math.inf, math.inf)
    assert both.cross_cost_delta(-1, 1) == 0.0  # net infinite count unchanged


def test_partition_validation():
    with pytest.raises(ValueError):
        OrderedPartition.from_labels(2, [0, 1])
    with pytest.raises(ValueError):
        OrderedPartition.from_labels(2, [1, 3])
    p = OrderedPartition.from_labels(3, [1, 3, 3])
    assert p.n == 3 and list(p.group_sizes()) == [0, 1, 0, 2]
    assert list(p.members(3)) == [1, 2]
