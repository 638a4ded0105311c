import io
import math

import numpy as np
import pytest
from hypothesis import given, settings

from digseg import (
    CostBreakdown,
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
from conftest import multigraphs, random_digraph


def test_load_header_only():
    g = load_graph("2\n")
    assert g.n == 2 and g.m == 0


def adjacency_lists(g):
    """(out, in) neighbor lists in edge order, built from the edge pairs."""
    out = [[] for _ in range(g.n)]
    inn = [[] for _ in range(g.n)]
    for u, v in g.edges:
        out[u].append(v)
        inn[v].append(u)
    return out, inn


def csr_rows(g):
    """Each `adjacency` row of g as (out-neighbors, in-neighbors).

    The row's entries must be its out-neighbors followed by its in-neighbors:
    `incoming` flags exactly the entries after the split.
    """
    indptr, nbr, incoming = g.adjacency
    rows = []
    for v in range(g.n):
        row, flags = nbr[indptr[v]:indptr[v + 1]].tolist(), incoming[indptr[v]:indptr[v + 1]].tolist()
        split = flags.count(False)
        assert flags == [False] * split + [True] * (len(row) - split)
        rows.append((row[:split], row[split:]))
    return rows


def test_load_path_graph():
    g = load_graph("3\n0 1\n1 2\n")
    assert g.n == 3 and g.m == 2
    out, inn = adjacency_lists(g)
    assert out == [[1], [2], []] and inn == [[], [0], [1]]
    assert csr_rows(g) == [([1], []), ([2], [0]), ([], [1])]
    indptr, nbr, incoming = g.adjacency
    assert indptr.tolist() == [0, 1, 3, 4] and nbr.tolist() == [1, 2, 0, 1]
    assert incoming.tolist() == [False, False, True, True]


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
    out, inn = adjacency_lists(g)
    assert g.m == 2 and out[0] == [1, 1] and inn[1] == [0, 0]
    assert csr_rows(g) == [([1, 1], []), ([], [0, 0])] == list(zip(out, inn))


def test_roundtrip_edge_multiset():
    rng = np.random.default_rng(7)
    for _ in range(20):
        g = random_digraph(rng, int(rng.integers(2, 9)), int(rng.integers(0, 15)))
        back = load_graph(graph_to_edge_list(g))
        assert back.n == g.n
        assert sorted(back.edges) == sorted(g.edges)


@pytest.mark.parametrize("n", [0, 1])
def test_random_digraph_rejects_edges_it_cannot_draw(n):
    with pytest.raises(ValueError, match="has no edges"):
        random_digraph(np.random.default_rng(0), n, 1)
    assert random_digraph(np.random.default_rng(0), n, 0).m == 0


def test_adjacency_mirrors_edge_multiset():
    rng = np.random.default_rng(8)
    for _ in range(20):
        g = random_digraph(rng, int(rng.integers(2, 9)), int(rng.integers(0, 15)))
        out_rows, in_rows = (list(side) for side in zip(*csr_rows(g)))
        assert sum(len(a) for a in out_rows) == g.m
        assert sum(len(a) for a in in_rows) == g.m
        for u, v in g.edges:
            assert out_rows[u].count(v) == [e for e in g.edges].count((u, v))
            assert in_rows[v].count(u) == out_rows[u].count(v)


def test_from_edges_names_the_first_bad_edge():
    with pytest.raises(EdgeListError, match="self-loop at vertex 1"):
        DirectedGraph.from_edges(3, [(0, 1), (1, 1), (0, 5)])
    with pytest.raises(EdgeListError, match=r"edge \(0, 5\) out of range for n=3"):
        DirectedGraph.from_edges(3, [(0, 1), (0, 5), (1, 1)])
    with pytest.raises(EdgeListError, match=r"edge \(5, 5\) out of range"):
        DirectedGraph.from_edges(3, [(5, 5), (1, 1)])


def test_from_edges_rejects_negative_ids():
    with pytest.raises(EdgeListError, match=r"edge \(-1, 0\) out of range"):
        DirectedGraph.from_edges(3, [(0, 1), (-1, 0)])
    with pytest.raises(EdgeListError, match="out of range"):
        DirectedGraph.from_edges(3, np.array([[2, -3]]))


def test_from_edges_array_equals_pairs():
    pairs = [(0, 2), (2, 1), (0, 2), (3, 0)]
    a = DirectedGraph.from_edges(4, pairs)
    b = DirectedGraph.from_edges(4, np.array(pairs, dtype=np.int64))
    assert a.n == b.n and a.edges == b.edges == pairs
    for x, y in ((a.edge_src, b.edge_src), (a.edge_dst, b.edge_dst)):
        assert x.dtype == y.dtype == np.int64 and np.array_equal(x, y)
        assert not x.flags.writeable and not y.flags.writeable
    for x, y in zip(a.adjacency, b.adjacency):
        assert x.dtype == y.dtype and np.array_equal(x, y)
    empty = DirectedGraph.from_edges(2, np.zeros((0, 2), dtype=np.int64))
    assert empty.m == 0 and empty.edges == [] == DirectedGraph.from_edges(2, []).edges


def test_from_edges_rejects_triples():
    with pytest.raises(EdgeListError, match="pairs"):
        DirectedGraph.from_edges(4, [(0, 1, 2), (1, 2, 3)])
    with pytest.raises(EdgeListError, match="pairs"):
        DirectedGraph.from_edges(4, [(0, 1), (1, 2, 3)])


@settings(max_examples=200, deadline=None)
@given(multigraphs())
def test_csr_rows_equal_adjacency_lists(g):
    out, inn = adjacency_lists(g)
    indptr, nbr, incoming = g.adjacency
    assert indptr[0] == 0 and indptr[-1] == nbr.size == incoming.size == 2 * g.m
    assert not any(arr.flags.writeable for arr in g.adjacency)
    assert csr_rows(g) == list(zip(out, inn))  # row v is out[v] + in[v], `incoming` on in[v]


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
    # costs are priced through the loss key: 0 * inf contributes nothing
    p = Penalties(2.0, math.inf)
    assert CostBreakdown.of(1.5, 3, 0, p).key == (0, 7.5)
    assert CostBreakdown.of(1.5, 3, 0, p).total == 7.5
    assert CostBreakdown.of(1.5, 0, 1, p).key == (1, 1.5)
    assert CostBreakdown.of(1.5, 0, 1, p).total == math.inf
    assert CostBreakdown.of(0.0, 0, 0, p).total == 0.0
    assert CostBreakdown.of(0.0, 0, 0, Penalties(math.inf, math.inf)).key == (0, 0.0)


def _edge_move_delta(edges, labels, v, target, penalties):
    """`SolveState.move_delta` over k = 3 groups of equal features: only the edge term is left."""
    n = len(labels)
    g = DirectedGraph.from_edges(n, edges)
    f = FeatureMatrix.from_array(np.zeros((n, 1)))
    return SolveState(g, f, penalties, labels, 3).move_delta(v, target)


def test_penalties_cross_cost_delta():
    # a move that adds infinitely weighted edges costs +inf and one that sheds
    # them gains -inf, whatever its finite part; an unchanged count of them
    # leaves the finite part
    p = Penalties(2.0, math.inf)
    assert _edge_move_delta([(0, 1)], [1, 1], 1, 2, p) == 2.0  # one forward edge more
    fan = [(0, 1), (0, 2), (0, 3)]
    assert _edge_move_delta(fan, [1, 2, 2, 2], 0, 2, p) == -6.0  # three forward edges fewer
    fan = [(0, 1), (0, 2), (0, 3), (0, 4), (0, 5)]
    # five forward edges more, and vertex 6's edge becomes backward or stops being one
    assert _edge_move_delta(fan + [(6, 0)], [2, 2, 2, 2, 2, 2, 2], 0, 1, p) == math.inf
    assert _edge_move_delta(fan + [(0, 6)], [2, 2, 2, 2, 2, 2, 1], 0, 1, p) == -math.inf
    both = Penalties(math.inf, math.inf)
    # a forward edge turns backward: the count of infinitely weighted edges holds
    assert _edge_move_delta([(0, 1)], [1, 2], 0, 3, both) == 0.0


def _split_by_formula(lam_f, lam_b, d_f, d_b):
    """(change of the infinite sides' count, lambda * change of each finite side), summed."""
    inf_f, inf_b = math.isinf(lam_f), math.isinf(lam_b)
    inf_change = (d_f if inf_f else 0) + (d_b if inf_b else 0)
    return inf_change, (0.0 if inf_f else lam_f * d_f) + (0.0 if inf_b else lam_b * d_b)


@pytest.mark.parametrize("lam_f", [0.0, 0.1, 1e5, math.inf])
@pytest.mark.parametrize("lam_b", [0.0, 0.1, 1e5, math.inf])
def test_penalties_cross_cost_delta_equals_the_weighted_sum(lam_f, lam_b):
    # a cross-cost change in split form: `split` of signed count changes,
    # elementwise on arrays as on scalars
    pen = Penalties(lam_f, lam_b)
    rng = np.random.default_rng(5)
    d_f = rng.integers(-4, 5, size=(6, 7))
    d_b = rng.integers(-4, 5, size=(6, 7))
    inf_change, finite = (np.broadcast_to(x, d_f.shape) for x in pen.split(d_f, d_b))
    assert inf_change.dtype.kind == "i" and finite.dtype == np.float64
    got = zip(inf_change.ravel().tolist(), finite.ravel().tolist())
    for f, b, parts in zip(d_f.ravel().tolist(), d_b.ravel().tolist(), got):
        want = _split_by_formula(lam_f, lam_b, f, b)
        assert parts == want
        for scalar in (pen.split(f, b), pen.split(np.int64(f), np.int64(b))):
            assert scalar == want


def test_partition_validation():
    with pytest.raises(ValueError):
        OrderedPartition.from_labels(2, [0, 1])
    with pytest.raises(ValueError):
        OrderedPartition.from_labels(2, [1, 3])
    p = OrderedPartition.from_labels(3, [1, 3, 3])
    assert p.n == 3 and list(p.group_sizes()) == [0, 1, 0, 2]
    assert list(p.members(3)) == [1, 2]
