"""The bulk parsers against the line-by-line reference in `parse_reference`.

On well-formed files both return the same arrays bit for bit; on a file with
one mutated line both raise the same error class with the same message.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import parse_reference as ref
from digseg import (
    DirectedGraph,
    EdgeListError,
    FeatureFileError,
    FeatureMatrix,
    features_to_table,
    graph_to_edge_list,
    load_features,
    load_graph,
)

BIG = 2**63  # the first id beyond int64
PADDING = ["", " ", "  ", "\t", " \t", "\u00a0", "\u3000"]
LINE_ENDS = ["\n", "\r\n", "\r", "\x0c"]
FILLER = ["", "   ", "# comment", "  # indented, comment", "#"]
FINITE = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [0.0, -0.0, 1e-3, 5e-324, 1.7976931348623157e308, 12.0]
)


def outcome(parse, *args):
    """What a parser does with the input: its arrays, or its error class and message."""
    try:
        result = parse(*args)
    except (EdgeListError, FeatureFileError) as exc:
        return type(exc), str(exc)
    if isinstance(result, DirectedGraph):
        return result.n, result.edge_src.dtype, result.edge_src.tobytes(), result.edge_dst.tobytes()
    return result.values.shape, result.values.dtype, result.values.tobytes()


def int_text(rnd, x: int) -> str:
    """x as `int()` reads it: plain, with a '+', or with '_' between digits."""
    form = rnd.choice(["plain", "plus", "underscore"])
    if form == "plus" and x >= 0:
        return f"+{x}"
    if form == "underscore" and x >= 10:
        return f"{str(x)[0]}_{str(x)[1:]}"
    return str(x)


def float_text(rnd, x: float) -> str:
    """x as `float()` reads it, or a nearby value in another notation."""
    form = rnd.choice(["repr", "exp", "plus", "underscore"])
    if form == "exp" and abs(x) < 1e300:
        return f"{x:.3e}"
    if form == "plus" and not repr(x).startswith("-"):
        return f"+{x!r}"
    if form == "underscore":
        return int_text(rnd, int(x))  # float() reads '1_0' as 10.0
    return repr(x)


def pad(rnd, token: str) -> str:
    return rnd.choice(PADDING) + token + rnd.choice(PADDING)


def edge_line(rnd, tokens: list[str]) -> str:
    return pad(rnd, rnd.choice([" ", "  ", "\t", " \t "]).join(tokens))


def feature_line(rnd, tokens: list[str]) -> str:
    return ",".join(pad(rnd, t) for t in tokens)


def render(rnd, lines: list[str]) -> str:
    """Lines with blank and comment lines between them, under one line ending."""
    out = []
    for line in lines:
        out += rnd.choices(FILLER, k=rnd.choice([0, 0, 1, 2]))
        out.append(line)
    end = rnd.choice(LINE_ENDS)
    return end.join(out) + rnd.choice([end, ""])


@st.composite
def edge_lists(draw):
    """(rows, header, rnd): well-formed edge-list lines as token lists."""
    rnd = draw(st.randoms(use_true_random=False))
    n = draw(st.integers(2, 40))
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda e: e[0] != e[1])
    edges = draw(st.lists(pair, max_size=30))
    header = draw(st.booleans()) or not edges
    rows = [[int_text(rnd, u), int_text(rnd, v)] for u, v in edges]
    return ([[int_text(rnd, n)]] if header else []) + rows, header, rnd


@st.composite
def feature_tables(draw):
    """(n, rows, rnd): well-formed feature rows as token lists, in shuffled order."""
    rnd = draw(st.randoms(use_true_random=False))
    n = draw(st.integers(0, 30))
    d = draw(st.integers(1, 4))
    values = draw(st.lists(FINITE, min_size=n * d, max_size=n * d))
    rows = [
        [int_text(rnd, v)] + [float_text(rnd, x) for x in values[v * d:(v + 1) * d]]
        for v in range(n)
    ]
    rnd.shuffle(rows)
    return n, rows, rnd


@given(edge_lists())
@settings(max_examples=200, deadline=None)
def test_well_formed_edge_lists_parse_like_the_reference(case):
    rows, _, rnd = case
    text = render(rnd, [edge_line(rnd, r) for r in rows])
    expected = outcome(ref.load_graph, text)
    assert not isinstance(expected[0], type), expected
    assert outcome(load_graph, text) == expected


@given(feature_tables())
@settings(max_examples=200, deadline=None)
def test_well_formed_feature_tables_parse_like_the_reference(case):
    n, rows, rnd = case
    text = render(rnd, [feature_line(rnd, r) for r in rows])
    graph = DirectedGraph.from_edges(n, [])
    expected = outcome(ref.load_features, text, graph)
    assert not isinstance(expected[0], type), expected
    assert outcome(load_features, text, graph) == expected


BAD_INTS = ["a", "1.5", "1e3", "", "0x1", "--1", str(BIG), str(10**20), "-1", "nan"]


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_mutated_edge_lists_fail_like_the_reference(data):
    draw = data.draw
    rows, header, rnd = draw(edge_lists())
    rows = [list(r) for r in rows]
    i = draw(st.integers(0, len(rows) - 1))
    kinds = ["drop", "extra", "token", "negative", "self_loop", "range", "big", "header"]
    kind = draw(st.sampled_from(kinds))
    row = rows[i]
    if kind == "drop":
        row.pop(draw(st.integers(0, len(row) - 1)))
    elif kind == "extra":
        row.insert(draw(st.integers(0, len(row))), draw(st.sampled_from(["0", "1", "x"])))
    elif kind == "token":
        row[draw(st.integers(0, len(row) - 1))] = draw(st.sampled_from(BAD_INTS))
    elif kind == "negative":
        row[draw(st.integers(0, len(row) - 1))] = draw(st.sampled_from(["-1", "-0", "-7"]))
    elif kind == "self_loop" and len(row) == 2:
        row[1] = row[0]
    elif kind == "range" and len(row) == 2:
        row[draw(st.integers(0, 1))] = str(draw(st.integers(40, 10**6)))
    elif kind == "big":
        row[draw(st.integers(0, len(row) - 1))] = str(draw(st.sampled_from([BIG - 1, BIG, 10**23])))
    elif kind == "header":
        head = draw(st.sampled_from(["-1", "-0", "x", "2.0", str(BIG), str(10**23), "0", "1"]))
        rows = [[head]] + (rows[1:] if header else rows)
    text = render(rnd, [edge_line(rnd, r) for r in rows if r])
    assert outcome(load_graph, text) == outcome(ref.load_graph, text)


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_mutated_feature_tables_fail_like_the_reference(data):
    draw = data.draw
    n, rows, rnd = draw(feature_tables())
    rows = [list(r) for r in rows]
    graph = DirectedGraph.from_edges(n, [])
    kinds = ["missing", "range", "extra_line"]
    if rows:
        kinds += ["drop", "id_only", "extra", "id", "value", "non_finite", "duplicate"]
    kind = draw(st.sampled_from(kinds))
    i = draw(st.integers(0, len(rows) - 1)) if rows else 0
    if kind == "missing" and rows:
        rows.pop(i)
    elif kind in ("range", "extra_line"):
        d = len(rows[0]) - 1 if rows else 1
        vid = draw(st.sampled_from([n, n + 7, -1, BIG, 10**20])) if kind == "range" else 0
        rows.insert(i, [str(vid)] + ["1.0"] * d)
    elif kind == "drop":
        rows[i].pop(draw(st.integers(0, len(rows[i]) - 1)))
    elif kind == "id_only":
        del rows[i][1:]
    elif kind == "extra":
        extra = draw(st.sampled_from(["0", "2.5", "z", ""]))
        rows[i].insert(draw(st.integers(0, len(rows[i]))), extra)
    elif kind == "id":
        rows[i][0] = draw(st.sampled_from(BAD_INTS))
    elif kind == "value":
        j = draw(st.integers(1, len(rows[i]) - 1))
        rows[i][j] = draw(st.sampled_from(["abc", "", "1,5", "1.2.3", "0x1p3", "1__0", "e5"]))
    elif kind == "non_finite":
        j = draw(st.integers(1, len(rows[i]) - 1))
        rows[i][j] = draw(st.sampled_from(["nan", "inf", "-inf", "NaN", "1e400", "-Infinity"]))
    elif kind == "duplicate":
        rows.insert(draw(st.integers(0, len(rows))), [rows[i][0]] + rows[i][1:])
    text = render(rnd, [feature_line(rnd, r) for r in rows])
    assert outcome(load_features, text, graph) == outcome(ref.load_features, text, graph)


@pytest.mark.parametrize(
    "text, message",
    [
        ("0 100000000000000000000\n", "line 1: vertex id 100000000000000000000 does not fit"),
        ("# ids\n\n5 9223372036854775808\n", "line 3: vertex id 9223372036854775808 does not fit"),
        ("99999999999999999999999\n0 1\n", "line 1: vertex count 99999999999999999999999 does not"),
        ("9223372036854775808\n", "line 1: vertex count 9223372036854775808 does not fit"),
        ("3\n0 100000000000000000000\n", "line 2: vertex id 100000000000000000000 out of range"),
    ],
)
def test_ids_beyond_int64_name_the_line(text, message):
    with pytest.raises(EdgeListError, match=message):
        load_graph(text)
    with pytest.raises(EdgeListError, match=message):
        ref.load_graph(text)


def test_a_header_within_int64_is_a_vertex_count():
    g = load_graph("9223372036854775807\n0 1\n")
    assert g.n == 2**63 - 1 and g.m == 1


def test_accepted_text_is_what_int_and_float_accept():
    g = load_graph("12\r\n+1\t1_0 \x0c\x0c")
    assert (g.n, g.edges) == (12, [(1, 10)])
    with pytest.raises(EdgeListError, match="line 1: expected an integer header"):
        load_graph("\ufeff2\n0 1\n")  # a byte-order mark is not whitespace
    f = load_features(" 1 , 1_0 ,+2\r\n# c\n\n0,1e-3,-0.0\x0c", DirectedGraph.from_edges(2, []))
    assert f.values.tolist() == [[1e-3, -0.0], [10.0, 2.0]]
    assert np.signbit(f.values[0, 1])


def test_full_size_round_trip():
    rng = np.random.default_rng(11)
    n = 4000
    parents = rng.integers(0, np.arange(1, n))
    extra = rng.integers(0, n, size=(3000, 2))
    extra = extra[extra[:, 0] != extra[:, 1]]
    edges = np.concatenate([np.column_stack((parents, np.arange(1, n))), extra])
    graph = DirectedGraph.from_edges(n, edges)
    scales = 10.0 ** rng.integers(-8, 8, size=(n, 1))
    features = FeatureMatrix.from_array(rng.normal(0.0, 10.0, size=(n, 10)) * scales)

    edge_text = graph_to_edge_list(graph)
    back = load_graph(edge_text)
    assert outcome(load_graph, edge_text) == outcome(ref.load_graph, edge_text)
    assert back.n == n and np.array_equal(back.edge_src, graph.edge_src)
    assert np.array_equal(back.edge_dst, graph.edge_dst)

    table = features_to_table(features)
    lines = table.splitlines()
    shuffled = "\r\n".join(lines[i] for i in rng.permutation(n)) + "\r\n"
    for text in (table, shuffled):
        parsed = load_features(text, back)
        assert parsed.values.tobytes() == features.values.tobytes()
        assert outcome(load_features, text, back) == outcome(ref.load_features, text, back)
