"""Containers for directed graphs, vertex features, penalties, and ordered partitions.

Vertices are dense integers 0..n-1.  Group indices run from 1 to k and their
order is meaningful: an edge from a lower-indexed group to a higher-indexed
group is a *forward* cross edge, the reverse is a *backward* cross edge.
Edges inside a group carry no penalty.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import compress, repeat
from operator import itemgetter, ne
from typing import IO, NoReturn, Union

import numpy as np

TextSource = Union[str, bytes, IO]

_INT64_MIN, _INT64_MAX = -(2**63), 2**63 - 1
_CHUNK = 256  # lines per join and split in the bulk parsers


class EdgeListError(ValueError):
    """Malformed or inconsistent edge-list input."""


class FeatureFileError(ValueError):
    """Malformed or inconsistent feature-table input."""


def _read_text(source: TextSource) -> str:
    if isinstance(source, bytes):
        return source.decode("utf-8")
    if isinstance(source, str):
        return source
    data = source.read()
    if isinstance(data, bytes):
        return data.decode("utf-8")
    return data


def _content_lines(source: TextSource):
    """Yield (line_number, stripped_text) for non-empty, non-comment lines."""
    for lineno, raw in enumerate(_read_text(source).splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        yield lineno, line


def _content(text: str) -> list[str]:
    """The lines `_content_lines` yields, without their numbers."""
    lines = list(filter(None, map(str.strip, text.splitlines())))
    return list(compress(lines, map(ne, map(itemgetter(0), lines), repeat("#"))))  # drop '#' lines


def _columns(lines: list[str], sep, width: int, convert, dtype) -> tuple[np.ndarray, np.ndarray]:
    """(first, rest): each line's first token by `int`, its other tokens by `convert`.

    Every line holds `width` tokens split at `sep` (whitespace when None).
    Lines are joined and split `_CHUNK` at a time, so the token lists alive at
    once stay small whatever the table's length.  Raises ValueError for a
    token its converter rejects and OverflowError for an id beyond int64.
    """
    count = len(lines)
    first = np.empty(count, dtype=np.int64)
    rest = np.empty((count, width - 1), dtype=dtype)
    for start in range(0, count, _CHUNK):
        stop = min(start + _CHUNK, count)
        tokens = (sep or " ").join(lines[start:stop]).split(sep)
        first[start:stop] = np.fromiter(map(int, tokens[::width]), np.int64, stop - start)
        for j in range(1, width):
            column = map(convert, tokens[j::width])
            rest[start:stop, j - 1] = np.fromiter(column, dtype, stop - start)
    return first, rest


def _csr(n: int, keys: np.ndarray, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(indptr, values grouped by key): a stable sort keeps each key's edge order."""
    order = np.argsort(keys, kind="stable")
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(keys, minlength=n), out=indptr[1:])
    grouped = values[order]
    for arr in (indptr, grouped):
        arr.setflags(write=False)
    return indptr, grouped


def _interleave(a, b) -> np.ndarray:
    """Rows a[0], b[0], a[1], b[1], ...; a scalar stands for a constant array."""
    a, b = np.asarray(a), np.asarray(b)
    rows = a if a.ndim else b
    out = np.empty((2 * len(rows),) + rows.shape[1:], dtype=np.result_type(a, b))
    out[0::2], out[1::2] = a, b
    return out


def _csr_rows(indptr: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(positions, lengths): where the entries of `rows` sit in a CSR value array, row after row."""
    starts, ends = indptr[rows], indptr[rows + 1]
    lengths = ends - starts
    stops = np.cumsum(lengths)  # where each row ends in the output
    total = int(stops[-1]) if stops.size else 0
    return np.arange(total) + np.repeat(ends - stops, lengths), lengths


@dataclass(frozen=True, eq=False)
class DirectedGraph:
    """Immutable directed multigraph over vertices 0..n-1.

    Edge e runs from `edge_src[e]` to `edge_dst[e]`; both are read-only
    int64 arrays in edge order.  Parallel edges are kept and each counts
    separately toward cross-edge penalties.  Self-loops are rejected: under
    an ordered partition a self-loop is neither forward nor backward, so
    such input is ambiguous.  Neighbors are read from the compressed rows
    of `adjacency`, one row per vertex over both edge directions.
    """

    n: int
    edge_src: np.ndarray
    edge_dst: np.ndarray

    @classmethod
    def from_edges(cls, n: int, edges) -> "DirectedGraph":
        """Graph from (u, v) pairs or an (m, 2) integer array, in edge order.

        The error for invalid input names the first bad edge.
        """
        if n < 0:
            raise EdgeListError(f"vertex count must be non-negative, got {n}")
        if n > _INT64_MAX:
            raise EdgeListError(f"vertex count {n} does not fit in a 64-bit integer")
        if not isinstance(edges, np.ndarray):
            edges = list(edges)
        try:
            pairs = np.array(edges, dtype=np.int64)
        except (TypeError, ValueError, OverflowError) as exc:
            raise EdgeListError(f"edges must be (u, v) pairs of integers: {exc}") from None
        if pairs.shape == (0,):
            pairs = pairs.reshape(0, 2)
        if pairs.ndim != 2 or pairs.shape[1] != 2:
            raise EdgeListError(f"edges must be (u, v) pairs, got shape {pairs.shape}")
        src, dst = pairs.T.copy()
        out_of_range = (src < 0) | (src >= n) | (dst < 0) | (dst >= n)
        bad = out_of_range | (src == dst)
        if bad.any():
            e = int(bad.argmax())
            u, v = int(src[e]), int(dst[e])
            if out_of_range[e]:
                raise EdgeListError(f"edge ({u}, {v}) out of range for n={n}")
            raise EdgeListError(f"self-loop at vertex {u} is not allowed")
        for arr in (src, dst):
            arr.setflags(write=False)
        return cls(n=n, edge_src=src, edge_dst=dst)

    @property
    def m(self) -> int:
        return self.edge_src.size

    @property
    def edges(self) -> list[tuple[int, int]]:
        """The (u, v) pairs in edge order, built on each access."""
        return list(zip(self.edge_src.tolist(), self.edge_dst.tolist()))

    @cached_property
    def adjacency(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(indptr, nbr, incoming): row v is nbr[indptr[v]:indptr[v + 1]].

        The row lists v's out-neighbors in edge order, then its in-neighbors
        in edge order, and `incoming` flags the second kind.  All three
        arrays are read-only.
        """
        indptr, slot = _csr(self.n, np.concatenate((self.edge_src, self.edge_dst)), np.arange(2 * self.m))
        incoming = slot >= self.m
        nbr = np.concatenate((self.edge_dst, self.edge_src))[slot]
        for arr in (nbr, incoming):
            arr.setflags(write=False)
        return indptr, nbr, incoming


def load_graph(source: TextSource) -> DirectedGraph:
    """Parse the edge-list text format.

    The first non-comment line may be a single integer giving the vertex
    count; every other line is "src dst".  Without a header the vertex count
    is one plus the largest id seen.  Blank lines and lines starting with '#'
    are ignored.  The error for invalid input names the first bad line.
    """
    text = _read_text(source)
    lines = _content(text)
    if not lines:
        raise EdgeListError("empty edge-list input")
    widths = np.fromiter(map(len, map(str.split, lines)), np.intp, len(lines))
    first = 1 if widths[0] == 1 else 0  # a header takes the first line
    if (widths[first:] != 2).any():
        _reject_edge_list(text)
    try:
        n = int(lines[0]) if first else None
        src, dst = _columns(lines[first:], None, 2, int, np.int64)
    except (ValueError, OverflowError):
        _reject_edge_list(text)
    dst = dst[:, 0]
    if n is not None and not 0 <= n <= _INT64_MAX:
        _reject_edge_list(text)
    bad = (src < 0) | (dst < 0) | (src == dst)
    if n is not None:
        bad |= (src >= n) | (dst >= n)
    if bad.any():
        _reject_edge_list(text)
    if n is None:
        n = int(max(src.max(), dst.max())) + 1
    return DirectedGraph.from_edges(n, np.column_stack((src, dst)))


def _reject_edge_list(text: str) -> NoReturn:
    """Raise the error of the first bad edge-list line, once the bulk pass has failed."""
    declared_n = None
    for i, (lineno, line) in enumerate(_content_lines(text)):
        tokens = line.split()
        if i == 0 and len(tokens) == 1:
            try:
                declared_n = int(tokens[0])
            except ValueError:
                raise EdgeListError(
                    f"line {lineno}: expected an integer header, got {line!r}"
                ) from None
            if declared_n < 0:
                raise EdgeListError(f"line {lineno}: negative vertex count {declared_n}")
            if declared_n > _INT64_MAX:
                raise EdgeListError(
                    f"line {lineno}: vertex count {declared_n} does not fit in a 64-bit integer"
                )
            continue
        if len(tokens) != 2:
            raise EdgeListError(f"line {lineno}: expected 'src dst', got {line!r}")
        try:
            u, v = int(tokens[0]), int(tokens[1])
        except ValueError:
            raise EdgeListError(f"line {lineno}: non-integer vertex id in {line!r}") from None
        if u < 0 or v < 0:
            raise EdgeListError(f"line {lineno}: negative vertex id in {line!r}")
        if declared_n is not None and max(u, v) >= declared_n:
            raise EdgeListError(
                f"line {lineno}: vertex id {max(u, v)} out of range for declared n={declared_n}"
            )
        if max(u, v) > _INT64_MAX:
            raise EdgeListError(
                f"line {lineno}: vertex id {max(u, v)} does not fit in a 64-bit integer"
            )
        if u == v:
            raise EdgeListError(f"line {lineno}: self-loop at vertex {u} is not allowed")
    raise AssertionError("the bulk pass rejected an edge list whose lines all check")


def graph_to_edge_list(graph: DirectedGraph) -> str:
    """Serialize back to the edge-list text format (header + one line per edge)."""
    lines = [str(graph.n)]
    lines.extend(f"{u} {v}" for u, v in graph.edges)
    return "\n".join(lines) + "\n"


@dataclass(frozen=True, eq=False)
class FeatureMatrix:
    """n x d matrix of finite real feature vectors, one row per vertex."""

    values: np.ndarray

    @classmethod
    def from_array(cls, values) -> "FeatureMatrix":
        arr = np.array(values, dtype=np.float64)
        if arr.ndim != 2:
            raise FeatureFileError(f"feature matrix must be 2-dimensional, got shape {arr.shape}")
        if not np.isfinite(arr).all():
            raise FeatureFileError("feature matrix contains a non-finite value")
        arr.setflags(write=False)
        return cls(values=arr)

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def d(self) -> int:
        return self.values.shape[1]


def load_features(source: TextSource, graph: DirectedGraph) -> FeatureMatrix:
    """Parse the comma-separated feature table: one "vertex_id,f1,...,fd" line per vertex.

    Every vertex of the graph must appear exactly once, in any order; all
    rows must share one dimension and contain only finite values.  Blank
    lines and lines starting with '#' are ignored.  The error for invalid
    input names the first bad line.
    """
    text = _read_text(source)
    lines = _content(text)
    n = graph.n
    ids, rows = np.empty(0, dtype=np.int64), np.empty((0, 0))
    if lines:
        commas = np.fromiter(map(str.count, lines, repeat(",")), np.intp, len(lines))
        d = int(commas[0])
        if d < 1 or (commas != d).any():
            _reject_feature_table(text, n)
        try:
            ids, rows = _columns(lines, ",", d + 1, float, np.float64)
        except (ValueError, OverflowError):
            _reject_feature_table(text, n)
        order = np.sort(ids)
        if order[0] < 0 or order[-1] >= n or (order[1:] == order[:-1]).any():
            _reject_feature_table(text, n)
        if not np.isfinite(rows).all():
            _reject_feature_table(text, n)
    if ids.size < n:
        # ids are distinct and in range, so the first five gaps lie below ids.size + 5
        missing = np.setdiff1d(np.arange(min(n, ids.size + 5)), ids)[:5]
        shown = ", ".join(map(str, missing.tolist()))
        raise FeatureFileError(f"missing feature row for vertex id(s): {shown}")
    values = np.empty_like(rows)
    values[ids] = rows
    return FeatureMatrix.from_array(values)


def _reject_feature_table(text: str, n: int) -> NoReturn:
    """Raise the error of the first bad feature-table line, once the bulk pass has failed."""
    seen: set[int] = set()
    dim = None
    for lineno, line in _content_lines(text):
        tokens = [t.strip() for t in line.split(",")]
        if len(tokens) < 2:
            raise FeatureFileError(f"line {lineno}: expected 'vertex_id,f1,...', got {line!r}")
        try:
            vid = int(tokens[0])
        except ValueError:
            raise FeatureFileError(f"line {lineno}: non-integer vertex id {tokens[0]!r}") from None
        if vid < 0 or vid >= n:
            raise FeatureFileError(f"line {lineno}: vertex id {vid} out of range for n={n}")
        if vid in seen:
            raise FeatureFileError(f"line {lineno}: duplicate row for vertex {vid}")
        try:
            feats = [float(t) for t in tokens[1:]]
        except ValueError:
            raise FeatureFileError(
                f"line {lineno}: non-numeric feature value in {line!r}"
            ) from None
        if not all(map(math.isfinite, feats)):
            raise FeatureFileError(f"line {lineno}: non-finite feature value for vertex {vid}")
        if dim is None:
            dim = len(feats)
        elif len(feats) != dim:
            raise FeatureFileError(
                f"line {lineno}: vertex {vid} has {len(feats)} features, expected {dim}"
            )
        seen.add(vid)
    raise AssertionError("the bulk pass rejected a feature table whose lines all check")


def features_to_table(features: FeatureMatrix) -> str:
    """Serialize a feature matrix to the comma-separated table format."""
    lines = []
    for v in range(features.n):
        vals = ",".join(repr(float(x)) for x in features.values[v])
        lines.append(f"{v},{vals}")
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class Penalties:
    """Cross-edge weight pair (lambda_f, lambda_b); either may be math.inf.

    `split` is the one place a weight meets an edge count: it prices counts
    as (count of infinitely weighted edges, finite penalty), and every cost,
    move delta and cut arc is built from those two parts.  An infinite weight
    is never multiplied, so a zero count costs zero even at infinite weight.
    """

    lambda_f: float
    lambda_b: float

    def __post_init__(self):
        object.__setattr__(self, "lambda_f", float(self.lambda_f))
        object.__setattr__(self, "lambda_b", float(self.lambda_b))
        for name in ("lambda_f", "lambda_b"):
            val = getattr(self, name)
            if math.isnan(val) or val < 0:
                raise ValueError(f"{name} must be a non-negative real or inf, got {val}")

    @property
    def is_zero(self) -> bool:
        """Both weights are 0: the objective is plain clustering."""
        return self.lambda_f == 0 and self.lambda_b == 0

    def split(self, forward, backward):
        """(count of infinitely weighted edges, finite penalty) of edge counts.

        Works elementwise on numpy arrays as on scalars, and on signed count
        changes as on counts.  Infinite weights are never multiplied, so a
        zero count contributes zero at infinite weight, and costs compare
        lexicographically by the two parts where plain sums would all be inf.
        """
        inf_edges, finite = 0, 0.0
        if math.isinf(self.lambda_f):
            inf_edges = forward
        else:
            finite = self.lambda_f * forward
        if math.isinf(self.lambda_b):
            inf_edges = inf_edges + backward
        else:
            finite = finite + self.lambda_b * backward
        return inf_edges, finite


@dataclass(frozen=True, eq=False)
class OrderedPartition:
    """Assignment of each vertex to one of k ordered groups (values 1..k)."""

    k: int
    assign: np.ndarray

    @classmethod
    def from_labels(cls, k: int, labels) -> "OrderedPartition":
        if k < 1:
            raise ValueError(f"group count must be at least 1, got {k}")
        arr = np.array(labels, dtype=np.int64)
        if arr.ndim != 1:
            raise ValueError("assignment must be a 1-dimensional array")
        if arr.size and (arr.min() < 1 or arr.max() > k):
            raise ValueError(f"group labels must lie in 1..{k}")
        arr.setflags(write=False)
        return cls(k=k, assign=arr)

    @property
    def n(self) -> int:
        return self.assign.shape[0]

    def members(self, group: int) -> np.ndarray:
        return np.flatnonzero(self.assign == group)

    def group_sizes(self) -> np.ndarray:
        """Sizes indexed by group id (index 0 unused)."""
        return np.bincount(self.assign, minlength=self.k + 1)
