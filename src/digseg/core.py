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
from typing import IO, Union

import numpy as np

TextSource = Union[str, bytes, IO]


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


def _csr(n: int, keys: np.ndarray, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(indptr, values grouped by key): a stable sort keeps each key's edge order."""
    order = np.argsort(keys, kind="stable")
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(keys, minlength=n), out=indptr[1:])
    grouped = values[order]
    for arr in (indptr, grouped):
        arr.setflags(write=False)
    return indptr, grouped


@dataclass(frozen=True, eq=False)
class DirectedGraph:
    """Immutable directed multigraph over vertices 0..n-1.

    Edge e runs from `edge_src[e]` to `edge_dst[e]`; both are read-only
    int64 arrays in edge order.  Parallel edges are kept and each counts
    separately toward cross-edge penalties.  Self-loops are rejected: under
    an ordered partition a self-loop is neither forward nor backward, so
    such input is ambiguous.  Neighbors are read from the compressed rows
    `out_csr` / `in_csr`, which list each vertex's neighbors in edge order.
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
    def out_csr(self) -> tuple[np.ndarray, np.ndarray]:
        """(indptr, heads): the out-neighbors of v are heads[indptr[v]:indptr[v + 1]]."""
        return _csr(self.n, self.edge_src, self.edge_dst)

    @cached_property
    def in_csr(self) -> tuple[np.ndarray, np.ndarray]:
        """(indptr, tails): the in-neighbors of v are tails[indptr[v]:indptr[v + 1]]."""
        return _csr(self.n, self.edge_dst, self.edge_src)


def load_graph(source: TextSource) -> DirectedGraph:
    """Parse the edge-list text format.

    The first non-comment line may be a single integer giving the vertex
    count; every other line is "src dst".  Without a header the vertex count
    is one plus the largest id seen.  Lines starting with '#' are ignored.
    """
    declared_n = None
    ids: list[int] = []  # src, dst of each edge in turn
    max_id = -1
    saw_content = False
    for lineno, line in _content_lines(source):
        tokens = line.split()
        if not saw_content and len(tokens) == 1:
            saw_content = True
            try:
                declared_n = int(tokens[0])
            except ValueError:
                raise EdgeListError(f"line {lineno}: expected an integer header, got {line!r}")
            if declared_n < 0:
                raise EdgeListError(f"line {lineno}: negative vertex count {declared_n}")
            continue
        saw_content = True
        if len(tokens) != 2:
            raise EdgeListError(f"line {lineno}: expected 'src dst', got {line!r}")
        try:
            u, v = int(tokens[0]), int(tokens[1])
        except ValueError:
            raise EdgeListError(f"line {lineno}: non-integer vertex id in {line!r}")
        if u < 0 or v < 0:
            raise EdgeListError(f"line {lineno}: negative vertex id in {line!r}")
        if declared_n is not None and (u >= declared_n or v >= declared_n):
            raise EdgeListError(
                f"line {lineno}: vertex id {max(u, v)} out of range for declared n={declared_n}"
            )
        if u == v:
            raise EdgeListError(f"line {lineno}: self-loop at vertex {u} is not allowed")
        ids += (u, v)
        max_id = max(max_id, u, v)
    if not saw_content:
        raise EdgeListError("empty edge-list input")
    n = declared_n if declared_n is not None else max_id + 1
    return DirectedGraph.from_edges(n, np.array(ids, dtype=np.int64).reshape(-1, 2))


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

    def row(self, v: int) -> np.ndarray:
        return self.values[v]


def load_features(source: TextSource, graph: DirectedGraph) -> FeatureMatrix:
    """Parse the comma-separated feature table: one "vertex_id,f1,...,fd" line per vertex.

    Every vertex of the graph must appear exactly once; all rows must share
    one dimension and contain only finite values.
    """
    rows: dict[int, list[float]] = {}
    dim = None
    for lineno, line in _content_lines(source):
        tokens = [t.strip() for t in line.split(",")]
        if len(tokens) < 2:
            raise FeatureFileError(f"line {lineno}: expected 'vertex_id,f1,...', got {line!r}")
        try:
            vid = int(tokens[0])
        except ValueError:
            raise FeatureFileError(f"line {lineno}: non-integer vertex id {tokens[0]!r}")
        if vid < 0 or vid >= graph.n:
            raise FeatureFileError(f"line {lineno}: vertex id {vid} out of range for n={graph.n}")
        if vid in rows:
            raise FeatureFileError(f"line {lineno}: duplicate row for vertex {vid}")
        try:
            feats = [float(t) for t in tokens[1:]]
        except ValueError:
            raise FeatureFileError(f"line {lineno}: non-numeric feature value in {line!r}")
        if any(not math.isfinite(x) for x in feats):
            raise FeatureFileError(f"line {lineno}: non-finite feature value for vertex {vid}")
        if dim is None:
            dim = len(feats)
        elif len(feats) != dim:
            raise FeatureFileError(
                f"line {lineno}: vertex {vid} has {len(feats)} features, expected {dim}"
            )
        rows[vid] = feats
    missing = [v for v in range(graph.n) if v not in rows]
    if missing:
        shown = ", ".join(map(str, missing[:5]))
        raise FeatureFileError(f"missing feature row for vertex id(s): {shown}")
    if graph.n == 0:
        return FeatureMatrix.from_array(np.zeros((0, 0)))
    return FeatureMatrix.from_array([rows[v] for v in range(graph.n)])


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

    Arithmetic saturates: an infinite weight absorbs addition and dominates
    comparison, and a zero edge count contributes zero even at infinite
    weight.
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

    def cross_cost(self, forward, backward):
        """Total penalty of the given cross-edge counts (0 * inf == 0).

        Elementwise on numpy arrays, like `split`; scalars give a float.
        """
        inf_edges, finite = self.split(forward, backward)
        return _float_if_scalar(np.where(inf_edges != 0, math.inf, finite))

    def cross_cost_delta(self, d_forward, d_backward):
        """Signed penalty change for count changes (d_forward, d_backward).

        With an infinite weight, the sign of the net change in the count of
        infinitely-penalized edges decides the result: gaining such an edge
        yields +inf, shedding one yields -inf, and an unchanged count falls
        back to the finite part.  Elementwise like `cross_cost`.
        """
        inf_change, finite = self.split(d_forward, d_backward)
        delta = np.where(inf_change > 0, math.inf, np.where(inf_change < 0, -math.inf, finite))
        return _float_if_scalar(delta)


def _float_if_scalar(x: np.ndarray):
    return float(x) if x.ndim == 0 else x


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
