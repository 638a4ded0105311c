"""Line-by-line parsers, kept as the reference for the bulk parsers in `digseg.core`.

Each walks the content lines in order and checks one line completely before
the next, so the first bad line raises.  The library's `load_graph` and
`load_features` must accept the same text, return the same arrays bit for bit,
and reject bad text with the same error class and message.
"""

from __future__ import annotations

import math

import numpy as np

from digseg.core import (
    DirectedGraph,
    EdgeListError,
    FeatureFileError,
    FeatureMatrix,
    TextSource,
    _content_lines,
)

_INT64_MAX = 2**63 - 1


def load_graph(source: TextSource) -> DirectedGraph:
    """Parse the edge-list text format, one line at a time."""
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
            if declared_n > _INT64_MAX:
                raise EdgeListError(
                    f"line {lineno}: vertex count {declared_n} does not fit in a 64-bit integer"
                )
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
        if max(u, v) > _INT64_MAX:
            raise EdgeListError(
                f"line {lineno}: vertex id {max(u, v)} does not fit in a 64-bit integer"
            )
        if u == v:
            raise EdgeListError(f"line {lineno}: self-loop at vertex {u} is not allowed")
        ids += (u, v)
        max_id = max(max_id, u, v)
    if not saw_content:
        raise EdgeListError("empty edge-list input")
    n = declared_n if declared_n is not None else max_id + 1
    return DirectedGraph.from_edges(n, np.array(ids, dtype=np.int64).reshape(-1, 2))


def load_features(source: TextSource, graph: DirectedGraph) -> FeatureMatrix:
    """Parse the comma-separated feature table, one line at a time."""
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
