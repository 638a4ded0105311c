"""Vertex-by-vertex tree DP, kept as the reference for the level-by-level one.

This is the straightforward fill: every vertex in reversed preorder adds its
children's branch optima one by one, then scans its row for the prefix and
suffix minima with the lowest groups attaining them; the backtrack walks the
forest with an explicit stack, picking each child's group from those tables.
The library must reproduce its cost table `c`, its back-pointers `choice` on
every non-root row, its labels and its cost bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from digseg.objective import vertex_group_costs


def children_lists(graph) -> list[list[int]]:
    """Each vertex's children in edge order, built from the edge pairs."""
    kids: list[list[int]] = [[] for _ in range(graph.n)]
    for u, v in graph.edges:
        kids[u].append(v)
    return kids


@dataclass(frozen=True, eq=False)
class ReferenceTables:
    """Per-vertex tables (columns are groups 1..k, stored 0-based).

    `ell[v, i]` / `u[v, i]` are the cheapest costs of placing v strictly
    below / above group i+1, with `ell_arg` / `u_arg` holding the smallest
    0-based group attaining them (-1 where the range is empty, and in
    `ell_arg` also where every group of the range costs inf).
    """

    c: np.ndarray
    ell: np.ndarray
    u: np.ndarray
    ell_arg: np.ndarray
    u_arg: np.ndarray
    roots: list[int]
    lambda_f: float
    lambda_b: float

    def child_group(self, w: int, col: int) -> int:
        """w's 0-based group when its parent sits in group `col`."""
        same = self.c[w, col]
        fwd = self.lambda_f + self.u[w, col]
        bwd = self.lambda_b + self.ell[w, col]
        if same <= fwd and same <= bwd:
            return col
        if fwd <= bwd:
            return int(self.u_arg[w, col])
        return int(self.ell_arg[w, col])

    def choice(self) -> np.ndarray:
        """`child_group` for every vertex and parent group, an (n, k) array."""
        n, k = self.c.shape
        return np.array(
            [[self.child_group(w, col) for col in range(k)] for w in range(n)], dtype=np.int64
        )


def reference_dp_tables(graph, features, centroids, penalties) -> ReferenceTables:
    kids = children_lists(graph)
    has_parent = {v for _, v in graph.edges}
    roots = [v for v in range(graph.n) if v not in has_parent]
    pre: list[int] = []
    for r in roots:
        stack = [r]
        while stack:
            v = stack.pop()
            pre.append(v)
            stack.extend(kids[v])
    assert len(pre) == graph.n, "not an arborescence forest"

    n, k = graph.n, centroids.k
    lam_f, lam_b = penalties.lambda_f, penalties.lambda_b
    point_costs = vertex_group_costs(features, centroids)
    c = np.empty((n, k), dtype=np.float64)
    ell = np.empty((n, k), dtype=np.float64)
    u = np.empty((n, k), dtype=np.float64)
    ell_arg = np.full((n, k), -1, dtype=np.int64)
    u_arg = np.full((n, k), -1, dtype=np.int64)
    for v in reversed(pre):
        row = point_costs[v].copy()
        for w in kids[v]:
            row += np.minimum(c[w], np.minimum(lam_f + u[w], lam_b + ell[w]))
        c[v] = row
        best, arg = math.inf, -1
        for i in range(k):
            ell[v, i] = best
            ell_arg[v, i] = arg
            if row[i] < best:  # strict: ties keep the lowest group
                best, arg = row[i], i
        best, arg = math.inf, -1
        for i in range(k - 1, -1, -1):
            u[v, i] = best
            u_arg[v, i] = arg
            if row[i] <= best:  # non-strict from the right: ties keep the lowest group
                best, arg = row[i], i
    return ReferenceTables(
        c=c, ell=ell, u=u, ell_arg=ell_arg, u_arg=u_arg, roots=roots,
        lambda_f=lam_f, lambda_b=lam_b,
    )


def reference_solve(graph, features, centroids, penalties) -> tuple[np.ndarray, float]:
    """(labels 1..k, cost) by an explicit-stack backtrack over the reference tables."""
    tables = reference_dp_tables(graph, features, centroids, penalties)
    kids = children_lists(graph)
    assign = np.ones(graph.n, dtype=np.int64)
    total = 0.0
    for r in tables.roots:
        root_col = int(np.argmin(tables.c[r]))
        total += float(tables.c[r, root_col])
        stack = [(r, root_col)]
        while stack:
            v, col = stack.pop()
            assign[v] = col + 1
            stack.extend((w, tables.child_group(w, col)) for w in kids[v])
    return assign, total
