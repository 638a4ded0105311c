"""Vertex-by-vertex tree DP, kept as the reference for the level-by-level one.

This is the straightforward fill: every vertex in reversed preorder adds its
children's branch optima one by one, then scans its row for the prefix and
suffix minima; the backtrack walks the forest with an explicit stack.  The
library's fill must reproduce its tables, labels and cost bit for bit.
"""

from __future__ import annotations

import math

import numpy as np

from digseg.treedp import DpTables
from digseg.objective import vertex_group_costs


def reference_dp_tables(graph, features, centroids, penalties) -> DpTables:
    roots = [v for v in range(graph.n) if not graph.in_adj[v]]
    pre: list[int] = []
    for r in roots:
        stack = [r]
        while stack:
            v = stack.pop()
            pre.append(v)
            stack.extend(graph.out_adj[v])
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
        for w in graph.out_adj[v]:
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
    return DpTables(c=c, ell=ell, u=u, ell_arg=ell_arg, u_arg=u_arg, roots=roots)


def reference_solve(graph, features, centroids, penalties) -> tuple[np.ndarray, float]:
    """(labels 1..k, cost) by an explicit-stack backtrack over the reference tables."""
    tables = reference_dp_tables(graph, features, centroids, penalties)
    lam_f, lam_b = penalties.lambda_f, penalties.lambda_b
    assign = np.ones(graph.n, dtype=np.int64)
    total = 0.0
    for r in tables.roots:
        root_col = int(np.argmin(tables.c[r]))
        total += float(tables.c[r, root_col])
        stack = [(r, root_col)]
        while stack:
            v, col = stack.pop()
            assign[v] = col + 1
            for w in graph.out_adj[v]:
                same = tables.c[w, col]
                fwd = lam_f + tables.u[w, col]
                bwd = lam_b + tables.ell[w, col]
                if same <= fwd and same <= bwd:
                    child_col = col
                elif fwd <= bwd:
                    child_col = int(tables.u_arg[w, col])
                else:
                    child_col = int(tables.ell_arg[w, col])
                stack.append((w, child_col))
    return assign, total
