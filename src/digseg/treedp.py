"""Exact fixed-center partitioning of arborescence forests by dynamic programming.

For each vertex v and group i, `c[v, i]` is the optimal cost of partitioning
the subtree rooted at v with v placed in group i.  A child w of v either
shares v's group (cost c[w, i]), sits in a later group (forward edge,
lambda_f + u[w, i]) or in an earlier one (backward edge, lambda_b + l[w, i]),
where l and u are prefix/suffix minima of c over groups.

The tables are filled one depth level at a time, deepest first, over whole
arrays: a level's prefix and suffix minima come from `np.minimum.accumulate`,
and its children's branch optima are pushed into their parents with
`np.add.at` in edge order, so every sum is added in the same order as a
vertex-by-vertex fill.  The backtrack is one gather per level, roots first.
Python-level work is therefore proportional to the forest's depth, and an
arbitrarily deep path needs no recursion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import DirectedGraph, FeatureMatrix, OrderedPartition, Penalties
from .objective import Centroids, vertex_group_costs


class ArborescenceError(ValueError):
    """The graph is not a forest of arborescences."""


def check_arborescence(graph: DirectedGraph) -> list[int]:
    """Return the root vertices if the graph is a forest of arborescences.

    Requires in-degree <= 1 everywhere and no cycles; the error names an
    offending vertex: the lowest one with two parents, or a vertex on a
    directed cycle.
    """
    n = graph.n
    in_degree = np.bincount(graph.edge_dst, minlength=n)
    crowded = np.flatnonzero(in_degree > 1)
    if crowded.size:
        v = int(crowded[0])
        raise ArborescenceError(
            f"vertex {v} has in-degree {in_degree[v]}; trees require at most 1"
        )
    parent = np.full(n, -1, dtype=np.int64)
    parent[graph.edge_dst] = graph.edge_src
    # Pointer doubling: after ceil(log2 n) rounds every vertex of a tree points
    # at its root, and every other vertex at a vertex that still has a parent.
    top = np.where(parent < 0, np.arange(n), parent)
    for _ in range(max(n - 1, 1).bit_length()):
        top = top[top]
    unreached = np.flatnonzero(parent[top] >= 0)
    if unreached.size:
        # Every vertex reached by walking up from an unreached one is unreached,
        # so the walk ends on the cycle above it.
        v, seen = int(unreached[0]), set()
        while v not in seen:
            seen.add(v)
            v = int(parent[v])
        raise ArborescenceError(f"vertex {v} lies on a directed cycle")
    return np.flatnonzero(in_degree == 0).tolist()


@dataclass(frozen=True, eq=False)
class TreeLayout:
    """Breadth-first levels of an arborescence forest.

    `levels[0]` holds the roots in ascending order and `levels[L + 1]` the
    children of `levels[L]`, parent by parent, each parent's children in edge
    order.  `parent[v]` is v's parent, -1 at roots.  The layout depends only
    on the graph, so one layout serves every solve on it.
    """

    levels: tuple[np.ndarray, ...]
    parent: np.ndarray

    @classmethod
    def from_graph(cls, graph: DirectedGraph) -> "TreeLayout":
        """Check that `graph` is an arborescence forest and lay it out."""
        roots = np.asarray(check_arborescence(graph), dtype=np.int64)
        indptr, heads = graph.out_csr
        parent = np.full(graph.n, -1, dtype=np.int64)
        parent[graph.edge_dst] = graph.edge_src
        levels = [roots]
        while True:
            first, last = indptr[levels[-1]], indptr[levels[-1] + 1]
            sizes = last - first
            total = int(sizes.sum())
            if total == 0:
                break
            # Offsets into `heads` of every child of the level, parent by parent.
            levels.append(heads[np.repeat(last - np.cumsum(sizes), sizes) + np.arange(total)])
        return cls(levels=tuple(levels), parent=parent)


@dataclass(frozen=True, eq=False)
class DpTables:
    """Per-vertex cost tables (columns are groups 1..k, stored 0-based).

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


def compute_dp_tables(
    graph: DirectedGraph,
    features: FeatureMatrix,
    centroids: Centroids,
    penalties: Penalties,
    layout: Optional[TreeLayout] = None,
) -> DpTables:
    """Fill the dynamic-programming tables for an arborescence forest.

    `layout` must be `TreeLayout.from_graph(graph)`; it is built when omitted.
    """
    if layout is None:
        layout = TreeLayout.from_graph(graph)
    k = centroids.k
    lam_f, lam_b = penalties.lambda_f, penalties.lambda_b
    c = vertex_group_costs(features, centroids)
    ell = np.empty_like(c)
    u = np.empty_like(c)
    ell[:, 0] = math.inf
    u[:, -1] = math.inf
    for depth in range(len(layout.levels) - 1, -1, -1):
        vs = layout.levels[depth]
        rows = c[vs]  # final: every child of the level has been pushed
        ell[vs, 1:] = np.minimum.accumulate(rows[:, :-1], axis=1)
        u[vs, :-1] = np.minimum.accumulate(rows[:, :0:-1], axis=1)[:, ::-1]
        if depth:
            branch = np.minimum(rows, np.minimum(lam_f + u[vs], lam_b + ell[vs]))
            np.add.at(c, layout.parent[vs], branch)

    # A group is the running argmin where it beats the running minimum:
    # strictly from the left, so ties keep the lowest group, and non-strictly
    # from the right, which reaches the same lowest group.
    cols = np.arange(k)
    ell_arg = np.full(c.shape, -1, dtype=np.int64)
    u_arg = np.full(c.shape, -1, dtype=np.int64)
    ell_arg[:, 1:] = np.maximum.accumulate(np.where(c < ell, cols, -1), axis=1)[:, :-1]
    u_arg[:, :-1] = np.minimum.accumulate(np.where(c <= u, cols, k)[:, ::-1], axis=1)[:, -2::-1]
    return DpTables(
        c=c, ell=ell, u=u, ell_arg=ell_arg, u_arg=u_arg, roots=layout.levels[0].tolist()
    )


def solve_tree_partition(
    graph: DirectedGraph,
    features: FeatureMatrix,
    centroids: Centroids,
    penalties: Penalties,
    layout: Optional[TreeLayout] = None,
) -> tuple[OrderedPartition, float]:
    """Exact minimizer of the fixed-center objective on an arborescence forest.

    Groups with undefined centers are treated as forbidden (infinite point
    cost).  Tie-breaking is deterministic: equal branch cases prefer keeping
    the parent's group over a forward edge over a backward edge, and equal
    root costs prefer the lowest group.  The forest optimum is the sum of the
    per-tree optima.  `layout` must be `TreeLayout.from_graph(graph)`; it is
    built when omitted, and passing it saves the check and the breadth-first
    pass when the same forest is solved repeatedly.
    """
    if layout is None:
        layout = TreeLayout.from_graph(graph)
    tables = compute_dp_tables(graph, features, centroids, penalties, layout)
    c = tables.c
    fwd = penalties.lambda_f + tables.u
    bwd = penalties.lambda_b + tables.ell
    # choice[w, i]: w's group when its parent sits in group i.
    choice = np.where(
        (c <= fwd) & (c <= bwd),
        np.arange(centroids.k),
        np.where(fwd <= bwd, tables.u_arg, tables.ell_arg),
    )
    col = np.empty(graph.n, dtype=np.int64)
    roots = layout.levels[0]
    col[roots] = np.argmin(c[roots], axis=1)
    total = 0.0
    # Added root by root: np.sum and sum() may round differently.
    for cost in c[roots, col[roots]].tolist():
        total += cost
    for vs in layout.levels[1:]:
        col[vs] = choice[vs, col[layout.parent[vs]]]
    return OrderedPartition.from_labels(centroids.k, col + 1), total
