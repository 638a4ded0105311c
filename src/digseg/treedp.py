"""Exact fixed-center partitioning of arborescence forests by dynamic programming.

For each vertex v and group i, `c[v, i]` is the optimal cost of partitioning
the subtree rooted at v with v placed in group i.  A child w of v either
shares v's group (cost c[w, i]), sits in a later group (forward edge,
lambda_f + u[w, i]) or in an earlier one (backward edge, lambda_b + l[w, i]),
where l and u are prefix/suffix minima of c over groups.

The fill goes one depth level at a time, deepest first, over whole arrays:
a level's prefix and suffix minima come from `np.minimum.accumulate`, the
fill records each child's best group for every group of its parent (the
back-pointers), and the children's branch optima are pushed into their
parents with `np.add.at` in edge order, so every sum is added in the same
order as a vertex-by-vertex fill.  The backtrack follows the back-pointers
with one gather per level, roots first.
Python-level work is therefore proportional to the forest's depth, and an
arbitrarily deep path needs no recursion.

`tree_step(graph)`, the solver's partition step, lays the forest out once
per run; at zero weights it takes each vertex's nearest center instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .config import Step
from .core import DirectedGraph, FeatureMatrix, OrderedPartition, Penalties, _csr_rows
from .objective import Centroids, LossKey, SolveState, vertex_group_costs


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
        indptr, nbr, incoming = graph.adjacency
        parent = np.full(graph.n, -1, dtype=np.int64)
        parent[graph.edge_dst] = graph.edge_src
        levels = [roots]
        while True:
            pos, _ = _csr_rows(indptr, levels[-1])  # parent by parent
            children = nbr[pos[~incoming[pos]]]
            if children.size == 0:
                break
            levels.append(children)
        return cls(levels=tuple(levels), parent=parent)


def compute_dp_tables(
    graph: DirectedGraph,
    features: FeatureMatrix,
    centroids: Centroids,
    penalties: Penalties,
    layout: Optional[TreeLayout] = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Fill the cost table and the back-pointers for an arborescence forest.

    Returns `(c, choice)`, both (n, k) with groups stored 0-based:
    `c[v, i]` is the optimal cost of v's subtree with v in group i, and
    `choice[w, i]` is w's group in that optimum when w's parent sits in
    group i.  Root rows of `choice` are left unset.  `layout` must be
    `TreeLayout.from_graph(graph)`; it is built when omitted.
    """
    if layout is None:
        layout = TreeLayout.from_graph(graph)
    k = centroids.k
    lam_f, lam_b = penalties.lambda_f, penalties.lambda_b
    c = vertex_group_costs(features, centroids)
    choice = np.empty(c.shape, dtype=np.int64)
    cols = np.arange(k)
    for vs in layout.levels[:0:-1]:
        rows = c[vs]  # final: every child of the level has been pushed
        ell, u = np.full((2, len(vs), k), math.inf)
        ell[:, 1:] = np.minimum.accumulate(rows[:, :-1], axis=1)
        u[:, :-1] = np.minimum.accumulate(rows[:, :0:-1], axis=1)[:, ::-1]
        # The lowest group attaining each minimum: a group is the running
        # argmin where it beats the running minimum, strictly from the left
        # and non-strictly from the right.  An empty range points at -1, and
        # so does a prefix that costs inf; neither is ever chosen.
        ell_arg, u_arg = np.full((2, len(vs), k), -1)
        ell_arg[:, 1:] = np.maximum.accumulate(np.where(rows < ell, cols, -1), axis=1)[:, :-1]
        u_arg[:, :-1] = np.minimum.accumulate(np.where(rows <= u, cols, k)[:, ::-1], axis=1)[:, -2::-1]
        fwd, bwd = lam_f + u, lam_b + ell
        stay = (rows <= fwd) & (rows <= bwd)
        choice[vs] = np.where(stay, cols, np.where(fwd <= bwd, u_arg, ell_arg))
        np.add.at(c, layout.parent[vs], np.minimum(rows, np.minimum(fwd, bwd)))
    return c, choice


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
    the parent's group over a forward edge over a backward edge, a forward
    or backward edge goes to the lowest group of least subtree cost in its
    range, and equal root costs prefer the lowest group.  The forest optimum
    is the sum of the per-tree optima.  `layout` must be
    `TreeLayout.from_graph(graph)`; it is built when omitted, and passing it
    saves the check and the breadth-first pass when the same forest is
    solved repeatedly.
    """
    if layout is None:
        layout = TreeLayout.from_graph(graph)
    c, choice = compute_dp_tables(graph, features, centroids, penalties, layout)
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


def tree_step(graph: DirectedGraph) -> Step:
    """The tree partition step of `config.alternate` on the forest `graph`.

    The forest is checked and laid out once, here.  Each call places every
    vertex against the current centers: with both weights at 0 at its
    nearest center, ties to the lowest group (Lloyd's step, the DP's answer
    up to exact ties between centers); otherwise by `solve_tree_partition`.
    The changed labels are written, the state is rebuilt once, and its key
    is logged when anything changed.
    """
    layout = TreeLayout.from_graph(graph)

    def step(state: SolveState, it: int, step_log: Optional[list[LossKey]]) -> int:
        centroids = state.centroids()
        if state.penalties.is_zero:
            labels = np.argmin(vertex_group_costs(state.features, centroids), axis=1) + 1
        else:
            labels = solve_tree_partition(
                graph, state.features, centroids, state.penalties, layout=layout
            )[0].assign
        changed = labels != state.assign
        changes = int(changed.sum())
        if changes:
            state.assign[changed] = labels[changed]
            state.rebuild()
            if step_log is not None:
                step_log.append(state.breakdown().key)
        return changes

    return step
