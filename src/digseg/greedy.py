"""Greedy local search: the partition step that moves single vertices.

A scan visits every vertex in a seeded random order and commits the vertex's
best move to another group as soon as it lowers the loss by more than
`COMMIT_TOL` (a Hartigan-style single-point move), so every vertex is scored
against the groups as all earlier commits left them.  A move's coherence
change comes from the running group sums in O(d) per target; its cross-edge
change from the groups of the vertex's neighbors.

The scan scores a block of upcoming vertices in one numpy evaluation against
the state as it stands.  Up to and including the first vertex of the block
whose move commits, nothing has changed since the block was scored, so those
scores are exactly the ones a vertex-by-vertex scan computes: the scan
commits that vertex, drops the rest of the block and scores again from the
next position, and a block without a commit advances whole.  Commits,
their order and every float therefore equal the vertex-by-vertex scan's.
The block doubles while nothing commits and shrinks to about twice the gap
between the last two commits after one, so dense stretches waste little work
and quiet ones take few evaluations.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple, Optional

import numpy as np

from .core import DirectedGraph, FeatureMatrix, OrderedPartition, Penalties
from .config import COMMIT_TOL, SolveConfig, SolveResult, alternate, iteration_rng
from .objective import SolveState

REVALIDATE_EVERY = 64  # full cache rebuild cadence, bounds running-sum drift
MIN_BLOCK, MAX_BLOCK = 4, 512  # vertices scored per evaluation in a scan
BLOCK_FLOATS = 1 << 15  # caps block * (k + 1) * d, the largest temporary of an evaluation


class Block(NamedTuple):
    """What a scan keeps for the vertices it scores next.

    `nbr` holds the neighbor ids of the block's vertices and `key` their
    bincount slots: p * 2(k+1) for an out-neighbor of the block's p-th
    vertex, plus k+1 for an in-neighbor.  `h` is `state._h_all()`.
    """

    nbr: np.ndarray
    key: np.ndarray
    h: np.ndarray


def _neighbor_layout(state: SolveState, vertices: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(ptr, nbr, key) for `vertices`, grouped by position, out-neighbors first.

    The neighbors of vertices[p] are nbr[ptr[p]:ptr[p + 1]]; `key` is as in
    `Block`.
    """
    k1 = state.k + 1
    nbrs, keys = [], []
    degree = np.zeros(vertices.size, dtype=np.int64)
    for (indptr, ids), side in ((state.graph.out_csr, 0), (state.graph.in_csr, k1)):
        starts = indptr[vertices]
        deg = indptr[vertices + 1] - starts
        first = np.cumsum(deg) - deg
        nbrs.append(ids[np.arange(int(deg.sum())) + np.repeat(starts - first, deg)])
        keys.append(np.repeat(np.arange(vertices.size) * (2 * k1) + side, deg))
        degree += deg
    key = np.concatenate(keys)
    srt = np.argsort(key, kind="stable")
    ptr = np.concatenate(([0], np.cumsum(degree)))
    return ptr, np.concatenate(nbrs)[srt], key[srt]


@lru_cache(maxsize=8)
def _edge_matrix(k: int) -> np.ndarray:
    """0/1 matrix taking neighbor counts per (direction, group) to edge counts per target.

    Row (direction, g) is one neighbor in group g: direction 0 an out-neighbor,
    1 an in-neighbor.  Column j is the forward count with the vertex in group
    j, column k+1+j the backward count.
    """
    g = np.arange(k + 1)
    above = (g[:, None] > g[None, :]).astype(np.int64)  # neighbor group above the target
    below = above.T.copy()
    m = np.block([[above, below], [below, above]])
    m.setflags(write=False)
    return m


def best_move(state: SolveState, vertices, block: Optional[Block] = None):
    """Best target group and objective delta for each of `vertices`.

    Every vertex is scored against the current state.  Ties between move
    targets go to the lowest group index; when no move strictly improves,
    staying put is reported as (current group, 0.0).  A single vertex gives
    `(int, float)`, an array of vertices a (targets, deltas) pair of arrays.
    `block` is what a scan already holds for these vertices; without it the
    neighbors and `state._h_all()` are looked up here.
    """
    scalar = np.ndim(vertices) == 0
    vs = np.atleast_1d(np.asarray(vertices, dtype=np.int64))
    if block is None:
        _, nbr, key = _neighbor_layout(state, vs)
        block = Block(nbr, key, state._h_all())
    k1 = state.k + 1
    rows = np.arange(vs.size)
    own = state.assign[vs]
    a = state.values[vs]
    counts, sums, h = state.counts, state.sums, block.h

    # coherence terms: h(S) = |S| * ||mu||^2 from the running sums; the
    # leaving group's row is one dot product per vertex, the same as `s @ s`
    s_out = sums[own] - a
    c_out = counts[own] - 1
    sq_out = np.matmul(s_out[:, None, :], s_out[:, :, None])[:, 0, 0]
    h_out = np.where(c_out > 0, sq_out / np.maximum(c_out, 1), 0.0)
    s_plus = sums[None, :, :] + a[:, None, :]
    h_plus = (s_plus * s_plus).sum(axis=2) / (counts + 1)
    d_coh = (h[own] - h_out)[:, None] + (h[None, :] - h_plus)

    # cross-edge counts for every target: neighbor counts per (direction,
    # group) from one bincount, then one product with the 0/1 edge matrix
    nbr_counts = np.bincount(block.key + state.assign[block.nbr], minlength=vs.size * 2 * k1)
    at = nbr_counts.reshape(vs.size, 2 * k1) @ _edge_matrix(state.k)
    fwd_at, bwd_at = at[:, :k1], at[:, k1:]
    dfwd = fwd_at - fwd_at[rows, own][:, None]
    dbwd = bwd_at - bwd_at[rows, own][:, None]

    delta = d_coh + state.penalties.cross_cost_delta(dfwd, dbwd)
    delta[:, 0] = np.inf
    delta[rows, own] = np.inf
    best_j = np.argmin(delta[:, 1:], axis=1) + 1
    best = delta[rows, best_j]
    stay = best >= 0.0
    targets = np.where(stay, own, best_j)
    deltas = np.where(stay, 0.0, best)
    if scalar:
        return int(targets[0]), float(deltas[0])
    return targets, deltas


def sweep(state: SolveState, order, step_log: Optional[list[float]] = None) -> int:
    """Visit the vertices in `order`, committing strictly improving best moves.

    A move commits when it lowers the loss by more than `COMMIT_TOL`; the
    commits are those of scoring and committing one vertex at a time (see
    the module docstring).  Returns the number of committed moves.
    """
    order = np.asarray(order, dtype=np.int64)
    ptr, nbr, key = _neighbor_layout(state, order)
    width = 2 * (state.k + 1)
    h = state._h_all()
    cap = max(1, min(MAX_BLOCK, BLOCK_FLOATS // max(1, (state.k + 1) * state.features.d)))
    size = min(MIN_BLOCK, cap)
    commits = pos = last = 0
    while pos < order.size:
        stop = min(pos + size, order.size)
        lo, hi = ptr[pos], ptr[stop]
        block = Block(nbr[lo:hi], key[lo:hi] - pos * width, h)
        targets, deltas = best_move(state, order[pos:stop], block)
        hits = np.flatnonzero(deltas < -COMMIT_TOL)
        if not hits.size:
            pos = stop
            size = min(2 * size, cap)
            continue
        at = pos + int(hits[0])
        v, target = int(order[at]), int(targets[hits[0]])
        moved = [int(state.assign[v]), target]
        state.apply_move(v, target)
        h[moved] = state._h_all(moved)
        commits += 1
        if step_log is not None:
            step_log.append(state.total())
        pos = at + 1
        size = min(max(2 * (pos - last), MIN_BLOCK), cap)
        last = pos
    return commits


def run_greedy(
    graph: DirectedGraph,
    features: FeatureMatrix,
    penalties: Penalties,
    k: int,
    init: OrderedPartition,
    config: SolveConfig,
) -> SolveResult:
    """Greedy local search from the given initial partition.

    Each iteration of `alternate` is one scan in a fresh random order derived
    from the run seed; every `REVALIDATE_EVERY` scans the caches are rebuilt.
    Empty groups are legal and are never reseeded.
    """
    if init.k != k or init.n != graph.n:
        raise ValueError("initial partition does not match the instance")

    def step(state: SolveState, it: int, step_log: Optional[list[float]]) -> int:
        order = iteration_rng(config.seed, it).permutation(graph.n)
        commits = sweep(state, order, step_log)
        if it % REVALIDATE_EVERY == 0:
            state.rebuild()
        return commits

    return alternate(graph, features, penalties, init, config, step)
