"""Greedy local search: the partition step that moves single vertices.

A scan visits every vertex in a seeded random order and commits the vertex's
best move to another group as soon as it lowers the loss by more than
`COMMIT_TOL` (a Hartigan-style single-point move), so every vertex is scored
against the groups as all earlier commits left them.  Moves are scored by
`SolveState.move_deltas`, the one definition of a move's loss change; this
module adds only the policy: which target is best and when a move commits.
`scan_step(seed)` is the scan as the partition step `config.alternate` runs.

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

from typing import NamedTuple, Optional

import numpy as np

from .config import COMMIT_TOL, Step, iteration_rng
from .objective import LossKey, SolveState

REVALIDATE_EVERY = 64  # full cache rebuild cadence, bounds running-sum drift
MIN_BLOCK, MAX_BLOCK = 4, 512  # vertices scored per evaluation in a scan
BLOCK_FLOATS = 1 << 15  # caps block * (k + 1) * d, the largest temporary of an evaluation


class Block(NamedTuple):
    """What a scan keeps for the vertices it scores next.

    `nbr` and `key` are the block's `SolveState.neighbor_layout`, with the
    block's first vertex at position 0, and `h` is `state._h_all()`.
    """

    nbr: np.ndarray
    key: np.ndarray
    h: np.ndarray


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
        _, nbr, key = state.neighbor_layout(vs)
        block = Block(nbr, key, state._h_all())
    delta = state.move_deltas(vs, *block)
    rows = np.arange(vs.size)
    own = state.assign[vs]
    best_j = np.argmin(delta[:, 1:], axis=1) + 1
    best = delta[rows, best_j]
    stay = best >= 0.0
    targets = np.where(stay, own, best_j)
    deltas = np.where(stay, 0.0, best)
    if scalar:
        return int(targets[0]), float(deltas[0])
    return targets, deltas


def sweep(state: SolveState, order, step_log: Optional[list[LossKey]] = None) -> int:
    """Visit the vertices in `order`, committing strictly improving best moves.

    A move commits when it lowers the loss by more than `COMMIT_TOL`; the
    commits are those of scoring and committing one vertex at a time (see
    the module docstring).  Returns the number of committed moves.
    """
    order = np.asarray(order, dtype=np.int64)
    ptr, nbr, key = state.neighbor_layout(order)
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
            step_log.append(state.breakdown().key)
        pos = at + 1
        size = min(max(2 * (pos - last), MIN_BLOCK), cap)
        last = pos
    return commits


def scan_step(seed: int) -> Step:
    """The greedy partition step of `config.alternate` for a run seeded `seed`.

    Iteration `it` scans every vertex once in the order
    `iteration_rng(seed, it).permutation(n)`, and every `REVALIDATE_EVERY`
    scans rebuilds the caches.  Empty groups are legal and never reseeded.
    """

    def step(state: SolveState, it: int, step_log: Optional[list[LossKey]]) -> int:
        commits = sweep(state, iteration_rng(seed, it).permutation(state.graph.n), step_log)
        if it % REVALIDATE_EVERY == 0:
            state.rebuild()
        return commits

    return step
