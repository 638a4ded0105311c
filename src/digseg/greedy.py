"""Greedy local search: the partition step that moves single vertices.

A scan visits every vertex in a seeded random order and commits the vertex's
best move to another group as soon as it lowers the loss by more than
`COMMIT_TOL` (a Hartigan-style single-point move), so every vertex is scored
against the groups as all earlier commits left them.  Moves are scored by
`SolveState.move_deltas`, the one definition of a move's loss change; this
module adds only the policy: which target is best and when a move commits.
`scan_step(seed)` is the scan as the partition step `config.alternate` runs.

The scan scores a block of upcoming vertices in one numpy evaluation, each
against the state that a guessed decision for every earlier vertex of the
block would leave (optimistic concurrency control: propose many updates,
validate them against the serial order).  A fresh position is guessed to
stay.  Up to and including the first position whose decision differs from
its guess, every guess before it held, so each of those positions was scored
against the state the one-vertex scan would hold there: the scan commits
their moves in order and goes on from the next position, whose fresh
decisions of this evaluation become the next one's guesses.  In a dense
stretch those guesses are mostly right, so one evaluation validates many
commits; in a quiet one every position stays and the block advances whole.
Commits, their order and every float therefore equal the vertex-by-vertex
scan's.  An evaluation carries only the block's vertices and guesses;
`move_deltas` gathers their edges from the graph's adjacency rows itself.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .config import COMMIT_TOL, Step, iteration_rng
from .objective import LossKey, SolveState, _check_vertices

REVALIDATE_EVERY = 64  # full cache rebuild cadence, bounds running-sum drift
MAX_BLOCK = 256  # vertices scored per evaluation in a scan
BLOCK_FLOATS = 1 << 15  # caps block * (k + 1) * d, the largest temporary of an evaluation


def best_move(state: SolveState, vertices, guess: Optional[np.ndarray] = None):
    """Best target group and objective delta for each of `vertices`.

    Every vertex is scored against the current state, or, with a `guess`
    target per vertex, against the state the guessed moves of the vertices
    before it leave (see `SolveState.move_deltas`).  Ties between move
    targets go to the lowest group index; when no move strictly improves,
    staying put is reported as (current group, 0.0).  A single vertex gives
    `(int, float)`, an array of vertices a (targets, deltas) pair of arrays.
    """
    scalar = np.ndim(vertices) == 0
    vs = np.atleast_1d(np.asarray(vertices, dtype=np.int64))
    delta = state.move_deltas(vs, guess)
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

    `order` lists distinct vertices; one out of range or repeated raises
    ValueError before any move commits.  A move commits when it lowers the
    loss by more than `COMMIT_TOL`; the commits are those of scoring and
    committing one vertex at a time (see the module docstring).  Each
    validated stretch is committed by one `SolveState.apply_move`, which
    keeps the edge counts always current from the moved vertices' own
    edges; with `step_log` the moves go one per call and each commit's loss
    key is logged.  Returns the number of committed moves.
    """
    order = np.asarray(order, dtype=np.int64)
    _check_vertices(order, state.graph.n)  # before any move commits
    size = max(1, min(MAX_BLOCK, BLOCK_FLOATS // max(1, (state.k + 1) * state.features.d)))
    guess = order[:0]  # the decisions carried over for the positions from `pos` on
    commits = pos = 0
    while pos < order.size:
        stop = min(pos + size, order.size)
        vs = order[pos:stop]
        own = state.assign[vs]
        guess = np.concatenate((guess, own[guess.size:]))
        targets, deltas = best_move(state, vs, guess)
        decided = np.where(deltas < -COMMIT_TOL, targets, own)
        wrong = np.flatnonzero(decided != guess)
        end = int(wrong[0]) + 1 if wrong.size else vs.size
        movers = np.flatnonzero(decided[:end] != own[:end])
        # one call per stretch that moves any vertex; a logged scan makes one
        # call per commit instead, to log each commit's key
        for batch in [movers] if step_log is None and movers.size else movers[:, None]:
            state.apply_move(vs[batch], decided[batch])
            if step_log is not None:
                step_log.append(state.breakdown().key)
        commits += movers.size
        guess = decided[end:]
        pos += end
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
