"""One-vertex greedy scan, kept as the reference for the block scan.

This is the straightforward scan: every vertex in turn gets its own
`best_move` evaluation against the state as it stands, and an improving best
move commits at once.  The library's block scan must commit the same moves in
the same order, so labels, caches and logged losses match it bit for bit.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from digseg.config import COMMIT_TOL
from digseg.objective import SolveState


def best_move(state: SolveState, v: int) -> tuple[int, float]:
    """Best target group for v and its objective delta.

    Ties between move targets go to the lowest group index; when no move
    strictly improves, staying put is reported as (current group, 0.0).
    """
    k = state.k
    i = int(state.assign[v])
    if k == 1:
        return i, 0.0
    a = state.values[v]
    counts = state.counts
    sums = state.sums

    # coherence terms: h(S) = |S| * ||mu||^2 from the running sums
    h_all = state._h_all()
    s_i_new = sums[i] - a
    c_i_new = counts[i] - 1
    h_i_new = float(s_i_new @ s_i_new) / c_i_new if c_i_new > 0 else 0.0
    s_plus = sums + a
    h_plus = (s_plus * s_plus).sum(axis=1) / (counts + 1)
    d_coh = (h_all[i] - h_i_new) + (h_all - h_plus)

    # cross-edge counts for every target from one pass over the neighbors;
    # pref_*[x] = number of neighbors in groups <= x; the neighbors come
    # straight from the edge arrays, not from the graph's adjacency rows
    src, dst = state.graph.edge_src, state.graph.edge_dst
    gout = state.assign[dst[src == v]]
    gin = state.assign[src[dst == v]]
    pref_out = np.cumsum(np.bincount(gout, minlength=k + 1))
    pref_in = np.cumsum(np.bincount(gin, minlength=k + 1))
    below_out = np.concatenate(([0], pref_out[:-1]))
    below_in = np.concatenate(([0], pref_in[:-1]))
    fwd_at = (gout.size - pref_out) + below_in
    bwd_at = below_out + (gin.size - pref_in)
    dfwd = fwd_at - fwd_at[i]
    dbwd = bwd_at - bwd_at[i]

    # a move that gains an infinitely weighted edge costs +inf, one that sheds
    # such an edge gains -inf; with their count unchanged the finite part counts
    inf_change, finite = state.penalties.split(dfwd, dbwd)
    delta = d_coh + np.where(inf_change > 0, math.inf, np.where(inf_change < 0, -math.inf, finite))
    delta[0] = math.inf
    delta[i] = math.inf
    best_j = int(np.argmin(delta[1:])) + 1
    best = float(delta[best_j])
    if best >= 0.0:
        return i, 0.0
    return best_j, best


def sweep(state: SolveState, order, step_log: Optional[list[tuple[int, float]]] = None) -> int:
    """Visit the vertices in `order`, committing strictly improving best moves.

    A move commits when it lowers the loss by more than `COMMIT_TOL`.  Returns
    the number of committed moves.
    """
    commits = 0
    for v in order:
        v = int(v)
        target, delta = best_move(state, v)
        if delta < -COMMIT_TOL:
            state.apply_move(v, target)
            commits += 1
            if step_log is not None:
                step_log.append(state.breakdown().key)
    return commits
