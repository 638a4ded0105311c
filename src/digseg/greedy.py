"""Greedy local search: the partition step that moves single vertices.

A scan visits every vertex in a seeded random order, evaluates all k-1
alternative groups with the O(d)-per-group running-sum identity plus one
O(deg v) pass over the incident edges, and immediately commits any strictly
improving best move.
"""

from __future__ import annotations

import math
from typing import Callable, Optional

import numpy as np

from .core import DirectedGraph, FeatureMatrix, OrderedPartition, Penalties
from .config import COMMIT_TOL, SolveConfig, SolveResult, alternate, iteration_rng
from .objective import SolveState

REVALIDATE_EVERY = 64  # full cache rebuild cadence, bounds running-sum drift


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
    # pref_*[x] = number of neighbors in groups <= x
    gout = state.assign[state.out_nbrs[v]]
    gin = state.assign[state.in_nbrs[v]]
    pref_out = np.cumsum(np.bincount(gout, minlength=k + 1))
    pref_in = np.cumsum(np.bincount(gin, minlength=k + 1))
    below_out = np.concatenate(([0], pref_out[:-1]))
    below_in = np.concatenate(([0], pref_in[:-1]))
    fwd_at = (gout.size - pref_out) + below_in
    bwd_at = below_out + (gin.size - pref_in)
    dfwd = fwd_at - fwd_at[i]
    dbwd = bwd_at - bwd_at[i]

    inf_change, finite = state.penalties.split(dfwd, dbwd)
    d_edge = np.where(inf_change > 0, math.inf, np.where(inf_change < 0, -math.inf, finite))

    delta = d_coh + d_edge
    delta[0] = math.inf
    delta[i] = math.inf
    best_j = int(np.argmin(delta[1:])) + 1
    best = float(delta[best_j])
    if best >= 0.0:
        return i, 0.0
    return best_j, best


def sweep(
    state: SolveState,
    order,
    commit_tol: float = COMMIT_TOL,
    forbid_empty: bool = False,
    step_log: Optional[list[float]] = None,
) -> int:
    """Visit the vertices in `order`, committing strictly improving best moves.

    Returns the number of committed moves.
    """
    commits = 0
    for v in order:
        v = int(v)
        if forbid_empty and state.counts[state.assign[v]] == 1:
            continue
        target, delta = best_move(state, v)
        if delta < -commit_tol:
            state.apply_move(v, target)
            commits += 1
            if step_log is not None:
                step_log.append(state.total())
    return commits


def run_greedy(
    graph: DirectedGraph,
    features: FeatureMatrix,
    penalties: Penalties,
    k: int,
    init: OrderedPartition,
    config: SolveConfig,
    _repair: Optional[Callable[[SolveState], object]] = None,
) -> SolveResult:
    """Greedy local search from the given initial partition.

    Each iteration of `alternate` is one scan in a fresh random order derived
    from the run seed; every `REVALIDATE_EVERY` scans the caches are rebuilt.
    Empty groups are legal unless `config.forbid_empty` is set.
    """
    if init.k != k or init.n != graph.n:
        raise ValueError("initial partition does not match the instance")

    def step(state: SolveState, it: int, step_log: Optional[list[float]]) -> int:
        order = iteration_rng(config.seed, it).permutation(graph.n)
        commits = sweep(state, order, forbid_empty=config.forbid_empty, step_log=step_log)
        if it % REVALIDATE_EVERY == 0:
            state.rebuild()
        return commits

    return alternate(graph, features, penalties, init, config, step, _repair)
