"""Alternating optimization driver: two-phase start, solver dispatch, restarts.

Every solver runs the one alternating loop, `config.alternate`, with the
partition step its own module builds: an exact tree solve
(`treedp.tree_step`, the nearest-center step at zero weights), a pairwise
cut sweep (`mincut.sweep_step()`) or a greedy scan (`greedy.scan_step`).
`run_iterative` builds the step once and runs both phases with it.  Empty
groups are reseeded before the tree and pair-cut steps.

A restart runs in two phases.  The first clusters with both weights at 0
(plain clustering, the problem's unordered special case) from a seeded
uniformly random assignment, with the configured solver's zero-weight step;
the groups found are then relabelled into the order that a greedy pass over
their cross-edge counts finds cheapest under the real weights, and the
second phase runs the configured solver with the real weights from that
order.  Zero weights, k = 1 or an edgeless graph leave a single phase,
since the first would already be the whole run.

A two-phase result counts both phases in `iterations` and `seconds`, so
seconds per iteration divide the whole run by its whole count; its
`step_losses` records only the weighted phase, whose committed steps are the
ones that must not increase the loss.  `max_iters` caps each phase
separately.
"""

from __future__ import annotations

import dataclasses
import functools
import time
from concurrent.futures import ProcessPoolExecutor
from typing import Callable, Optional

import numpy as np

from . import greedy as greedy_mod
from . import mincut as mincut_mod
from . import treedp as treedp_mod
from .config import SolveConfig, SolveResult, Step, alternate, norm_seed
from .core import DirectedGraph, FeatureMatrix, OrderedPartition, Penalties
from .objective import SolveState


def random_init(n: int, k: int, seed: int) -> OrderedPartition:
    """Uniformly random assignment of n vertices into k groups, seeded."""
    if n < 1 or k < 1:
        raise ValueError(f"need n >= 1 and k >= 1, got n={n}, k={k}")
    rng = np.random.default_rng(norm_seed(seed))
    return OrderedPartition.from_labels(k, rng.integers(1, k + 1, size=n))


def repair_empty_groups(state: SolveState) -> SolveState:
    """Reseed each empty group with one vertex, farthest from its own center.

    Donor groups must keep at least two members so the repair cannot create a
    new empty group; ties go to the lowest vertex id.  With fewer vertices
    than groups some groups necessarily stay empty (visible via
    `state.empty_groups()`).
    """
    while True:
        empties = state.empty_groups()
        if not empties:
            return state
        counts = state.counts[state.assign]
        movable = counts >= 2
        if not movable.any():
            return state
        centroids = state.centroids()
        own_mu = centroids.mu[state.assign - 1]
        dist2 = ((state.values - own_mu) ** 2).sum(axis=1)
        dist2 = np.where(movable, dist2, -1.0)
        v = int(np.argmax(dist2))  # argmax keeps the lowest id among ties
        state.apply_move(v, empties[0])


def order_groups(
    graph: DirectedGraph, penalties: Penalties, partition: OrderedPartition
) -> OrderedPartition:
    """Relabel the groups into the order a greedy pass finds cheapest.

    The pass fills positions 1..k in turn.  Placing group j next puts every
    other unplaced group after it, so it costs lambda_b per edge from those
    groups into j plus lambda_f per edge from j to them; the cheapest j is
    placed, ties going to the lowest label.  Costs compare by (count of
    infinitely weighted edges, finite part), so two infinite costs still
    rank by how many such edges they carry.  With lambda_f = 0 < lambda_b an
    acyclic group graph comes out in topological order.  Group sets are
    unchanged; only their labels move.
    """
    k = partition.k
    counts = np.zeros((k, k), dtype=np.int64)
    groups = partition.assign - 1
    np.add.at(counts, (groups[graph.edge_src], groups[graph.edge_dst]), 1)
    np.fill_diagonal(counts, 0)  # edges inside a group are never cross edges
    unplaced = list(range(k))

    def cost(j: int) -> tuple[int, float]:
        out_of_j, into_j = int(counts[j, unplaced].sum()), int(counts[unplaced, j].sum())
        return penalties.split(out_of_j, into_j)

    position = np.empty(k + 1, dtype=np.int64)
    for pos in range(1, k + 1):
        j = min(unplaced, key=cost)
        unplaced.remove(j)
        position[j + 1] = pos
    return OrderedPartition.from_labels(k, position[partition.assign])


def _solver_step(
    graph: DirectedGraph, k: int, config: SolveConfig
) -> tuple[Step, Optional[Callable[[SolveState], object]]]:
    """The configured solver's partition step and empty-group repair, built once per run."""
    if config.solver_kind == "treedp":
        return treedp_mod.tree_step(graph), repair_empty_groups  # rejects a non-forest first
    if config.solver_kind == "mcut":
        if k < 2:
            raise ValueError(f"the pairwise cut solver needs k >= 2, got {k}")
        return mincut_mod.sweep_step(), repair_empty_groups
    return greedy_mod.scan_step(config.seed), None


def run_iterative(
    graph: DirectedGraph,
    features: FeatureMatrix,
    penalties: Penalties,
    k: int,
    config: SolveConfig,
) -> SolveResult:
    """One alternating run, started from the ordered zero-weight clustering.

    The configured solver's zero-weight step (the nearest-center step for
    treedp) first runs with both weights at 0 from a seeded uniformly random
    assignment; its groups are relabelled by `order_groups`, and the
    configured solver then runs with the real weights from that order.
    With zero weights, k = 1 or no edges the run is the single first phase.
    `max_iters` caps each phase separately; the result's `iterations` and
    `seconds` cover both phases, while `step_losses` records only the
    weighted phase.

    The tree solver requires an arborescence forest; the pairwise cut solver
    requires k >= 2.  Empty groups are reseeded before every tree / pair-cut
    partition step.
    """
    start = time.perf_counter()
    init = random_init(graph.n, k, config.seed)
    step, repair = _solver_step(graph, k, config)
    if penalties.is_zero or k == 1 or graph.m == 0:
        return alternate(graph, features, penalties, init, config, step, repair)
    first_config = dataclasses.replace(config, track_steps=False)
    first = alternate(graph, features, Penalties(0.0, 0.0), init, first_config, step, repair)
    ordered = order_groups(graph, penalties, first.partition)
    second = alternate(graph, features, penalties, ordered, config, step, repair)
    return dataclasses.replace(
        second,
        iterations=first.iterations + second.iterations,
        seconds=time.perf_counter() - start,
    )


def multi_restart(
    graph: DirectedGraph,
    features: FeatureMatrix,
    penalties: Penalties,
    k: int,
    config: SolveConfig,
    threads: int = 1,
) -> SolveResult:
    """Best of `config.restarts` independent runs with seeds seed, seed+1, ...

    Each run is one two-phase `run_iterative` call, so the returned result's
    `iterations` and `seconds` count both of its phases, and its
    `step_losses` only the weighted one.  Returns the run with the least
    loss key (`CostBreakdown.key`), ties to the lowest seed (for finite
    weights: the minimum total); deterministic for a fixed configuration
    whether run serially or with process parallelism (`threads` > 1).
    """
    configs = [config.with_seed(config.seed + r) for r in range(config.restarts)]
    run = functools.partial(run_iterative, graph, features, penalties, k)
    if threads > 1 and config.restarts > 1:
        with ProcessPoolExecutor(max_workers=min(threads, config.restarts)) as pool:
            results = list(pool.map(run, configs))
    else:
        results = list(map(run, configs))
    return min(results, key=lambda r: (*r.breakdown.key, r.seed))
