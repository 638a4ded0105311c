"""Run configuration and result types shared by the solvers."""

from __future__ import annotations

import dataclasses
import math
import time
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .core import DirectedGraph, FeatureMatrix, OrderedPartition, Penalties
from .objective import CostBreakdown, SolveState, total_cost

SOLVER_KINDS = ("greedy", "treedp", "mcut")
REL_TOL = 1e-9  # the loop stops once a step improves the loss by less than this, relatively
COMMIT_TOL = 1e-9  # a partition step commits only improvements larger than this


@dataclass(frozen=True)
class SolveConfig:
    max_iters: int = 100
    restarts: int = 10
    seed: int = 0
    solver_kind: str = "greedy"
    track_steps: bool = False

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be at least 1, got {self.max_iters}")
        if self.restarts < 1:
            raise ValueError(f"restarts must be at least 1, got {self.restarts}")
        if self.solver_kind not in SOLVER_KINDS:
            raise ValueError(f"solver_kind must be one of {SOLVER_KINDS}, got {self.solver_kind!r}")

    def with_seed(self, seed: int) -> "SolveConfig":
        return dataclasses.replace(self, seed=seed)


@dataclass(frozen=True, eq=False)
class SolveResult:
    partition: OrderedPartition
    breakdown: CostBreakdown
    iterations: int
    converged: bool
    seed: int
    seconds: float
    step_losses: Optional[list[float]] = None


def norm_seed(seed: int) -> int:
    """Clamp a seed into the unsigned 64-bit range numpy generators accept."""
    return int(seed) % (1 << 64)


def iteration_rng(seed: int, iteration: int) -> np.random.Generator:
    """Deterministic per-iteration generator derived from the run seed."""
    return np.random.default_rng((norm_seed(seed), iteration))


def small_improvement(old: float, new: float) -> bool:
    """True when the relative loss improvement falls below `REL_TOL`.

    Losses can span orders of magnitude, so the improvement is scaled by
    max(old, 1).  Two infinite losses are incomparable here (progress may
    still be happening in the count of infinitely-penalized edges), so the
    loop keeps going until it stops committing moves.
    """
    if math.isinf(old):
        return False
    return (old - new) / max(old, 1.0) < REL_TOL


def finish_result(
    graph: DirectedGraph,
    features: FeatureMatrix,
    penalties: Penalties,
    partition: OrderedPartition,
    iterations: int,
    converged: bool,
    seed: int,
    seconds: float,
    step_losses: Optional[list[float]] = None,
) -> SolveResult:
    """Assemble a result with the breakdown recomputed from scratch."""
    return SolveResult(
        partition=partition,
        breakdown=total_cost(graph, features, partition, penalties),
        iterations=iterations,
        converged=converged,
        seed=seed,
        seconds=seconds,
        step_losses=step_losses,
    )


Step = Callable[[SolveState, int, Optional[list[float]]], int]


def alternate(
    graph: DirectedGraph,
    features: FeatureMatrix,
    penalties: Penalties,
    init: OrderedPartition,
    config: SolveConfig,
    step: Step,
    repair: Optional[Callable[[SolveState], object]] = None,
) -> SolveResult:
    """The alternating loop every solver runs, from the partition `init`.

    Iteration `it` (1-based) first reseeds empty groups with `repair`, when
    one is given and some group is empty, then calls `step(state, it,
    step_log)`: a partition step against the centers of the current groups
    (read from `state`'s running sums), which moves vertices in `state` and
    returns how many changes it committed, appending the loss after each
    commit to `step_log` when `config.track_steps` is set.  Neither the
    center update nor any step increases the loss, so the logged losses are
    non-increasing.  The loop stops, converged, once a step commits nothing
    or the relative loss improvement falls below `REL_TOL`, and
    otherwise after `config.max_iters` iterations.  The result's breakdown
    is recomputed from scratch.
    """
    start = time.perf_counter()
    state = SolveState.from_partition(graph, features, penalties, init)
    step_log: Optional[list[float]] = [] if config.track_steps else None
    loss = state.total()
    converged = False
    iterations = 0
    for it in range(1, config.max_iters + 1):
        iterations = it
        if repair is not None and state.empty_groups():
            repair(state)
        changes = step(state, it, step_log)
        new_loss = state.total()
        if changes == 0 or small_improvement(loss, new_loss):
            converged = True
            break
        loss = new_loss
    return finish_result(
        graph,
        features,
        penalties,
        state.partition(),
        iterations,
        converged,
        config.seed,
        time.perf_counter() - start,
        step_log,
    )
