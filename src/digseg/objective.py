"""Segmentation objective: L2 group coherence plus weighted cross-edge penalties.

The cost of an ordered partition is the sum over groups of the minimum total
squared distance to a single center, plus lambda_f per forward cross edge and
lambda_b per backward cross edge.  `SolveState` caches per-group running sums
so that the cost change of moving one vertex is an O(d + deg v) query.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import pairwise

import numpy as np

from .core import DirectedGraph, FeatureMatrix, OrderedPartition, Penalties


def _row_views(indptr: np.ndarray, values: np.ndarray) -> list[np.ndarray]:
    """values[indptr[v]:indptr[v + 1]] for every v, as views (np.split is slower)."""
    return [values[a:b] for a, b in pairwise(indptr.tolist())]


@dataclass(frozen=True, eq=False)
class Centroids:
    """Group centers: row i-1 of `mu` is the center of group i.

    A group with no members has no defined center; its `defined` flag is
    False and its row is zero-filled.
    """

    mu: np.ndarray
    defined: np.ndarray

    @classmethod
    def from_rows(cls, rows) -> "Centroids":
        mu = np.array(rows, dtype=np.float64)
        if mu.ndim != 2:
            raise ValueError("centroid rows must form a 2-dimensional matrix")
        return cls(mu=mu, defined=np.ones(mu.shape[0], dtype=bool))

    @property
    def k(self) -> int:
        return self.mu.shape[0]

    @property
    def d(self) -> int:
        return self.mu.shape[1]

    def mu_for(self, group: int) -> np.ndarray:
        if not self.defined[group - 1]:
            raise ValueError(f"centroid of group {group} is undefined (empty group)")
        return self.mu[group - 1]


@dataclass(frozen=True)
class CostBreakdown:
    """Objective value split into coherence and the two cross-edge counts."""

    coherence: float
    forward_edges: int
    backward_edges: int
    total: float


def coherence_l2(members, features: FeatureMatrix) -> float:
    """Minimum total squared distance of the member rows to a single center.

    The minimizing center is the arithmetic mean; empty and singleton sets
    cost zero.
    """
    idx = np.asarray(members, dtype=np.int64)
    if idx.size <= 1:
        return 0.0
    pts = features.values[idx]
    mu = pts.mean(axis=0)
    return float(((pts - mu) ** 2).sum())


def update_centroids(partition: OrderedPartition, features: FeatureMatrix) -> Centroids:
    """Per-group arithmetic means; empty groups get a zero row flagged undefined."""
    k, d = partition.k, features.d
    mu = np.zeros((k, d), dtype=np.float64)
    defined = np.zeros(k, dtype=bool)
    for g in range(1, k + 1):
        idx = partition.members(g)
        if idx.size:
            mu[g - 1] = features.values[idx].mean(axis=0)
            defined[g - 1] = True
    return Centroids(mu=mu, defined=defined)


def cross_edge_counts(graph: DirectedGraph, assign: np.ndarray) -> tuple[int, int]:
    """(forward, backward) cross-edge counts of an assignment."""
    if graph.m == 0:
        return 0, 0
    gs = assign[graph.edge_src]
    gd = assign[graph.edge_dst]
    return int((gs < gd).sum()), int((gs > gd).sum())


def total_cost(
    graph: DirectedGraph,
    features: FeatureMatrix,
    partition: OrderedPartition,
    penalties: Penalties,
) -> CostBreakdown:
    """Objective of a partition with optimal (mean) centers, computed directly.

    Coherence is summed group by group from the definition, independently of
    the running-sum identity used by `SolveState`.
    """
    coherence = 0.0
    for g in range(1, partition.k + 1):
        coherence += coherence_l2(partition.members(g), features)
    fwd, bwd = cross_edge_counts(graph, partition.assign)
    return CostBreakdown(
        coherence=coherence,
        forward_edges=fwd,
        backward_edges=bwd,
        total=coherence + penalties.cross_cost(fwd, bwd),
    )


def vertex_group_costs(features: FeatureMatrix, centroids: Centroids) -> np.ndarray:
    """(n, k) matrix of squared distances to each group center.

    Columns of undefined centers are +inf, which marks those groups as
    unusable for fixed-center solvers.
    """
    vals = features.values
    pt_sq = (vals * vals).sum(axis=1)
    mu_sq = (centroids.mu * centroids.mu).sum(axis=1)
    costs = pt_sq[:, None] + mu_sq[None, :] - 2.0 * (vals @ centroids.mu.T)
    np.maximum(costs, 0.0, out=costs)
    costs[:, ~centroids.defined] = math.inf
    return costs


def fixed_centroid_cost(
    graph: DirectedGraph,
    features: FeatureMatrix,
    partition: OrderedPartition,
    centroids: Centroids,
    penalties: Penalties,
) -> float:
    """Objective of a partition under externally fixed group centers.

    Equals `total_cost(...).total` exactly when the centers are the group
    means.  A nonempty group with an undefined center is an error.
    """
    assign = partition.assign
    sizes = partition.group_sizes()
    for g in range(1, partition.k + 1):
        if sizes[g] and not centroids.defined[g - 1]:
            raise ValueError(f"group {g} is nonempty but its centroid is undefined")
    feat = 0.0
    if partition.n:
        mu_rows = centroids.mu[assign - 1]
        feat = float(((features.values - mu_rows) ** 2).sum())
    fwd, bwd = cross_edge_counts(graph, assign)
    return feat + penalties.cross_cost(fwd, bwd)


class SolveState:
    """Mutable partition state with cached group statistics.

    Caches per-group member counts, feature sums and squared-norm sums plus
    the two cross-edge counts, so that `move_delta` runs in O(d + deg v) and
    `apply_move` keeps everything current.  Group-indexed arrays have k+1
    rows with row 0 unused.  Single-owner mutable; not thread-safe.
    """

    def __init__(
        self,
        graph: DirectedGraph,
        features: FeatureMatrix,
        penalties: Penalties,
        assign,
        k: int,
    ):
        if features.n != graph.n:
            raise ValueError("feature row count does not match graph vertex count")
        self.graph = graph
        self.features = features
        self.penalties = penalties
        self.k = int(k)
        self.assign = np.array(assign, dtype=np.int64)
        if self.assign.shape != (graph.n,):
            raise ValueError("assignment length does not match vertex count")
        if graph.n and (self.assign.min() < 1 or self.assign.max() > self.k):
            raise ValueError(f"group labels must lie in 1..{self.k}")
        self.values = features.values
        self.point_sqnorm = (self.values * self.values).sum(axis=1)
        # Per-vertex views into the graph's neighbor rows, for O(deg v) moves.
        self.out_nbrs = _row_views(*graph.out_csr)
        self.in_nbrs = _row_views(*graph.in_csr)
        self.rebuild()

    @classmethod
    def from_partition(
        cls,
        graph: DirectedGraph,
        features: FeatureMatrix,
        penalties: Penalties,
        partition: OrderedPartition,
    ) -> "SolveState":
        return cls(graph, features, penalties, partition.assign, partition.k)

    def rebuild(self) -> None:
        """Recompute all caches from the assignment (vertex-id ascending order)."""
        k, d = self.k, self.features.d
        self.counts = np.bincount(self.assign, minlength=k + 1).astype(np.int64)
        self.sums = np.zeros((k + 1, d), dtype=np.float64)
        self.group_sqnorm = np.zeros(k + 1, dtype=np.float64)
        for g in range(1, k + 1):
            idx = np.flatnonzero(self.assign == g)
            if idx.size:
                self.sums[g] = self.values[idx].sum(axis=0)
                self.group_sqnorm[g] = self.point_sqnorm[idx].sum()
        self.fwd_count, self.bwd_count = cross_edge_counts(self.graph, self.assign)

    # -- queries ---------------------------------------------------------

    def _h(self, g: int) -> float:
        """|S_g| * ||mu_g||^2, written as ||sum_g||^2 / |S_g| on the running sums."""
        c = self.counts[g]
        if c == 0:
            return 0.0
        s = self.sums[g]
        return float(s @ s) / c

    def _h_all(self) -> np.ndarray:
        sq = (self.sums * self.sums).sum(axis=1)
        return np.where(self.counts > 0, sq / np.maximum(self.counts, 1), 0.0)

    def coherence(self) -> float:
        """Total coherence via the sum-decomposition identity, clamped at zero per group."""
        per_group = self.group_sqnorm - self._h_all()
        return float(np.maximum(per_group, 0.0)[1:].sum())

    def breakdown(self) -> CostBreakdown:
        coh = self.coherence()
        return CostBreakdown(
            coherence=coh,
            forward_edges=self.fwd_count,
            backward_edges=self.bwd_count,
            total=coh + self.penalties.cross_cost(self.fwd_count, self.bwd_count),
        )

    def total(self) -> float:
        return self.breakdown().total

    def loss_parts(self) -> tuple[int, float]:
        """(count of infinitely-penalized edges, finite objective part).

        Compares lexicographically where plain totals would degenerate to
        inf vs inf; equals (0, total) when both weights are finite.
        """
        inf_edges, finite = self.penalties.split(self.fwd_count, self.bwd_count)
        return inf_edges, self.coherence() + finite

    def centroids(self) -> Centroids:
        counts = self.counts[1:]
        defined = counts > 0
        mu = np.where(defined[:, None], self.sums[1:] / np.maximum(counts, 1)[:, None], 0.0)
        return Centroids(mu=mu, defined=defined)

    def partition(self) -> OrderedPartition:
        return OrderedPartition.from_labels(self.k, self.assign.copy())

    def empty_groups(self) -> list[int]:
        return [g for g in range(1, self.k + 1) if self.counts[g] == 0]

    # -- moves -----------------------------------------------------------

    def edge_count_changes(self, v: int, target: int) -> tuple[int, int]:
        """(d_forward, d_backward) if vertex v moved to `target`."""
        i = self.assign[v]
        gout = self.assign[self.out_nbrs[v]]
        gin = self.assign[self.in_nbrs[v]]
        dfwd = int((gout > target).sum() - (gout > i).sum())
        dfwd += int((gin < target).sum() - (gin < i).sum())
        dbwd = int((gout < target).sum() - (gout < i).sum())
        dbwd += int((gin > target).sum() - (gin > i).sum())
        return dfwd, dbwd

    def move_delta(self, v: int, target: int) -> float:
        """Objective change of moving v to group `target`; does not mutate.

        The coherence part uses the running-sum identity in O(d); the edge
        part scans v's neighbors once.  May be +-inf under infinite weights.
        """
        i = int(self.assign[v])
        if not (1 <= target <= self.k):
            raise ValueError(f"target group {target} out of range 1..{self.k}")
        if target == i:
            raise ValueError("target group equals the current group")
        a = self.values[v]
        s_i_new = self.sums[i] - a
        c_i_new = self.counts[i] - 1
        h_i_new = float(s_i_new @ s_i_new) / c_i_new if c_i_new > 0 else 0.0
        s_j_new = self.sums[target] + a
        h_j_new = float(s_j_new @ s_j_new) / (self.counts[target] + 1)
        d_coh = self._h(i) + self._h(target) - h_i_new - h_j_new
        dfwd, dbwd = self.edge_count_changes(v, target)
        return d_coh + self.penalties.cross_cost_delta(dfwd, dbwd)

    def apply_move(self, v: int, target: int) -> None:
        """Commit the move of v to `target`, updating all caches in O(d + deg v)."""
        i = int(self.assign[v])
        if target == i:
            return
        dfwd, dbwd = self.edge_count_changes(v, target)
        a = self.values[v]
        self.sums[i] -= a
        self.sums[target] += a
        self.counts[i] -= 1
        self.counts[target] += 1
        self.group_sqnorm[i] -= self.point_sqnorm[v]
        self.group_sqnorm[target] += self.point_sqnorm[v]
        self.fwd_count += dfwd
        self.bwd_count += dbwd
        self.assign[v] = target

    # -- verification ----------------------------------------------------

    def cache_drift(self) -> float:
        """Largest relative deviation between cached statistics and a rebuild."""
        fresh = SolveState(self.graph, self.features, self.penalties, self.assign, self.k)
        if not np.array_equal(self.counts, fresh.counts):
            return math.inf
        if (self.fwd_count, self.bwd_count) != (fresh.fwd_count, fresh.bwd_count):
            return math.inf
        drift = 0.0
        for mine, theirs in ((self.sums, fresh.sums), (self.group_sqnorm, fresh.group_sqnorm)):
            if mine.size:
                denom = np.maximum(np.abs(theirs), 1.0)
                drift = max(drift, float((np.abs(mine - theirs) / denom).max()))
        return drift


def move_delta(state: SolveState, v: int, target: int) -> float:
    """Objective change of moving vertex v to group `target` (see SolveState.move_delta)."""
    return state.move_delta(v, target)
