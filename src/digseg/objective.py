"""Segmentation objective: L2 group coherence plus weighted cross-edge penalties.

The cost of an ordered partition is the sum over groups of the minimum total
squared distance to a single center, plus lambda_f per forward cross edge and
lambda_b per backward cross edge.  `SolveState` keeps per-group running sums
and the two cross-edge counts always current: `SolveState.apply_move`, its
one incremental writer, updates them from the moved vertices' own edges.
`SolveState.move_deltas` is the one place a move of single vertices is scored.
Both read a vertex's edges, out-edges then in-edges, from its row of
`DirectedGraph.adjacency`, one gather for all their vertices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np

from .core import DirectedGraph, FeatureMatrix, OrderedPartition, Penalties, _csr_rows, _interleave


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

    def mu_for(self, group: int) -> np.ndarray:
        if not self.defined[group - 1]:
            raise ValueError(f"centroid of group {group} is undefined (empty group)")
        return self.mu[group - 1]


LossKey = tuple[int, float]


@dataclass(frozen=True)
class CostBreakdown:
    """Objective value split into coherence and the two cross-edge counts.

    `key` is the loss key every loss comparison uses: (count of infinitely
    weighted cross edges, coherence plus the finite penalties), compared
    lexicographically where plain totals would all be inf.  At finite
    weights it is (0, total).
    """

    coherence: float
    forward_edges: int
    backward_edges: int
    key: LossKey

    @classmethod
    def of(cls, coherence: float, forward: int, backward: int, penalties: Penalties) -> "CostBreakdown":
        inf_edges, finite = penalties.split(forward, backward)
        return cls(coherence, forward, backward, (inf_edges, coherence + finite))

    @property
    def total(self) -> float:
        inf_edges, finite = self.key
        return math.inf if inf_edges else finite


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
    return CostBreakdown.of(coherence, *cross_edge_counts(graph, partition.assign), penalties)


def vertex_group_costs(features: FeatureMatrix, centroids: Centroids) -> np.ndarray:
    """(n, k) matrix of squared distances to each group center.

    Columns of undefined centers are +inf, which marks those groups as
    unusable for fixed-center solvers.
    """
    vals = features.values
    costs = _sq_distances(vals, (vals * vals).sum(axis=1), centroids.mu)
    costs[:, ~centroids.defined] = math.inf
    return costs


def _sq_distances(values: np.ndarray, sqnorm: np.ndarray, mu: np.ndarray) -> np.ndarray:
    """(rows, centers) squared distances from the rows of `values`, whose squared
    norms are `sqnorm`, to the rows of `mu`, clamped at 0."""
    costs = sqnorm[:, None] + (mu * mu).sum(axis=1)[None, :] - 2.0 * (values @ mu.T)
    np.maximum(costs, 0.0, out=costs)
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
    return CostBreakdown.of(feat, *cross_edge_counts(graph, assign), penalties).total


def _sorted_in_range(ids: np.ndarray, lo: int, hi: int, name: str) -> np.ndarray:
    """`ids` in ascending order; an id outside lo..hi raises ValueError naming it."""
    ordered = np.sort(ids)
    if ordered.size and (ordered[0] < lo or ordered[-1] > hi):
        bad = ordered[0] if ordered[0] < lo else ordered[-1]
        raise ValueError(f"{name} {bad} out of range {lo}..{hi}")
    return ordered


def _check_vertices(vertices: np.ndarray, n: int, distinct: bool = True) -> None:
    """Raise ValueError for a vertex outside 0..n-1 and, if `distinct`, for a repeated one."""
    ordered = _sorted_in_range(vertices, 0, n - 1, "vertex")
    if distinct and (ordered[1:] == ordered[:-1]).any():
        raise ValueError("a vertex is moved twice in one batch")


def _h(sums: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """||sum||^2 / count per group row (0 for an empty group), summed over the last axis."""
    sq = (sums * sums).sum(axis=-1)
    return np.where(counts > 0, sq / np.maximum(counts, 1), 0.0)


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


class SolveState:
    """Mutable partition state with cached group statistics.

    Caches per-group member counts, feature sums and squared-norm sums, and
    the (forward, backward) cross-edge counts `edge_counts`.  They are always
    current: `apply_move` updates them in O(d + deg v) per moved vertex, the
    counts from the vertices' own edges, and `rebuild` recomputes them all.
    So every writer of `assign` must go through `apply_move` or `rebuild`.
    `move_deltas` scores vertices' moves from the caches and the graph's
    `adjacency` rows in O(k d + deg v) per vertex.  Group-indexed arrays have
    k+1 rows with row 0 unused.  Single-owner mutable; not thread-safe.
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
        self.edge_counts = cross_edge_counts(self.graph, self.assign)

    # -- queries ---------------------------------------------------------

    def _h_all(self) -> np.ndarray:
        """|S_g| * ||mu_g||^2 = ||sum_g||^2 / |S_g| of every group."""
        return _h(self.sums, self.counts)

    def coherence(self) -> float:
        """Total coherence via the sum-decomposition identity, clamped at zero per group."""
        per_group = self.group_sqnorm - self._h_all()
        return float(np.maximum(per_group, 0.0)[1:].sum())

    def breakdown(self) -> CostBreakdown:
        return CostBreakdown.of(self.coherence(), *self.edge_counts, self.penalties)

    def total(self) -> float:
        return self.breakdown().total

    def loss_parts(self) -> LossKey:
        """The loss key, `breakdown().key`, from the cached sums and edge counts."""
        return self.breakdown().key

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

    def move_deltas(self, vertices: np.ndarray, guess: Optional[np.ndarray] = None) -> np.ndarray:
        """(len(vertices), k+1) objective changes of moving each vertex to each group.

        Without `guess` every entry moves one vertex alone against the current
        state.  `guess` holds a guessed target per vertex (its own group: it
        stays), and the vertices must then be distinct: row p is scored
        against the state the guessed moves of rows < p, applied in order,
        would leave.  Its group sums equal `apply_move`'s running sums bit for
        bit, and a neighbor in an earlier row counts in its guessed group.
        Column 0 and each vertex's own group are +inf, and infinite weights
        give +-inf.  With both weights 0 the entries are the coherence changes
        alone: the edge term is skipped, since adding it would add only
        (signed) zeros, and so is the gather of the vertices' `adjacency`
        rows.  A vertex outside 0..n-1, or with `guess` a repeated vertex,
        raises ValueError.
        """
        _check_vertices(vertices, self.graph.n, distinct=guess is not None)
        k1 = self.k + 1
        rows = np.arange(vertices.size)
        own = self.assign[vertices]
        a = self.values[vertices]
        guess = own if guess is None else guess
        moves = guess != own
        movers = np.flatnonzero(moves)

        # states[i] holds the group counts and sums after the first i guessed
        # moves, summed in order (x - a == x + (-a) in IEEE arithmetic); row p
        # is scored against states[seen[p]]
        steps = np.arange(1, movers.size + 1)
        counts = np.zeros((movers.size + 1, k1), dtype=np.int64)
        sums = np.zeros((movers.size + 1, k1, self.features.d))
        counts[0], sums[0] = self.counts, self.sums
        counts[steps, own[movers]], sums[steps, own[movers]] = -1, -a[movers]
        counts[steps, guess[movers]], sums[steps, guess[movers]] = 1, a[movers]
        np.cumsum(counts, axis=0, out=counts)
        np.cumsum(sums, axis=0, out=sums)
        h = _h(sums, counts)
        seen = np.cumsum(moves) - moves

        # coherence terms: h(S) = |S| * ||mu||^2 from the running sums; the
        # leaving group's row is one dot product per vertex, the same as `s @ s`
        s_out = sums[seen, own] - a
        c_out = counts[seen, own] - 1
        sq_out = np.matmul(s_out[:, None, :], s_out[:, :, None])[:, 0, 0]
        h_out = np.where(c_out > 0, sq_out / np.maximum(c_out, 1), 0.0)
        s_plus = sums[seen]
        s_plus += a[:, None, :]
        s_plus *= s_plus
        h_plus = s_plus.sum(axis=2) / (counts[seen] + 1)
        delta = (h[seen, own] - h_out)[:, None] + (h[seen] - h_plus)

        if not self.penalties.is_zero:
            # cross-edge counts for every target: neighbor counts per (row,
            # direction, group) from one bincount, then one product with the
            # 0/1 edge matrix
            indptr, adj, incoming = self.graph.adjacency
            pos, deg = _csr_rows(indptr, vertices)
            nbr, row = adj[pos], np.repeat(rows, deg)
            labels = self.assign[nbr]
            if movers.size:
                # a neighbor that is a mover of an earlier row counts in its guessed group
                ids = vertices[movers]
                j = np.argsort(ids)
                j = j[np.searchsorted(ids, nbr, sorter=j).clip(max=movers.size - 1)]
                earlier = (ids[j] == nbr) & (movers[j] < row)
                labels = np.where(earlier, guess[movers[j]], labels)
            slot = row * (2 * k1) + incoming[pos] * k1  # the (row, direction) block of k+1 groups
            nbr_counts = np.bincount(slot + labels, minlength=vertices.size * 2 * k1)
            at = nbr_counts.reshape(vertices.size, 2 * k1) @ _edge_matrix(self.k)
            fwd_at, bwd_at = at[:, :k1], at[:, k1:]
            inf_change, finite = self.penalties.split(
                fwd_at - fwd_at[rows, own][:, None], bwd_at - bwd_at[rows, own][:, None]
            )
            # a move that adds, sheds or keeps infinitely weighted edges: +inf, -inf, finite part
            delta += np.where(inf_change, np.copysign(np.inf, inf_change), finite)
        delta[:, 0] = np.inf
        delta[rows, own] = np.inf
        return delta

    def _check_moves(self, vertices: np.ndarray, targets: np.ndarray) -> None:
        if vertices.shape != targets.shape:
            raise ValueError(f"{vertices.size} vertices but {targets.size} targets")
        _check_vertices(vertices, self.graph.n)
        _sorted_in_range(targets, 1, self.k, "target group")

    def move_delta(self, v: int, target: int) -> float:
        """Objective change of moving v to group `target`; does not mutate.

        One entry of `move_deltas`.  May be +-inf under infinite weights.
        """
        vs = np.array([v], dtype=np.int64)
        self._check_moves(vs, np.array([target], dtype=np.int64))
        if target == self.assign[v]:
            raise ValueError("target group equals the current group")
        return float(self.move_deltas(vs)[0, target])

    def apply_move(self, vertices, targets) -> None:
        """Move each of `vertices` to its entry of `targets`, in order.

        The vertices are distinct, a scalar being one vertex; a target may be
        the vertex's own group, which leaves it in place.  Each cache row gets
        -a at a moved vertex's old group and +a at its new one, in commit
        order, so every float equals that of moving the vertices one at a
        time.  The edge counts change by the moved vertices' own edges, each
        edge taken once, in O(d + deg v) per vertex.  A vertex or target out
        of range, a repeated vertex or unequal lengths raise ValueError
        before anything changes.
        """
        vs, ts = (np.atleast_1d(np.asarray(x, dtype=np.int64)) for x in (vertices, targets))
        self._check_moves(vs, ts)
        olds = self.assign[vs]
        moved = olds != ts
        vs, ts, olds = vs[moved], ts[moved], olds[moved]

        # the moved vertices' edges from their `adjacency` rows; an in-edge
        # whose tail moved too is that tail's out-edge, so it is taken only there
        indptr, adj, incoming = self.graph.adjacency
        at, deg = _csr_rows(indptr, vs)
        nbr, flip = adj[at], 1 - 2 * incoming[at]  # +1 on an out-edge, -1 on an in-edge
        before = self.assign[nbr]
        self.assign[vs] = ts
        after = self.assign[nbr]
        once = (flip > 0) | (before == after)
        # per labelling, edges by the sign of head group minus tail group: backward, inner, forward
        was, now = (
            np.bincount((flip * np.sign(g - np.repeat(own, deg)))[once] + 1, minlength=3)
            for g, own in ((before, olds), (after, ts))
        )
        fwd, bwd = self.edge_counts
        self.edge_counts = (fwd + int(now[2] - was[2]), bwd + int(now[0] - was[0]))

        np.subtract.at(self.counts, olds, 1)
        np.add.at(self.counts, ts, 1)
        groups = _interleave(olds, ts)  # old, new, old, new, ...
        a, sq = self.values[vs], self.point_sqnorm[vs]
        np.add.at(self.sums, groups, _interleave(-a, a))
        np.add.at(self.group_sqnorm, groups, _interleave(-sq, sq))

    # -- verification ----------------------------------------------------

    def cache_drift(self) -> float:
        """Largest relative deviation between cached statistics and a rebuild."""
        fresh = SolveState(self.graph, self.features, self.penalties, self.assign, self.k)
        if not np.array_equal(self.counts, fresh.counts):
            return math.inf
        if self.edge_counts != fresh.edge_counts:
            return math.inf
        drift = 0.0
        for mine, theirs in ((self.sums, fresh.sums), (self.group_sqnorm, fresh.group_sqnorm)):
            if mine.size:
                denom = np.maximum(np.abs(theirs), 1.0)
                drift = max(drift, float((np.abs(mine - theirs) / denom).max()))
        return drift

