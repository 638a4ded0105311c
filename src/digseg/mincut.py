"""Minimum s-t cut solvers: exact 2-group partitioning and the pairwise sweep.

Placing a vertex on the source side of the cut network means group 1 (or the
earlier group of a pair).  Terminal arc weights are squared distances to the
*other* side's center, so every s-t cut weighs exactly the fixed-center
objective of the partition it induces; edge arcs carry lambda_f forward and
lambda_b backward.  Infinite weights become a finite sentinel larger than any
cut that avoids them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import pairwise
from typing import Callable, Optional

import numpy as np

from .core import DirectedGraph, FeatureMatrix, OrderedPartition, Penalties, _csr
from .config import COMMIT_TOL, SolveConfig, SolveResult, alternate
from .objective import Centroids, SolveState, fixed_centroid_cost, vertex_group_costs

GRID_SCALE = 2.0**40
_EPS = 0.5 / GRID_SCALE  # half a grid step: residuals below this are dust


@dataclass(frozen=True, eq=False)
class FlowNetwork:
    """Directed flow network with designated source and sink.

    Arc a runs from `tails[a]` to `heads[a]` with capacity `caps[a]`: parallel
    int64 and float64 arrays in arc order.  Capacities are finite and
    non-negative.  `from_arcs` rounds finite inputs below 2^12 to the 2^-40
    grid (larger floats already sit on it) and replaces infinite ones by the
    sentinel, one plus the finite capacities summed in arc order.
    `node_labels` maps internal vertex nodes back to graph vertex ids.
    """

    num_nodes: int
    source: int
    sink: int
    tails: np.ndarray
    heads: np.ndarray
    caps: np.ndarray
    sentinel: float
    node_labels: Optional[np.ndarray] = None

    @classmethod
    def from_arcs(
        cls,
        num_nodes: int,
        source: int,
        sink: int,
        tails,
        heads,
        caps,
        node_labels=None,
    ) -> "FlowNetwork":
        tails = np.array(tails, dtype=np.int64)
        heads = np.array(heads, dtype=np.int64)
        caps = np.array(caps, dtype=np.float64)
        if not (tails.ndim == 1 and tails.shape == heads.shape == caps.shape):
            raise ValueError("tails, heads and caps must be 1-dimensional and of equal length")
        for ends in (tails, heads):
            if ends.size and (ends.min() < 0 or ends.max() >= num_nodes):
                raise ValueError(f"arc endpoints must lie in 0..{num_nodes - 1}")
        if np.isnan(caps).any():
            raise ValueError("arc capacities must not be NaN")
        small = caps < 4096.0
        caps[small] = np.round(caps[small] * GRID_SCALE) / GRID_SCALE
        if caps.size and caps.min() < 0:
            raise ValueError("arc capacities must be non-negative")
        infinite = np.isinf(caps)
        sentinel = 1.0 + sum(caps[~infinite].tolist())
        caps[infinite] = sentinel
        labels = None if node_labels is None else np.asarray(node_labels, dtype=np.int64)
        return cls(num_nodes, source, sink, tails, heads, caps, sentinel, labels)

    @property
    def num_arcs(self) -> int:
        return len(self.caps)

    def cut_weight(self, source_side) -> float:
        """Total capacity of arcs leaving the given source side."""
        side = np.zeros(self.num_nodes, dtype=bool)
        side[list(source_side)] = True
        crossing = side[self.tails] & ~side[self.heads]
        return float(self.caps[crossing].sum())


def max_flow_min_cut(net: FlowNetwork) -> tuple[float, set[int]]:
    """Minimum s-t cut value and its source side.

    Dinic's algorithm (BFS level graph + pointer-based blocking flow).  The
    returned source side is the complement of the nodes that can still reach
    the sink in the final residual network, i.e. the largest minimum cut;
    among cost ties this leans vertices toward the source side.  The value is
    re-summed from the crossing arc capacities.
    """
    n, s, t = net.num_nodes, net.source, net.sink
    # Residual arc 2e runs along the e-th positive-capacity arc, 2e + 1 against
    # it (so a ^ 1 is a's partner); a zero arc cannot carry flow and weighs 0
    # on either side.  Each node lists its residual arcs in increasing order.
    carry = net.caps > 0.0
    tails, heads = net.tails[carry], net.heads[carry]
    to = _interleave(heads, tails).tolist()
    res = _interleave(net.caps[carry], 0.0).tolist()
    indptr, arc_ids = _csr(n, _interleave(tails, heads), np.arange(2 * tails.size))
    ids = arc_ids.tolist()
    adj = [ids[a:b] for a, b in pairwise(indptr.tolist())]

    level = [-1] * n

    def bfs() -> bool:
        for i in range(n):
            level[i] = -1
        level[s] = 0
        queue = [s]
        head = 0
        while head < len(queue):
            u = queue[head]
            head += 1
            for a in adj[u]:
                v = to[a]
                if level[v] < 0 and res[a] > _EPS:
                    level[v] = level[u] + 1
                    queue.append(v)
        return level[t] >= 0

    while bfs():
        iters = [0] * n
        while True:
            path: list[int] = []
            u = s
            stuck = False
            while u != t:
                advanced = False
                while iters[u] < len(adj[u]):
                    a = adj[u][iters[u]]
                    v = to[a]
                    if res[a] > _EPS and level[v] == level[u] + 1:
                        path.append(a)
                        u = v
                        advanced = True
                        break
                    iters[u] += 1
                if not advanced:
                    if u == s:
                        stuck = True
                        break
                    a = path.pop()
                    u = to[a ^ 1]
                    iters[u] += 1
            if stuck:
                break
            bottleneck = min(res[a] for a in path)
            for a in path:
                res[a] -= bottleneck
                res[a ^ 1] += bottleneck

    # Nodes that can still reach the sink: reverse reachability over residual arcs.
    reaches_sink = [False] * n
    reaches_sink[t] = True
    queue = [t]
    head = 0
    while head < len(queue):
        x = queue[head]
        head += 1
        for b in adj[x]:
            w = to[b]
            # arc (w -> x) is the partner of (x -> w)
            if not reaches_sink[w] and res[b ^ 1] > _EPS:
                reaches_sink[w] = True
                queue.append(w)
    side = {i for i in range(n) if not reaches_sink[i]}
    return net.cut_weight(side), side


def _interleave(a, b) -> np.ndarray:
    """a[0], b[0], a[1], b[1], ...; a scalar stands for a constant array."""
    return np.stack(np.broadcast_arrays(a, b), axis=1).ravel()


def _cut_network(
    to_sink_side,
    to_source_side,
    edge_tails: np.ndarray,
    edge_heads: np.ndarray,
    penalties: Penalties,
    node_labels: np.ndarray,
) -> FlowNetwork:
    """Cut network over local nodes 0..len(node_labels)-1 with s, t next.

    Arcs in the order max-flow tie-breaking depends on: (s, v) at v's
    sink-side price and (v, t) at its source-side price for each node v,
    then (u, w) at lambda_f and (w, u) at lambda_b for each local edge.
    """
    nloc = node_labels.size
    s, t = nloc, nloc + 1
    nodes = np.arange(nloc)
    tails = np.concatenate((_interleave(s, nodes), _interleave(edge_tails, edge_heads)))
    heads = np.concatenate((_interleave(nodes, t), _interleave(edge_heads, edge_tails)))
    edge_caps = _interleave(np.full(edge_tails.size, penalties.lambda_f), penalties.lambda_b)
    caps = np.concatenate((_interleave(to_sink_side, to_source_side), edge_caps))
    return FlowNetwork.from_arcs(nloc + 2, s, t, tails, heads, caps, node_labels=node_labels)


def build_cut_graph_k2(
    graph: DirectedGraph,
    features: FeatureMatrix,
    mu1,
    mu2,
    penalties: Penalties,
) -> FlowNetwork:
    """Cut network for exact 2-group partitioning of a whole graph.

    Internal node v is graph vertex v; source = n, sink = n + 1.  The arc
    (s, v) weighs the cost of assigning v to group 2, the arc (v, t) the cost
    of group 1; each graph edge (v, w) adds (v, w) at lambda_f and (w, v) at
    lambda_b.
    """
    costs = vertex_group_costs(features, Centroids.from_rows([mu1, mu2]))
    return _cut_network(
        costs[:, 1], costs[:, 0], graph.edge_src, graph.edge_dst, penalties,
        np.arange(graph.n, dtype=np.int64),
    )


def solve_two_partition(
    graph: DirectedGraph,
    features: FeatureMatrix,
    mu1,
    mu2,
    penalties: Penalties,
) -> tuple[OrderedPartition, float]:
    """Exact minimizer of the fixed-center objective for k = 2.

    The returned cost is the objective of the partition; it equals the cut
    value whenever no sentinel (infinite-weight) arc is cut.  Vertices whose
    placement is cost-neutral land in group 1.
    """
    net = build_cut_graph_k2(graph, features, mu1, mu2, penalties)
    _, side = max_flow_min_cut(net)
    assign = np.full(graph.n, 2, dtype=np.int64)
    for node in side:
        if node < graph.n:
            assign[node] = 1
    partition = OrderedPartition.from_labels(2, assign)
    cost = fixed_centroid_cost(graph, features, partition, Centroids.from_rows([mu1, mu2]), penalties)
    return partition, cost


def build_cut_graph_pair(
    state: SolveState,
    i: int,
    j: int,
    penalties: Penalties,
) -> FlowNetwork:
    """Cut network that redistributes the members of groups i and j (i < j).

    Only those vertices appear as internal nodes (`node_labels` maps them
    back), and both groups need a defined center.  Terminal weights gain
    corrections for edges to the groups strictly between i and j: such an
    edge is backward on one side of the choice and forward on the other.
    Edges to groups outside (i, j) cost the same either way and are omitted.
    """
    if not (1 <= i < j <= state.k):
        raise ValueError(f"expected 1 <= i < j <= {state.k}, got ({i}, {j})")
    assign = state.assign
    in_pair = (assign == i) | (assign == j)
    between = (assign > i) & (assign < j)
    members = np.flatnonzero(in_pair)
    cents = state.centroids()
    pair_cents = Centroids.from_rows([cents.mu_for(i), cents.mu_for(j)])
    costs = vertex_group_costs(FeatureMatrix.from_array(state.values[members]), pair_cents)

    local = np.full(state.graph.n, -1, dtype=np.int64)
    local[members] = np.arange(members.size)
    esrc, edst = state.graph.edge_src, state.graph.edge_dst
    src_in_pair, dst_in_pair = in_pair[esrc], in_pair[edst]
    # edges v -> W and W -> v for members v
    out_to_w = np.bincount(local[esrc[src_in_pair & between[edst]]], minlength=members.size)
    in_from_w = np.bincount(local[edst[between[esrc] & dst_in_pair]], minlength=members.size)

    def cross_cost(forward, backward):
        inf_edges, finite = penalties.split(forward, backward)
        return np.where(inf_edges != 0, math.inf, finite)

    both = src_in_pair & dst_in_pair
    return _cut_network(
        costs[:, 1] + cross_cost(in_from_w, out_to_w),  # price of the sink side (group j)
        costs[:, 0] + cross_cost(out_to_w, in_from_w),  # price of the source side (group i)
        local[esrc[both]], local[edst[both]], penalties, members,
    )


def redistribute_pair(
    state: SolveState,
    i: int,
    j: int,
    penalties: Penalties,
) -> Optional[tuple[np.ndarray, np.ndarray]]:
    """Optimal reassignment of the members of groups i and j between i and j.

    Returns (member vertex ids, target group per member) or None when either
    group is empty.  Holds every other group and all centers fixed.
    """
    if state.counts[i] == 0 or state.counts[j] == 0:
        return None
    net = build_cut_graph_pair(state, i, j, penalties)
    members = net.node_labels
    _, side = max_flow_min_cut(net)
    targets = np.full(members.size, j, dtype=np.int64)
    for node in side:
        if node < members.size:
            targets[node] = i
    return members, targets


def pair_sweep(
    state: SolveState,
    penalties: Penalties,
    commit_tol: float = COMMIT_TOL,
    step_log: Optional[list[float]] = None,
) -> int:
    """One pass over all group pairs in lexicographic order.

    Each pair's redistribution is committed only if it strictly lowers the
    cached objective by more than `commit_tol` (guards rounding-induced
    oscillation); under an infinite weight, shedding infinitely-penalized
    edges counts as an improvement even though both totals print as inf.
    Centers refresh implicitly from the running sums after each commit.
    Returns the number of committed pair steps.
    """
    commits = 0
    for i in range(1, state.k):
        for j in range(i + 1, state.k + 1):
            result = redistribute_pair(state, i, j, penalties)
            if result is None:
                continue
            members, targets = result
            mask = state.assign[members] != targets
            changed = members[mask]
            if changed.size == 0:
                continue
            inf_before, fin_before = state.loss_parts()
            olds = state.assign[changed].copy()
            for v, g in zip(changed, targets[mask]):
                state.apply_move(int(v), int(g))
            inf_after, fin_after = state.loss_parts()
            improved = inf_after < inf_before or (
                inf_after == inf_before and fin_after < fin_before - commit_tol
            )
            if improved:
                commits += 1
                if step_log is not None:
                    step_log.append(state.total())
            else:
                for v, g in zip(changed, olds):
                    state.apply_move(int(v), int(g))
    return commits


def _sweep_step(state: SolveState, it: int, step_log: Optional[list[float]]) -> int:
    state.rebuild()  # clear running-sum drift before the sweep
    return pair_sweep(state, state.penalties, step_log=step_log)


def run_mcut(
    graph: DirectedGraph,
    features: FeatureMatrix,
    penalties: Penalties,
    k: int,
    init: OrderedPartition,
    config: SolveConfig,
    _repair: Optional[Callable[[SolveState], object]] = None,
) -> SolveResult:
    """Pairwise cut search from the given initial partition.

    Each iteration of `alternate` is one full pair sweep.  Pairs with an
    empty (undefined-center) side are skipped; the iterative driver reseeds
    empty groups between sweeps.
    """
    if k < 2:
        raise ValueError(f"the pairwise cut solver needs k >= 2, got {k}")
    if init.k != k or init.n != graph.n:
        raise ValueError("initial partition does not match the instance")
    return alternate(graph, features, penalties, init, config, _sweep_step, _repair)
