"""Minimum s-t cut solvers: exact 2-group partitioning and the pairwise sweep step.

One builder, `_pair_network`, lays out the cut network that splits the
members of a group pair i < j between the two; the k = 2 network is the pair
network of groups 1 and 2 with every vertex in the pair.  Placing a vertex on
the source side of the cut means group i.  Terminal arc weights are squared
distances to the *other* side's center, plus the weights of edges to the
groups between the pair, so every s-t cut weighs exactly the fixed-center
objective of the partition it induces; edge arcs carry lambda_f forward and
lambda_b backward.  Each infinitely weighted edge costs a finite sentinel
above all finite parts together, so a minimum cut has the fewest such edges,
then the lowest finite part.

`max_flow_min_cut` first tries the cut that gives every node its cheaper
terminal arcs (`_cheaper_terminals`: the sink side iff its arcs to the sink
outweigh its arcs from the source by more than `_EPS`, ties to the source
side).  Every cut pays at least each node's cheaper terminal total, so when
no positive arc between two other nodes crosses that choice it is a
minimum cut (the bound behind the persistency reduction, Hammer, Hansen &
Simeone 1984), and the largest one, since a sink-side node is dearer on the
source side by a grid step.  At weights (0, 1e5) about three pair networks
in four end there.  Otherwise it fixes, exactly, every node whose side all
minimum cuts agree on (its terminal surplus outweighs all its arcs to
undecided nodes), folding the arcs of fixed nodes into their neighbours'
terminal arcs, and runs Dinic only on the nodes left open.  Every cut
network goes through `max_flow_min_cut`; at weights (0, 1e5) the reduction
leaves only a few percent of the nodes open.  It stops as soon as no node
is open, since a further round could not change a side.

The zero-weight pair step builds no network.  With both weights at 0 every
arc between members weighs 0, so no such arc crosses the cheaper-terminal
choice, which is therefore the cut.  `redistribute_pair` compares each
member's two prices, snapped to the same grid, directly: group j iff the
price of i exceeds the price of j by more than `_EPS`, group i otherwise.

`redistribute_pair` is the whole pair step.  One read of the pair's inputs
(`_pair_inputs`: each vertex's band, in group i or j, in a group strictly
between, or elsewhere, and the two centers from `SolveState.centroids`)
serves the reuse key, the zero-weight prices and the build.  Prices take
the point norms the state already holds (`SolveState.point_sqnorm`), and
the build classifies each edge by one code from its two ends' bands.
`sweep_step()` keeps each pair's last answer under those bytes and reuses
it while the same `SolveState` comes back with them unchanged, bit for
bit; given the state's graph, features and penalties `_pair_network` reads
nothing else, so a reused answer is the one a new cut would return.  A
step handed a different state forgets what it kept.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import pairwise
from typing import Optional

import numpy as np

from .core import DirectedGraph, FeatureMatrix, OrderedPartition, Penalties, _csr, _interleave
from .config import COMMIT_TOL, Step
from .objective import Centroids, LossKey, SolveState, _sq_distances, fixed_centroid_cost

GRID_SCALE = 2.0**40
_EPS = 0.5 / GRID_SCALE  # half a grid step: residuals below this are dust


def _snap(values: np.ndarray) -> np.ndarray:
    """Round, in place, the entries below 2^12 to the 2^-40 grid; larger floats already sit on it."""
    small = values < 4096.0
    values[small] = np.round(values[small] * GRID_SCALE) / GRID_SCALE
    return values


@dataclass(frozen=True, eq=False)
class FlowNetwork:
    """Directed flow network with designated source and sink.

    Arc a runs from `tails[a]` to `heads[a]` with capacity `caps[a]`: parallel
    int64 and float64 arrays in arc order.  Capacities are finite and
    non-negative.  `from_arcs` rounds finite inputs below 2^12 to the 2^-40
    grid (larger floats already sit on it) and prices every arc by one rule:
    its finite part plus the sentinel once per infinitely weighted edge it
    carries (`inf_counts`, zero by default; an infinite capacity counts as
    one).  The sentinel is one plus the finite parts summed in arc order
    (plain left-to-right float addition, the same on every Python version).
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
        inf_counts=None,
    ) -> "FlowNetwork":
        tails = np.array(tails, dtype=np.int64)
        heads = np.array(heads, dtype=np.int64)
        caps = np.array(caps, dtype=np.float64)
        if inf_counts is None:
            inf_counts = np.zeros(caps.shape, dtype=np.int64)
        inf_counts = np.asarray(inf_counts, dtype=np.int64)
        if inf_counts.shape != caps.shape or (inf_counts.size and inf_counts.min() < 0):
            raise ValueError("inf_counts must hold one non-negative count per arc")
        if not (0 <= source < num_nodes and 0 <= sink < num_nodes and source != sink):
            raise ValueError(
                f"source and sink must be two different nodes in 0..{num_nodes - 1}, "
                f"got {source} and {sink}"
            )
        if not (tails.ndim == 1 and tails.shape == heads.shape == caps.shape):
            raise ValueError("tails, heads and caps must be 1-dimensional and of equal length")
        for ends in (tails, heads):
            if ends.size and (ends.min() < 0 or ends.max() >= num_nodes):
                raise ValueError(f"arc endpoints must lie in 0..{num_nodes - 1}")
        if np.isnan(caps).any():
            raise ValueError("arc capacities must not be NaN")
        if caps.size and caps.min() < 0:
            raise ValueError("arc capacities must be non-negative")
        _snap(caps)
        infinite = np.isinf(caps)
        # plain left-to-right addition: sum() compensates from Python 3.12 on
        sentinel = 1.0 + float(np.cumsum(np.append(0.0, caps[~infinite]))[-1])
        caps[infinite] = 0.0
        caps += (inf_counts + infinite) * sentinel
        labels = None if node_labels is None else np.asarray(node_labels, dtype=np.int64)
        return cls(num_nodes, source, sink, tails, heads, caps, sentinel, labels)

    @property
    def num_arcs(self) -> int:
        return len(self.caps)

    def cut_weight(self, source_side: np.ndarray) -> float:
        """Total capacity of arcs leaving a source side (one boolean flag per node), in arc order."""
        crossing = source_side[self.tails] & ~source_side[self.heads]
        return float(self.caps[crossing].sum())


def max_flow_min_cut(net: FlowNetwork) -> tuple[float, np.ndarray]:
    """Minimum s-t cut value and its source side, one boolean flag per node.

    The cut that gives every node its cheaper terminal arcs is returned as
    it is when no arc crosses it (`_cheaper_terminals`, see the module
    docstring).  Otherwise an exact reduction fixes every node whose side is
    forced (persistency: Hammer, Hansen & Simeone 1984).  A node whose terminal
    surplus A - B (arcs from source-side nodes minus arcs to sink-side nodes)
    exceeds its arcs to open nodes lowers any cut by joining the source side,
    so every minimum cut puts it there; symmetrically for the sink side.
    Fixed nodes fold their arcs into their open neighbours' terminal
    capacities, and the tests repeat until no node changes or none is open.
    Exact ties stay open.  Dinic's algorithm then settles the open nodes, and
    is skipped when none is left.  One breadth-first residual walk gives both
    its level graphs (walking from the source) and its answer: the source
    side is the complement of the nodes that can still reach the sink in the
    final residual network (walking back from the sink), i.e. the largest
    minimum cut; among cost ties this leans vertices toward the source side.
    The value is re-summed from the full network's crossing arc capacities.
    """
    on_source = _cheaper_terminals(net)
    if on_source is not None:
        return net.cut_weight(on_source), on_source
    fixed, to_source, to_sink = _fix_forced_nodes(net)
    open_nodes = np.flatnonzero(fixed == 0)
    if open_nodes.size:
        # the open nodes, renumbered in order, with their folded terminal arcs
        # and the arcs among them; the fixed nodes drop out
        m = open_nodes.size
        local = np.full(net.num_nodes, -1, dtype=np.int64)
        local[open_nodes] = np.arange(m)
        inner = (fixed[net.tails] == 0) & (fixed[net.heads] == 0)
        arcs = _with_terminals(
            to_source[open_nodes], to_sink[open_nodes],
            local[net.tails[inner]], local[net.heads[inner]], net.caps[inner],
        )
        fixed[open_nodes] = np.where(_dinic(m + 2, m, m + 1, *arcs)[:m], 1, -1)
    on_source = fixed > 0
    return net.cut_weight(on_source), on_source


def _cheaper_terminals(net: FlowNetwork) -> Optional[np.ndarray]:
    """Source side giving each node its cheaper terminal arcs, if that is the cut; else None.

    A node other than the terminals joins the sink side iff its arcs to the
    sink outweigh its arcs from the source, each summed in arc order, by
    more than `_EPS`.  The answer is None when a positive arc between two
    such nodes runs from the source side to the sink side.
    """
    n, s, t = net.num_nodes, net.source, net.sink
    tails, heads, caps = net.tails, net.heads, net.caps
    from_s, to_t = tails == s, heads == t
    from_source = np.bincount(heads[from_s], caps[from_s], minlength=n)
    to_sink = np.bincount(tails[to_t], caps[to_t], minlength=n)
    on_source = to_sink - from_source <= _EPS
    on_source[s], on_source[t] = True, False
    inner = ~from_s & ~to_t & (caps > 0.0)
    if (on_source[tails[inner]] & ~on_source[heads[inner]]).any():
        return None
    return on_source


def _fix_forced_nodes(net: FlowNetwork) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sides every minimum cut agrees on, and the open nodes' folded terminals.

    Returns (fixed, A, B): fixed[v] is 1 for the source side, -1 for the sink
    side and 0 for an open node; A[v] and B[v] sum v's arcs from source-side
    nodes and to sink-side nodes, in arc order.
    """
    n = net.num_nodes
    fixed = np.zeros(n, dtype=np.int8)
    fixed[net.source], fixed[net.sink] = 1, -1
    # zero arcs and loops never cross a cut
    keep = (net.caps > 0.0) & (net.tails != net.heads)
    tails, heads, caps = net.tails[keep], net.heads[keep], net.caps[keep]
    while True:
        tail_side, head_side = fixed[tails], fixed[heads]
        live = (tail_side == 0) | (head_side == 0)  # arcs between fixed nodes no longer matter
        tails, heads, caps = tails[live], heads[live], caps[live]
        # column 0, 1, 2 of a node's row sums its arcs to (out) or from (into)
        # source-side, open and sink-side nodes
        out = np.bincount(3 * tails + (1 - head_side[live]), caps, minlength=3 * n).reshape(n, 3)
        into = np.bincount(3 * heads + (1 - tail_side[live]), caps, minlength=3 * n).reshape(n, 3)
        from_source, to_sink = into[:, 0], out[:, 2]
        surplus = from_source - to_sink
        is_open = fixed == 0
        to_source_side = is_open & (surplus > out[:, 1] + _EPS)
        to_sink_side = is_open & (-surplus > into[:, 1] + _EPS)
        if not (to_source_side.any() or to_sink_side.any()):
            return fixed, from_source, to_sink
        fixed[to_source_side] = 1
        fixed[to_sink_side] = -1
        if fixed.all():  # nothing open: a further round cannot change a side
            return fixed, from_source, to_sink


def _dinic(
    n: int, s: int, t: int, tails: np.ndarray, heads: np.ndarray, caps: np.ndarray
) -> np.ndarray:
    """Source side of the largest minimum s-t cut: one boolean flag per node.

    Plain Dinic over arcs (tails[a], heads[a]) with capacities caps[a].  One
    residual walk serves both ends: its hop counts from s are the level
    graph of each phase, and once s no longer reaches t the nodes it cannot
    reach walking back from t form the source side.
    """
    # Residual arc 2e runs along the e-th positive-capacity arc, 2e + 1 against
    # it (so a ^ 1 is a's partner); a zero arc cannot carry flow and weighs 0
    # on either side.  Each node lists its residual arcs in increasing order.
    carry = caps > 0.0
    tails, heads = tails[carry], heads[carry]
    to = _interleave(heads, tails).tolist()
    res = _interleave(caps[carry], 0.0).tolist()
    indptr, arc_ids = _csr(n, _interleave(tails, heads), np.arange(2 * tails.size))
    ids = arc_ids.tolist()
    adj = [ids[a:b] for a, b in pairwise(indptr.tolist())]

    def hops(start: int, flip: int) -> list[int]:
        """Breadth-first hop counts from start, -1 where unreached, along residual
        arcs (flip 0) or against them (flip 1: u's arc a leads to to[a] when its
        partner a ^ 1, from to[a] to u, has residual)."""
        dist = [-1] * n
        dist[start] = 0
        queue = [start]
        for u in queue:  # the queue grows while it is read
            for a in adj[u]:
                v = to[a]
                if dist[v] < 0 and res[a ^ flip] > _EPS:
                    dist[v] = dist[u] + 1
                    queue.append(v)
        return dist

    while (level := hops(s, 0))[t] >= 0:
        # blocking flow: advance along level arcs from each node's current arc,
        # retreat from dead ends, push each s-t path's bottleneck
        ptr = [0] * n
        path: list[int] = []
        u = s
        while True:
            if u == t:
                bottleneck = min(res[a] for a in path)
                for a in path:
                    res[a] -= bottleneck
                    res[a ^ 1] += bottleneck
                path, u = [], s
                continue
            arcs, i, next_level = adj[u], ptr[u], level[u] + 1
            while i < len(arcs) and (res[arcs[i]] <= _EPS or level[to[arcs[i]]] != next_level):
                i += 1
            ptr[u] = i
            if i < len(arcs):
                path.append(arcs[i])
                u = to[arcs[i]]
            elif path:
                u = to[path.pop() ^ 1]
                ptr[u] += 1
            else:  # stuck at s: the flow is blocking
                break
    return np.array(hops(t, 1)) < 0


def _with_terminals(source_caps, sink_caps, tails, heads, caps):
    """Arcs (s, v), (v, t) for each node v = 0..m-1 in turn, then the given arcs.

    m = len(source_caps); the source is node m and the sink node m + 1.
    """
    m = len(source_caps)
    nodes = np.arange(m)
    return (
        np.concatenate((_interleave(m, nodes), tails)),
        np.concatenate((_interleave(nodes, m + 1), heads)),
        np.concatenate((_interleave(source_caps, sink_caps), caps)),
    )


def _pair_network(
    graph: DirectedGraph,
    values: np.ndarray,
    sqnorm: np.ndarray,
    bands: np.ndarray,
    centers: np.ndarray,
    penalties: Penalties,
) -> FlowNetwork:
    """Cut network that splits the members of a group pair (i, j), i < j, between i and j.

    `values` and `sqnorm` are the feature rows and their squared norms;
    `bands` and `centers` are the pair's inputs (`_pair_inputs`): per vertex
    1 for a member, 2 in a group strictly between i and j, 0 elsewhere; and
    the centers of i and j as two rows.  The members become nodes 0..m-1 in
    id order (`node_labels`), the source m and the sink m + 1.  Arcs in the
    order max-flow tie-breaking depends on: (s, v) at v's price of group j
    and (v, t) at its price of group i, for each node v, then (u, w) at
    lambda_f and (w, u) at lambda_b for each in-pair edge in edge order.  A
    price adds to the squared distance to the group's center the weight of
    v's edges to band 2, its infinitely weighted ones counted in
    `inf_counts`; edges to other groups cost the same either way.
    """
    members = np.flatnonzero(bands == 1)
    m = members.size
    costs = _member_prices(values, sqnorm, members, centers)

    local = np.full(graph.n, -1, dtype=np.int64)
    local[members] = np.arange(m)
    esrc, edst = graph.edge_src, graph.edge_dst
    # one band code per edge, 3 * tail band + head band: 4 in-pair, 5 member
    # -> band 2, 7 band 2 -> member
    code = 3 * bands[esrc] + bands[edst]
    out_to_w = np.bincount(local[esrc[code == 5]], minlength=m)
    in_from_w = np.bincount(local[edst[code == 7]], minlength=m)

    both = code == 4
    tails, heads = local[esrc[both]], local[edst[both]]
    to_j_count, to_j = penalties.split(in_from_w, out_to_w)
    to_i_count, to_i = penalties.split(out_to_w, in_from_w)
    arcs = _with_terminals(
        costs[:, 1] + to_j, costs[:, 0] + to_i,
        _interleave(tails, heads), _interleave(heads, tails),
        _interleave(np.full(tails.size, penalties.lambda_f), penalties.lambda_b),
    )
    # strided slices, not `_interleave`: at finite weights both counts are a scalar 0
    counts = np.zeros(arcs[2].size, dtype=np.int64)
    counts[0 : 2 * m : 2], counts[1 : 2 * m : 2] = to_j_count, to_i_count
    return FlowNetwork.from_arcs(m + 2, m, m + 1, *arcs, node_labels=members, inf_counts=counts)


def _member_prices(
    values: np.ndarray, sqnorm: np.ndarray, members: np.ndarray, centers: np.ndarray
) -> np.ndarray:
    """(m, 2) squared distances of the member rows of `values` to the two `centers` rows."""
    return _sq_distances(values[members], sqnorm[members], centers)


def build_cut_graph_k2(
    graph: DirectedGraph,
    features: FeatureMatrix,
    mu1,
    mu2,
    penalties: Penalties,
) -> FlowNetwork:
    """Cut network for exact 2-group partitioning of a whole graph.

    The pair network of groups 1 and 2 with every vertex in the pair, so
    internal node v is graph vertex v; source = n, sink = n + 1.  The arc
    (s, v) weighs the cost of assigning v to group 2, the arc (v, t) the cost
    of group 1; each graph edge (v, w) adds (v, w) at lambda_f and (w, v) at
    lambda_b.  Centers that do not form two rows of the features' dimension
    raise ValueError.
    """
    if features.n != graph.n:
        raise ValueError("feature row count does not match graph vertex count")
    centers = Centroids.from_rows([mu1, mu2]).mu
    if centers.shape[1] != features.d:
        raise ValueError(
            f"centers have dimension {centers.shape[1]} but features have dimension {features.d}"
        )
    values = features.values
    bands = np.ones(graph.n, dtype=np.int8)  # every vertex is a member
    return _pair_network(graph, values, (values * values).sum(axis=1), bands, centers, penalties)


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
    _, side = max_flow_min_cut(build_cut_graph_k2(graph, features, mu1, mu2, penalties))
    partition = OrderedPartition.from_labels(2, np.where(side[: graph.n], 1, 2))
    cost = fixed_centroid_cost(graph, features, partition, Centroids.from_rows([mu1, mu2]), penalties)
    return partition, cost


def build_cut_graph_pair(
    state: SolveState, i: int, j: int, inputs: Optional[tuple[np.ndarray, np.ndarray]] = None
) -> FlowNetwork:
    """Cut network that redistributes the members of groups i and j (i < j).

    Only those vertices appear as internal nodes (`node_labels` maps them
    back), and both groups need a defined center.  Their terminal arcs also
    price the edges to the groups strictly between i and j, and arc weights
    come from `state.penalties`.  `inputs`, the pair's `(bands, centers)` as
    `_pair_inputs` reads them from this state, spares reading them again.
    """
    if not (1 <= i < j <= state.k):
        raise ValueError(f"expected 1 <= i < j <= {state.k}, got ({i}, {j})")
    bands, centers = _pair_inputs(state, i, j) if inputs is None else inputs
    return _pair_network(
        state.graph, state.values, state.point_sqnorm, bands, centers, state.penalties
    )


def redistribute_pair(
    state: SolveState, i: int, j: int, cuts: Optional[dict] = None
) -> Optional[tuple[np.ndarray, np.ndarray]]:
    """Optimal reassignment of the members of groups i and j (i < j) between i and j.

    Returns (member vertex ids, target group per member) or None when either
    group is empty; a pair out of order or range raises ValueError first.
    Holds every other group and all centers fixed.  At zero weights the
    members are priced without a network, exactly as its cut would place
    them (see the module docstring).  `cuts`, a reuse store, keeps under
    (i, j) the pair's input bytes and which members went to group j; that
    answer is returned again while the inputs are unchanged.
    """
    if not (1 <= i < j <= state.k):
        raise ValueError(f"expected 1 <= i < j <= {state.k}, got ({i}, {j})")
    if state.counts[i] == 0 or state.counts[j] == 0:
        return None
    cuts = {} if cuts is None else cuts
    bands, centers = _pair_inputs(state, i, j)
    members = np.flatnonzero(bands == 1)
    key = bands.tobytes() + centers.tobytes()
    last = cuts.get((i, j))
    if last is not None and last[0] == key:
        to_j = last[1]
    elif state.penalties.is_zero:
        prices = _snap(_member_prices(state.values, state.point_sqnorm, members, centers))
        to_j = prices[:, 0] - prices[:, 1] > _EPS
    else:
        _, side = max_flow_min_cut(build_cut_graph_pair(state, i, j, (bands, centers)))
        to_j = ~side[: members.size]
    cuts[(i, j)] = (key, to_j)
    return members, np.where(to_j, j, i)


def _pair_inputs(state: SolveState, i: int, j: int) -> tuple[np.ndarray, np.ndarray]:
    """(bands, centers): all the cut network of pair (i, j) reads of the labels and sums.

    Per vertex the band is 1 in group i or j, 2 in a group strictly between,
    0 elsewhere; the centers are the rows of groups i and j of
    `state.centroids()`, which must both be defined.  The builder prices
    these and the reuse key hashes them, so equal bytes give the same network.
    """
    band_of_group = np.zeros(state.k + 1, dtype=np.int8)
    band_of_group[i + 1 : j] = 2
    band_of_group[[i, j]] = 1
    cents = state.centroids()
    return band_of_group[state.assign], np.array([cents.mu_for(i), cents.mu_for(j)])


def pair_sweep(
    state: SolveState, step_log: Optional[list[LossKey]] = None, cuts: Optional[dict] = None
) -> int:
    """One pass over all group pairs in lexicographic order.

    Each pair's redistribution is applied as one `SolveState.apply_move`
    of its changed members and committed only if it lowers the loss key
    (`state.loss_parts()`, read once per changed pair from the always-current
    sums and edge counts): fewer infinitely weighted edges, or as many and a
    finite part lower by more than `COMMIT_TOL` (guards rounding-induced
    oscillation).  A rejected pair is reverted by one more call, and the next
    changed pair is compared against the last accepted key.
    Centers refresh implicitly from the running sums after each commit.
    `cuts`, passed to `redistribute_pair`, keeps each pair's last answer for
    reuse on this same state; None, the default, cuts every pair anew.
    Returns the number of committed pair steps.
    """
    commits = 0
    key = state.loss_parts()
    for i in range(1, state.k):
        for j in range(i + 1, state.k + 1):
            result = redistribute_pair(state, i, j, cuts)
            if result is None:
                continue
            members, targets = result
            mask = state.assign[members] != targets
            changed = members[mask]
            if changed.size == 0:
                continue
            olds = state.assign[changed]
            state.apply_move(changed, targets[mask])
            new = state.loss_parts()
            if new[0] < key[0] or (new[0] == key[0] and new[1] < key[1] - COMMIT_TOL):
                commits += 1
                key = new
                if step_log is not None:
                    step_log.append(key)
            else:
                state.apply_move(changed, olds)
    return commits


def sweep_step() -> Step:
    """The pair-cut partition step of `config.alternate`: rebuild, then `pair_sweep`.

    The rebuild clears running-sum drift.  Pairs with an empty side are
    skipped; the driver reseeds empty groups before each step.  The step
    keeps each pair's last cut across iterations for the state it last ran
    on, and forgets them all when it is handed a different state.
    """
    cuts: dict = {}
    owner: Optional[SolveState] = None

    def step(state: SolveState, it: int, step_log: Optional[list[LossKey]]) -> int:
        nonlocal owner
        if state is not owner:
            cuts.clear()
            owner = state
        state.rebuild()
        return pair_sweep(state, step_log, cuts)

    return step
