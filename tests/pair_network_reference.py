"""Four-mask pair network builder, kept as the reference for the band-code scan.

This is the straightforward layout: the members' prices come from
`vertex_group_costs` on their gathered rows (their squared norms computed
anew), and the edges to the groups between the pair and the in-pair edges
are found with one boolean gather per endpoint and band.  The library's
builder must lay out the same network: node count, arcs in the same order,
capacities, sentinel and node labels bit for bit.
"""

from __future__ import annotations

import numpy as np

from digseg.core import FeatureMatrix, _interleave
from digseg.mincut import FlowNetwork, _pair_inputs, _with_terminals
from digseg.objective import Centroids, SolveState, vertex_group_costs


def pair_network(graph, values, bands, centers, penalties) -> FlowNetwork:
    """Cut network splitting the members of a group pair (band 1) between its two groups."""
    in_pair, between = bands == 1, bands == 2
    members = np.flatnonzero(in_pair)
    m = members.size
    costs = vertex_group_costs(FeatureMatrix(values[members]), Centroids.from_rows(centers))

    local = np.full(graph.n, -1, dtype=np.int64)
    local[members] = np.arange(m)
    esrc, edst = graph.edge_src, graph.edge_dst
    src_in_pair, dst_in_pair = in_pair[esrc], in_pair[edst]
    # edges v -> W and W -> v for members v, W the groups strictly between i and j
    out_to_w = np.bincount(local[esrc[src_in_pair & between[edst]]], minlength=m)
    in_from_w = np.bincount(local[edst[between[esrc] & dst_in_pair]], minlength=m)

    both = src_in_pair & dst_in_pair
    tails, heads = local[esrc[both]], local[edst[both]]
    to_j_count, to_j = penalties.split(in_from_w, out_to_w)
    to_i_count, to_i = penalties.split(out_to_w, in_from_w)
    arcs = _with_terminals(
        costs[:, 1] + to_j, costs[:, 0] + to_i,
        _interleave(tails, heads), _interleave(heads, tails),
        _interleave(np.full(tails.size, penalties.lambda_f), penalties.lambda_b),
    )
    counts = np.zeros(arcs[2].size, dtype=np.int64)
    counts[0 : 2 * m : 2], counts[1 : 2 * m : 2] = to_j_count, to_i_count
    return FlowNetwork.from_arcs(m + 2, m, m + 1, *arcs, node_labels=members, inf_counts=counts)


def state_pair_network(state: SolveState, i: int, j: int) -> FlowNetwork:
    """The reference network of pair (i, j) of a solve state."""
    return pair_network(state.graph, state.values, *_pair_inputs(state, i, j), state.penalties)


def same_network(a: FlowNetwork, b: FlowNetwork) -> bool:
    """Equal node count, terminals, arcs, capacity bytes, sentinel and node labels."""
    return (
        (a.num_nodes, a.source, a.sink) == (b.num_nodes, b.source, b.sink)
        and np.array_equal(a.tails, b.tails)
        and np.array_equal(a.heads, b.heads)
        and a.caps.tobytes() == b.caps.tobytes()
        and float(a.sentinel).hex() == float(b.sentinel).hex()
        and np.array_equal(a.node_labels, b.node_labels)
    )
