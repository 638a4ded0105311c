"""Shared helpers for randomized tests."""

from __future__ import annotations

import math

import numpy as np
from hypothesis import strategies as st

from digseg import DirectedGraph, FeatureMatrix, OrderedPartition, Penalties, SolveState


def random_digraph(rng: np.random.Generator, n: int, m: int) -> DirectedGraph:
    """Random multigraph without self-loops; parallel edges allowed."""
    if n < 2 and m > 0:
        raise ValueError(f"a graph without self-loops on {n} vertices has no edges, asked for {m}")
    edges = []
    while len(edges) < m:
        u = int(rng.integers(0, n))
        v = int(rng.integers(0, n))
        if u != v:
            edges.append((u, v))
    return DirectedGraph.from_edges(n, edges)


@st.composite
def multigraphs(draw):
    """Hypothesis strategy: multigraphs on 2..8 vertices, cycles and parallel edges allowed."""
    n = draw(st.integers(2, 8))
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda e: e[0] != e[1])
    edges = draw(st.lists(pairs, max_size=20))
    edges += draw(st.lists(st.sampled_from(edges), max_size=5)) if edges else []  # parallel edges
    return DirectedGraph.from_edges(n, edges)


def random_arborescence(rng: np.random.Generator, n: int) -> DirectedGraph:
    """Random arborescence over a random labeling; root is perm[0]."""
    perm = rng.permutation(n)
    edges = []
    for pos in range(1, n):
        parent = perm[int(rng.integers(0, pos))]
        edges.append((int(parent), int(perm[pos])))
    return DirectedGraph.from_edges(n, edges)


def random_features(rng: np.random.Generator, n: int, d: int, scale: float = 1.0) -> FeatureMatrix:
    return FeatureMatrix.from_array(rng.normal(0.0, scale, size=(n, d)))


def random_state(
    rng: np.random.Generator,
    n: int,
    m: int,
    d: int,
    k: int,
    penalties: Penalties,
) -> SolveState:
    graph = random_digraph(rng, n, m)
    features = random_features(rng, n, d)
    assign = rng.integers(1, k + 1, size=n)
    return SolveState(graph, features, penalties, assign, k)


def sse_of_partition(assign, values) -> float:
    """k-means SSE computed with plain Python accumulation (independent route)."""
    groups = {}
    for v, g in enumerate(assign):
        groups.setdefault(int(g), []).append(v)
    total = 0.0
    for members in groups.values():
        dim = len(values[0])
        mean = [math.fsum(values[v][j] for v in members) / len(members) for j in range(dim)]
        total += math.fsum(
            (values[v][j] - mean[j]) ** 2 for v in members for j in range(dim)
        )
    return total


def finite_parts(step_losses) -> list[float]:
    """Finite parts of logged loss keys, asserting that no key counts an infinitely weighted edge."""
    assert all(count == 0 for count, _ in step_losses)
    return [finite for _, finite in step_losses]


def rel_close(a: float, b: float, rtol: float = 1e-9) -> bool:
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= rtol * max(1.0, abs(a), abs(b))
