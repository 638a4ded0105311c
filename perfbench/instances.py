"""Seeded synthetic instances for the benchmark, independent of `digseg.experiments`.

The model matches the paper's synthetic families: a random recursive tree
(vertex v > 0 hangs under a uniformly random earlier vertex), optionally plus
independent Bernoulli forward pair edges, and features drawn around k
uniformly placed centers, one contiguous block of ids per center.  Every edge
goes from a lower id to a higher one, so the ground truth has no backward
cross edge.

Pair edges are drawn by geometric skipping over the n(n-1)/2 upper-triangular
pair indices, so time and memory are O(n + m), not O(n^2).  The generator
lives here so that changes to the library's own generators cannot silently
change the benchmark's inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Instance:
    """One generated instance, as arrays and as the text a CLI user would load."""

    n: int
    d: int
    k: int
    seed: int
    src: np.ndarray
    dst: np.ndarray
    values: np.ndarray
    truth: np.ndarray  # ground-truth labels in 1..k
    edge_text: str
    feature_text: str

    @property
    def m(self) -> int:
        return int(self.src.size)


def tree_parents(rng: np.random.Generator, n: int) -> np.ndarray:
    """Parent of each vertex 1..n-1, uniform over the earlier vertices."""
    return rng.integers(0, np.arange(1, n)).astype(np.int64)


def pair_index_to_ij(t: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Map row-major upper-triangular pair indices to (i, j) with i < j < n."""
    rows = np.arange(n - 1, dtype=np.int64)
    starts = rows * (2 * n - rows - 1) // 2  # index of pair (i, i+1)
    i = np.searchsorted(starts, t, side="right") - 1
    j = t - starts[i] + i + 1
    return i, j


def sample_pair_edges(rng: np.random.Generator, n: int, p: float) -> tuple[np.ndarray, np.ndarray]:
    """Each pair (i, j), i < j, independently with probability p, in O(n + m)."""
    total = n * (n - 1) // 2
    if p <= 0.0 or total == 0:
        empty = np.zeros(0, dtype=np.int64)
        return empty, empty
    chunks = []
    pos = -1
    batch = max(16, int(total * p * 1.1) + 16)
    while True:
        gaps = rng.geometric(p, size=batch).astype(np.int64)
        hits = pos + np.cumsum(gaps)
        chunks.append(hits[hits < total])
        pos = int(hits[-1])
        if pos >= total:
            break
    return pair_index_to_ij(np.concatenate(chunks), n)


def block_features(
    rng: np.random.Generator, n: int, d: int, k: int, sigma2: float
) -> tuple[np.ndarray, np.ndarray]:
    """Features around k uniform centers, one contiguous id block per center."""
    if n % k:
        raise ValueError(f"n must be divisible by k, got n={n}, k={k}")
    centers = rng.uniform(0.0, 1.0, size=(k, d))
    block = np.arange(n) // (n // k)
    values = centers[block] + rng.normal(0.0, math.sqrt(sigma2), size=(n, d))
    return values, block + 1


def edge_text(n: int, src: np.ndarray, dst: np.ndarray) -> str:
    lines = [str(n)]
    lines.extend(f"{u} {v}" for u, v in zip(src.tolist(), dst.tolist()))
    return "\n".join(lines) + "\n"


def feature_text(values: np.ndarray) -> str:
    return "".join(
        f"{v}," + ",".join(repr(x) for x in row) + "\n" for v, row in enumerate(values.tolist())
    )


def generate(n: int, d: int, k: int, sigma2: float, edge_prob: float, seed: int) -> Instance:
    """Tree (edge_prob = 0) or DAG instance; the same arguments give the same instance."""
    tree_ss, pair_ss, feat_ss = np.random.SeedSequence(seed).spawn(3)
    parents = tree_parents(np.random.default_rng(tree_ss), n)
    src = [parents]
    dst = [np.arange(1, n, dtype=np.int64)]
    if edge_prob > 0.0:
        pi, pj = sample_pair_edges(np.random.default_rng(pair_ss), n, edge_prob)
        src.append(pi)
        dst.append(pj)
    src_arr, dst_arr = np.concatenate(src), np.concatenate(dst)
    values, truth = block_features(np.random.default_rng(feat_ss), n, d, k, sigma2)
    return Instance(
        n=n,
        d=d,
        k=k,
        seed=seed,
        src=src_arr,
        dst=dst_arr,
        values=values,
        truth=truth,
        edge_text=edge_text(n, src_arr, dst_arr),
        feature_text=feature_text(values),
    )
