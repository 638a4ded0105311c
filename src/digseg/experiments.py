"""Synthetic benchmark instances, noise injection, ARI, and the noise sweep.

The tree generator grows a random recursive tree (each vertex attaches under
a uniformly random earlier vertex), splits the id range into k equal
contiguous blocks as the ground truth, and samples block features around
uniformly drawn centers.  The DAG generator adds independent forward pair
edges on top.  Every edge goes from a lower id to a higher one, so the
ground truth has no backward cross edges by construction.
"""

from __future__ import annotations

import csv
import dataclasses
import math
import time
from dataclasses import dataclass
from typing import IO, Sequence

import numpy as np

from .config import SolveConfig, norm_seed
from .core import DirectedGraph, FeatureMatrix, OrderedPartition, Penalties
from .driver import multi_restart


@dataclass(frozen=True, eq=False)
class SyntheticInstance:
    graph: DirectedGraph
    features: FeatureMatrix
    ground_truth: OrderedPartition
    true_centroids: np.ndarray
    sigma2: float


def _gen(n: int, d: int, k: int, sigma2: float, edge_prob: float, seed: int) -> SyntheticInstance:
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if k < 1:
        raise ValueError(f"need k >= 1 clusters, got {k}")
    if n % k:
        raise ValueError(f"n must be divisible by k, got n={n}, k={k}")
    if sigma2 < 0:
        raise ValueError(f"variance must be non-negative, got {sigma2}")
    if not 0.0 <= edge_prob <= 1.0:
        raise ValueError(f"edge probability must lie in [0, 1], got {edge_prob}")
    # independent streams keep the tree and features identical whether or not
    # pair edges are drawn
    tree_ss, pair_ss, feat_ss = np.random.SeedSequence(norm_seed(seed)).spawn(3)

    # tree edges (parent, v) for v = 1..n-1, then the pair edges in row-major order
    src = dst = np.zeros(0, dtype=np.int64)
    if n > 1:
        src = np.random.default_rng(tree_ss).integers(0, np.arange(1, n))
        dst = np.arange(1, n)
    if edge_prob > 0.0 and n > 1:
        pair_rng = np.random.default_rng(pair_ss)
        iu, ju = np.triu_indices(n, k=1)
        hits = pair_rng.random(iu.size) < edge_prob
        src, dst = np.concatenate((src, iu[hits])), np.concatenate((dst, ju[hits]))
    graph = DirectedGraph.from_edges(n, np.column_stack((src, dst)))

    feat_rng = np.random.default_rng(feat_ss)
    centroids = feat_rng.uniform(0.0, 1.0, size=(k, d))
    block = np.arange(n) // (n // k)
    values = centroids[block] + feat_rng.normal(0.0, math.sqrt(sigma2), size=(n, d))
    return SyntheticInstance(
        graph=graph,
        features=FeatureMatrix.from_array(values),
        ground_truth=OrderedPartition.from_labels(k, block + 1),
        true_centroids=centroids,
        sigma2=sigma2,
    )


def gen_stree(n: int = 1000, d: int = 10, k: int = 5, sigma2: float = 0.1, *, seed: int) -> SyntheticInstance:
    """Random recursive tree instance; root is vertex 0, every edge goes id-up."""
    return _gen(n, d, k, sigma2, 0.0, seed)


def gen_sdag(
    n: int = 1000,
    d: int = 10,
    k: int = 5,
    sigma2: float = 0.1,
    edge_prob: float = 0.01,
    *,
    seed: int,
) -> SyntheticInstance:
    """The tree instance plus independent Bernoulli forward pair edges.

    Pair edges are drawn independently of the tree, so parallel duplicates
    can occur; with edge_prob = 0 the instance equals `gen_stree(seed)`.
    """
    return _gen(n, d, k, sigma2, edge_prob, seed)


def inject_noise(instance: SyntheticInstance, p: float, seed: int) -> SyntheticInstance:
    """Independently re-draw each vertex's feature with probability p.

    A hit vertex gets a fresh normal feature around a uniformly random true
    center (possibly its own block's).  Graph and ground truth are unchanged.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"noise probability must lie in [0, 1], got {p}")
    rng = np.random.default_rng(norm_seed(seed))
    n, d = instance.features.n, instance.features.d
    k = instance.ground_truth.k
    hits = rng.random(n) < p
    choice = rng.integers(0, k, size=n)
    redrawn = instance.true_centroids[choice] + rng.normal(
        0.0, math.sqrt(instance.sigma2), size=(n, d)
    )
    values = np.where(hits[:, None], redrawn, instance.features.values)
    return SyntheticInstance(
        graph=instance.graph,
        features=FeatureMatrix.from_array(values),
        ground_truth=instance.ground_truth,
        true_centroids=instance.true_centroids,
        sigma2=instance.sigma2,
    )


def adjusted_rand_index(p: OrderedPartition, q: OrderedPartition) -> float:
    """Chance-corrected pairwise agreement between two partitions.

    Group order is ignored; identical set partitions score 1.  Uses the
    standard permutation-model closed form over the contingency table, with
    exact integer pair counts.
    """
    if p.n != q.n:
        raise ValueError(f"partition sizes differ: {p.n} vs {q.n}")
    n = p.n
    if n < 2:
        raise ValueError("the index needs at least 2 elements")
    table = np.zeros((p.k, q.k), dtype=np.int64)
    np.add.at(table, (p.assign - 1, q.assign - 1), 1)

    def pairs(x: np.ndarray) -> int:
        x = x.astype(object)
        return int((x * (x - 1) // 2).sum())

    sum_cells = pairs(table.ravel())
    sum_rows = pairs(table.sum(axis=1))
    sum_cols = pairs(table.sum(axis=0))
    total = n * (n - 1) // 2
    # (index - expected) / (max_index - expected), scaled by 2 * total so both
    # sides stay exact integers until the final division
    numerator = 2 * (sum_cells * total - sum_rows * sum_cols)
    denominator = (sum_rows + sum_cols) * total - 2 * sum_rows * sum_cols
    if denominator == 0:
        return 1.0
    return numerator / denominator


SWEEP_HEADER = ("p", "lambda_f", "lambda_b", "solver", "loss", "ari", "iterations", "seconds")


@dataclass(frozen=True)
class SweepRow:
    p: float
    lambda_f: float
    lambda_b: float
    solver: str
    loss: float
    ari: float
    iterations: int
    seconds: float


DEFAULT_PENALTIES = (Penalties(0.0, 0.0), Penalties(0.0, 1e5))


def run_noise_sweep(
    model: str,
    penalties_list: Sequence[Penalties],
    p_grid: Sequence[float],
    solver_kind: str,
    config: SolveConfig,
    n: int = 1000,
    d: int = 10,
    k: int = 5,
    sigma2: float = 0.1,
    edge_prob: float = 0.01,
    threads: int = 1,
) -> list[SweepRow]:
    """Solve one generated instance per noise level under each penalty setting.

    Within a sweep the instance at a given p is shared across the penalty
    settings so their scores are directly comparable.  Rows come out p-major
    in grid order, then in penalty order.
    """
    if model not in ("tree", "dag"):
        raise ValueError(f"model must be 'tree' or 'dag', got {model!r}")
    rows: list[SweepRow] = []
    for p_index, p in enumerate(p_grid):
        inst_seed = int(np.random.SeedSequence([norm_seed(config.seed), p_index]).generate_state(1)[0])
        if model == "tree":
            inst = gen_stree(n, d, k, sigma2, seed=inst_seed)
        else:
            inst = gen_sdag(n, d, k, sigma2, edge_prob, seed=inst_seed)
        noisy = inject_noise(inst, p, seed=inst_seed + 1)
        for pen in penalties_list:
            cell_config = dataclasses.replace(config, solver_kind=solver_kind, track_steps=False)
            start = time.perf_counter()
            result = multi_restart(noisy.graph, noisy.features, pen, k, cell_config, threads=threads)
            elapsed = time.perf_counter() - start
            rows.append(
                SweepRow(
                    p=float(p),
                    lambda_f=pen.lambda_f,
                    lambda_b=pen.lambda_b,
                    solver=solver_kind,
                    loss=result.breakdown.total,
                    ari=adjusted_rand_index(result.partition, noisy.ground_truth),
                    iterations=result.iterations,
                    seconds=elapsed,
                )
            )
    return rows


def _csv_num(x: float) -> str:
    return "inf" if math.isinf(x) else repr(float(x))


def write_sweep_csv(rows: Sequence[SweepRow], stream: IO) -> None:
    """Write sweep rows as CSV with the fixed header; empty input gives header only."""
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(SWEEP_HEADER)
    for r in rows:
        writer.writerow(
            [
                repr(float(r.p)),
                _csv_num(r.lambda_f),
                _csv_num(r.lambda_b),
                r.solver,
                _csv_num(r.loss),
                repr(float(r.ari)),
                r.iterations,
                repr(float(r.seconds)),
            ]
        )
