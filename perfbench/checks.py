"""Output checks the benchmark applies to every solve, computed without digseg."""

from __future__ import annotations

import numpy as np

REL_TOL = 1e-9


def adjusted_rand_index(a: np.ndarray, b: np.ndarray) -> float:
    """Adjusted Rand index of two label vectors (labels are any integers)."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError("label vectors must be 1-dimensional and of equal length")
    n = a.size
    if n < 2:
        raise ValueError("the index needs at least 2 elements")
    _, ai = np.unique(a, return_inverse=True)
    _, bi = np.unique(b, return_inverse=True)
    cells = np.bincount(ai * (bi.max() + 1) + bi)

    def pairs(x: np.ndarray) -> int:
        x = x.astype(np.int64)
        return int((x * (x - 1) // 2).sum())

    sum_cells = pairs(cells)
    sum_rows = pairs(np.bincount(ai))
    sum_cols = pairs(np.bincount(bi))
    total = n * (n - 1) // 2
    expected = sum_rows * sum_cols / total
    max_index = (sum_rows + sum_cols) / 2
    if max_index == expected:
        return 1.0
    return (sum_cells - expected) / (max_index - expected)


def _rel_err(got: float, want: float) -> float:
    return abs(got - want) / max(1.0, abs(want))


def result_problems(result, instance, lambda_f: float, lambda_b: float) -> list[str]:
    """Reasons why a `SolveResult` is wrong for `instance`; empty when it is right.

    Checks that the labels are n values in 1..k, and that the reported cost
    breakdown matches a direct recomputation: coherence from the group means,
    forward/backward counts from the edge arrays.
    """
    n, k = instance.n, instance.k
    labels = np.asarray(result.partition.assign)
    if result.partition.k != k:
        return [f"partition has k={result.partition.k}, expected {k}"]
    if labels.shape != (n,):
        return [f"labels have shape {labels.shape}, expected ({n},)"]
    if labels.min() < 1 or labels.max() > k:
        return [f"labels outside 1..{k}"]
    values = instance.values
    counts = np.bincount(labels, minlength=k + 1)
    sums = np.zeros((k + 1, instance.d))
    np.add.at(sums, labels, values)
    means = sums / np.maximum(counts, 1)[:, None]
    coherence = float(((values - means[labels]) ** 2).sum())
    gs, gd = labels[instance.src], labels[instance.dst]
    forward, backward = int((gs < gd).sum()), int((gs > gd).sum())
    total = coherence
    if forward:
        total += lambda_f * forward
    if backward:
        total += lambda_b * backward

    got = result.breakdown
    problems = []
    if (got.forward_edges, got.backward_edges) != (forward, backward):
        problems.append(
            f"edge counts {(got.forward_edges, got.backward_edges)} != {(forward, backward)}"
        )
    if _rel_err(got.coherence, coherence) > REL_TOL:
        problems.append(f"coherence {got.coherence!r} != {coherence!r}")
    if _rel_err(got.total, total) > REL_TOL:
        problems.append(f"total {got.total!r} != {total!r}")
    return problems
