import math
import time

import numpy as np

from digseg import (
    DirectedGraph,
    FeatureMatrix,
    OrderedPartition,
    Penalties,
    SolveConfig,
    SolveState,
    best_move,
    run_greedy,
)
from digseg.greedy import sweep
from digseg.experiments import gen_stree
from conftest import random_state, rel_close, sse_of_partition

NOPEN = Penalties(0.0, 0.0)


def test_best_move_stays_when_optimal():
    g = DirectedGraph.from_edges(2, [])
    f = FeatureMatrix.from_array([[0.0], [10.0]])
    st = SolveState(g, f, NOPEN, [1, 2], 2)
    assert best_move(st, 0) == (1, 0.0)
    assert best_move(st, 1) == (2, 0.0)


def test_best_move_worked_example():
    # groups {x: 0, v: 1} and {y: 1}; moving v to group 2 gains 0.5
    g = DirectedGraph.from_edges(3, [])
    f = FeatureMatrix.from_array([[0.0], [1.0], [1.0]])
    st = SolveState(g, f, NOPEN, [1, 1, 2], 2)
    target, delta = best_move(st, 1)
    assert target == 2 and rel_close(delta, -0.5)


def test_best_move_rejects_infinite_backward():
    g = DirectedGraph.from_edges(2, [(0, 1)])
    f = FeatureMatrix.from_array([[0.0], [10.0]])
    st = SolveState(g, f, Penalties(0.0, math.inf), [1, 1], 2)
    # moving vertex 0 forward would turn its out-edge backward: infinite delta
    assert st.move_delta(0, 2) == math.inf
    assert best_move(st, 0) == (1, 0.0)


def test_best_move_matches_exhaustive_deltas():
    rng = np.random.default_rng(61)
    for _ in range(40):
        k = int(rng.integers(2, 6))
        st = random_state(rng, int(rng.integers(2, 12)), int(rng.integers(0, 20)), 2, k,
                          Penalties(float(rng.uniform(0, 3)), float(rng.uniform(0, 3))))
        v = int(rng.integers(0, st.graph.n))
        target, delta = best_move(st, v)
        i = int(st.assign[v])
        deltas = {j: st.move_delta(v, j) for j in range(1, k + 1) if j != i}
        best_j = min(deltas, key=lambda j: (deltas[j], j))
        if deltas[best_j] >= 0:
            assert (target, delta) == (i, 0.0)
        else:
            assert target == best_j and rel_close(delta, deltas[best_j])


def test_run_greedy_zero_penalties_reaches_kmeans_local_optimum():
    rng = np.random.default_rng(62)
    n, d, k = 60, 3, 4
    g = DirectedGraph.from_edges(n, [])
    f = FeatureMatrix.from_array(rng.normal(0, 1, (n, d)))
    init = OrderedPartition.from_labels(k, rng.integers(1, k + 1, size=n))
    res = run_greedy(g, f, NOPEN, k, init, SolveConfig(seed=0))
    assert res.converged
    sse = sse_of_partition(res.partition.assign, f.values.tolist())
    assert rel_close(res.breakdown.total, sse)
    # no single-vertex reassignment improves the converged state
    st = SolveState.from_partition(g, f, NOPEN, res.partition)
    for v in range(n):
        for j in range(1, k + 1):
            if j != st.assign[v]:
                assert st.move_delta(v, j) >= -1e-9


def test_run_greedy_fixed_point_returns_after_one_scan():
    g = DirectedGraph.from_edges(4, [])
    f = FeatureMatrix.from_array([[0.0], [0.0], [9.0], [9.0]])
    init = OrderedPartition.from_labels(2, [1, 1, 2, 2])
    res = run_greedy(g, f, NOPEN, 2, init, SolveConfig(seed=1))
    assert res.converged and res.iterations == 1
    assert np.array_equal(res.partition.assign, init.assign)


def test_run_greedy_commits_strictly_decrease():
    rng = np.random.default_rng(63)
    st_seed = 7
    inst = gen_stree(n=200, d=4, k=4, sigma2=0.05, seed=st_seed)
    init = OrderedPartition.from_labels(4, rng.integers(1, 5, size=200))
    cfg = SolveConfig(seed=3, track_steps=True)
    res = run_greedy(inst.graph, inst.features, Penalties(0.0, 10.0), 4, init, cfg)
    losses = res.step_losses
    assert losses and len(losses) > 5
    assert (np.diff(losses) < 0).all()
    assert all(x >= 0 for x in losses)


def test_run_greedy_incremental_state_matches_rebuild():
    rng = np.random.default_rng(64)
    st = random_state(rng, 50, 120, 3, 4, Penalties(0.4, 2.5))
    order = rng.permutation(50)
    for _ in range(3):
        sweep(st, order)
    assert st.cache_drift() <= 1e-9


def test_run_greedy_clears_infinite_backward_edges():
    rng = np.random.default_rng(65)
    inst = gen_stree(n=60, d=3, k=3, sigma2=0.02, seed=2)
    pen = Penalties(0.0, math.inf)
    init = OrderedPartition.from_labels(3, rng.integers(1, 4, size=60))
    res = run_greedy(inst.graph, inst.features, pen, 3, init, SolveConfig(seed=0))
    assert res.breakdown.backward_edges == 0
    assert math.isfinite(res.breakdown.total)


def test_sweep_time_scales_linearly():
    # doubling n should roughly double one scan's wall time
    def one_scan_seconds(n: int) -> float:
        inst = gen_stree(n=n, d=10, k=5, sigma2=0.05, seed=9)
        pen = Penalties(0.0, 100.0)
        rng = np.random.default_rng(1)
        best = math.inf
        for _ in range(3):
            st = SolveState(inst.graph, inst.features, pen,
                            rng.integers(1, 6, size=n), 5)
            order = np.arange(n)
            t0 = time.perf_counter()
            sweep(st, order)
            best = min(best, time.perf_counter() - t0)
        return best

    t_small = one_scan_seconds(3000)
    t_large = one_scan_seconds(6000)
    ratio = t_large / t_small
    assert 1.5 <= ratio <= 3.0, f"scan time ratio {ratio:.2f} outside [1.5, 3.0]"
