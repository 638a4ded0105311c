import io
import math

import numpy as np
import pytest

from digseg import (
    OrderedPartition,
    Penalties,
    SolveConfig,
    adjusted_rand_index,
    check_arborescence,
    gen_sdag,
    gen_stree,
    inject_noise,
    run_noise_sweep,
    total_cost,
    write_sweep_csv,
)
from digseg.config import norm_seed
from digseg.experiments import SWEEP_HEADER


def test_gen_stree_zero_variance_features_equal_centroids():
    inst = gen_stree(n=5, d=3, k=5, sigma2=0.0, seed=1)
    assert np.allclose(inst.features.values, inst.true_centroids)


def test_gen_stree_is_arborescence_rooted_at_zero():
    inst = gen_stree(n=200, d=2, k=5, sigma2=0.1, seed=2)
    assert check_arborescence(inst.graph) == [0]


def test_gen_stree_edge_count_and_direction():
    inst = gen_stree(n=1000, d=2, k=5, sigma2=0.1, seed=3)
    assert inst.graph.m == 999
    assert all(u < v for u, v in inst.graph.edges)


def test_gen_stree_divisibility_check():
    with pytest.raises(ValueError, match="divisible"):
        gen_stree(n=10, d=2, k=3, sigma2=0.1, seed=0)


def test_gen_sdag_zero_prob_equals_tree():
    a = gen_stree(n=50, d=2, k=5, sigma2=0.1, seed=4)
    b = gen_sdag(n=50, d=2, k=5, sigma2=0.1, edge_prob=0.0, seed=4)
    assert a.graph.edges == b.graph.edges
    assert np.array_equal(a.features.values, b.features.values)


@pytest.mark.parametrize("n", [1, 2, 3, 50, 1000])
@pytest.mark.parametrize("p", [1e-4, 0.01, 0.5, 1.0])
@pytest.mark.parametrize("seed", range(4))
def test_gen_sdag_pair_edges_are_one_shot_draw_of_the_pair_stream(n, p, seed):
    # the pair edges are the flags of one draw over all pairs in row-major order,
    # the generator's stream taken as a whole rather than row by row
    iu, ju = np.triu_indices(n, 1)
    pair_ss = np.random.SeedSequence(norm_seed(seed)).spawn(3)[1]
    hits = np.random.default_rng(pair_ss).random(iu.size) < p
    inst = gen_sdag(n=n, d=1, k=1, sigma2=0.1, edge_prob=p, seed=seed)
    assert np.array_equal(inst.graph.edge_src[n - 1:], iu[hits])
    assert np.array_equal(inst.graph.edge_dst[n - 1:], ju[hits])


@pytest.mark.parametrize("sigma2", [-1.0, math.nan, math.inf])
def test_gen_sdag_rejects_a_variance_that_is_not_finite_and_non_negative(sigma2):
    with pytest.raises(ValueError, match="variance must be finite and non-negative"):
        gen_sdag(n=10, d=1, k=2, sigma2=sigma2, edge_prob=0.1, seed=0)


def test_gen_sdag_full_prob_edge_count():
    n = 20
    inst = gen_sdag(n=n, d=1, k=5, sigma2=0.0, edge_prob=1.0, seed=5)
    assert inst.graph.m == (n - 1) + n * (n - 1) // 2


@pytest.mark.parametrize("n, p", [(1000, 0.01), (20000, 0.0005)])
def test_gen_sdag_edge_count_within_five_sigma(n, p):
    inst = gen_sdag(n=n, d=2, k=5, sigma2=0.1, edge_prob=p, seed=6)
    pairs = n * (n - 1) // 2
    mean = (n - 1) + p * pairs
    sigma = math.sqrt(pairs * p * (1 - p))
    assert abs(inst.graph.m - mean) <= 5 * sigma


def test_generators_deterministic_per_seed():
    a = gen_sdag(n=100, d=3, k=5, sigma2=0.1, edge_prob=0.02, seed=9)
    b = gen_sdag(n=100, d=3, k=5, sigma2=0.1, edge_prob=0.02, seed=9)
    assert a.graph.edges == b.graph.edges
    assert np.array_equal(a.features.values, b.features.values)


def test_inject_noise_zero_probability_is_noop():
    inst = gen_stree(n=50, d=2, k=5, sigma2=0.1, seed=10)
    noisy = inject_noise(inst, 0.0, seed=11)
    assert np.array_equal(noisy.features.values, inst.features.values)


def test_inject_noise_full_probability_zero_variance():
    inst = gen_stree(n=50, d=2, k=5, sigma2=0.0, seed=12)
    noisy = inject_noise(inst, 1.0, seed=13)
    cents = {tuple(row) for row in inst.true_centroids}
    assert all(tuple(row) in cents for row in noisy.features.values)


def test_inject_noise_fraction_within_five_sigma():
    n, p = 2000, 0.3
    inst = gen_stree(n=n, d=2, k=5, sigma2=0.0, seed=14)
    noisy = inject_noise(inst, p, seed=15)
    changed = (noisy.features.values != inst.features.values).any(axis=1).sum()
    sigma = math.sqrt(n * p * (1 - p))
    # a redraw can keep the same centroid: changed count undershoots hits by ~1/k
    assert changed <= n * p + 5 * sigma
    assert changed >= n * p * (1 - 1 / 5) - 5 * sigma


def test_ground_truth_has_zero_backward_edges():
    for seed in range(3):
        for gen in (gen_stree, gen_sdag):
            inst = gen(n=200, d=2, k=5, sigma2=0.1, seed=seed)
            bd = total_cost(inst.graph, inst.features, inst.ground_truth, Penalties(0.0, 1.0))
            assert bd.backward_edges == 0


def test_ari_identical_partitions():
    p = OrderedPartition.from_labels(3, [1, 2, 3, 1, 2, 3])
    assert adjusted_rand_index(p, p) == 1.0


def test_ari_worked_example():
    p = OrderedPartition.from_labels(2, [1, 1, 2, 2])
    q = OrderedPartition.from_labels(2, [1, 2, 1, 2])
    assert adjusted_rand_index(p, q) == -0.5


def test_ari_relabeling_invariance_and_symmetry():
    rng = np.random.default_rng(16)
    a = rng.integers(1, 4, size=30)
    b = rng.integers(1, 4, size=30)
    p = OrderedPartition.from_labels(3, a)
    q = OrderedPartition.from_labels(3, b)
    assert adjusted_rand_index(p, q) == adjusted_rand_index(q, p)
    assert adjusted_rand_index(p, q) <= 1.0
    relabeled = OrderedPartition.from_labels(3, 4 - a)
    assert math.isclose(
        adjusted_rand_index(p, q), adjusted_rand_index(relabeled, q), rel_tol=1e-12
    )


def test_ari_errors():
    p = OrderedPartition.from_labels(2, [1, 2])
    q = OrderedPartition.from_labels(2, [1, 2, 1])
    with pytest.raises(ValueError, match="differ"):
        adjusted_rand_index(p, q)
    tiny = OrderedPartition.from_labels(1, [1])
    with pytest.raises(ValueError, match="at least 2"):
        adjusted_rand_index(tiny, tiny)


def test_sweep_empty_grid_header_only():
    rows = run_noise_sweep("tree", [Penalties(0, 0)], [], SolveConfig(seed=0))
    buf = io.StringIO()
    write_sweep_csv(rows, buf)
    assert buf.getvalue() == ",".join(SWEEP_HEADER) + "\n"


def test_sweep_rows_structure_and_order():
    cfg = SolveConfig(restarts=2, seed=1, max_iters=20)
    pens = [Penalties(0.0, 0.0), Penalties(0.0, 10.0)]
    rows = run_noise_sweep("tree", pens, [0.0, 0.4], cfg, n=60, d=3, k=3, sigma2=0.05)
    assert len(rows) == 4
    assert [r.p for r in rows] == [0.0, 0.0, 0.4, 0.4]  # p-major ordering
    assert [r.lambda_b for r in rows] == [0.0, 10.0, 0.0, 10.0]
    for r in rows:
        assert -1.0 <= r.ari <= 1.0
        assert r.loss >= 0 and r.iterations >= 1 and r.seconds >= 0
        assert r.solver == "greedy"
    buf = io.StringIO()
    write_sweep_csv(rows, buf)
    lines = buf.getvalue().strip().split("\n")
    assert lines[0] == ",".join(SWEEP_HEADER)
    assert len(lines) == 5


def test_sweep_zero_backward_weight_loses_the_order_at_half_noise():
    # with no backward penalty the best clustering follows the noisy features,
    # which agree with the ordered ground truth on only ~a quarter of the pairs
    cfg = SolveConfig(restarts=5, seed=0, solver_kind="treedp")
    rows = run_noise_sweep(
        "tree", [Penalties(0.0, 0.0)], [0.5], cfg, n=500, d=10, k=5, sigma2=0.01
    )
    assert rows[0].ari < 0.3


def test_multi_restart_parallel_matches_serial():
    from digseg import multi_restart

    inst = gen_stree(n=120, d=4, k=4, sigma2=0.02, seed=8)
    cfg = SolveConfig(solver_kind="greedy", restarts=4, seed=0)
    pen = Penalties(0.0, 10.0)
    serial = multi_restart(inst.graph, inst.features, pen, 4, cfg, threads=1)
    parallel = multi_restart(inst.graph, inst.features, pen, 4, cfg, threads=4)
    assert np.array_equal(serial.partition.assign, parallel.partition.assign)
    assert serial.breakdown.total == parallel.breakdown.total
    assert serial.seed == parallel.seed


def test_sweep_deterministic():
    cfg = SolveConfig(restarts=2, seed=3, max_iters=15)
    pens = [Penalties(0.0, 5.0)]
    a = run_noise_sweep("dag", pens, [0.2], cfg, n=40, d=2, k=2, sigma2=0.05)
    b = run_noise_sweep("dag", pens, [0.2], cfg, n=40, d=2, k=2, sigma2=0.05)
    assert a[0].loss == b[0].loss and a[0].ari == b[0].ari
