import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from digseg import (
    DirectedGraph,
    FeatureMatrix,
    OrderedPartition,
    Penalties,
    SolveConfig,
    SolveState,
    alternate,
    best_move,
)
from digseg import greedy
from digseg.greedy import scan_step, sweep
from digseg.experiments import gen_stree
from conftest import finite_parts, random_digraph, random_state, rel_close, sse_of_partition
import greedy_reference

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
    res = alternate(g, f, NOPEN, init, SolveConfig(seed=0), scan_step(0))
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
    res = alternate(g, f, NOPEN, init, SolveConfig(seed=1), scan_step(1))
    assert res.converged and res.iterations == 1
    assert np.array_equal(res.partition.assign, init.assign)


def test_run_greedy_commits_strictly_decrease():
    rng = np.random.default_rng(63)
    st_seed = 7
    inst = gen_stree(n=200, d=4, k=4, sigma2=0.05, seed=st_seed)
    init = OrderedPartition.from_labels(4, rng.integers(1, 5, size=200))
    cfg = SolveConfig(seed=3, track_steps=True)
    res = alternate(inst.graph, inst.features, Penalties(0.0, 10.0), init, cfg, scan_step(3))
    losses = finite_parts(res.step_losses)
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


def test_scan_step_rebuilds_the_caches_every_revalidate_every_iterations(monkeypatch):
    rng = np.random.default_rng(66)
    st = random_state(rng, 40, 90, 2, 3, Penalties(0.5, 2.0))
    rebuilds = []
    rebuild = SolveState.rebuild

    def counted(self):
        rebuilds.append(self)
        rebuild(self)

    monkeypatch.setattr(SolveState, "rebuild", counted)
    step = scan_step(4)
    every = greedy.REVALIDATE_EVERY
    for it, want in ((every - 1, 0), (every, 1), (every + 1, 0), (2 * every, 1)):
        rebuilds.clear()
        step(st, it, None)
        assert rebuilds == [st] * want, f"iteration {it}"
    assert st.cache_drift() == 0.0


def test_run_greedy_clears_infinite_backward_edges():
    rng = np.random.default_rng(65)
    inst = gen_stree(n=60, d=3, k=3, sigma2=0.02, seed=2)
    pen = Penalties(0.0, math.inf)
    init = OrderedPartition.from_labels(3, rng.integers(1, 4, size=60))
    res = alternate(inst.graph, inst.features, pen, init, SolveConfig(seed=0), scan_step(0))
    assert res.breakdown.backward_edges == 0
    assert math.isfinite(res.breakdown.total)


def test_sweep_time_scales_linearly():
    # doubling n should roughly double a scan's CPU time; after one warm-up
    # sample per size the sizes alternate round by round, so a slow stretch of
    # the machine hits both, and the best time per size is kept.  A sample
    # times ten scans of fresh states (about 0.2 s at n = 3000 on a 2-core
    # x86 machine), so timer and scheduling noise stay a small share of it.
    # Process time leaves out the time spent descheduled on a busy machine.
    pen = Penalties(0.0, 100.0)
    insts = {n: gen_stree(n=n, d=10, k=5, sigma2=0.05, seed=9) for n in (3000, 6000)}
    starts = {n: np.random.default_rng(1).integers(1, 6, size=n) for n in insts}

    def sample_seconds(n: int) -> float:
        states = [SolveState(insts[n].graph, insts[n].features, pen, starts[n], 5) for _ in range(10)]
        t0 = time.process_time()
        for st in states:
            sweep(st, np.arange(n))
        return time.process_time() - t0

    best = {}
    for round_ in range(6):  # round 0 warms up
        for n in insts:
            t = sample_seconds(n)
            if round_:
                best[n] = min(best.get(n, math.inf), t)
    ratio = best[6000] / best[3000]
    assert 1.5 <= ratio <= 3.0, f"scan time ratio {ratio:.2f} outside [1.5, 3.0]"


WEIGHTS = [0.0, 0.1, 1e5, math.inf]


@st.composite
def scan_problems(draw):
    """A random multigraph with cycles and isolated vertices, tie-prone integer
    features, a random state and two shuffled scan orders."""
    n = draw(st.integers(1, 60))
    k = draw(st.integers(1, 5))
    d = draw(st.integers(1, 3))
    ids = st.integers(0, n - 1)
    pairs = draw(st.lists(st.tuples(ids, ids), max_size=3 * n))
    edges = [(u, v) for u, v in pairs if u != v]
    ints = st.integers(-2, 2)
    feats = draw(st.lists(st.lists(ints, min_size=d, max_size=d), min_size=n, max_size=n))
    assign = draw(st.lists(st.integers(1, k), min_size=n, max_size=n))
    pen = Penalties(draw(st.sampled_from(WEIGHTS)), draw(st.sampled_from(WEIGHTS)))
    orders = [draw(st.permutations(range(n))) for _ in range(2)]
    graph = DirectedGraph.from_edges(n, edges)
    return graph, FeatureMatrix.from_array(feats), pen, assign, k, orders


def assert_scans_match(graph, features, pen, assign, k, orders):
    """The block scan commits what the vertex-by-vertex reference commits."""
    ours = SolveState(graph, features, pen, assign, k)
    ref = SolveState(graph, features, pen, assign, k)
    for order in orders:
        our_log, ref_log = [], []
        assert sweep(ours, order, our_log) == greedy_reference.sweep(ref, order, ref_log)
        assert our_log == ref_log
        for name in ("assign", "counts", "sums", "group_sqnorm"):
            a, b = getattr(ours, name), getattr(ref, name)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
        assert ours.edge_counts == ref.edge_counts


@settings(max_examples=300, deadline=None)
@given(scan_problems())
def test_block_scan_matches_vertex_by_vertex_reference(problem):
    assert_scans_match(*problem)


@pytest.mark.parametrize("lam_f, lam_b, continuous", [
    pytest.param(*w, False, id=f"{w[0]}-{w[1]}")
    for w in [(0.0, 0.0), (0.0, 1e5), (0.1, 0.1), (0.0, math.inf)]
] + [
    # without exact ties, so the zero-weight scores are compared bit for bit
    pytest.param(*w, True, id=f"{w[0]}-{w[1]}-continuous") for w in [(0.0, 0.0), (0.0, 1e5)]
])
def test_block_scan_matches_reference_on_a_large_instance(lam_f, lam_b, continuous):
    # dense commits in the first scans, where most guessed moves are checked
    # against the states of earlier guesses, and sparse ones in the last, where
    # whole 256-vertex blocks stay
    rng = np.random.default_rng(66)
    n, k = 3000, 5
    graph = random_digraph(rng, n, 4 * n)
    values = rng.normal(size=(n, 4)) if continuous else rng.integers(-3, 4, size=(n, 4))
    features = FeatureMatrix.from_array(values)
    orders = [rng.permutation(n) for _ in range(8)]
    assign = rng.integers(1, k + 1, size=n)
    assert_scans_match(graph, features, Penalties(lam_f, lam_b), assign, k, orders)


@pytest.mark.parametrize("block", [1, 2])
@pytest.mark.parametrize("lam_f, lam_b", [(0.0, 0.0), (0.0, 1e5), (0.5, 2.0), (0.0, math.inf)])
def test_block_scan_matches_reference_with_blocks_capped_at_one_or_two(block, lam_f, lam_b):
    # so many features that `BLOCK_FLOATS` leaves room for `block` vertices only
    rng = np.random.default_rng(68 + block)
    n, k = 40, 3
    d = greedy.BLOCK_FLOATS // ((k + 1) * block) - 1
    assert greedy.BLOCK_FLOATS // ((k + 1) * d) == block
    features = FeatureMatrix.from_array(rng.integers(-2, 3, size=(n, d)))
    orders = [rng.permutation(n) for _ in range(3)]
    assert_scans_match(random_digraph(rng, n, 3 * n), features, Penalties(lam_f, lam_b),
                       rng.integers(1, k + 1, size=n), k, orders)


@st.composite
def guessed_blocks(draw):
    """A `scan_problems` state with a block of distinct vertices and a guessed
    target per vertex.  When there is an edge and k >= 2, the first edge's
    tail comes before its head in the block and is guessed to move, so a
    neighbor earlier in the block moves."""
    graph, features, pen, assign, k, orders = draw(scan_problems())
    block = list(orders[0][:draw(st.integers(1, graph.n))])
    groups = st.integers(1, k)
    guess = {v: draw(groups) for v in range(graph.n)}
    if graph.m and k >= 2:
        u, w = int(graph.edge_src[0]), int(graph.edge_dst[0])
        block = [v for v in block if v not in (u, w)]
        at = draw(st.integers(0, len(block)))
        block.insert(at, u)
        block.insert(draw(st.integers(at + 1, len(block))), w)
        guess[u] = draw(groups.filter(lambda g: g != assign[u]))
    return graph, features, pen, assign, k, np.array(block), np.array([guess[v] for v in block])


@settings(max_examples=300, deadline=None)
@given(guessed_blocks())
def test_guessed_scores_equal_the_reference_after_the_guessed_moves(problem):
    graph, features, pen, assign, k, vs, guess = problem
    state = SolveState(graph, features, pen, assign, k)
    delta = state.move_deltas(vs, guess)
    targets, deltas = best_move(state, vs, guess)
    assert list(state.assign) == list(assign)  # scoring writes nothing
    walk = SolveState(graph, features, pen, assign, k)
    for p, v in enumerate(vs.tolist()):
        # row p against the state the guessed moves of rows < p leave
        ref_target, ref_delta = greedy_reference.best_move(walk, v)
        assert (int(targets[p]), float(deltas[p]).hex()) == (ref_target, ref_delta.hex())
        alone = walk.move_deltas(vs[p:p + 1])
        assert delta[p].tobytes() == alone[0].tobytes()
        walk.apply_move(v, int(guess[p]))


def test_best_move_on_an_array_equals_the_scalar_calls():
    rng = np.random.default_rng(67)
    for trial in range(60):
        k = 1 + trial % 5
        pen = Penalties(*rng.choice(WEIGHTS, size=2))
        st_ = random_state(rng, int(rng.integers(2, 25)), int(rng.integers(0, 40)), 2, k, pen)
        if trial % 2:
            st_ = SolveState(st_.graph, FeatureMatrix.from_array(rng.integers(-2, 3, size=(st_.graph.n, 2))),
                             pen, st_.assign, k)
        vs = rng.integers(0, st_.graph.n, size=int(rng.integers(1, 40)))
        targets, deltas = best_move(st_, vs)
        assert targets.shape == deltas.shape == vs.shape
        assert targets.dtype == np.int64 and deltas.dtype == np.float64
        for v, t, dl in zip(vs, targets, deltas):
            got = best_move(st_, int(v))
            assert type(got[0]) is int and type(got[1]) is float
            assert got == (int(t), float(dl))


@pytest.mark.parametrize("edges", [[], [(0, 1)]])
@pytest.mark.parametrize("v", [-1, 3])
def test_best_move_and_sweep_reject_vertex_out_of_range(edges, v):
    g = DirectedGraph.from_edges(3, edges)
    f = FeatureMatrix.from_array([[0.0], [1.0], [1.0]])
    st = SolveState(g, f, NOPEN, [1, 1, 2], 2)
    for vertices in (v, np.array([0, v])):
        with pytest.raises(ValueError, match=f"vertex {v} out of range 0..2"):
            best_move(st, vertices)
    with pytest.raises(ValueError, match=f"vertex {v} out of range 0..2"):
        sweep(st, [0, v, 1])
    assert list(st.assign) == [1, 1, 2] and st.cache_drift() == 0.0


@pytest.mark.parametrize("log", [None, []], ids=["unlogged", "logged"])
def test_sweep_rejects_an_order_that_repeats_a_vertex(log):
    # vertex 2 would move first; a scan that repeats vertex 1 must refuse the
    # whole order before committing it
    g = DirectedGraph.from_edges(3, [])
    f = FeatureMatrix.from_array([[-1.0], [-2.0], [-2.0]])
    st = SolveState(g, f, NOPEN, [1, 1, 1], 2)
    with pytest.raises(ValueError, match="moved twice"):
        sweep(st, [2, 1, 1], log)
    assert list(st.assign) == [1, 1, 1] and st.cache_drift() == 0.0
    assert log in (None, [])


def test_sweep_rejects_a_repeat_in_a_later_block():
    # each 256-vertex block holds distinct vertices, so only the check of the
    # whole order sees that the last vertex repeats the first
    rng = np.random.default_rng(5)
    st = random_state(rng, 600, 1200, 1, 3, Penalties(0.5, 2.0))
    order = rng.permutation(600)
    order[-1] = order[0]
    before = st.assign.copy()
    with pytest.raises(ValueError, match="moved twice"):
        sweep(st, order)
    assert np.array_equal(st.assign, before) and st.cache_drift() == 0.0


def test_best_move_rejects_a_guess_over_repeated_vertices():
    # row 2 would be scored as if vertex 1 were still in group 1, although
    # row 1 guessed it into group 2
    g = DirectedGraph.from_edges(3, [])
    f = FeatureMatrix.from_array([[-1.0], [-2.0], [-2.0]])
    st = SolveState(g, f, NOPEN, [1, 1, 1], 2)
    with pytest.raises(ValueError, match="moved twice"):
        best_move(st, [1, 1], guess=np.array([2, 1]))
    with pytest.raises(ValueError, match="moved twice"):
        st.move_deltas(np.array([1, 1]), np.array([1, 1]))
    assert best_move(st, [1, 1])[0].tolist() == [2, 2]  # without a guess, rows are independent
