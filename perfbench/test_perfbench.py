"""Tests of the benchmark's own generator, checks and tracer.

Run from the repository root: `python -m pytest -q perfbench`.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

import bench
import checks
import instances
import layers
from tracer import Hook, Tracer, self_times

digseg = bench.load_digseg()


# -- generator -------------------------------------------------------------


def test_pair_index_to_ij_is_a_bijection():
    for n in (2, 3, 7, 12):
        total = n * (n - 1) // 2
        i, j = instances.pair_index_to_ij(np.arange(total), n)
        assert list(zip(i.tolist(), j.tolist())) == list(itertools.combinations(range(n), 2))


def test_pair_sampler_edge_count_and_order():
    rng = np.random.default_rng(5)
    n, p = 400, 0.02
    i, j = instances.sample_pair_edges(rng, n, p)
    assert (i < j).all() and (j < n).all() and (i >= 0).all()
    assert len(set(zip(i.tolist(), j.tolist()))) == i.size  # no pair drawn twice
    expected = p * n * (n - 1) / 2
    assert abs(i.size - expected) < 5 * np.sqrt(expected)


def test_pair_sampler_extremes():
    rng = np.random.default_rng(0)
    assert instances.sample_pair_edges(rng, 50, 0.0)[0].size == 0
    i, j = instances.sample_pair_edges(rng, 6, 1.0)
    assert i.size == 15


def test_generate_is_seeded_and_matches_its_text():
    a = instances.generate(60, 3, 3, 0.01, 0.05, seed=9)
    b = instances.generate(60, 3, 3, 0.01, 0.05, seed=9)
    c = instances.generate(60, 3, 3, 0.01, 0.05, seed=10)
    assert a.edge_text == b.edge_text and a.feature_text == b.feature_text
    assert a.edge_text != c.edge_text
    assert (a.src < a.dst).all()  # every edge goes id-up: no backward truth edge
    assert a.m >= a.n - 1
    graph = digseg.load_graph(a.edge_text)
    features = digseg.load_features(a.feature_text, graph)
    assert graph.edges == list(zip(a.src.tolist(), a.dst.tolist()))
    assert np.array_equal(features.values, a.values)
    assert np.array_equal(np.bincount(a.truth), [0, 20, 20, 20])


# -- output checks -----------------------------------------------------------


@pytest.mark.parametrize("seed", range(5))
def test_ari_matches_the_library(seed):
    rng = np.random.default_rng(seed)
    n, ka, kb = 200, 4, 6
    a = rng.integers(1, ka + 1, size=n)
    b = np.where(rng.random(n) < 0.7, a, rng.integers(1, kb + 1, size=n))
    want = digseg.adjusted_rand_index(
        digseg.OrderedPartition.from_labels(ka, a), digseg.OrderedPartition.from_labels(kb, b)
    )
    assert checks.adjusted_rand_index(a, b) == pytest.approx(want, rel=1e-12, abs=1e-12)


def test_ari_ignores_label_names():
    a = np.array([1, 1, 2, 2, 3, 3])
    assert checks.adjusted_rand_index(a, 4 - a) == pytest.approx(1.0)


def _small_solve(solver: str):
    inst = instances.generate(40, 3, 2, 0.01, 0.1, seed=3)
    graph = digseg.load_graph(inst.edge_text)
    features = digseg.load_features(inst.feature_text, graph)
    config = digseg.SolveConfig(solver_kind=solver, restarts=1, seed=1)
    return inst, digseg.multi_restart(graph, features, digseg.Penalties(0.5, 3.0), 2, config)


@pytest.mark.parametrize("solver", ["greedy", "mcut"])
def test_result_check_accepts_a_solver_result(solver):
    inst, result = _small_solve(solver)
    assert checks.result_problems(result, inst, 0.5, 3.0) == []


def test_result_check_rejects_wrong_costs_and_labels():
    import dataclasses

    inst, result = _small_solve("greedy")
    bd = result.breakdown
    off = dataclasses.replace(bd, coherence=bd.coherence * (1 + 1e-6))
    assert checks.result_problems(dataclasses.replace(result, breakdown=off), inst, 0.5, 3.0)
    counts = dataclasses.replace(bd, backward_edges=bd.backward_edges + 1)
    assert checks.result_problems(dataclasses.replace(result, breakdown=counts), inst, 0.5, 3.0)
    short = digseg.OrderedPartition.from_labels(2, result.partition.assign[:-1])
    assert checks.result_problems(dataclasses.replace(result, partition=short), inst, 0.5, 3.0)


# -- tracer ------------------------------------------------------------------


def test_self_times_subtract_direct_children():
    # span 0 [0, 10] holds 1 [1, 4] and 2 [5, 9]; span 2 holds 3 [6, 7]
    duration = np.array([10.0, 3.0, 4.0, 1.0])
    parent = np.array([-1, 0, 0, 2])
    assert self_times(duration, parent).tolist() == [3.0, 3.0, 3.0, 1.0]


class _Fake:
    """A module stand-in whose functions call each other through attributes."""

    @staticmethod
    def outer(x):
        return _Fake.inner(x) + _Fake.inner(x)

    @staticmethod
    def inner(x):
        return x


def test_tracer_nests_counts_and_restores():
    ticks = iter(range(100))
    hooks = [
        Hook("fake.outer", _Fake, "outer", count=lambda args, r: {"fake.sum": r}),
        Hook("fake.inner", _Fake, "inner"),
    ]
    originals = (_Fake.outer, _Fake.inner)
    tracer = Tracer(hooks, clock=lambda: float(next(ticks)))
    with tracer.installed():
        tracer.solve_id = 0
        assert _Fake.outer(3) == 6
    assert (_Fake.outer, _Fake.inner) == originals
    totals = tracer.totals()
    # outer spans ticks 0..5, the two inner calls 1..2 and 3..4
    assert totals["fake.outer"] == {"calls": 1, "s": 5.0, "self_s": 3.0}
    assert totals["fake.inner"] == {"calls": 2, "s": 2.0, "self_s": 2.0}
    assert tracer.counter("fake.sum") == 6
    assert tracer.per_solve_counts() == {0: {"fake.outer.calls": 1, "fake.inner.calls": 2, "fake.sum": 6}}


def test_hooks_cover_the_layer_expectations():
    names = [h.name for h in layers.build_hooks(digseg)]
    assert len(names) == len(set(names))
    assert set(names) == set(layers.EXPECTED_HITS)


def test_layer_hit_check_flags_both_directions():
    calls = {name: 0 for name in layers.EXPECTED_HITS}
    problems = layers.layer_hit_problems(layers.GREEDY, calls)
    assert any(p.startswith("greedy.best_move:") for p in problems)
    calls.update({"greedy.best_move": 5, "treedp.compute_dp_tables": 1})
    problems = layers.layer_hit_problems(layers.GREEDY, calls)
    assert not any(p.startswith("greedy.best_move:") for p in problems)
    assert any(p.startswith("treedp.compute_dp_tables:") for p in problems)


def test_traced_counts_repeat_exactly():
    inst = instances.generate(60, 3, 3, 0.01, 0.05, seed=4)
    graph = digseg.load_graph(inst.edge_text)
    features = digseg.load_features(inst.feature_text, graph)
    config = digseg.SolveConfig(solver_kind="mcut", restarts=1, seed=2)
    counts = []
    for _ in range(2):
        tracer = Tracer(layers.build_hooks(digseg))
        with tracer.installed():
            tracer.solve_id = 0
            digseg.multi_restart(graph, features, digseg.Penalties(0.0, 1e5), 3, config)
        counts.append(tracer.per_solve_counts())
    assert counts[0] == counts[1]
    assert counts[0][0]["mincut.max_flow_min_cut.calls"] > 0


def test_tail_keeps_ten_solves_above():
    times = [float(x) for x in range(40)]
    value, pct = bench.tail(times)
    assert sum(t > value for t in times) == 10
    assert pct == 75.0
    assert bench.tail([1.0, 2.0]) == (2.0, 100.0)


# -- whole runs, shrunk ------------------------------------------------------


def _benchmark_json():
    import json

    return json.loads((bench.ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_names_the_workloads():
    doc = _benchmark_json()
    assert [(w["name"], w["why"]) for w in doc["workloads"]] == [
        (w.name, w.why) for w in bench.WORKLOADS.values()
    ]


@pytest.mark.parametrize("name", list(bench.WORKLOADS))
def test_small_runs_report_every_declared_metric(name, monkeypatch, tmp_path):
    import dataclasses

    monkeypatch.setattr(bench, "OUT_DIR", tmp_path)
    monkeypatch.setattr(bench, "POOL", 2)
    monkeypatch.setattr(bench, "TRACE_SOLVES", 2)
    monkeypatch.setattr(bench, "RECHECK_SOLVES", 1)
    workload = dataclasses.replace(bench.WORKLOADS[name], n=100)
    doc = _benchmark_json()

    metrics, _, attempted, failed = bench.run_untraced(bench.Bench(digseg, workload, 7), 0.05)
    assert failed == 0 and attempted >= 1
    assert set(metrics) == {m["name"] for m in doc["end_to_end"]}
    metrics, _, attempted, failed, problems = bench.run_traced(bench.Bench(digseg, workload, 7))
    assert failed == 0 and attempted == 5
    assert problems == []
    assert set(metrics) == {m["name"] for m in doc["per_layer"]}
