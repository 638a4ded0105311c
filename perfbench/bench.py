"""The digseg benchmark: seeded instances, timed solves, checked outputs.

One operation is one `digseg.multi_restart` call with one restart: a seeded
alternating run of the workload's solver.  A run builds a pool of instances
from `--seed`, parses each from text (the set-up a CLI user pays), does one
untimed one-iteration warm-up solve per instance so lazy caches are filled,
then cycles the pool with a fresh restart seed per solve.  Every result is
checked afterwards against an independent recomputation.

`--trace 0` measures for `--seconds` seconds and prints the end-to-end
metrics.  `--trace 1` runs a fixed plan of solves (so its counts repeat
exactly), first untraced, then with every layer wrapped, then again traced
for a determinism check, and prints the per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import instances
from calibrate import REF_BLOCK_S, Calibrator
from checks import adjusted_rand_index, result_problems
from layers import build_hooks, layer_hit_problems
from run import BLAS_VARS
from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench-out"

D, K, SIGMA2, LAMBDA_F, LAMBDA_B = 10, 5, 0.01, 0.0, 1e5
POOL = 8  # instances per run
PARSE_REPEATS = 3  # parses per instance for setup_s
TRACE_SOLVES = 16  # solves in the traced plan
RECHECK_SOLVES = 4  # solves traced twice for the determinism check
TAIL_BEYOND = 10  # the tail percentile keeps this many solves above it


@dataclass(frozen=True)
class Workload:
    name: str
    solver: str
    family: str  # instances with the same family and seed are identical
    n: int
    edge_prob: float
    why: str


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "tree-treedp", "treedp", "tree", 4000, 0.0,
            "Random recursive tree, n=4000, treedp: the DP table fill and the state "
            "rebuild dominate; mincut and greedy.best_move are never called.",
        ),
        Workload(
            "dag-mcut", "mcut", "dag", 1000, 0.01,
            "Tree plus Bernoulli forward pair edges, n=1000, p=0.01, mcut: cut-network "
            "build and Dinic max-flow dominate; treedp and greedy do no work.",
        ),
        Workload(
            "dag-greedy", "greedy", "dag", 1000, 0.01,
            "Same DAG pool and restart seeds as dag-mcut, greedy: best_move dominates; "
            "the pair isolates the solver and shares SolveState.apply_move.",
        ),
    )
}


def derived_seed(*parts: int) -> int:
    """A 32-bit seed derived from the workload seed and a stream label."""
    return int(np.random.SeedSequence([int(p) % (1 << 63) for p in parts]).generate_state(1)[0])


FAMILY_STREAM = {"tree": 1, "dag": 2}
RESTART_STREAM, WARMUP_STREAM = 10, 11


def load_digseg():
    """Import digseg from this checkout's `src`, and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import digseg

    if Path(digseg.__file__).resolve().parent.parent != src:
        raise ImportError(f"digseg imported from {digseg.__file__}, expected under {src}")
    return digseg


@dataclass(frozen=True)
class Solve:
    result: object  # SolveResult, or None if the solve raised
    raw_s: float  # wall seconds
    s: float  # calibrated seconds
    block_s: float  # mean of the calibration blocks before and after


class Bench:
    """One benchmark run of one workload in this process."""

    def __init__(self, digseg, workload: Workload, seed: int):
        self.dg = digseg
        self.w = workload
        self.seed = seed
        self.penalties = digseg.Penalties(LAMBDA_F, LAMBDA_B)
        stream = FAMILY_STREAM[workload.family]
        self.instances = [
            instances.generate(
                workload.n, D, K, SIGMA2, workload.edge_prob, derived_seed(seed, stream, p)
            )
            for p in range(POOL)
        ]
        self.cal = Calibrator()
        self.parsed: list[tuple] = []
        self.parse_seconds: list[float] = []  # calibrated, one per parse
        self.parse_blocks: list[float] = []

    # -- set-up ----------------------------------------------------------

    def parse_all(self) -> None:
        """Parse every instance's text PARSE_REPEATS times; keep the last parse."""
        self.parsed = []
        for inst in self.instances:
            for _ in range(PARSE_REPEATS):
                (graph, features), _, seconds, block = self.cal.timed(lambda: self._parse(inst))
                self.parse_seconds.append(seconds)
                self.parse_blocks.append(block)
            self.parsed.append((graph, features))

    def _parse(self, inst):
        core = self.dg.core  # looked up per call, so the traced run's wrappers apply
        graph = core.load_graph(inst.edge_text)
        return graph, core.load_features(inst.feature_text, graph)

    def warm_up(self) -> None:
        for p, (graph, features) in enumerate(self.parsed):
            config = self.dg.SolveConfig(
                solver_kind=self.w.solver, restarts=1, max_iters=1,
                seed=derived_seed(self.seed, WARMUP_STREAM, p),
            )
            self.dg.multi_restart(graph, features, self.penalties, K, config, threads=1)
        self.cal.forget()

    # -- solves ----------------------------------------------------------

    def plan(self, i: int) -> tuple[int, int]:
        """(instance index, restart seed) of solve i."""
        return i % POOL, derived_seed(self.seed, RESTART_STREAM, i)

    def solve(self, i: int) -> Solve:
        """Run solve i between two calibration blocks."""
        p, restart_seed = self.plan(i)
        graph, features = self.parsed[p]
        config = self.dg.SolveConfig(solver_kind=self.w.solver, restarts=1, seed=restart_seed)

        def run():
            try:
                return self.dg.multi_restart(graph, features, self.penalties, K, config, threads=1)
            except Exception:  # a failed solve is counted, not fatal
                traceback.print_exc()
                return None

        return Solve(*self.cal.timed(run))

    def check(self, i: int, result) -> tuple[bool, float]:
        """(result is correct, ARI against the ground truth)."""
        if result is None:
            return False, 0.0
        inst = self.instances[self.plan(i)[0]]
        problems = result_problems(result, inst, LAMBDA_F, LAMBDA_B)
        for problem in problems:
            print(f"solve {i}: {problem}", file=sys.stderr)
        return not problems, adjusted_rand_index(result.partition.assign, inst.truth)

    def context(self) -> dict:
        return {
            "workload": self.w.name,
            "solver": self.w.solver,
            "seed": self.seed,
            "python": platform.python_version(),
            "numpy": np.__version__,
            "nproc": os.cpu_count(),
            "blas_threads": {v: os.environ.get(v) for v in BLAS_VARS},
            "k": K,
            "d": D,
            "sigma2": SIGMA2,
            "lambda_f": LAMBDA_F,
            "lambda_b": LAMBDA_B,
            "instances": [
                {"n": inst.n, "m": inst.m, "k": inst.k, "d": inst.d, "seed": inst.seed}
                for inst in self.instances
            ],
        }


def tail(times: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND solves above it.

    With fewer than TAIL_BEYOND + 1 solves no such percentile exists and the
    maximum (percentile 100) is reported.
    """
    ordered = sorted(times)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    rank = n - TAIL_BEYOND  # 1-based rank with TAIL_BEYOND solves above it
    return ordered[rank - 1], 100.0 * rank / n


def same_result(a, b) -> bool:
    """Both solves returned, with equal iteration counts and labels."""
    return (
        a is not None
        and b is not None
        and a.iterations == b.iterations
        and np.array_equal(a.partition.assign, b.partition.assign)
    )


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run_untraced(bench: Bench, seconds: float) -> tuple[dict, dict, int, int]:
    """Time solves for `seconds`; returns (metrics, context extras, attempted, failed)."""
    bench.parse_all()
    bench.warm_up()
    solves: list[Solve] = []
    deadline = time.perf_counter() + seconds
    while not solves or time.perf_counter() < deadline:
        solves.append(bench.solve(len(solves)))

    ok: list[Solve] = []
    aris = []
    for i, solve in enumerate(solves):
        correct, ari = bench.check(i, solve.result)
        if correct:
            ok.append(solve)
            aris.append(ari)
    attempted, failed = len(solves), len(solves) - len(ok)
    if not ok:
        return {}, {"solves": attempted}, attempted, failed
    per_iter = [x.s / x.result.iterations for x in ok]
    iterations = sum(x.result.iterations for x in ok)
    solve_s = [x.s for x in ok]
    iter_tail, iter_pct = tail(per_iter)
    solve_tail, solve_pct = tail(solve_s)
    metrics = {
        "iter_s_p50": metric(statistics.median(per_iter), "s"),
        "iters_per_s": metric(iterations / sum(solve_s), "1/s"),
        "setup_s": metric(statistics.median(bench.parse_seconds), "s"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    extras = {
        "solves": attempted,
        "restart_seeds": [bench.plan(i)[1] for i in range(attempted)],
        "iterations": iterations,
        "tail_samples": len(ok),
        "calibration_block_s_p50": statistics.median(x.block_s for x in solves),
        "calibration_ref_block_s": REF_BLOCK_S,
        "unbounded_metrics": {
            "solve_s_p50": metric(statistics.median(solve_s), "s"),
            "solve_s_tail": metric(solve_tail, "s"),
            "solve_s_tail_percentile": metric(solve_pct, "%"),
            "solves_per_s": metric(len(ok) / sum(solve_s), "1/s"),
            "iter_s_tail": metric(iter_tail, "s"),
            "iter_s_tail_percentile": metric(iter_pct, "%"),
            "ari_mean": metric(statistics.fmean(aris), "ARI"),
            "loss_p50": metric(statistics.median(x.result.breakdown.total for x in ok), "loss"),
            "failed_frac": metric(failed / attempted, "ratio"),
            "raw_solve_s_p50": metric(statistics.median(x.raw_s for x in ok), "s"),
        },
    }
    return metrics, extras, attempted, failed


def run_traced(bench: Bench) -> tuple[dict, dict, int, int, list[str]]:
    """The fixed traced plan; returns (metrics, extras, attempted, failed, problems)."""
    hooks = build_hooks(bench.dg)
    traced = Tracer(hooks)
    with traced.installed():
        bench.parse_all()
    bench.warm_up()

    plain = [bench.solve(i) for i in range(TRACE_SOLVES)]
    with traced.installed():
        spans = []
        for i in range(TRACE_SOLVES):
            traced.solve_id = i
            spans.append(bench.solve(i))
    again = Tracer(hooks)
    with again.installed():
        repeat = []
        for i in range(RECHECK_SOLVES):
            again.solve_id = i
            repeat.append(bench.solve(i))

    problems: list[str] = []
    failed = 0
    for i, solve in enumerate(plain + spans + repeat):
        ok, _ = bench.check(i % TRACE_SOLVES, solve.result)
        failed += not ok
    attempted = len(plain) + len(spans) + len(repeat)

    # determinism: tracing changes no result, and a repeat changes no count
    for i in range(TRACE_SOLVES):
        if not same_result(plain[i].result, spans[i].result):
            problems.append(f"solve {i}: traced result differs from the untraced one")
    counts_first = traced.per_solve_counts()
    counts_again = again.per_solve_counts()
    for i in range(RECHECK_SOLVES):
        if counts_first.get(i) != counts_again.get(i) or not same_result(
            spans[i].result, repeat[i].result
        ):
            problems.append(f"solve {i}: two traced repeats differ")

    solve_ids = range(TRACE_SOLVES)
    setup = traced.totals({-1: REF_BLOCK_S / statistics.median(bench.parse_blocks)})
    totals = traced.totals({i: REF_BLOCK_S / spans[i].block_s for i in solve_ids})
    calls = {name: setup[name]["calls"] + totals[name]["calls"] for name in totals}
    problems += layer_hit_problems(bench.w.name, calls)

    results = [x.result for x in spans if x.result is not None]
    max_flows = totals["mincut.max_flow_min_cut"]["calls"]
    best_moves = totals["greedy.best_move"]["calls"]
    plain_times = [x.s for x in plain]
    traced_times = [x.s for x in spans]

    def secs(name: str, key: str = "s") -> dict:
        return metric(totals[name][key], "s")

    def count(name: str) -> dict:
        return metric(totals[name]["calls"], "count")

    metrics = {
        "core.load_graph.s": metric(setup["core.load_graph"]["s"], "s"),
        "core.load_features.s": metric(setup["core.load_features"]["s"], "s"),
        "treedp.solve_tree_partition.s": secs("treedp.solve_tree_partition"),
        "treedp.solve_tree_partition.calls": count("treedp.solve_tree_partition"),
        "treedp.compute_dp_tables.s": secs("treedp.compute_dp_tables"),
        "treedp.check_arborescence.s": secs("treedp.check_arborescence"),
        "treedp.backtrack.s": secs("treedp.solve_tree_partition", "self_s"),
        "mincut.pair_sweep.s": secs("mincut.pair_sweep"),
        "mincut.build_cut_graph_pair.s": secs("mincut.build_cut_graph_pair"),
        "mincut.build_cut_graph_pair.calls": count("mincut.build_cut_graph_pair"),
        "mincut.from_arcs.s": secs("mincut.from_arcs"),
        "mincut.max_flow_min_cut.s": secs("mincut.max_flow_min_cut"),
        "mincut.arcs": metric(traced.counter("mincut.arcs", solve_ids), "count"),
        "mincut.pair_commit_ratio": metric(
            traced.counter("mincut.pair_commits", solve_ids) / max_flows if max_flows else 0.0,
            "ratio",
        ),
        "greedy.sweep.s": secs("greedy.sweep"),
        "greedy.best_move.s": secs("greedy.best_move"),
        "greedy.best_move.calls": count("greedy.best_move"),
        "greedy.commit_ratio": metric(
            traced.counter("greedy.commits", solve_ids) / best_moves if best_moves else 0.0,
            "ratio",
        ),
        "objective.from_partition.s": secs("objective.from_partition"),
        "objective.from_partition.calls": count("objective.from_partition"),
        "objective.apply_move.s": secs("objective.apply_move"),
        "objective.apply_move.calls": count("objective.apply_move"),
        "objective.rebuild.s": secs("objective.rebuild"),
        "objective.centroids.s": secs("objective.centroids"),
        "objective.loss_parts.s": secs("objective.loss_parts"),
        "objective.total_cost.s": secs("objective.total_cost"),
        "driver.multi_restart.s": secs("driver.multi_restart"),
        "driver.iterations": metric(sum(r.iterations for r in results), "count"),
        "driver.converged_frac": metric(
            sum(r.converged for r in results) / len(results) if results else 0.0, "ratio"
        ),
        "driver.repair_empty_groups.s": secs("driver.repair_empty_groups"),
        "driver.repair_empty_groups.calls": count("driver.repair_empty_groups"),
        "trace.solve_s_p50": metric(statistics.median(traced_times), "s"),
        "trace.untraced_solve_s_p50": metric(statistics.median(plain_times), "s"),
        "trace.overhead_s": metric(
            statistics.median(t - u for t, u in zip(traced_times, plain_times)), "s"
        ),
    }
    OUT_DIR.mkdir(exist_ok=True)
    traced.save(OUT_DIR / f"spans-{bench.w.name}.npz")
    extras = {
        "trace_solves": TRACE_SOLVES,
        "restart_seeds": [bench.plan(i)[1] for i in range(TRACE_SOLVES)],
        "recheck_solves": RECHECK_SOLVES,
        "spans": len(traced.start),
        "self_s": {name: t["self_s"] for name, t in totals.items()},
        "layer_hit_calls": calls,
    }
    return metrics, extras, attempted, failed, problems


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    digseg = load_digseg()
    bench = Bench(digseg, WORKLOADS[args.workload], args.seed)
    problems: list[str] = []
    if args.trace:
        metrics, extras, attempted, failed, problems = run_traced(bench)
    else:
        metrics, extras, attempted, failed = run_untraced(bench, args.seconds)
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    correct = failed == 0 and not problems
    report = {"context": {**bench.context(), **extras}, "problems": problems}
    OUT_DIR.mkdir(exist_ok=True)
    report_path = OUT_DIR / f"report-{args.workload}-trace{args.trace}.json"
    report_path.write_text(json.dumps({**report, "metrics": metrics}, indent=1) + "\n")
    print(json.dumps(report["context"]))
    print(
        json.dumps(
            {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
        )
    )
    return 0 if correct else 1
