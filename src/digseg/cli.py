"""Command-line front end: solve, synth, eval, sweep, oracle."""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import sys
import time

import numpy as np

from .config import SOLVER_KINDS, SolveConfig, SolveResult
from .core import (
    DirectedGraph,
    FeatureMatrix,
    OrderedPartition,
    Penalties,
    _content_lines,
    _INT64_MAX,
    _INT64_MIN,
    features_to_table,
    graph_to_edge_list,
    load_features,
    load_graph,
)
from .driver import multi_restart
from .experiments import (
    DEFAULT_PENALTIES,
    adjusted_rand_index,
    gen_sdag,
    inject_noise,
    run_noise_sweep,
    write_sweep_csv,
)
from .objective import total_cost
from .oracle import brute_force_dgs


def _nonneg_lambda(text: str) -> float:
    try:
        val = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number or 'inf', got {text!r}")
    if math.isnan(val) or val < 0:
        raise argparse.ArgumentTypeError(f"penalty weight must be non-negative, got {text!r}")
    return val


def _penalty_pair(text: str) -> Penalties:
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"expected 'LAMBDA_F,LAMBDA_B', got {text!r}")
    return Penalties(_nonneg_lambda(parts[0]), _nonneg_lambda(parts[1]))


def _p_grid(text: str) -> list[float]:
    if not text.strip():
        return []
    return [float(tok) for tok in text.split(",")]


def _jsonable(x):
    if isinstance(x, float) and math.isinf(x):
        return "inf"
    return x


def _write_file(path: str, content: str) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as f:
        f.write(content)
    os.replace(tmp, path)


def _load_instance(graph_path: str, features_path: str) -> tuple[DirectedGraph, FeatureMatrix]:
    with open(graph_path, "rb") as f:
        graph = load_graph(f)
    with open(features_path, "rb") as f:
        features = load_features(f, graph)
    return graph, features


def _result_payload(graph, k, penalties, algo, result, seconds) -> str:
    payload = {
        "n": graph.n,
        "m": graph.m,
        "k": k,
        "lambda_f": _jsonable(penalties.lambda_f),
        "lambda_b": _jsonable(penalties.lambda_b),
        "algo": algo,
        "seed": result.seed,
        "assignment": [int(g) for g in result.partition.assign],
        "coherence": result.breakdown.coherence,
        "forward_edges": result.breakdown.forward_edges,
        "backward_edges": result.breakdown.backward_edges,
        "total": _jsonable(result.breakdown.total),
        "iterations": result.iterations,
        "converged": result.converged,
        "seconds": seconds,
    }
    return json.dumps(payload, indent=2) + "\n"


def _read_assignment(path: str) -> OrderedPartition:
    """Read group labels from a result JSON or a 'vertex,group' text file."""
    with open(path, "r", encoding="utf-8") as f:
        content = f.read()
    if content.lstrip().startswith("{"):
        try:
            labels = json.loads(content).get("assignment")
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: malformed JSON: {exc}") from None
        # bool is an int subclass, and numpy would truncate floats
        if not isinstance(labels, list) or not all(type(g) is int for g in labels):
            raise ValueError(f'{path}: "assignment" must be a list of integers')
        for g in labels:
            if not _INT64_MIN <= g <= _INT64_MAX:
                raise ValueError(f"{path}: group {g} does not fit in a 64-bit integer")
        arr = np.asarray(labels, dtype=np.int64)
    else:
        pairs = {}
        for lineno, line in _content_lines(content):
            tokens = line.replace(",", " ").split()
            if len(tokens) != 2:
                raise ValueError(f"{path}:{lineno}: expected 'vertex,group', got {line!r}")
            try:
                vid, group = int(tokens[0]), int(tokens[1])
            except ValueError:
                raise ValueError(f"{path}:{lineno}: non-integer vertex or group in {line!r}")
            if not _INT64_MIN <= group <= _INT64_MAX:
                raise ValueError(f"{path}:{lineno}: group {group} does not fit in a 64-bit integer")
            if vid in pairs:
                raise ValueError(f"{path}:{lineno}: duplicate row for vertex {vid}")
            pairs[vid] = group
        missing = [v for v in range(len(pairs)) if v not in pairs]
        if missing:
            raise ValueError(f"{path}: missing assignment for vertex id(s) {missing[:5]}")
        arr = np.asarray([pairs[v] for v in range(len(pairs))], dtype=np.int64)
    if arr.size == 0:
        raise ValueError(f"{path}: empty assignment")
    return OrderedPartition.from_labels(int(arr.max()), arr)


def _solve_config(args, solver_kind: str) -> SolveConfig:
    return SolveConfig(
        max_iters=args.max_iters, restarts=args.restarts, seed=args.seed, solver_kind=solver_kind
    )


def _cmd_solve(args) -> int:
    graph, features = _load_instance(args.graph, args.features)
    penalties = Penalties(args.lambda_f, args.lambda_b)
    config = _solve_config(args, args.algo)
    start = time.perf_counter()
    result = multi_restart(graph, features, penalties, args.k, config, threads=args.threads)
    seconds = time.perf_counter() - start
    _write_file(args.out, _result_payload(graph, args.k, penalties, args.algo, result, seconds))
    return 0


def _cmd_oracle(args) -> int:
    graph, features = _load_instance(args.graph, args.features)
    penalties = Penalties(args.lambda_f, args.lambda_b)
    start = time.perf_counter()
    partition, total = brute_force_dgs(graph, features, penalties, args.k)
    seconds = time.perf_counter() - start
    result = SolveResult(
        partition=partition,
        breakdown=total_cost(graph, features, partition, penalties),
        iterations=1,
        converged=True,
        seed=0,
        seconds=seconds,
    )
    _write_file(args.out, _result_payload(graph, args.k, penalties, "oracle", result, seconds))
    return 0


def _cmd_synth(args) -> int:
    edge_prob = args.edge_prob if args.model == "dag" else 0.0
    inst = gen_sdag(args.n, args.d, args.clusters, args.variance, edge_prob, seed=args.seed)
    if args.noise_p > 0:
        inst = inject_noise(inst, args.noise_p, seed=args.seed + 1)
    _write_file(args.out_prefix + ".edges", graph_to_edge_list(inst.graph))
    _write_file(args.out_prefix + ".features", features_to_table(inst.features))
    truth_lines = "".join(f"{v},{int(g)}\n" for v, g in enumerate(inst.ground_truth.assign))
    _write_file(args.out_prefix + ".truth", truth_lines)
    return 0


def _cmd_eval(args) -> int:
    print(adjusted_rand_index(_read_assignment(args.pred), _read_assignment(args.truth)))
    return 0


def _cmd_sweep(args) -> int:
    penalties = args.penalty if args.penalty else list(DEFAULT_PENALTIES)
    rows = run_noise_sweep(
        args.model, penalties, args.p_grid, _solve_config(args, args.solver),
        n=args.n, d=args.d, k=args.clusters, sigma2=args.variance, edge_prob=args.edge_prob,
        threads=args.threads,
    )
    buf = io.StringIO()
    write_sweep_csv(rows, buf)
    _write_file(args.out, buf.getvalue())
    return 0


def _instance_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--graph", required=True, help="edge-list file")
    p.add_argument("--features", required=True, help="feature table file")
    p.add_argument("--k", type=int, required=True, help="number of ordered groups")
    p.add_argument("--lambda-f", type=_nonneg_lambda, default=0.0, help="forward edge weight")
    p.add_argument("--lambda-b", type=_nonneg_lambda, default=0.0,
                   help="backward edge weight ('inf' allowed)")


def _generator_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--model", choices=("tree", "dag"), required=True)
    p.add_argument("--n", type=int, default=1000)
    p.add_argument("--d", type=int, default=10)
    p.add_argument("--clusters", type=int, default=5)
    p.add_argument("--variance", type=float, default=0.1)
    p.add_argument("--edge-prob", type=float, default=0.01, help="pair edge probability (dag)")


def _run_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--restarts", type=int, default=10)
    p.add_argument("--max-iters", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--threads", type=int, default=os.cpu_count() or 1,
                   help="parallel restarts (default: machine parallelism)")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="digseg",
        description="Partition a directed, feature-attributed graph into ordered coherent groups.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="solve an instance and write a result JSON")
    _instance_args(solve)
    solve.add_argument("--algo", choices=SOLVER_KINDS, default="greedy")
    _run_args(solve)
    solve.add_argument("--out", required=True, help="result JSON path")
    solve.set_defaults(func=_cmd_solve)

    oracle = sub.add_parser("oracle", help="guarded exhaustive solve for tiny inputs")
    _instance_args(oracle)
    oracle.add_argument("--out", required=True, help="result JSON path")
    oracle.set_defaults(func=_cmd_oracle)

    synth = sub.add_parser("synth", help="generate a synthetic instance")
    _generator_args(synth)
    synth.add_argument("--noise-p", type=float, default=0.0)
    synth.add_argument("--seed", type=int, default=0)
    synth.add_argument("--out-prefix", required=True,
                       help="writes <prefix>.edges, <prefix>.features, <prefix>.truth")
    synth.set_defaults(func=_cmd_synth)

    evalp = sub.add_parser("eval", help="print the ARI between two assignments")
    evalp.add_argument("--pred", required=True, help="result JSON or 'vertex,group' file")
    evalp.add_argument("--truth", required=True, help="result JSON or 'vertex,group' file")
    evalp.set_defaults(func=_cmd_eval)

    sweep = sub.add_parser("sweep", help="noise sweep; writes a CSV")
    _generator_args(sweep)
    sweep.add_argument("--solver", choices=SOLVER_KINDS, required=True)
    sweep.add_argument("--p-grid", type=_p_grid, default=[],
                       help="comma-separated noise probabilities")
    sweep.add_argument("--penalty", type=_penalty_pair, action="append",
                       help="'LAMBDA_F,LAMBDA_B' pair; repeatable "
                            "(default: 0,0 and 0,1e5)")
    _run_args(sweep)
    sweep.add_argument("--out", required=True, help="CSV output path")
    sweep.set_defaults(func=_cmd_sweep)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
