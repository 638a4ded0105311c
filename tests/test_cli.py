import json
import math
import subprocess
import sys

import numpy as np
import pytest

from digseg import OrderedPartition, Penalties, load_features, load_graph, total_cost
from digseg.cli import main
from conftest import rel_close


def run_cli(*argv) -> int:
    return main(list(argv))


@pytest.fixture
def tiny_instance(tmp_path):
    gpath = tmp_path / "g.edges"
    fpath = tmp_path / "f.csv"
    gpath.write_text("4\n0 1\n1 2\n2 3\n")
    fpath.write_text("0,0.0\n1,0.1\n2,1.0\n3,1.1\n")
    return str(gpath), str(fpath)


def read_json(path):
    with open(path) as f:
        return json.load(f)


def test_solve_k1_has_no_cross_edges(tiny_instance, tmp_path, capsys):
    gpath, fpath = tiny_instance
    out = str(tmp_path / "r.json")
    code = run_cli("solve", "--graph", gpath, "--features", fpath, "--k", "1",
                   "--algo", "greedy", "--restarts", "2", "--seed", "0",
                   "--threads", "1", "--out", out)
    assert code == 0
    payload = read_json(out)
    assert payload["forward_edges"] == 0 and payload["backward_edges"] == 0
    assert payload["k"] == 1 and payload["n"] == 4 and payload["m"] == 3
    assert set(payload["assignment"]) == {1}


def test_solve_result_revalidates(tiny_instance, tmp_path):
    gpath, fpath = tiny_instance
    out = str(tmp_path / "r.json")
    code = run_cli("solve", "--graph", gpath, "--features", fpath, "--k", "2",
                   "--lambda-f", "0.5", "--lambda-b", "2.5", "--algo", "mcut",
                   "--restarts", "3", "--seed", "1", "--threads", "1", "--out", out)
    assert code == 0
    payload = read_json(out)
    graph = load_graph(open(gpath, "rb"))
    features = load_features(open(fpath, "rb"), graph)
    part = OrderedPartition.from_labels(payload["k"], payload["assignment"])
    pen = Penalties(payload["lambda_f"], payload["lambda_b"])
    fresh = total_cost(graph, features, part, pen)
    assert rel_close(payload["total"], fresh.total)
    assert payload["coherence"] == pytest.approx(fresh.coherence, rel=1e-9, abs=1e-12)
    assert payload["forward_edges"] == fresh.forward_edges
    assert payload["backward_edges"] == fresh.backward_edges


def test_solve_accepts_inf_lambda(tiny_instance, tmp_path):
    gpath, fpath = tiny_instance
    out = str(tmp_path / "r.json")
    code = run_cli("solve", "--graph", gpath, "--features", fpath, "--k", "2",
                   "--lambda-b", "inf", "--algo", "treedp", "--restarts", "2",
                   "--threads", "1", "--out", out)
    assert code == 0
    payload = read_json(out)
    assert payload["lambda_b"] == "inf"
    assert payload["backward_edges"] == 0


def test_solve_error_paths(tmp_path, capsys, tiny_instance):
    gpath, fpath = tiny_instance
    out = str(tmp_path / "r.json")
    assert run_cli("solve", "--graph", str(tmp_path / "missing.edges"),
                   "--features", fpath, "--k", "2", "--out", out) == 1
    err = capsys.readouterr().err
    assert "error:" in err

    bad = tmp_path / "bad.edges"
    bad.write_text("2\n0 0\n")
    assert run_cli("solve", "--graph", str(bad), "--features", fpath,
                   "--k", "2", "--out", out) == 1


def test_solve_treedp_rejects_non_tree(tmp_path, capsys):
    gpath = tmp_path / "g.edges"
    fpath = tmp_path / "f.csv"
    gpath.write_text("3\n0 1\n1 2\n0 2\n")  # vertex 2 has in-degree 2
    fpath.write_text("0,0.0\n1,0.5\n2,1.0\n")
    out = str(tmp_path / "r.json")
    code = run_cli("solve", "--graph", str(gpath), "--features", str(fpath),
                   "--k", "2", "--algo", "treedp", "--threads", "1", "--out", out)
    assert code == 1
    assert "in-degree" in capsys.readouterr().err


def test_synth_solve_eval_roundtrip(tmp_path, capsys):
    prefix = str(tmp_path / "inst")
    assert run_cli("synth", "--model", "tree", "--n", "100", "--d", "4",
                   "--clusters", "5", "--variance", "0.01", "--seed", "3",
                   "--out-prefix", prefix) == 0
    out = str(tmp_path / "res.json")
    assert run_cli("solve", "--graph", prefix + ".edges", "--features",
                   prefix + ".features", "--k", "5", "--lambda-b", "100000",
                   "--algo", "treedp", "--restarts", "5", "--seed", "0",
                   "--threads", "1", "--out", out) == 0
    assert run_cli("eval", "--pred", out, "--truth", prefix + ".truth") == 0
    ari = float(capsys.readouterr().out.strip())
    assert -1.0 <= ari <= 1.0


def test_eval_identical_files_prints_one(tmp_path, capsys):
    truth = tmp_path / "t.truth"
    truth.write_text("0,1\n1,1\n2,2\n3,2\n")
    assert run_cli("eval", "--pred", str(truth), "--truth", str(truth)) == 0
    assert capsys.readouterr().out.strip() == "1.0"


def test_eval_rejects_duplicate_vertex_row(tmp_path, capsys):
    truth = tmp_path / "t.truth"
    truth.write_text("0,1\n1,2\n2,2\n")
    pred = tmp_path / "p.truth"
    pred.write_text("0,1\n1,2\n# comment\n1,1\n2,2\n")
    assert run_cli("eval", "--pred", str(pred), "--truth", str(truth)) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"error: {pred}:4: duplicate row for vertex 1" in captured.err


@pytest.mark.parametrize("labels", ["null", '{"0": 1}', '"12"', "[1.5, 2]", "[true, 2]", "[1, null]"])
def test_eval_rejects_a_json_assignment_that_is_not_a_list_of_integers(tmp_path, capsys, labels):
    truth = tmp_path / "t.truth"
    truth.write_text("0,1\n1,2\n")
    pred = tmp_path / "p.json"
    pred.write_text(f'{{"assignment": {labels}}}\n')
    assert run_cli("eval", "--pred", str(pred), "--truth", str(truth)) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f'error: {pred}: "assignment" must be a list of integers' in captured.err


@pytest.mark.parametrize("row", ["x,1", "1,y"])
def test_eval_names_file_and_line_of_a_non_integer(tmp_path, capsys, row):
    truth = tmp_path / "t.truth"
    truth.write_text("0,1\n1,2\n")
    pred = tmp_path / "p.truth"
    pred.write_text(f"# vertex,group\n0,1\n{row}\n")
    assert run_cli("eval", "--pred", str(pred), "--truth", str(truth)) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"error: {pred}:3: non-integer vertex or group in {row!r}" in captured.err


def test_eval_names_the_file_of_malformed_json(tmp_path, capsys):
    truth = tmp_path / "t.truth"
    truth.write_text("0,1\n1,2\n")
    pred = tmp_path / "p.json"
    pred.write_text('{"assignment": [1, 2,]}\n')
    assert run_cli("eval", "--pred", str(pred), "--truth", str(truth)) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"error: {pred}: malformed JSON: " in captured.err


@pytest.mark.parametrize("label", ["99999999999999999999", "-99999999999999999999"])
def test_eval_rejects_a_json_label_beyond_int64(tmp_path, capsys, label):
    truth = tmp_path / "t.truth"
    truth.write_text("0,1\n1,2\n")
    pred = tmp_path / "p.json"
    pred.write_text(f'{{"assignment": [1, {label}]}}\n')
    assert run_cli("eval", "--pred", str(pred), "--truth", str(truth)) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"error: {pred}: group {label} does not fit in a 64-bit integer" in captured.err


def test_eval_names_file_and_line_of_a_text_label_beyond_int64(tmp_path, capsys):
    truth = tmp_path / "t.truth"
    truth.write_text("0,1\n1,2\n")
    pred = tmp_path / "p.truth"
    pred.write_text("0,1\n1,99999999999999999999\n")
    assert run_cli("eval", "--pred", str(pred), "--truth", str(truth)) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"error: {pred}:2: group 99999999999999999999 does not fit in a 64-bit integer" in captured.err


def test_synth_rejects_zero_clusters(tmp_path, capsys):
    prefix = str(tmp_path / "inst")
    assert run_cli("synth", "--model", "tree", "--n", "10", "--clusters", "0",
                   "--out-prefix", prefix) == 1
    assert "error: need k >= 1 clusters, got 0" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_synth_names_a_non_finite_variance(tmp_path, capsys):
    prefix = str(tmp_path / "inst")
    assert run_cli("synth", "--model", "dag", "--n", "10", "--variance", "nan",
                   "--out-prefix", prefix) == 1
    assert "error: variance must be finite and non-negative, got nan" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_sweep_writes_csv(tmp_path):
    out = str(tmp_path / "sweep.csv")
    code = run_cli("sweep", "--model", "tree", "--solver", "greedy",
                   "--p-grid", "0.0", "--penalty", "0,1", "--n", "40", "--d", "2",
                   "--clusters", "2", "--variance", "0.05", "--restarts", "2",
                   "--max-iters", "15", "--seed", "0", "--threads", "1", "--out", out)
    assert code == 0
    lines = open(out).read().strip().split("\n")
    assert lines[0] == "p,lambda_f,lambda_b,solver,loss,ari,iterations,seconds"
    assert len(lines) == 2


def test_oracle_subcommand(tmp_path):
    gpath = tmp_path / "g.edges"
    fpath = tmp_path / "f.csv"
    gpath.write_text("3\n0 1\n1 2\n")
    fpath.write_text("0,0.0\n1,0.0\n2,1.0\n")
    out = str(tmp_path / "o.json")
    code = run_cli("oracle", "--graph", str(gpath), "--features", str(fpath),
                   "--k", "2", "--lambda-b", "100000", "--out", out)
    assert code == 0
    payload = read_json(out)
    assert payload["algo"] == "oracle"
    assert payload["assignment"] == [1, 1, 2]
    assert payload["total"] == 0.0


def test_oracle_guard_violation_exits_nonzero(tmp_path, capsys):
    gpath = tmp_path / "g.edges"
    fpath = tmp_path / "f.csv"
    n = 40
    gpath.write_text(f"{n}\n" + "".join(f"{v} {v+1}\n" for v in range(n - 1)))
    fpath.write_text("".join(f"{v},0.5\n" for v in range(n)))
    out = str(tmp_path / "o.json")
    code = run_cli("oracle", "--graph", str(gpath), "--features", str(fpath),
                   "--k", "3", "--out", out)
    assert code == 1
    assert "guard" in capsys.readouterr().err


def test_module_invocation_subprocess(tmp_path):
    gpath = tmp_path / "g.edges"
    fpath = tmp_path / "f.csv"
    gpath.write_text("2\n0 1\n")
    fpath.write_text("0,0.0\n1,1.0\n")
    out = str(tmp_path / "r.json")
    proc = subprocess.run(
        [sys.executable, "-m", "digseg", "solve", "--graph", str(gpath),
         "--features", str(fpath), "--k", "2", "--algo", "greedy",
         "--restarts", "1", "--threads", "1", "--out", out],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert read_json(out)["n"] == 2
