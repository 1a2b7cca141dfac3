import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import quivergreen
from quivergreen.catalog import get, make_rank3
from quivergreen.cli import main, parse_quiver
from quivergreen.core import MAX_VERTICES, Quiver
from quivergreen.errors import QuiverError
from quivergreen.io import (
    dumps_quiver,
    loads_quiver,
    quiver_from_json,
    quiver_to_json,
)


def test_json_roundtrip():
    q = get("W5").quiver
    assert quiver_from_json(quiver_to_json(q)) == q
    assert loads_quiver(dumps_quiver(q)) == q


def test_matrix_form():
    q = quiver_from_json({"b": [[0, 2], [-2, 0]]})
    assert q == Quiver.from_arrows(2, [(1, 2, 2)])


def test_validation_errors():
    with pytest.raises(QuiverError):
        quiver_from_json({"n": 2, "arrows": [[1, 1, 1]]})
    with pytest.raises(QuiverError):
        quiver_from_json({"n": 2, "arrows": [[1, 2, 0]]})
    with pytest.raises(QuiverError):
        quiver_from_json({"n": 2, "arrows": [[1, 2], [2, 1]]})
    with pytest.raises(QuiverError):
        quiver_from_json({"b": [[0, 1], [1, 0]]})
    with pytest.raises(QuiverError):
        loads_quiver("not json")


def test_parse_quiver_specs(tmp_path):
    assert parse_quiver("catalog:K4") == get("K4").quiver
    assert parse_quiver("Q3:2,2,2") == make_rank3(2, 2, 2)
    assert parse_quiver("Theta:5") == get("Theta_5").quiver
    from quivergreen.catalog import make_r_family

    assert parse_quiver("R:0,2,3,op") == make_r_family(0, 2, 3, opposite=True)
    path = tmp_path / "q.json"
    path.write_text(dumps_quiver(make_rank3(1, 2, 3)))
    assert parse_quiver(str(path)) == make_rank3(1, 2, 3)
    with pytest.raises(QuiverError):
        parse_quiver("catalog:missing")
    with pytest.raises(QuiverError):
        parse_quiver("/nonexistent/file.json")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_cli_decide_yes(capsys):
    code, out, _ = run_cli(capsys, "--format", "json", "decide", "catalog:Theta_5")
    assert code == 0
    data = json.loads(out)
    assert data["verdict"] == "yes"
    from quivergreen.green import verify_mgs

    assert verify_mgs(get("Theta_5").quiver, data["sequence"]) is not None


def test_cli_decide_no_is_definite(capsys):
    code, out, _ = run_cli(capsys, "--format", "json", "decide", "Q3:2,2,2")
    assert code == 0
    assert json.loads(out)["verdict"] == "no"


def test_cli_admissible_unsat(capsys):
    code, out, _ = run_cli(capsys, "--format", "json", "admissible", "catalog:K4")
    assert code == 0
    data = json.loads(out)
    assert data["outcome"] == "unsat"
    assert data["witnessCycles"]


def test_cli_mutate(capsys):
    code, out, _ = run_cli(capsys, "mutate", "catalog:Q_1,1,1", "2")
    assert code == 0
    assert out.strip() == "2->1, 3->2"


def test_cli_mgs_find_and_verify(capsys):
    code, out, _ = run_cli(capsys, "--format", "json", "mgs", "find", "catalog:A2")
    assert code == 0 and json.loads(out)["sequence"] == [1, 2]
    code, out, _ = run_cli(
        capsys, "--format", "json", "mgs", "verify", "catalog:Theta_4", "2,3,4,1,2"
    )
    assert code == 0 and json.loads(out)["valid"] is True
    code, out, _ = run_cli(
        capsys, "--format", "json", "mgs", "verify", "catalog:Theta_4", "1,1"
    )
    assert code == 0 and json.loads(out)["valid"] is False


def test_cli_mgs_find_budget_exit(capsys):
    code, out, _ = run_cli(capsys, "--format", "json", "mgs", "find", "catalog:Markov")
    assert code == 2


def test_cli_graph_explore(capsys):
    code, out, _ = run_cli(capsys, "--format", "json", "graph", "explore", "catalog:A3")
    assert code == 0
    data = json.loads(out)
    assert len(data["nodes"]) == 4 and data["complete"] is True


def test_cli_graph_psi_dot(capsys):
    code, out, _ = run_cli(capsys, "--format", "dot", "graph", "psi", "catalog:Q_1,1,1")
    assert code == 0
    assert out.startswith("graph exchange {")
    assert "color=\"green\"" in out


def test_cli_graph_incomplete_exit(capsys):
    code, out, err = run_cli(
        capsys, "--format", "json", "--max-nodes", "3", "graph", "explore", "Q3:2,2,3"
    )
    assert code == 2
    assert "incomplete" in err


def test_cli_invariants(capsys):
    code, out, _ = run_cli(
        capsys, "--format", "json", "--max-len", "16", "invariants", "catalog:K4"
    )
    assert code == 0
    data = json.loads(out)
    assert data["b_rank"] == 4
    assert data["admissible"] == "unsat"
    assert data["psi"]["total"] == 17


def test_cli_acyclic_count(capsys):
    code, out, _ = run_cli(capsys, "--format", "json", "acyclic-count", "catalog:A3")
    assert code == 0 and json.loads(out)["acyclicCount"] == 3
    code, out, _ = run_cli(capsys, "--format", "json", "acyclic-count", "catalog:K4")
    assert code == 0 and json.loads(out)["acyclicCount"] == 0


def test_cli_louise(capsys, tmp_path):
    cert = tmp_path / "cert.json"
    cert.write_text(json.dumps(get("K4").known_facts["louise"]))
    code, out, _ = run_cli(
        capsys, "--format", "json", "louise", "verify", "catalog:K4", str(cert)
    )
    assert code == 0 and json.loads(out)["valid"] is True
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"kind": "acyclic"}))
    code, out, _ = run_cli(
        capsys, "--format", "json", "louise", "verify", "catalog:K4", str(bad)
    )
    assert code == 0 and json.loads(out)["valid"] is False


def test_cli_catalog(capsys):
    code, out, _ = run_cli(capsys, "catalog", "list")
    assert code == 0 and "K4" in out.split()
    code, out, _ = run_cli(capsys, "--format", "json", "catalog", "show", "Theta_4")
    assert code == 0
    data = json.loads(out)
    assert data["facts"]["mgs"] == [2, 3, 4, 1, 2]


def test_cli_input_error(capsys):
    code, _, err = run_cli(capsys, "decide", "catalog:missing")
    assert code == 1 and "error" in err


def test_cli_output_file(capsys, tmp_path):
    target = tmp_path / "out.json"
    code, out, _ = run_cli(
        capsys, "--format", "json", "--out", str(target), "decide", "Q3:1,1,1"
    )
    assert code == 0 and out == ""
    assert json.loads(target.read_text())["verdict"] == "yes"


def test_cli_byte_identical_reruns(capsys):
    outs = set()
    for _ in range(2):
        code, out, _ = run_cli(
            capsys, "--format", "json", "--max-len", "16", "graph", "psi",
            "catalog:K4",
        )
        assert code == 0
        outs.add(out)
    assert len(outs) == 1


@pytest.mark.parametrize(
    "doc",
    [
        {"b": [[0, 1.7], [-1.7, 0]]},  # used to load as the arrow (1, 2, 1)
        {"b": [[0, "1"], ["-1", 0]]},
        {"b": [[0, True], [-1, 0]]},
        {"n": 2, "arrows": [[1, 2, 1.9]]},  # used to load as multiplicity 1
        {"n": 2, "arrows": [[1, 2, "1"]]},
        {"n": 2, "arrows": [["1", 2]]},
        {"n": 2, "arrows": [[1, 2, True]]},
        {"n": 2.0, "arrows": []},
        {"n": "2", "arrows": []},
        {"n": True, "arrows": []},  # used to raise a bare TypeError
    ],
)
def test_non_integer_input_is_rejected(doc):
    with pytest.raises(QuiverError):
        quiver_from_json(doc)


@pytest.mark.parametrize(
    "doc",
    [
        {"b": [[0, 10**20], [-(10**20), 0]]},  # used to raise OverflowError
        {"n": 2, "arrows": [[1, 2, 10**20]]},
        {"n": 2, "arrows": [[1, 2, 2**31]]},
    ],
)
def test_oversized_multiplicity_is_rejected(doc):
    with pytest.raises(QuiverError, match="cap"):
        quiver_from_json(doc)


def test_huge_vertex_count_is_rejected_before_allocating():
    # 10**9 vertices would need about 6.9 EiB; the cap check comes first
    with pytest.raises(QuiverError, match="cap"):
        quiver_from_json({"n": 10**9, "arrows": []})
    with pytest.raises(QuiverError, match="cap"):
        quiver_from_json({"n": MAX_VERTICES + 1, "arrows": []})
    assert quiver_from_json({"n": MAX_VERTICES, "arrows": []}).n == MAX_VERTICES


def test_numpy_integer_matrices_still_construct():
    for dtype in (np.int64, np.int32, np.int8):
        assert Quiver(np.zeros((3, 3), dtype=dtype)).b.dtype == np.int64
    b = np.array([[0, 2], [-2, 0]], dtype=np.int32)
    assert Quiver(b) == Quiver.from_arrows(2, [(1, 2, 2)])
    assert Quiver.from_arrows(np.int64(2), [(np.int64(1), np.int64(2))]).n == 2
    for dtype in (np.float64, np.bool_, np.uint8, np.uint64, object):
        with pytest.raises(QuiverError):
            Quiver(np.zeros((2, 2), dtype=dtype))


def test_cli_rejects_bool_vertex_count_without_traceback(tmp_path):
    path = tmp_path / "q.json"
    path.write_text('{"n": true, "arrows": []}')
    env = dict(os.environ, PYTHONPATH=str(Path(quivergreen.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "quivergreen.cli", "decide", str(path)],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 1  # the input-error exit code
    assert proc.stdout == ""
    assert proc.stderr.startswith("error:") and "Traceback" not in proc.stderr
