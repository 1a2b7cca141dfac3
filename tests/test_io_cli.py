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
from quivergreen.core import MAX_VERTICES, Quiver, mutate, relabel
from quivergreen.errors import QuiverError
from quivergreen.green import FramedQuiver
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
    # one family table serves both spellings
    for spec, name in [
        ("Q3:2,2,3", "Q_2,2,3"),
        ("R:0,2,3", "R_0,2,3"),
        ("R:0,2,3,op", "R_0,2,3_op"),
        ("Theta:5", "Theta_5"),
        ("Lin3:1,2", "Lin3_1,2"),
        ("Tri3:1,1,2", "Tri3_1,1,2"),
    ]:
        assert parse_quiver(spec) == get(name).quiver
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


def test_cli_invariants_text_reports_the_mgs_verdict(capsys):
    code, out, err = run_cli(capsys, "invariants", "R:1,3,5,op")
    assert (code, err) == (0, "")
    assert out == (
        "rank(B) = 4\n"
        "admissible: sat\n"
        "mutation-acyclic: unknown\n"
        "MGS: no\n"
    )
    code, out, _ = run_cli(capsys, "--format", "json", "invariants", "R:1,3,5,op")
    assert code == 0 and json.loads(out)["mgs"] == "no"


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


def test_cli_decides_a_quiver_above_the_direct_sum_cap(capsys, tmp_path):
    # the path 1 -> ... -> 15 into the triangle 15 -> 16 -> 17 -> 15
    arrows = [[i, i + 1] for i in range(1, 17)] + [[17, 15]]
    path = tmp_path / "q17.json"
    path.write_text(json.dumps({"n": 17, "arrows": arrows}))
    code, out, err = run_cli(capsys, "decide", str(path))
    assert code == 0 and err == ""
    assert out.startswith("yes: (")


@pytest.mark.parametrize(
    "argv", [("decide", "catalog:nope"), ("catalog", "show", "nope")]
)
def test_cli_catalog_miss_names_the_entry_without_stray_quotes(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == ""
    assert err == "error: no catalog entry named 'nope'\n"


def test_cli_output_file(capsys, tmp_path):
    target = tmp_path / "out.json"
    code, out, _ = run_cli(
        capsys, "--format", "json", "--out", str(target), "decide", "Q3:1,1,1"
    )
    assert code == 0 and out == ""
    assert json.loads(target.read_text())["verdict"] == "yes"


@pytest.mark.parametrize("target", ["directory", "missing parent"])
def test_cli_unwritable_output_file_is_an_input_error(capsys, tmp_path, target):
    path = tmp_path if target == "directory" else tmp_path / "missing" / "x.json"
    code, out, err = run_cli(capsys, "--out", str(path), "decide", "catalog:K4")
    assert (code, out) == (1, "")
    assert err.startswith("error: cannot write output file")
    assert "Traceback" not in err


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


def test_numpy_matrices_and_integers_are_rejected():
    # an integer is a Python int: numpy input needs .tolist() or int()
    for dtype in (np.int64, np.int32, np.int8, np.float64, np.bool_, np.uint8,
                  np.uint64, object):
        with pytest.raises(QuiverError, match="list of rows"):
            Quiver(np.zeros((2, 2), dtype=dtype))
    with pytest.raises(QuiverError, match="must be an integer"):
        Quiver([[0, np.int64(2)], [-2, 0]])
    with pytest.raises(QuiverError, match="must be an integer"):
        Quiver.from_arrows(np.int64(2), [(1, 2)])
    q = Quiver.from_arrows(2, [(1, 2, 2)])
    with pytest.raises(QuiverError, match="must be an integer"):
        mutate(q, np.int64(1))
    with pytest.raises(QuiverError, match="must be an integer"):
        relabel(q, [np.int64(2), np.int64(1)])
    with pytest.raises(QuiverError, match="must be an integer"):
        FramedQuiver(((0, np.int64(1), 1, 0), (-1, 0, 0, 1)))
    # the same data as plain ints is accepted
    assert Quiver(np.array([[0, 2], [-2, 0]], dtype=np.int32).tolist()) == q
    assert Quiver.from_arrows(int(np.int64(2)), [(1, 2, 2)]) == q


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


def _run_cli_subprocess(*argv):
    env = dict(os.environ, PYTHONPATH=str(Path(quivergreen.__file__).parents[1]))
    return subprocess.run(
        [sys.executable, "-m", "quivergreen.cli", *argv],
        capture_output=True, text=True, env=env, timeout=60,
    )


def test_cli_deeply_nested_quiver_is_an_input_error(tmp_path):
    path = tmp_path / "q.json"
    path.write_text('{"b": ' + "[" * 100_000 + "]" * 100_000 + "}")
    proc = _run_cli_subprocess("decide", str(path))
    assert proc.returncode == 1
    assert proc.stderr.startswith("error:") and "Traceback" not in proc.stderr


def test_cli_deeply_nested_certificate_is_an_input_error(tmp_path):
    cert = '{"kind": "acyclic"}'
    for _ in range(3000):
        cert = (
            '{"kind": "node", "mutations": [], "edge": [1, 2], "children": ['
            + cert
            + ', {"kind": "acyclic"}, {"kind": "acyclic"}]}'
        )
    path = tmp_path / "cert.json"
    path.write_text(cert)
    proc = _run_cli_subprocess("louise", "verify", "catalog:K4", str(path))
    assert proc.returncode == 1
    assert proc.stderr.startswith("error:") and "Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "argv",
    [
        ("--max-states", "-3", "decide", "catalog:Z6"),
        ("--max-states", "0", "mgs", "find", "catalog:K4"),
        ("--max-len", "0", "decide", "catalog:K4"),
        ("--max-len", "0", "mgs", "find", "catalog:K4"),
        ("--max-len", "-2", "graph", "psi", "catalog:K4"),
        ("--max-nodes", "0", "graph", "psi", "catalog:K4"),
        ("--max-nodes", "-1", "graph", "psi", "catalog:K4"),
        ("--max-nodes", "0", "graph", "explore", "catalog:K4"),
        ("--max-mult", "-1", "graph", "explore", "catalog:K4"),
        ("--max-mult", "0", "graph", "explore", "catalog:K4"),
    ],
)
def test_cli_nonpositive_budget_is_an_input_error(capsys, argv):
    # a budget below 1 is bad input, not a search that ran out (exit 2)
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and "must be at least 1" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ("--depth", "-1", "mutation-acyclic", "Q3:1,1,1"),
        ("--max-nodes", "0", "mutation-acyclic", "Q3:1,1,1"),
        ("--max-nodes", "0", "acyclic-count", "catalog:K4"),
        ("--depth", "-1", "acyclic-count", "catalog:K4"),
        ("--depth", "-2", "invariants", "catalog:K4"),
    ],
)
def test_cli_bad_mutation_acyclic_budget_is_an_input_error(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and "must be at least" in err
    assert "Traceback" not in err


def test_cli_mutation_acyclic_past_the_multiplicity_cap_is_unknown(tmp_path, capsys):
    path = tmp_path / "q.json"
    path.write_text('{"b": [[0,2,-1,-1],[-2,0,1,1],[1,-1,0,2],[1,-1,-2,0]]}')
    code, out, err = run_cli(capsys, "mutation-acyclic", str(path))
    assert (code, out, err) == (2, "unknown (budget reached)\n", "")
    code, out, err = run_cli(capsys, "invariants", str(path))
    assert code == 0 and "mutation-acyclic: unknown" in out
    assert "error" not in err


README = Path(__file__).resolve().parents[1] / "README.md"


def test_cli_readme_example_with_options_after_the_subcommand(
    capsys, tmp_path, monkeypatch
):
    line = next(
        ln for ln in README.read_text().splitlines() if "--out psi.gv" in ln
    )
    assert line.startswith("quivergreen --format dot graph psi")
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(capsys, *line.split()[1:])
    assert (code, out, err) == (0, "", "")
    code, expected, _ = run_cli(capsys, "--format", "dot", "graph", "psi", "catalog:K4")
    assert code == 0 and (tmp_path / "psi.gv").read_text() == expected
    # a global option after the subcommand keeps the ones given before it,
    # and overrides the same option given before it
    code, out, _ = run_cli(
        capsys, "--format", "json", "--max-nodes", "3", "graph", "explore",
        "catalog:K4", "--max-nodes", "5",
    )
    assert code == 2 and len(json.loads(out)["nodes"]) == 5


@pytest.mark.parametrize(
    "argv",
    [
        ("--max-len", "abc", "decide", "catalog:K4"),
        ("decide", "catalog:K4", "--max-len", "abc"),
        ("--no-such-option", "decide", "catalog:K4"),
        ("decide", "catalog:K4", "--no-such-option"),
        ("mgs", "verify", "catalog:K4"),
        ("catalog", "show"),
        ("no-such-command",),
        (),
    ],
)
def test_cli_usage_error_is_an_input_error(capsys, argv):
    # exit 2 means "a budget ran out"; a malformed command line is bad input
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (1, "")
    assert "error:" in err and "Traceback" not in err


@pytest.mark.parametrize("argv", [("--help",), ("graph", "--help")])
def test_cli_help_exits_zero(capsys, argv):
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0 and out.startswith("usage: quivergreen")


@pytest.mark.parametrize(
    "argv",
    [
        ("decide", "Q3:1,,2,3"),
        ("decide", "Q3:1,2,3,"),
        ("decide", "Q3: 1,2,3"),
        ("decide", "Q3:1_0,2,3"),
        ("decide", "Theta:٥"),
        ("decide", "catalog:Q_٢,٢,٢"),
        ("decide", "catalog:Theta_5\n"),
        ("mgs", "verify", "catalog:K4", "1,,2,3,4,2"),
        ("--max-len", "1_0", "decide", "catalog:K4"),
        ("--depth", " 3", "mutation-acyclic", "catalog:K4"),
        ("mutate", "Q3:1,1,1", "٢"),
    ],
)
def test_cli_integers_are_parsed_not_coerced(capsys, argv):
    # int() would take blanks, underscores and non-ASCII digits, and an
    # empty part of a list would be dropped
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (1, "")
    assert "error:" in err and "Traceback" not in err

