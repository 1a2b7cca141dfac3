"""The benchmark's layer tracer names library functions and classes by
string; a rename in the library must fail here, not in the benchmark.  The
uninstalled checkout's entry points, ``python -m quivergreen`` and the demo
scripts, must run without a traceback."""

import ast
import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

from quivergreen import obstructions

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _import_tracing():
    # tracing imports its sibling module stats; write no bytecode there
    saved_path, saved_flag = list(sys.path), sys.dont_write_bytecode
    sys.path.insert(0, str(PERFBENCH))
    sys.dont_write_bytecode = True
    try:
        return importlib.import_module("tracing")
    finally:
        sys.path[:] = saved_path
        sys.dont_write_bytecode = saved_flag


def test_tracing_targets_resolve_in_their_home_modules():
    tracing = _import_tracing()
    for span, home, attr, _, _ in tracing.TARGETS:
        module = importlib.import_module(f"quivergreen.{home}")
        fn = getattr(module, attr, None)
        assert callable(fn), span
        assert fn.__module__ == module.__name__, span


def test_tracing_obstruction_stages_name_obstruction_classes():
    tracing = _import_tracing()
    for name in tracing._OBSTRUCTION_STAGE:
        assert isinstance(getattr(obstructions, name, None), type), name


ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def _run(*argv):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, *argv],
        capture_output=True, text=True, env=env, cwd=ROOT, timeout=120,
    )


def test_python_dash_m_runs_the_cli_from_a_checkout():
    proc = _run("-m", "quivergreen", "decide", "catalog:K4")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("yes")


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs_cleanly(demo):
    proc = _run(str(demo))
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr


def _imported_modules(path):
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_no_module_imports_numpy():
    # the package needs nothing beyond Python: every computation is on
    # plain ints, and no module imports numpy
    modules = sorted((ROOT / "src" / "quivergreen").glob("*.py"))
    users = [
        m.name
        for m in modules
        if any(
            name == "numpy" or name.startswith("numpy.")
            for name in _imported_modules(m)
        )
    ]
    assert users == []


def test_the_cli_never_imports_numpy():
    script = (
        "import sys\n"
        "from quivergreen.cli import main\n"
        "code = main(['decide', 'catalog:K4'])\n"
        "print('numpy' in sys.modules)\n"
        "sys.exit(code)\n"
    )
    proc = _run("-c", script)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["yes: (1, 4, 2, 3, 4)", "False"]


def test_one_function_walks_the_exchange_graph():
    # explore, psi_component, enumerate_acyclic and is_mutation_acyclic share
    # one class walk; only that walk mutates class representatives
    path = ROOT / "src" / "quivergreen" / "exchange.py"
    callers = set()
    for fn in ast.walk(ast.parse(path.read_text())):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(fn):
            if isinstance(node, ast.Call) and (
                getattr(node.func, "id", None) == "mutate"
                or getattr(node.func, "attr", None) == "mutate"
            ):
                callers.add(fn.name)
    assert callers == {"_walk"}


def test_one_function_mutates_framed_rows_in_the_search():
    # the search predicts a child's green bits without mutating; only
    # _mutate_rows calls the integer kernel, so the prediction cannot grow
    # into a second mutation kernel
    path = ROOT / "src" / "quivergreen" / "green.py"
    callers = set()
    for fn in ast.walk(ast.parse(path.read_text())):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(fn):
            if isinstance(node, ast.Call) and (
                getattr(node.func, "id", None) == "_mutate_int"
                or getattr(node.func, "attr", None) == "_mutate_int"
            ):
                callers.add(fn.name)
    assert callers == {"_mutate_rows"}


def test_the_search_has_no_mode_switch():
    # one search: only the quiver and the two budgets, so a second mode
    # (such as expanding steps at heads of multiple arrows) cannot come
    # back unnoticed
    from quivergreen.green import search_mgs

    assert list(inspect.signature(search_mgs).parameters) == [
        "q",
        "max_len",
        "max_states",
    ]


def _calls(path):
    """Each top-level function and class of ``path`` (a class stands for
    all of its methods) -> the names it calls."""
    calls = {}
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            calls[node.name] = {
                getattr(call.func, "id", None) or getattr(call.func, "attr", None)
                for call in ast.walk(node)
                if isinstance(call, ast.Call)
            }
    return calls


def test_one_textbook_step_replays_every_mgs():
    # the replay that certifies the search stays a second implementation
    # of mutation: one textbook step, taken by the replay and by
    # mutate_framed, and never the search's integer kernel
    src = ROOT / "src" / "quivergreen"
    green_calls = _calls(src / "green.py")
    halving = {
        fn.name
        for fn in ast.parse((src / "green.py").read_text()).body
        if isinstance(fn, ast.FunctionDef)
        for node in ast.walk(fn)
        if isinstance(node, ast.BinOp)
        and isinstance(node.op, ast.FloorDiv)
        and getattr(node.right, "value", None) == 2
    }
    assert halving == {"_framed_step"}
    assert {name for name, called in green_calls.items() if "_framed_step" in called} == {
        "_replay",
        "mutate_framed",
    }
    graph = {**_calls(src / "core.py"), **green_calls}
    reached, todo = set(), ["_replay", "mutate_framed"]
    while todo:
        name = todo.pop()
        if name not in reached:
            reached.add(name)
            todo.extend(graph.get(name, ()))
    assert "_framed_step" in reached and "FramedQuiver" in reached
    assert not reached & {"_mutate_int", "_mutate_rows", "mutate"}


def test_canonical_forms_come_from_one_ordering_search():
    # the integer search replaced the tuple one; only canonical_form runs it
    src = ROOT / "src" / "quivergreen"
    canonical_calls = _calls(src / "canonical.py")
    assert {name for name in canonical_calls if "order" in name} == {"_canonical_order"}
    callers = {
        name
        for module in sorted(src.glob("*.py"))
        for name, called in _calls(module).items()
        if "_canonical_order" in called
    }
    assert callers == {"canonical_form"}


_CONTAINERS = (ast.Dict, ast.DictComp, ast.Set, ast.SetComp, ast.List, ast.ListComp)


def test_canonical_keeps_no_module_level_cache():
    # memos live in a call or a ClassIndex, never in the module, so a
    # repeated benchmark pass times real work
    tree = ast.parse((ROOT / "src" / "quivergreen" / "canonical.py").read_text())
    names = {
        getattr(node, "id", None) or getattr(node, "attr", None)
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    }
    imported = {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    }
    assert not (names | imported) & {"lru_cache", "cache", "cached_property"}
    assert not any(isinstance(node, ast.Global) for node in ast.walk(tree))
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)) and node.value is not None:
            value = node.value
            assert not isinstance(value, _CONTAINERS), ast.unparse(node)
            if isinstance(value, ast.Call):
                assert getattr(value.func, "id", None) not in {
                    "dict", "set", "list", "defaultdict", "OrderedDict"
                }, ast.unparse(node)
