"""The benchmark's layer tracer names library functions and classes by
string; a rename in the library must fail here, not in the benchmark."""

import importlib
import sys
from pathlib import Path

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
