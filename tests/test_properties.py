"""Property tests: exported graphs name only their own nodes, and no JSON
document makes the CLI raise instead of exiting with a code."""

import contextlib
import io
import json
import re
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from quivergreen.canonical import CanonicalKey
from quivergreen.cli import main
from quivergreen.core import Quiver
from quivergreen.exchange import explore, graph_to_dot, psi_component
from quivergreen.obstructions import decide_mgs


@st.composite
def small_quivers(draw):
    n = draw(st.integers(1, 4))
    b = np.zeros((n, n), dtype=np.int64)
    for i in range(n):
        for j in range(i + 1, n):
            b[i, j] = draw(st.integers(-2, 2))
            b[j, i] = -b[i, j]
    return Quiver(b.tolist())


def _check_edges(graph):
    for a, b in graph.edges:
        assert a < b and a in graph.nodes and b in graph.nodes


DOT_EDGE = re.compile(r'^  "([0-9a-f]+)" -- "([0-9a-f]+)";$')


@given(q=small_quivers(), max_nodes=st.integers(1, 10))
def test_edges_and_dot_lines_name_nodes(q, max_nodes):
    _check_edges(explore(q, max_nodes=max_nodes, max_mult=8))
    if not decide_mgs(q, max_states=20_000).yes:
        return
    res = psi_component(q, max_states=20_000, max_nodes=max_nodes)
    _check_edges(res.graph)
    entries = {entry.key.short() for entry in res.boundary}
    nodes = entries | {CanonicalKey(k).short() for k in res.graph.nodes}
    for line in graph_to_dot(res.graph, res.boundary).splitlines():
        if " -- " in line:
            a, b = DOT_EDGE.match(line).groups()
            assert a in nodes and b in nodes
            assert not (a in entries and b in entries)


def _json_values():
    huge = st.integers(2**31, 10**40)
    ints = st.integers(-3, 4) | huge | huge.map(lambda x: -x)
    leaves = (
        ints
        | st.floats(allow_nan=True, allow_infinity=True)
        | st.booleans()
        | st.none()
        | st.text(max_size=3)
    )
    keys = st.sampled_from(["n", "arrows", "b", "x"])
    values = st.recursive(
        leaves,
        lambda inner: (
            st.lists(inner, max_size=4) | st.dictionaries(keys, inner, max_size=3)
        ),
        max_leaves=16,
    )
    # near-valid documents, so that some load and reach the decider and the
    # rest fail at every stage of the validation
    entry = st.integers(-2, 4) | leaves
    rows = st.lists(st.lists(entry, min_size=2, max_size=3), max_size=4)
    rows_or_junk = rows | st.lists(leaves, max_size=3) | leaves
    shaped = st.fixed_dictionaries(
        {"n": st.integers(1, 4) | leaves, "arrows": rows_or_junk}
    ) | st.fixed_dictionaries({"b": rows_or_junk})
    return shaped | values


@settings(max_examples=80)  # in-process calls: a few ms each
@given(doc=_json_values())
def test_cli_decide_never_raises(doc):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "q.json"
        path.write_text(json.dumps(doc))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["--max-states", "2000", "decide", str(path)])
    assert code in (0, 1, 2)
    if code == 1:
        assert err.getvalue().startswith("error:")
