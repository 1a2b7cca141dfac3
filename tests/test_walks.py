"""Mutation walks that skip the mutation leading back to a known neighbour,
checked against the loops that mutate and canonicalise every (node, vertex)
pair: ``explore``, ``psi_component``, ``enumerate_acyclic`` and
``is_mutation_acyclic`` must give the same results, and ``acyclic_mgs`` the
same sequence as the framed walk it replaced.  All four share one class
walk; ``is_mutation_acyclic`` may name a different shortest sequence."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import oracles
import quivergreen.canonical as canonical
import quivergreen.exchange as exchange
from quivergreen import catalog
from quivergreen.canonical import ClassIndex, canonical_key
from quivergreen.core import Quiver, is_acyclic, mutate, mutate_sequence, relabel
from quivergreen.errors import QuiverError
from quivergreen.exchange import (
    DEFAULT_MAX_MULT,
    enumerate_acyclic,
    explore,
    graph_to_dot,
    graph_to_json,
    is_mutation_acyclic,
    psi_component,
)
from quivergreen.green import acyclic_mgs

from oracles import (
    acyclic_mgs_reference,
    enumerate_acyclic_reference,
    explore_reference,
    is_mutation_acyclic_reference,
    psi_component_reference,
    random_acyclic_quiver,
    random_quiver,
)

NODE_CAPS = (1, 3, 14)
CATALOG = [
    catalog.get(name).quiver
    for name in catalog.names()
    if catalog.get(name).quiver.n < 8
]


def _assert_same_graph(got, ref, boundary=None, ref_boundary=None):
    assert graph_to_json(got, boundary) == graph_to_json(ref, ref_boundary)
    assert graph_to_dot(got, boundary) == graph_to_dot(ref, ref_boundary)
    assert got.complete == ref.complete


def _explore_cases():
    cases = [
        (q, cap, mult)
        for q in CATALOG
        for cap in NODE_CAPS
        for mult in (2, DEFAULT_MAX_MULT)
    ]
    # whole classes cut only by truncation (Theta_7 is capped at 700 nodes)
    cases += [(q, 700, 2) for q in CATALOG]
    rng = np.random.default_rng(11)
    for _ in range(12):
        q = random_quiver(rng, int(rng.integers(2, 7)), 3)
        cases += [(q, cap, 2) for cap in NODE_CAPS + (200,)]
    return cases


def test_explore_matches_the_every_pair_walk():
    truncated = capped = 0
    for q, cap, mult in _explore_cases():
        got = explore(q, cap, mult)
        ref = explore_reference(q, cap, mult)
        _assert_same_graph(got, ref)
        truncated += any(node.truncated for node in got.nodes.values())
        capped += len(got) == cap
    assert truncated >= 20 and capped >= 20


@pytest.fixture
def shared_decide(monkeypatch):
    """Both psi walks decide the same classes with the same budgets, so one
    verdict per canonical representative serves both and halves the cost."""
    verdicts = {}
    decide = exchange.decide_mgs

    def cached(q, *args):
        key = (q.rows, args)
        if key not in verdicts:
            verdicts[key] = decide(q, *args)
        return verdicts[key]

    monkeypatch.setattr(exchange, "decide_mgs", cached)
    monkeypatch.setattr(oracles, "decide_mgs", cached)


def _psi_cases():
    cases = [(q, cap, 2000) for q in CATALOG for cap in NODE_CAPS]
    cases += [(catalog.get("K4").quiver, 10**5, None)]
    rng = np.random.default_rng(12)
    while len(cases) < 3 * len(CATALOG) + 13:
        q = random_quiver(rng, int(rng.integers(2, 6)), 2)
        cases += [(q, cap, 2000) for cap in NODE_CAPS]
    return cases


def test_psi_component_matches_the_every_pair_walk(shared_decide):
    incomplete = with_boundary = 0
    for q, cap, states in _psi_cases():
        try:
            ref = psi_component_reference(q, max_states=states, max_nodes=cap)
        except QuiverError:  # no MGS at the start: both must refuse
            with pytest.raises(QuiverError, match="requires a starting quiver"):
                psi_component(q, max_states=states, max_nodes=cap)
            continue
        got = psi_component(q, max_states=states, max_nodes=cap)
        _assert_same_graph(got.graph, ref.graph, got.boundary, ref.boundary)
        assert got.complete == ref.complete
        assert [(e.key, e.members) for e in got.boundary] == [
            (e.key, e.members) for e in ref.boundary
        ]
        incomplete += not got.complete
        with_boundary += bool(got.boundary)
    assert incomplete >= 20 and with_boundary >= 3


def test_enumerate_acyclic_matches_the_every_pair_walk():
    rng = np.random.default_rng(13)
    for _ in range(40):
        q = random_acyclic_quiver(rng, int(rng.integers(1, 7)), 3)
        got = [m.rows for m in enumerate_acyclic(q)]
        assert got == [m.rows for m in enumerate_acyclic_reference(q)]


def test_is_mutation_acyclic_matches_the_every_pair_walk():
    rng = np.random.default_rng(14)
    kinds = set()
    for _ in range(30):
        q = random_quiver(rng, int(rng.integers(2, 6)), 2)
        for depth, max_quivers in ((0, 10_000), (1, 1), (2, 5), (3, 10_000), (8, 40)):
            got = is_mutation_acyclic(q, depth, max_quivers)
            ref = is_mutation_acyclic_reference(q, depth, max_quivers)
            assert (got.kind, got.sequence, got.note) == (
                ref.kind,
                ref.sequence,
                ref.note,
            )
            kinds.add((got.kind, got.note))
    assert len(kinds) >= 3


def test_is_mutation_acyclic_yes_sequences_replay_in_the_input_labels():
    # the walk carries the path as parent links between canonical
    # representatives and translates it into the input's labels; with a
    # class budget that does not bind, it is as short as the reference's
    rng = np.random.default_rng(16)
    lengths, differs = set(), 0
    for i in range(60):
        n = int(rng.integers(3, 7))
        if i % 2:
            q = random_quiver(rng, n, 2)
        else:  # a mutation-acyclic quiver a few steps from an acyclic one
            start = random_acyclic_quiver(rng, n, 2)
            q = mutate_sequence(start, [int(k) for k in rng.integers(1, n + 1, 4)])
        got = is_mutation_acyclic(q, 5, 10**5)
        ref = is_mutation_acyclic_reference(q, 5, 10**5)
        assert (got.kind, got.note) == (ref.kind, ref.note)
        if got.kind == "yes":
            assert is_acyclic(mutate_sequence(q, got.sequence))
            assert len(got.sequence) == len(ref.sequence)
            lengths.add(len(got.sequence))
            differs += got.sequence != ref.sequence
    assert lengths == {0, 1, 2, 3} and differs > 0


def test_psi_component_decides_each_class_once(monkeypatch):
    # an "unknown" class reached from several members is not decided again
    decided = []
    decide = exchange.decide_mgs

    def recording(q, *args):
        decided.append(canonical_key(q).data)
        return decide(q, *args)

    steps = []
    walk = exchange._walk

    def recording_walk(*args):
        for step in walk(*args):
            steps.append(step)
            yield step

    monkeypatch.setattr(exchange, "decide_mgs", recording)
    monkeypatch.setattr(exchange, "_walk", recording_walk)
    k4 = catalog.get("K4").quiver
    got = psi_component(k4, max_states=30, max_nodes=200)
    assert len(decided) == len(set(decided)) == 28
    assert not got.complete
    unknown = [
        node.key.data
        for _, node, _, _ in steps
        if node is not None and node.mgs is not None and node.mgs.kind == "unknown"
    ]
    assert len(set(unknown)) == 1 and len(unknown) == 3
    ref = psi_component_reference(k4, max_states=30, max_nodes=200)
    _assert_same_graph(got.graph, ref.graph, got.boundary, ref.boundary)


def test_acyclic_mgs_is_the_least_topological_order():
    rng = np.random.default_rng(15)
    for _ in range(300):
        n, mult = int(rng.integers(1, 9)), int(rng.integers(1, 5))
        q = random_acyclic_quiver(rng, n, mult)
        assert acyclic_mgs(q) == acyclic_mgs_reference(q)


D6 = Quiver.from_arrows(6, [(1, 2), (2, 3), (3, 4), (4, 5), (4, 6)])
E6 = Quiver.from_arrows(6, [(1, 2), (2, 3), (3, 4), (4, 5), (3, 6)])


@pytest.fixture
def form_calls(monkeypatch):
    """Count ``canonical_form`` calls made through ``exchange`` (the
    reference walks use the same binding)."""
    calls = [0]
    form = exchange.canonical_form

    def counting(q):
        calls[0] += 1
        return form(q)

    monkeypatch.setattr(exchange, "canonical_form", counting)
    return calls


@pytest.mark.parametrize(
    "run, reference, expected, expected_reference",
    [
        (lambda: explore(D6), lambda: explore_reference(D6), 80, 481),
        (lambda: explore(E6), lambda: explore_reference(E6), 67, 403),
        (
            lambda: psi_component(catalog.get("K4").quiver),
            lambda: psi_component_reference(catalog.get("K4").quiver),
            29,
            69,
        ),
        (
            lambda: enumerate_acyclic(D6),
            lambda: enumerate_acyclic_reference(D6),
            24,
            105,
        ),
    ],
    ids=["explore-D6", "explore-E6", "psi-K4", "enumerate-acyclic-D6"],
)
def test_canonical_form_calls_pinned(
    form_calls, run, reference, expected, expected_reference
):
    # each edge between two classes is canonicalised from one end only
    run()
    assert form_calls[0] == expected
    form_calls[0] = 0
    reference()
    assert form_calls[0] == expected_reference


@pytest.mark.parametrize(
    "run",
    [
        lambda: explore(D6, max_nodes=10),
        lambda: psi_component(catalog.get("Z6").quiver, max_nodes=3),
        lambda: psi_component(catalog.get("K4").quiver),
    ],
    ids=["explore-D6-10", "psi-Z6-3", "psi-K4"],
)
def test_no_class_is_canonicalised_twice_in_one_walk(monkeypatch, run):
    # the walk's index holds every class it reached, adopted or not: those
    # cut by the node budget and psi's boundary classes too
    keys = []
    form = exchange.canonical_form

    def recording(q):
        result = form(q)
        keys.append(result[0].data)
        return result

    monkeypatch.setattr(exchange, "canonical_form", recording)
    run()
    assert len(keys) == len(set(keys))


def _path_union(*lengths):
    """Disjoint union of oriented type-A paths with the given vertex counts."""
    arrows, offset = [], 0
    for length in lengths:
        arrows += [(offset + i, offset + i + 1) for i in range(1, length)]
        offset += length
    return Quiver.from_arrows(offset, arrows)


@pytest.mark.parametrize("lengths", [(3, 3, 3), (3, 3, 4)], ids=["3xA_3", "2xA_3+A_4"])
def test_explore_on_symmetric_unions_matches_the_every_pair_walk(lengths):
    # children of known classes are matched by backtracking among many
    # same-coloured vertices
    q = _path_union(*lengths)
    _assert_same_graph(explore(q), explore_reference(q))


@pytest.mark.parametrize("q, classes", [(D6, 80), (E6, 67)], ids=["D6", "E6"])
def test_explore_with_constant_colours_matches_the_every_pair_walk(
    monkeypatch, form_calls, q, classes
):
    # with no colour to tell vertices apart, every match is found by
    # backtracking alone, and still only new classes are canonicalised
    monkeypatch.setattr(canonical, "_colours", lambda rows, degrees: [0] * len(rows))
    got = explore(q)
    assert form_calls[0] == len(got) == classes
    _assert_same_graph(got, explore_reference(q))


@pytest.mark.parametrize("q, classes", [(D6, 80), (E6, 67)], ids=["D6", "E6"])
def test_explore_with_constant_degrees_matches_the_every_pair_walk(
    monkeypatch, form_calls, q, classes
):
    # every class lands in one bucket of the walk's index, so each child is
    # tried against every class reached so far and only the checked
    # isomorphism tells them apart
    monkeypatch.setattr(
        canonical, "_degrees", lambda rows, memo=None: [0] * len(rows)
    )
    got = explore(q)
    assert form_calls[0] == len(got) == classes
    _assert_same_graph(got, explore_reference(q))


def test_a_reused_class_index_answers_as_a_fresh_one():
    # the index keeps its row degrees across finds; an index that has
    # answered many finds must answer each one as a new index holding the
    # same classes would
    reps = [node.quiver for q in (D6, E6) for node in explore(q).ordered_nodes()]
    rng = np.random.default_rng(53)
    queries = [
        relabel(mutate(rep, k), [int(v) + 1 for v in rng.permutation(rep.n)])
        for rep in reps[::3]
        for k in range(1, rep.n + 1)
    ]
    queries += [random_quiver(rng, 6, 1) for _ in range(40)]
    index = ClassIndex()
    for value, rep in enumerate(reps):
        index.add(value, rep)
    found = 0
    for q in queries:
        fresh = ClassIndex()
        for value, rep in enumerate(reps):
            fresh.add(value, rep)
        got = index.find(q)
        assert got == fresh.find(q)
        if got is not None:
            value, sigma = got
            assert relabel(q, sigma) == reps[value]
            found += 1
    assert 250 <= found < len(queries)


RANK4_BUDGET = Quiver([[0, -2, 2, 1], [2, 0, -1, -2], [-2, 1, 0, 1], [-1, 2, -1, 0]])


@pytest.mark.parametrize(
    "q, depth, max_quivers, expected, expected_reference",
    [
        (catalog.get("X7").quiver, 8, 10_000, 13, 14),
        (RANK4_BUDGET, 3, 200, 49, 68),
    ],
    ids=["X7-exhausted", "rank4-budget"],
)
def test_is_mutation_acyclic_mutate_calls_pinned(
    monkeypatch, q, depth, max_quivers, expected, expected_reference
):
    # the class walk computes each edge between two classes from one end
    # only; the reference skips just the mutation back to the exact parent
    calls = [0]
    mutate = exchange.mutate

    def counting(q, k):
        calls[0] += 1
        return mutate(q, k)

    monkeypatch.setattr(exchange, "mutate", counting)
    monkeypatch.setattr(oracles, "mutate", counting)
    got = is_mutation_acyclic(q, depth, max_quivers)
    assert calls[0] == expected
    calls[0] = 0
    ref = is_mutation_acyclic_reference(q, depth, max_quivers)
    assert calls[0] == expected_reference
    assert (got.kind, got.note) == (ref.kind, ref.note)


@pytest.mark.parametrize(
    "run, expected",
    [
        (lambda: explore(D6), 80),  # 80 nodes
        (lambda: explore(E6), 67),  # 67 nodes
        # 17 nodes and 12 boundary entries
        (lambda: psi_component(catalog.get("K4").quiver), 29),
        (lambda: enumerate_acyclic(D6), 24),  # 24 acyclic classes
    ],
    ids=["explore-D6", "explore-E6", "psi-K4", "enumerate-acyclic-D6"],
)
def test_relabel_calls_pinned(monkeypatch, run, expected):
    # a child is relabelled into its canonical representative only when its
    # class is new: once per node, boundary entry or acyclic member
    calls = [0]
    relabel = exchange.relabel

    def counting(q, sigma):
        calls[0] += 1
        return relabel(q, sigma)

    monkeypatch.setattr(exchange, "relabel", counting)
    run()
    assert calls[0] == expected


def test_walks_build_no_numpy_matrix():
    # in a fresh interpreter, since the tests themselves import numpy: a
    # class walk and a psi walk, which finds and replays every member's MGS,
    # run on plain ints and never import numpy
    script = f"""
import sys
from quivergreen import catalog
from quivergreen.core import Quiver
from quivergreen.exchange import explore, psi_component
graph = explore(Quiver.from_arrows(6, {E6.arrows()!r}))
psi = psi_component(catalog.get("K4").quiver)
print(len(graph.nodes), graph.complete, len(psi.graph.nodes), psi.complete,
      len(psi.boundary) > 0, "numpy" in sys.modules)
"""
    env = dict(os.environ, PYTHONPATH=str(Path(canonical.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    nodes, complete, psi_nodes, psi_complete, boundary, numpy = proc.stdout.split()
    assert int(nodes) > 1 and complete == "True"
    assert int(psi_nodes) > 1 and psi_complete == "True" and boundary == "True"
    assert numpy == "False"
