"""Acyclicity is tested only where it is read: the class walk tests no
class, an exchange node reads its flag off its representative each time a
caller asks, and ``invariant_report`` solves the admissibility system once."""

import dataclasses

import pytest

import quivergreen.exchange as exchange
from quivergreen import catalog
from quivergreen.core import Quiver, is_acyclic
from quivergreen.exchange import (
    ExchangeNode,
    explore,
    graph_to_dot,
    graph_to_json,
    invariant_report,
    is_mutation_acyclic,
    psi_component,
)
from quivergreen.obstructions import solve_admissibility

A5 = Quiver.from_arrows(5, [(1, 2, 1), (3, 2, 1), (3, 4, 1), (5, 4, 1)])


def test_an_exchange_node_has_no_stored_acyclicity():
    assert "acyclic" not in {f.name for f in dataclasses.fields(ExchangeNode)}
    node = ExchangeNode(None, A5, 0)
    assert node.acyclic
    node.quiver = catalog.get("K4").quiver
    assert not node.acyclic


def test_the_class_walk_tests_no_class_for_acyclicity(monkeypatch):
    calls = []

    def counting(q):
        calls.append(q)
        return is_acyclic(q)

    monkeypatch.setattr(exchange, "is_acyclic", counting)
    graph = explore(A5)
    assert graph.complete and calls == []
    # each export reads the flag once per node
    graph_to_json(graph)
    assert len(calls) == len(graph.nodes)
    graph_to_dot(graph)
    assert len(calls) == 2 * len(graph.nodes)

    del calls[:]
    psi = psi_component(Quiver.from_arrows(4, [(1, 2, 2), (2, 3, 1), (4, 3, 1)]))
    assert psi.complete and psi.boundary and calls == []
    assert 0 < psi.acyclic_count() < psi.size
    assert len(calls) == psi.size


@pytest.mark.parametrize("name", ["K4", "Q_1,1,1", "Q_2,2,2", "Tri3_1,1,2"])
def test_invariant_report_solves_admissibility_once(monkeypatch, name):
    q = catalog.get(name).quiver
    calls = []
    solve = exchange.solve_admissibility

    def counting(q):
        calls.append(q)
        return solve(q)

    monkeypatch.setattr(exchange, "solve_admissibility", counting)
    report = invariant_report(q, depth=2, max_quivers=20)
    assert len(calls) == 1
    expected = solve_admissibility(q)
    assert report["admissible"] == ("sat" if expected.satisfiable else "unsat")
    # every answer, "yes" included, carries the system it solved
    assert is_mutation_acyclic(q, 2, 20).admissibility == expected
