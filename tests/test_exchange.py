from itertools import product

import numpy as np
import pytest

from quivergreen.canonical import canonical_key
from quivergreen.catalog import get, make_lin3, make_rank3, make_tri3
from quivergreen.core import Quiver, mutate, relabel, sinks, sources
from quivergreen.errors import QuiverError
from quivergreen.exchange import (
    enumerate_acyclic,
    explore,
    graph_to_dot,
    graph_to_json,
    invariant_report,
    psi_component,
)
from quivergreen.green import verify_mgs
from quivergreen.obstructions import MgsVerdict, decide_mgs, recheck_obstruction

from oracles import (
    dot_boundary_lines_reference,
    mutation_class_brute,
    random_acyclic_quiver,
    random_quiver,
    search_mgs_reference,
)

A3 = Quiver.from_arrows(3, [(1, 2), (2, 3)])


def test_explore_a3():
    graph = explore(A3, 100, 10)
    assert len(graph) == 4 and graph.complete
    # oracle: brute-force class enumeration with permutation isomorphism
    assert len(mutation_class_brute(A3)) == 4


def test_explore_single_vertex_and_markov():
    assert len(explore(Quiver([[0]]), 10, 10)) == 1
    graph = explore(make_rank3(2, 2, 2), 10, 10)
    assert len(graph) == 1 and len(graph.edges) == 0
    assert len(mutation_class_brute(make_rank3(2, 2, 2))) == 1


def test_explore_x7():
    graph = explore(get("X7").quiver, 10, 64)
    assert len(graph) == 2 and graph.complete
    assert len(mutation_class_brute(get("X7").quiver, limit=5)) == 2


def test_explore_truncates_infinite_classes():
    graph = explore(make_rank3(2, 2, 3), max_nodes=40, max_mult=12)
    assert not graph.complete
    assert any(n.truncated for n in graph.nodes.values())


def test_explore_is_label_independent():
    rng = np.random.default_rng(97)
    for _ in range(10):
        n = int(rng.integers(2, 5))
        q = random_quiver(rng, n, 1)
        perm = [int(v) + 1 for v in rng.permutation(n)]
        g1 = explore(q, 60, 8)
        g2 = explore(relabel(q, perm), 60, 8)
        assert set(g1.nodes) == set(g2.nodes)
        assert g1.sorted_edges() == g2.sorted_edges()


def test_enumerate_acyclic():
    members = enumerate_acyclic(A3)
    assert len(members) == 3
    assert len(enumerate_acyclic(Quiver([[0]]))) == 1
    assert len(enumerate_acyclic(Quiver.from_arrows(2, [(1, 2)]))) == 1
    with pytest.raises(QuiverError):
        enumerate_acyclic(make_rank3(1, 1, 1))


def test_enumerate_acyclic_closed_under_sink_source():
    rng = np.random.default_rng(101)
    for _ in range(20):
        q = random_acyclic_quiver(rng, int(rng.integers(2, 5)), 2)
        members = enumerate_acyclic(q)
        keys = {canonical_key(m).data for m in members}
        for m in members:
            for k in sorted(set(sources(m)) | set(sinks(m))):
                assert canonical_key(mutate(m, k)).data in keys


def test_psi_component_k4():
    res = psi_component(get("K4").quiver, max_len=16, max_states=10**6)
    assert res.size == 17
    assert res.acyclic_count() == 0
    assert res.complete
    assert res.boundary
    for entry in res.boundary:
        assert recheck_obstruction(entry.quiver, entry.obstruction)
    for node in res.graph.nodes.values():
        assert node.mgs.yes
        assert verify_mgs(node.quiver, node.mgs.certificate.sequence) is not None


def test_psi_component_k4_deep_crosscheck():
    from quivergreen.obstructions import _find_bad_subquiver, _match_r_obstruction

    res = psi_component(get("K4").quiver, max_len=16, max_states=10**6)
    # every member's certificate is reproducible by unpruned search
    for node in res.graph.nodes.values():
        unpruned = search_mgs_reference(node.quiver, max_len=16, prune=False)
        assert unpruned.found
        assert len(unpruned.certificate.sequence) <= len(
            node.mgs.certificate.sequence
        )
    # the component is connected and contains the seed class
    seed_key = canonical_key(get("K4").quiver).data
    assert seed_key in res.graph.nodes
    reached = {seed_key}
    frontier = [seed_key]
    while frontier:
        nxt = []
        for k in frontier:
            for a, b in res.graph.edges:
                for other, this in ((a, b), (b, a)):
                    if this == k and other not in reached:
                        reached.add(other)
                        nxt.append(other)
        frontier = nxt
    assert reached == set(res.graph.nodes)
    # every boundary class carries a structural reason, found independently
    for entry in res.boundary:
        assert (
            _find_bad_subquiver(entry.quiver) is not None
            or _match_r_obstruction(entry.quiver) is not None
        )


def test_psi_component_requires_mgs():
    with pytest.raises(QuiverError):
        psi_component(make_rank3(2, 2, 2))


def test_psi_component_is_label_independent():
    rng = np.random.default_rng(107)
    seed = get("K4").quiver
    perm = [int(v) + 1 for v in rng.permutation(4)]
    res1 = psi_component(seed, max_len=16)
    res2 = psi_component(relabel(seed, perm), max_len=16)
    assert set(res1.graph.nodes) == set(res2.graph.nodes)
    assert res1.graph.sorted_edges() == res2.graph.sorted_edges()
    assert [e.key for e in res1.boundary] == [e.key for e in res2.boundary]


def test_psi_component_triangle_is_whole_class():
    # mutation-finite class: the MGS subgraph is the entire exchange graph
    tri = make_rank3(1, 1, 1)
    res = psi_component(tri)
    full = explore(tri, 100, 10)
    assert res.complete and not res.boundary
    assert set(res.graph.nodes) == set(full.nodes)


def test_psi_component_rank3_bound():
    res = psi_component(make_rank3(1, 2, 2))
    assert res.size <= 6


def test_invariant_report_k4():
    report = invariant_report(get("K4").quiver, max_len=16)
    assert report["b_rank"] == 4
    assert report["admissible"] == "unsat"
    assert report["mutation_acyclic"] == "no"
    assert "acyclic_count" not in report
    assert report["psi"] == {
        "total": 17,
        "acyclic": 0,
        "non_acyclic": 17,
        "complete": True,
    }


def test_invariant_report_path_and_vertex():
    report = invariant_report(A3)
    assert report["b_rank"] == 2
    assert report["acyclic_count"] == 3
    assert report["admissible"] == "sat"
    single = invariant_report(Quiver([[0]]))
    assert single["b_rank"] == 0 and single["acyclic_count"] == 1


def test_exports_are_stable():
    res1 = psi_component(make_rank3(1, 1, 1))
    res2 = psi_component(make_rank3(1, 1, 1))
    assert graph_to_json(res1.graph, res1.boundary) == graph_to_json(
        res2.graph, res2.boundary
    )
    assert graph_to_dot(res1.graph, res1.boundary) == graph_to_dot(
        res2.graph, res2.boundary
    )
    dot = graph_to_dot(res1.graph, res1.boundary)
    assert dot.startswith("graph exchange {") and dot.rstrip().endswith("}")
    g1 = explore(A3, 100, 10)
    g2 = explore(A3, 100, 10)
    assert graph_to_json(g1) == graph_to_json(g2)


def test_psi_soundness_random_rank3():
    rng = np.random.default_rng(103)
    for _ in range(10):
        q = random_acyclic_quiver(rng, 3, 2)
        res = psi_component(q)
        assert res.complete
        assert res.size <= 6
        for node in res.graph.nodes.values():
            assert node.mgs.yes
        for entry in res.boundary:
            assert recheck_obstruction(entry.quiver, entry.obstruction)


def test_explore_node_budget_leaves_no_dangling_edges(capsys):
    from quivergreen.cli import main

    graph = explore(get("K4").quiver, max_nodes=3)
    assert len(graph) == 3 and not graph.complete
    assert graph.edges
    for a, b in graph.edges:
        assert a in graph.nodes and b in graph.nodes
    graph_to_dot(graph)
    exported = graph_to_json(graph)
    keys = {node["key"] for node in exported["nodes"]}
    assert all(a in keys and b in keys for a, b in exported["edges"])

    code = main(["--max-nodes", "3", "--format", "dot", "graph", "explore", "catalog:K4"])
    captured = capsys.readouterr()
    assert code == 2
    assert "Traceback" not in captured.err
    assert "graph incomplete" in captured.err


def _rank3_mgs_seeds():
    """One quiver per isomorphism class of rank-3 quivers with multiplicities
    at most 2 that admits an MGS."""
    seeds = {}
    for x, y, z in product(range(-2, 3), repeat=3):
        q = Quiver([[0, x, y], [-x, 0, z], [-y, -z, 0]])
        seeds.setdefault(canonical_key(q).data, q)
    return [q for q in seeds.values() if decide_mgs(q).yes]


def test_dot_boundary_edges_match_boundary_side_mutation():
    k4 = get("K4").quiver
    cases = [psi_component(k4), psi_component(k4, max_nodes=14)]
    cases += [psi_component(q) for q in _rank3_mgs_seeds()]
    assert len(cases) == 26
    assert not cases[1].complete and cases[1].boundary  # capped, with a boundary
    seen = 0
    for res in cases:
        ref = dot_boundary_lines_reference(res.graph, res.boundary)
        members_only = graph_to_dot(res.graph).splitlines()
        dot = graph_to_dot(res.graph, res.boundary).splitlines()
        edges = [line for line in dot if " -- " in line]
        member_edges = [line for line in members_only if " -- " in line]
        assert set(edges) == set(member_edges) | ref
        # boundary lines come last, one sorted block per entry in entry order
        tail = edges[len(member_edges):]
        blocks = []
        for entry in res.boundary:
            short = f'"{entry.key.short()}"'
            blocks += sorted(line for line in ref if short in line)
        assert tail == blocks
        seen += len(ref)
    assert seen >= 20


def test_psi_records_members_that_reach_a_known_boundary_entry(monkeypatch):
    # Declare the A3 path orientation obstructed.  From the source-middle
    # orientation, psi finds it first; the sink-middle orientation, a member
    # too, reaches it only once it is already on the boundary.
    import quivergreen.exchange as exchange

    path_key = canonical_key(Quiver.from_arrows(3, [(1, 2), (2, 3)])).data
    decide = exchange.decide_mgs

    def fake_decide(q, *args):
        if canonical_key(q).data == path_key:
            return MgsVerdict("no")
        return decide(q, *args)

    monkeypatch.setattr(exchange, "decide_mgs", fake_decide)
    res = psi_component(Quiver.from_arrows(3, [(2, 1), (2, 3)]))
    assert res.size == 2 and len(res.boundary) == 1
    assert res.boundary[0].members == set(res.graph.nodes)
    ref = dot_boundary_lines_reference(res.graph, res.boundary)
    dot = graph_to_dot(res.graph, res.boundary).splitlines()
    assert len(ref) == 2 and ref <= set(dot)


@pytest.mark.parametrize(
    "call",
    [
        lambda q: decide_mgs(q, max_len=0),
        lambda q: decide_mgs(q, max_states=-1),
        lambda q: explore(q, max_nodes=0),
        lambda q: explore(q, max_mult=0),
        lambda q: psi_component(q, max_len=-1),
        lambda q: psi_component(q, max_states=0),
        lambda q: psi_component(q, max_nodes=0),
    ],
)
def test_nonpositive_budgets_are_rejected_on_entry(call):
    with pytest.raises(QuiverError, match="must be at least 1"):
        call(get("K4").quiver)
