import numpy as np
import pytest

from quivergreen import catalog
from quivergreen.canonical import are_isomorphic
from quivergreen.core import mutate, opposite
from quivergreen.errors import QuiverError
from quivergreen.exchange import explore
from quivergreen.green import verify_mgs
from quivergreen.obstructions import solve_admissibility

from oracles import b_array


def test_bundled_quiver_shapes():
    k4 = catalog.get("K4").quiver
    assert k4.n == 4 and len(k4.arrows()) == 6
    assert all(m == 1 for _, _, m in k4.arrows())
    w5 = catalog.get("W5").quiver
    assert w5.n == 5 and len(w5.arrows()) == 8
    x7 = catalog.get("X7").quiver
    assert x7.n == 7
    assert sorted(m for _, _, m in x7.arrows()) == [1, 1, 1, 1, 1, 1, 2, 2, 2]


def test_theta_instantiation():
    t4 = catalog.make_theta(4)
    assert {(t, h) for t, h, _ in t4.arrows()} == {
        (1, 2), (2, 3), (3, 1), (2, 4), (3, 4), (4, 1)
    }
    with pytest.raises(QuiverError):
        catalog.make_theta(3)
    with pytest.raises(QuiverError):
        catalog.make_theta(10)


def test_rank3_degenerate():
    q = catalog.make_rank3(0, 1, 0)
    assert q.arrows() == [(2, 3, 1)]


def test_stored_green_sequences_verify():
    for name, entry in ((n, catalog.get(n)) for n in catalog.names()):
        seq = entry.known_facts.get("mgs")
        if seq:
            assert verify_mgs(entry.quiver, seq) is not None, name


def test_stored_admissibility_facts():
    for name in catalog.names():
        entry = catalog.get(name)
        fact = entry.known_facts.get("admissible")
        if fact:
            result = solve_admissibility(entry.quiver)
            assert result.satisfiable == (fact == "sat"), name


def test_stored_class_sizes():
    for name in ("X7", "X7_twin", "Markov", "A3"):
        entry = catalog.get(name)
        size = entry.known_facts.get("class_size")
        graph = explore(entry.quiver, 20, 64)
        assert graph.complete and len(graph) == size, name


def test_x7_twin_structure():
    # six vertices that are each the source of two arrows and the target of
    # two arrows, all multiplicities 1
    twin = catalog.get("X7_twin").quiver
    assert all(m == 1 for _, _, m in twin.arrows())
    degree_two = 0
    b = b_array(twin)
    for v in range(1, 8):
        outs = int(np.sum(np.maximum(b[v - 1, :], 0)))
        ins = int(np.sum(np.maximum(-b[v - 1, :], 0)))
        if outs == 2 and ins == 2:
            degree_two += 1
    assert degree_two == 6
    assert are_isomorphic(twin, mutate(catalog.get("X7").quiver, 7)) is not None


def test_parametric_names():
    assert catalog.get("Q_2,2,2").quiver == catalog.make_rank3(2, 2, 2)
    assert catalog.get("R_0,2,3_op").quiver == opposite(catalog.make_r_family(0, 2, 3))
    assert catalog.get("Lin3_1,2").quiver == catalog.make_lin3(1, 2)
    assert catalog.get("Tri3_1,1,2").quiver == catalog.make_tri3(1, 1, 2)
    with pytest.raises(KeyError):
        catalog.get("nonsense")


def test_b_rank_facts():
    from quivergreen.core import b_matrix_rank

    for name in catalog.names():
        entry = catalog.get(name)
        if "b_rank" in entry.known_facts:
            assert b_matrix_rank(entry.quiver) == entry.known_facts["b_rank"], name


def test_r_family_members_are_checked_before_they_are_shared():
    # the plain member is built once per triple; True must not find the
    # member built for 1
    q = catalog.make_r_family(1, 2, 3)
    assert catalog.make_r_family(1, 2, 3) is q
    with pytest.raises(QuiverError):
        catalog.make_r_family(True, 2, 3)
    with pytest.raises(QuiverError):
        catalog.make_r_family(1, 2.0, 3)
    assert catalog.make_r_family(1, 2, 3, opposite=True) == opposite(q)
