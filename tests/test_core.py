import numpy as np
import pytest

from quivergreen.catalog import get, make_rank3, make_r_family, make_theta
from quivergreen.core import (
    DirectSumDecomposition,
    Quiver,
    b_matrix_rank,
    find_direct_sum,
    find_ending_kcycle,
    induced_cycles,
    induced_subquiver,
    is_acyclic,
    mutate,
    opposite,
    relabel,
    separating_edges,
    sinks,
    sources,
)
from quivergreen.errors import QuiverError

from oracles import (
    arrow_dict,
    chordless_cycles_brute,
    cycle_is_oriented,
    has_directed_cycle_paths,
    naive_mutate_arrows,
    quiver_to_arrow_list,
    random_quiver,
    rank_fractions,
)


def test_quiver_validation():
    with pytest.raises(QuiverError):
        Quiver([[0, 1], [1, 0]])  # not skew
    with pytest.raises(QuiverError):
        Quiver([[1]])  # loop
    with pytest.raises(QuiverError):
        Quiver.from_arrows(2, [(1, 1)])
    with pytest.raises(QuiverError):
        Quiver.from_arrows(2, [(1, 2), (2, 1)])  # duplicate pair
    with pytest.raises(QuiverError):
        Quiver.from_arrows(2, [(1, 3)])
    q = Quiver.from_arrows(3, [(1, 2, 2), (3, 2)])
    assert q.arrows() == [(1, 2, 2), (3, 2, 1)]


def test_mutate_triangle_example():
    q = make_rank3(1, 1, 1)
    assert arrow_dict(mutate(q, 2)) == {(2, 1): 1, (3, 2): 1}


def test_mutate_is_involution_small():
    q = make_rank3(1, 2, 3)
    for k in (1, 2, 3):
        assert mutate(mutate(q, k), k) == q


def test_mutate_markov_example():
    # one hand application of the three mutation steps
    q = make_rank3(2, 2, 2)
    m = mutate(q, 2)
    assert arrow_dict(m) == {(2, 1): 2, (3, 2): 2, (1, 3): 2}


def test_mutate_agrees_with_naive_arrow_lists():
    rng = np.random.default_rng(7)
    for _ in range(200):
        n = int(rng.integers(2, 7))
        q = random_quiver(rng, n, 2)
        k = int(rng.integers(1, n + 1))
        expected = naive_mutate_arrows(n, quiver_to_arrow_list(q), k)
        assert arrow_dict(mutate(q, k)) == expected


def test_mutate_out_of_range():
    q = make_rank3(1, 1, 1)
    with pytest.raises(QuiverError):
        mutate(q, 0)
    with pytest.raises(QuiverError):
        mutate(q, 4)


def test_induced_subquiver_k4_triangle():
    k4 = get("K4").quiver
    sub, mapping = induced_subquiver(k4, {2, 3, 4})
    assert mapping == (2, 3, 4)
    # original arrows 3->2, 2->4, 4->3 become 2->1, 1->3, 3->2
    assert arrow_dict(sub) == {(2, 1): 1, (1, 3): 1, (3, 2): 1}
    from quivergreen.canonical import are_isomorphic

    assert are_isomorphic(sub, make_rank3(1, 1, 1)) is not None


def test_induced_subquiver_identity_and_errors():
    q = make_rank3(1, 2, 3)
    sub, mapping = induced_subquiver(q, [1, 2, 3])
    assert sub == q and mapping == (1, 2, 3)
    with pytest.raises(QuiverError):
        induced_subquiver(q, [])
    with pytest.raises(QuiverError):
        induced_subquiver(q, [0, 1])


def test_induced_subquiver_r_family_lemma():
    # mutating the family at vertex 1 leaves a 3-cycle with grown weights
    from quivergreen.canonical import are_isomorphic

    for a, b, c in [(0, 2, 3), (1, 2, 4), (0, 3, 5)]:
        q = mutate(make_r_family(a, b, c), 1)
        sub, _ = induced_subquiver(q, {2, 3, 4})
        assert are_isomorphic(sub, make_rank3(2, c - a, b)) is not None


def test_opposite():
    q = make_rank3(1, 1, 1)
    from quivergreen.canonical import are_isomorphic

    assert are_isomorphic(opposite(q), q) is not None
    r = make_r_family(0, 2, 3)
    assert opposite(opposite(r)) == r
    assert opposite(r) == make_r_family(0, 2, 3, opposite=True)


def test_acyclicity_and_sources():
    path = Quiver.from_arrows(3, [(1, 2), (2, 3)])
    assert is_acyclic(path)
    assert sources(path) == (1,)
    assert sinks(path) == (3,)
    assert not is_acyclic(make_rank3(1, 1, 1))
    k4 = get("K4").quiver
    assert not is_acyclic(k4)
    assert sources(k4) == (1,)


def test_acyclicity_matches_path_search_oracle():
    rng = np.random.default_rng(11)
    for _ in range(200):
        q = random_quiver(rng, int(rng.integers(2, 7)), 2)
        assert is_acyclic(q) == (not has_directed_cycle_paths(q))


def test_induced_cycles_k4():
    k4 = get("K4").quiver
    cycles = induced_cycles(k4)
    assert len(cycles) == 4
    flags = {frozenset(c): o for c, o in cycles}
    assert flags[frozenset({2, 3, 4})] is True
    for vs in ({1, 2, 3}, {1, 2, 4}, {1, 3, 4}):
        assert flags[frozenset(vs)] is False


def test_induced_cycles_w5_contains_oriented_square():
    w5 = get("W5").quiver
    cycles = {frozenset(c): o for c, o in induced_cycles(w5)}
    assert cycles[frozenset({1, 2, 3, 4})] is True


def test_induced_cycles_empty_for_path():
    assert induced_cycles(Quiver.from_arrows(3, [(1, 2), (2, 3)])) == []


def test_induced_cycles_against_bruteforce():
    rng = np.random.default_rng(13)
    for _ in range(120):
        q = random_quiver(rng, int(rng.integers(3, 7)), 2)
        expected = chordless_cycles_brute(q)
        got = induced_cycles(q)
        assert {frozenset(c) for c, _ in got} == expected
        for c, oriented in got:
            assert oriented == cycle_is_oriented(q, frozenset(c))


def test_b_matrix_rank():
    assert b_matrix_rank(get("K4").quiver) == 4
    assert b_matrix_rank(Quiver(np.zeros((5, 5), dtype=int))) == 0
    assert b_matrix_rank(make_rank3(2, 2, 2)) == 2


def test_rank_matches_fraction_elimination():
    rng = np.random.default_rng(17)
    for _ in range(150):
        q = random_quiver(rng, int(rng.integers(1, 8)), 3)
        assert b_matrix_rank(q) == rank_fractions(q)


def test_rank_always_even():
    rng = np.random.default_rng(19)
    for _ in range(100):
        q = random_quiver(rng, int(rng.integers(1, 8)), 3)
        assert b_matrix_rank(q) % 2 == 0


def test_find_direct_sum_examples():
    assert find_direct_sum(make_theta(5)) is None
    assert find_direct_sum(make_rank3(1, 1, 1)) is None
    q = Quiver.from_arrows(4, [(1, 2), (3, 4), (2, 3)])
    ds = find_direct_sum(q)
    assert ds == DirectSumDecomposition((1,), (2, 3, 4), ((1, 2),), 1)
    assert ds.check(q)


def test_find_direct_sum_decompositions_check_out():
    rng = np.random.default_rng(23)
    found = 0
    for _ in range(200):
        q = random_quiver(rng, int(rng.integers(2, 6)), 2)
        ds = find_direct_sum(q)
        if ds is not None:
            found += 1
            assert ds.check(q)
    assert found > 20


def test_find_ending_kcycle():
    assert find_ending_kcycle(make_theta(4)) is None
    assert find_ending_kcycle(make_rank3(1, 1, 1)) == ((1, 2, 3), 3)
    q = Quiver.from_arrows(5, [(1, 2), (2, 3), (3, 1), (3, 4), (4, 5)])
    assert find_ending_kcycle(q) == ((1, 2, 3), 3)
    # double-arrow cycles are rejected
    assert find_ending_kcycle(make_rank3(2, 1, 1)) is None
    # four-cycle with a tail
    q4 = Quiver.from_arrows(
        6, [(1, 2), (2, 3), (3, 4), (4, 1), (4, 5), (5, 6)]
    )
    assert find_ending_kcycle(q4) == ((1, 2, 3, 4), 4)


def test_separating_edges():
    k4 = get("K4").quiver
    assert (1, 2) in separating_edges(k4)
    assert separating_edges(make_rank3(1, 1, 1)) == []
    path = Quiver.from_arrows(3, [(1, 2), (2, 3)])
    assert separating_edges(path) == [(1, 2), (2, 3)]


def test_relabel_roundtrip():
    rng = np.random.default_rng(29)
    for _ in range(50):
        n = int(rng.integers(2, 7))
        q = random_quiver(rng, n, 2)
        perm = [int(v) + 1 for v in rng.permutation(n)]
        inv = [0] * n
        for i, s in enumerate(perm):
            inv[s - 1] = i + 1
        assert relabel(relabel(q, perm), inv) == q


def test_relabel_matches_definition():
    rng = np.random.default_rng(30)
    for _ in range(50):
        n = int(rng.integers(1, 8))
        q = random_quiver(rng, n, 3)
        perm = [int(v) + 1 for v in rng.permutation(n)]
        b = q.b.tolist()
        expected = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(n):
                expected[perm[i] - 1][perm[j] - 1] = b[i][j]
        assert relabel(q, perm) == Quiver(expected)
    with pytest.raises(QuiverError):
        relabel(q, [1] * n if n > 1 else [2])


def test_mutation_invariants_random():
    rng = np.random.default_rng(31)
    for _ in range(150):
        n = int(rng.integers(2, 8))
        q = random_quiver(rng, n, 3)
        k = int(rng.integers(1, n + 1))
        m = mutate(q, k)
        assert np.array_equal(m.b, -m.b.T)
        assert mutate(m, k) == q
        assert b_matrix_rank(m) == b_matrix_rank(q)
        assert opposite(mutate(q, k)) == mutate(opposite(q), k)
