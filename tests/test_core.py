import numpy as np
import pytest

import quivergreen.core as core
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
from quivergreen.errors import CapabilityError, QuiverError

from oracles import (
    arrow_dict,
    b_array,
    chordless_cycles_brute,
    cycle_is_oriented,
    ending_kcycle_brute,
    ending_kcycle_reference,
    has_directed_cycle_paths,
    naive_mutate_arrows,
    quiver_to_arrow_list,
    random_quiver,
    rank_fractions,
    separating_edges_closure,
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
    assert b_matrix_rank(Quiver.from_arrows(5, [])) == 0
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


def test_find_direct_sum_is_capped_at_16_vertices():
    path = [(i, i + 1) for i in range(1, 16)]
    assert find_direct_sum(Quiver.from_arrows(16, path)).part_left == (1,)
    with pytest.raises(CapabilityError, match="up to 16 vertices, got 17"):
        find_direct_sum(Quiver.from_arrows(17, path + [(16, 17)]))


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


def test_separating_edges_match_the_closure_oracle():
    # sparse quivers, so that acyclic ones, cyclic ones and arrows on either
    # side of a cycle all occur
    rng = np.random.default_rng(61)
    kinds = set()
    for _ in range(300):
        n = int(rng.integers(1, 9))
        b = np.zeros((n, n), dtype=np.int64)
        for i in range(n):
            for j in range(i + 1, n):
                b[i, j] = rng.choice([-2, -1, 0, 0, 0, 0, 1, 2])
                b[j, i] = -b[i, j]
        q = Quiver(b.tolist())
        got = separating_edges(q)
        assert got == separating_edges_closure(q)
        kinds.add((is_acyclic(q), 0 < len(got) < len(q.arrows())))
    assert kinds >= {(True, False), (False, False), (False, True)}


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
        b = q.rows
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
        b = b_array(m)
        assert np.array_equal(b, -b.T)
        assert mutate(m, k) == q
        assert b_matrix_rank(m) == b_matrix_rank(q)
        assert opposite(mutate(q, k)) == mutate(opposite(q), k)


def test_internal_results_are_valid_read_only_quivers():
    # mutate, relabel, opposite, induced_subquiver and mutable_block skip the
    # constructor checks; each result must pass them all the same
    from quivergreen.green import frame, mutate_framed

    rng = np.random.default_rng(41)
    for _ in range(60):
        n = int(rng.integers(1, 7))
        q = random_quiver(rng, n, 3)
        perm = [int(v) + 1 for v in rng.permutation(n)]
        subset = [v for v in range(1, n + 1) if rng.random() < 0.6] or [n]
        results = [mutate(q, k) for k in range(1, n + 1)]
        results += [relabel(q, perm), opposite(q), induced_subquiver(q, subset)[0]]
        fq = frame(q)
        results.append(fq.mutable_block())
        for _ in range(3):
            fq = mutate_framed(fq, int(rng.integers(1, n + 1)))
            results.append(fq.mutable_block())
        for r in results:
            assert r == Quiver([list(row) for row in r.rows])
            assert hash(r) == hash(Quiver([list(row) for row in r.rows]))
            assert {type(x) for row in r.rows for x in row} == {int}
            assert r.n == len(r.rows) and all(len(row) == r.n for row in r.rows)
            with pytest.raises(TypeError):
                r.rows[0] = ()


def planted_cycle_quiver(rng, n: int) -> Quiver:
    """Sparse arrows of multiplicity 1 or 2 plus an oriented cycle on random
    vertices, mostly of single arrows, so ending cycles and near misses
    (a double arrow, a chord, a second attached vertex) are common."""
    b = np.zeros((n, n), dtype=np.int64)
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.3:
                b[i, j] = rng.choice([1, -1, 2, -2])
                b[j, i] = -b[i, j]
    k = int(rng.integers(3, n + 1))
    cyc = [int(v) for v in rng.permutation(n)[:k]]
    for u, w in zip(cyc, cyc[1:] + cyc[:1]):
        b[u, w] = rng.choice([1, 1, 1, 2])
        b[w, u] = -b[u, w]
    return Quiver(b.tolist())


def test_find_ending_kcycle_matches_definition():
    rng = np.random.default_rng(2024)
    lengths = set()
    for i in range(220):
        n = int(rng.integers(3, 8))
        q = planted_cycle_quiver(rng, n) if i % 4 else random_quiver(rng, n, 2)
        expected = ending_kcycle_brute(q)
        assert find_ending_kcycle(q) == expected, q
        if expected is not None:
            lengths.add(len(expected[0]))
    assert lengths >= {3, 4, 5}


def cycles_with_tails_quiver(rng, n: int) -> Quiver:
    """An oriented cycle of single arrows with a path hung on one of its
    vertices, sometimes a second oriented cycle, and sparse arrows among the
    vertices left over and the tail, all on random labels."""
    b = np.zeros((n, n), dtype=np.int64)
    perm = [int(v) for v in rng.permutation(n)]
    k = int(rng.integers(3, n + 1))
    cyc, rest = perm[:k], perm[k:]
    cycles = [cyc]
    if len(rest) >= 3 and rng.random() < 0.4:
        m = int(rng.integers(3, len(rest) + 1))
        cycles.append(rest[:m])
        rest = rest[m:]
    for c in cycles:
        for u, w in zip(c, c[1:] + c[:1]):
            b[u, w], b[w, u] = 1, -1
    tail = [cyc[int(rng.integers(0, k))]] + rest[: int(rng.integers(0, len(rest) + 1))]
    for u, w in zip(tail, tail[1:]):
        b[u, w] = rng.choice([1, -1, 1, 2])
        b[w, u] = -b[u, w]
    for u in rest:
        for w in rest:
            if u < w and b[u, w] == 0 and rng.random() < 0.2:
                b[u, w] = rng.choice([1, -1])
                b[w, u] = -b[u, w]
    return Quiver(b.tolist())


def test_find_ending_kcycle_matches_the_subset_scan():
    # the first ending cycle read off chains of through vertices is the one
    # the scan over every chordless cycle finds first
    rng = np.random.default_rng(2026)
    makers = (
        lambda n: random_quiver(rng, n, 2),
        lambda n: planted_cycle_quiver(rng, n),
        lambda n: cycles_with_tails_quiver(rng, n),
    )
    lengths = set()
    found = 0
    for i in range(1500):
        q = makers[i % 3](int(rng.integers(3, 10)))
        expected = ending_kcycle_reference(q)
        assert find_ending_kcycle(q) == expected, q.rows
        if expected is not None:
            found += 1
            lengths.add(len(expected[0]))
    assert found >= 500 and lengths >= {3, 4, 5, 6, 7}, (found, lengths)


def _never(*args):
    raise AssertionError("a vertex subset was scanned")


@pytest.mark.parametrize("n", [17, 25, 40])
def test_find_ending_kcycle_scans_no_subsets_on_long_cycles(monkeypatch, n):
    monkeypatch.setattr(core, "_cycle_order", _never)
    q = Quiver.from_arrows(n, [(i, i % n + 1) for i in range(1, n + 1)])
    assert find_ending_kcycle(q) == (tuple(range(1, n + 1)), n)
    shifted = relabel(q, [(i + 3) % n + 1 for i in range(n)])
    assert find_ending_kcycle(shifted) == (tuple(range(1, n + 1)), n)


def _through_vertices(q: Quiver) -> int:
    """Vertices with one single arrow in, one single arrow out and nothing
    else: what v1..v(k-1) of an ending k-cycle must be."""
    return sum(1 for row in q.rows if sorted(x for x in row if x) == [-1, 1])


def spoiled_cycle_quiver(rng, n: int, keep: int) -> tuple[Quiver, bool]:
    """An oriented cycle of single arrows whose last vertex alone is joined
    to the other, sparsely linked vertices, then every cycle vertex from
    index ``keep`` on but the last spoiled by a doubled cycle arrow or an
    arrow to another vertex.  Returns the quiver and whether a cycle arrow
    was doubled."""
    b = np.zeros((n, n), dtype=np.int64)
    k = int(rng.integers(3, n + 1))
    perm = [int(v) for v in rng.permutation(n)]
    cyc, rest = perm[:k], perm[k:]
    for u, w in zip(cyc, cyc[1:] + cyc[:1]):
        b[u, w], b[w, u] = 1, -1
    for u in rest:
        for w in rest + [cyc[-1]]:
            if u < w or w == cyc[-1]:
                if rng.random() < 0.4:
                    b[u, w] = rng.choice([1, -1, 2])
                    b[w, u] = -b[u, w]
    doubled = False
    for pos in range(keep, k - 1):
        u = cyc[pos]
        free = [w for w in range(n) if w != u and b[u, w] == 0]
        if free and rng.random() < 0.5:
            w = int(rng.choice(free))
            b[u, w] = rng.choice([1, -1])
            b[w, u] = -b[u, w]
        else:
            w = cyc[pos + 1]
            b[u, w], b[w, u] = 2, -2
            doubled = True
    return Quiver(b.tolist()), doubled


def test_find_ending_kcycle_matches_definition_around_two_through_vertices():
    # find_ending_kcycle enumerates no cycle below two through vertices
    rng = np.random.default_rng(2211)
    counts = {0: 0, 1: 0, 2: 0, 3: 0}
    found = doubled_cycles = 0
    for i in range(60):
        n = 3 + i % 6
        q, doubled = spoiled_cycle_quiver(rng, n, i // 6 % 4)
        expected = ending_kcycle_brute(q)
        assert find_ending_kcycle(q) == expected, q.rows
        counts[min(_through_vertices(q), 3)] += 1
        found += expected is not None
        doubled_cycles += doubled
    assert min(counts.values()) >= 8, counts
    assert found >= 10 and doubled_cycles >= 15, (found, doubled_cycles)


