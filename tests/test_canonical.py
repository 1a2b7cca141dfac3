import numpy as np
import pytest

import quivergreen.canonical as canonical
from quivergreen.canonical import (
    ClassIndex,
    are_isomorphic,
    canonical_form,
    canonical_key,
)
from quivergreen.catalog import get, make_rank3, make_theta
from quivergreen.core import MULT_CAP, Quiver, mutate, opposite, relabel
from quivergreen.errors import CapabilityError
from quivergreen.exchange import explore

from oracles import (
    canonical_matrix_literal,
    canonical_order_literal,
    canonical_order_reference,
    iso_brute,
    random_quiver,
)


def test_key_invariant_under_relabelling():
    q = make_rank3(1, 1, 1)
    rotated = relabel(q, (2, 3, 1))
    assert canonical_key(rotated) == canonical_key(q)


def test_keys_distinguish_param_orders():
    # (1,2,3) and (1,3,2) are not related by a cyclic rotation, and reversal
    # is not a relabelling, so the keys must differ
    assert canonical_key(make_rank3(1, 2, 3)) != canonical_key(make_rank3(1, 3, 2))
    assert iso_brute(make_rank3(1, 2, 3), make_rank3(1, 3, 2)) is None


def test_path_reversal_is_a_relabelling():
    p1 = Quiver.from_arrows(3, [(1, 2), (2, 3)])
    p2 = Quiver.from_arrows(3, [(3, 2), (2, 1)])
    assert canonical_key(p1) == canonical_key(p2)


def test_key_matches_literal_minimum_small():
    rng = np.random.default_rng(41)
    for _ in range(150):
        q = random_quiver(rng, int(rng.integers(1, 6)), 2)
        assert canonical_key(q).data == canonical_matrix_literal(q)


def test_key_matches_literal_minimum_n6():
    rng = np.random.default_rng(42)
    for _ in range(30):
        q = random_quiver(rng, 6, 2)
        assert canonical_key(q).data == canonical_matrix_literal(q)


def test_key_invariance_random():
    rng = np.random.default_rng(43)
    for _ in range(200):
        n = int(rng.integers(1, 8))
        q = random_quiver(rng, n, 2)
        perm = [int(v) + 1 for v in rng.permutation(n)]
        assert canonical_key(relabel(q, perm)) == canonical_key(q)


def test_key_invariance_on_symmetric_quivers():
    # highly symmetric quivers stress the partial-ordering dedup
    rng = np.random.default_rng(44)
    markov = make_rank3(2, 2, 2)
    for perm in ((1, 2, 3), (2, 3, 1), (3, 1, 2), (2, 1, 3), (1, 3, 2), (3, 2, 1)):
        assert canonical_key(relabel(markov, perm)) == canonical_key(markov)
    from quivergreen.catalog import get

    x7 = get("X7").quiver
    base = canonical_key(x7)
    for _ in range(20):
        perm = [int(v) + 1 for v in rng.permutation(7)]
        assert canonical_key(relabel(x7, perm)) == base
    arrowless = Quiver.from_arrows(9, [])
    perm = [int(v) + 1 for v in rng.permutation(9)]
    assert canonical_key(relabel(arrowless, perm)) == canonical_key(arrowless)


def _disjoint_union(*blocks: tuple[int, list]) -> Quiver:
    """Disjoint union of ``(size, arrows)`` blocks, numbered block by block."""
    arrows, offset = [], 0
    for size, block in blocks:
        arrows += [(offset + t, offset + h) for t, h in block]
        offset += size
    return Quiver.from_arrows(offset, arrows)


def test_witness_matches_reference_ordering():
    # the key alone does not pin the chosen ordering: the witness (hence
    # are_isomorphic and every relabelled representative) must be exactly
    # the ordering of the first-seen partial in the reference search
    from quivergreen.catalog import get, names

    rng = np.random.default_rng(48)
    cases = [
        random_quiver(rng, n, int(rng.integers(1, 4)))
        for n in range(1, 10)
        for _ in range(25)
    ]
    cases += [get(name).quiver for name in names() if get(name).quiver.n <= 12]
    a2, a3 = (2, [(1, 2)]), (3, [(1, 2), (2, 3)])
    triangle = (3, [(1, 2), (2, 3), (3, 1)])
    symmetric = [
        Quiver.from_arrows(10, []),
        Quiver.from_arrows(12, []),
        Quiver.from_arrows(12, [(1, k) for k in range(2, 13)]),
        _disjoint_union(*[triangle] * 4),
        _disjoint_union(*[a2] * 6),
        _disjoint_union(*[a3] * 4),
    ]
    cases += symmetric
    # relabelled copies visit the symmetric partials in another order
    cases += [
        relabel(q, [int(v) + 1 for v in rng.permutation(q.n)]) for q in symmetric[2:]
    ]
    for q in cases:
        order = canonical_order_literal(q)
        sigma = [0] * q.n
        for new0, old0 in enumerate(order):
            sigma[old0] = new0 + 1
        assert canonical_form(q)[1] == tuple(sigma), q


def _signed_quiver(rng, n, values):
    """Each pair of vertices joined by ``values[k]`` arrows, ``k`` random,
    in a random direction."""
    b = np.zeros((n, n), dtype=np.int64)
    for i in range(n):
        for j in range(i + 1, n):
            b[i, j] = values[rng.integers(len(values))] * rng.choice([-1, 1])
            b[j, i] = -b[i, j]
    return Quiver(b.tolist())


def _order_cases():
    rng = np.random.default_rng(52)
    cases = []
    for i in range(2000):
        n = 1 + i % 12
        if i % 4 == 0:
            cases.append(_sparse_quiver(rng, n))
        else:
            cases.append(random_quiver(rng, n, i % 4))
    cases += [Quiver.from_arrows(n, []) for n in range(1, 13)]
    cases += [Quiver.from_arrows(n, [(1, 2)]) for n in range(2, 13)]
    # at the cap the base is 2 * MULT_CAP + 1; at isqrt(MULT_CAP) it is 92,681
    for n in range(2, 9):
        for values in ((MULT_CAP,), (0, MULT_CAP), (1, MULT_CAP - 1), (46340,), (0, 1, 46340)):
            cases.append(_signed_quiver(rng, n, values))
    a2, a3, a4 = (2, [(1, 2)]), (3, [(1, 2), (2, 3)]), (4, [(1, 2), (2, 3), (3, 4)])
    for blocks in ([a2] * 6, [a3] * 4, [a4] * 3, [a3, a3, a4], [a2, a3, a4], [a2] * 3):
        union = _disjoint_union(*blocks)
        cases += [union, relabel(union, _random_perm(rng, union.n))]
    dynkin = [
        Quiver.from_arrows(5, [(1, 2), (2, 3), (3, 4), (4, 5)]),
        Quiver.from_arrows(6, [(1, 2), (2, 3), (3, 4), (4, 5), (4, 6)]),
        Quiver.from_arrows(7, [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (3, 7)]),
    ]
    for q in dynkin:
        for node in explore(q).nodes.values():
            cases += [node.quiver, relabel(node.quiver, _random_perm(rng, q.n))]
    return cases


def test_canonical_order_matches_the_tuple_search():
    # integer columns and the level-2 start must not change which ordering
    # is found, only how fast: the whole tuple, not just the key it gives
    cases = _order_cases()
    assert len(cases) > 3000
    for q in cases:
        order = canonical._canonical_order(q)
        assert order == canonical_order_reference(q), q.rows
        assert sorted(order) == list(range(q.n))


def test_are_isomorphic_identity_and_witness():
    q = make_rank3(1, 2, 2)
    assert are_isomorphic(q, q) == (1, 2, 3)
    markov = make_rank3(2, 2, 2)
    m = mutate(markov, 1)
    sigma = are_isomorphic(markov, m)
    assert sigma is not None
    assert relabel(markov, sigma) == m


def test_are_isomorphic_negative():
    assert are_isomorphic(make_rank3(1, 1, 2), make_rank3(2, 2, 2)) is None
    assert are_isomorphic(make_rank3(1, 1, 1), opposite(make_rank3(1, 2, 3))) is None


def test_iso_agrees_with_keys_and_bruteforce():
    rng = np.random.default_rng(47)
    for _ in range(150):
        n = int(rng.integers(2, 6))
        q1 = random_quiver(rng, n, 2)
        if rng.integers(2):
            perm = [int(v) + 1 for v in rng.permutation(n)]
            q2 = relabel(q1, perm)
        else:
            q2 = random_quiver(rng, n, 2)
        sigma = are_isomorphic(q1, q2)
        keys_equal = canonical_key(q1) == canonical_key(q2)
        assert (sigma is not None) == keys_equal
        assert (sigma is not None) == (iso_brute(q1, q2) is not None)
        if sigma is not None:
            assert relabel(q1, sigma) == q2


def test_capability_limit():
    big = Quiver.from_arrows(13, [])
    with pytest.raises(CapabilityError):
        canonical_form(big)
    # 12 vertices is still in range (fully symmetric worst case)
    ok = Quiver.from_arrows(12, [])
    assert canonical_key(ok).data == canonical_key(ok).data


def test_key_serializes_to_hex():
    key = canonical_key(make_theta(4))
    assert key.hex() == key.data.hex()
    assert len(key.short()) == 12


def _random_perm(rng, n):
    return [int(v) + 1 for v in rng.permutation(n)]


def test_matcher_finds_a_verified_map_onto_a_relabelled_copy():
    rng = np.random.default_rng(49)
    for n in range(1, 11):
        for _ in range(20):
            q = random_quiver(rng, n, int(rng.integers(1, 3)))
            target = relabel(q, _random_perm(rng, n))
            sigma = are_isomorphic(q, target)
            assert sigma is not None and relabel(q, sigma) == target
            index = ClassIndex()
            key = canonical_key(target)
            index.add(key, target)
            found_key, sigma = index.find(q)
            assert found_key == key and relabel(q, sigma) == target


def _sparse_quiver(rng, n):
    b = np.zeros((n, n), dtype=np.int64)
    for i in range(n):
        for j in range(i + 1, n):
            b[i, j] = rng.choice([-1, 0, 0, 1])
            b[j, i] = -b[i, j]
    return Quiver(b.tolist())


def test_matcher_is_none_exactly_when_keys_differ():
    # sparse quivers of few vertices often share degrees and colours
    # without being isomorphic
    rng = np.random.default_rng(50)
    outcomes = set()
    for _ in range(400):
        n = int(rng.integers(1, 8))
        q1, q2 = _sparse_quiver(rng, n), _sparse_quiver(rng, n)
        sigma = are_isomorphic(q1, q2)
        same = canonical_key(q1) == canonical_key(q2)
        assert (sigma is not None) == same
        if same:
            assert relabel(q1, sigma) == q2
        index = ClassIndex()
        index.add(canonical_key(q2), q2)
        assert (index.find(q1) is not None) == same
        outcomes.add(same)
    assert outcomes == {True, False}


def _refined(q):
    colours = canonical._colours(q.rows, canonical._degrees(q.rows))
    return sorted(colours)


def _circulant(n, steps):
    return Quiver.from_arrows(
        n, [(i + 1, (i + s) % n + 1) for i in range(n) for s in steps]
    )


@pytest.mark.parametrize(
    "q1, q2, isomorphic",
    [
        # an oriented 6-cycle against two oriented 3-cycles
        (
            _circulant(6, (1,)),
            _disjoint_union(*[(3, [(1, 2), (2, 3), (3, 1)])] * 2),
            False,
        ),
        # the quadratic-residue and the {1, 2, 3} circulant regular
        # tournaments on 7 vertices
        (_circulant(7, (1, 2, 4)), _circulant(7, (1, 2, 3)), False),
        (Quiver.from_arrows(12, []), Quiver.from_arrows(12, []), True),
    ],
    ids=["6-cycle-vs-two-3-cycles", "regular-tournaments-7", "arrowless-12"],
)
def test_matcher_backtracks_where_refinement_ties(q1, q2, isomorphic):
    # one round of refinement gives every vertex of both quivers one colour,
    # so only the backtracking can tell them apart
    assert len(set(_refined(q1))) == 1 and _refined(q1) == _refined(q2)
    assert (canonical_key(q1) == canonical_key(q2)) == isomorphic
    rng = np.random.default_rng(51)
    for target in (q2, relabel(q2, _random_perm(rng, q2.n))):
        for a, b in ((q1, target), (target, q1)):
            sigma = are_isomorphic(a, b)
            assert (sigma is not None) == isomorphic
            if isomorphic:
                assert relabel(a, sigma) == b


def test_a_repeated_isomorphism_test_computes_no_colours(monkeypatch):
    # a quiver keeps its sorted degrees and colour classes from its first
    # test, so a catalog quiver pays for them once, not once per input
    x7 = get("X7").quiver
    q = relabel(x7, (3, 1, 2, 7, 5, 6, 4))
    calls = []
    colours = canonical._colours

    def counted(rows, degrees):
        calls.append(rows)
        return colours(rows, degrees)

    monkeypatch.setattr(canonical, "_colours", counted)
    sigma = are_isomorphic(q, x7)
    assert sigma is not None and relabel(q, sigma) == x7
    assert q.rows in calls
    first = len(calls)
    assert are_isomorphic(q, x7) == sigma
    assert len(calls) == first
    copy = Quiver([list(row) for row in q.rows])
    assert are_isomorphic(copy, x7) == sigma
    assert len(calls) == first + 1
