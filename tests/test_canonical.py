import numpy as np
import pytest

from quivergreen.canonical import are_isomorphic, canonical_form, canonical_key
from quivergreen.catalog import make_rank3, make_theta
from quivergreen.core import Quiver, mutate, opposite, relabel
from quivergreen.errors import CapabilityError

from oracles import (
    canonical_matrix_literal,
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
    arrowless = Quiver(np.zeros((9, 9), dtype=int))
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
        Quiver(np.zeros((10, 10), dtype=int)),
        Quiver(np.zeros((12, 12), dtype=int)),
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
        order = canonical_order_reference(q)
        sigma = [0] * q.n
        for new0, old0 in enumerate(order):
            sigma[old0] = new0 + 1
        assert canonical_form(q)[1] == tuple(sigma), q


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
    big = Quiver(np.zeros((13, 13), dtype=int))
    with pytest.raises(CapabilityError):
        canonical_form(big)
    # 12 vertices is still in range (fully symmetric worst case)
    ok = Quiver(np.zeros((12, 12), dtype=int))
    assert canonical_key(ok).data == canonical_key(ok).data


def test_key_serializes_to_hex():
    key = canonical_key(make_theta(4))
    assert key.hex() == key.data.hex()
    assert len(key.short()) == 12
