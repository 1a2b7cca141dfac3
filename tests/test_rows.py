"""``Quiver`` holds its matrix as ``rows``, a tuple of row tuples of plain
ints, and nothing else: there is no numpy view.  Every way to make a quiver
must give such rows, and the integer mutation kernel must agree with the
literal three-step definition."""

import numpy as np
import pytest

from quivergreen.canonical import canonical_form
from quivergreen.catalog import get
from quivergreen.core import (
    MULT_CAP,
    Quiver,
    _mutate_int,
    induced_subquiver,
    mutate,
    opposite,
    relabel,
)
from quivergreen.errors import QuiverError
from quivergreen.green import frame, mutate_framed
from quivergreen.io import dumps_quiver, loads_quiver

from oracles import (
    arrow_dict,
    b_array,
    naive_mutate_arrows,
    quiver_to_arrow_list,
    random_quiver,
)


def _assert_rows(q):
    assert type(q.rows) is tuple and len(q.rows) == q.n
    assert all(type(row) is tuple and len(row) == q.n for row in q.rows)
    assert all(type(x) is int for row in q.rows for x in row)


def _made_every_way():
    w5 = get("W5").quiver
    lists = [list(row) for row in w5.rows]
    yield Quiver(lists)
    yield Quiver(tuple(map(tuple, lists)))
    yield Quiver.from_arrows(5, w5.arrows())
    yield loads_quiver(dumps_quiver(w5))
    yield loads_quiver('{"b": ' + str(lists) + "}")
    for k in range(1, 6):
        yield mutate(w5, k)
    yield relabel(w5, (3, 1, 5, 2, 4))
    yield opposite(w5)
    yield induced_subquiver(w5, {2, 4, 5})[0]
    yield induced_subquiver(w5, {3})[0]
    fq = frame(w5)
    yield fq.mutable_block()
    for k in (2, 4, 1):
        fq = mutate_framed(fq, k)
        yield fq.mutable_block()


def test_every_construction_holds_plain_int_rows():
    for q in _made_every_way():
        _assert_rows(q)


def test_quiver_has_no_numpy_view():
    q = mutate(get("K4").quiver, 2)
    assert not hasattr(q, "b")
    assert not hasattr(Quiver, "b")


def test_equality_and_hash_follow_the_rows():
    w5 = get("W5").quiver
    same = Quiver([list(row) for row in w5.rows])
    assert same == w5 and hash(same) == hash(w5)
    assert opposite(w5) != w5
    assert Quiver([[0]]) != Quiver([[0, 0], [0, 0]])


def test_mutate_agrees_with_naive_arrow_lists_up_to_rank_8():
    rng = np.random.default_rng(17)
    for _ in range(200):
        n = int(rng.integers(2, 9))
        q = random_quiver(rng, n, int(rng.integers(0, 4)))
        k = int(rng.integers(1, n + 1))
        got = mutate(q, k)
        _assert_rows(got)
        assert arrow_dict(got) == naive_mutate_arrows(n, quiver_to_arrow_list(q), k)


def test_kernel_reuses_untouched_rows():
    q = get("Theta_6").quiver
    for k in range(q.n):
        out = _mutate_int(q.rows, k)
        for i, (new, old) in enumerate(zip(out, q.rows)):
            assert (new is old) == (i != k and old[k] == 0)


def test_mutate_raises_exactly_above_the_cap():
    # 1 -> 2 -> 3 with 1 and MULT_CAP arrows: mutating at 2 composes exactly
    # MULT_CAP arrows 1 -> 3, the largest multiplicity allowed
    edge = Quiver.from_arrows(3, [(1, 2, 1), (2, 3, MULT_CAP)])
    assert mutate(edge, 2).mult(1, 3) == MULT_CAP
    over = Quiver.from_arrows(3, [(1, 2, 1), (2, 3, MULT_CAP), (1, 3, 1)])
    with pytest.raises(QuiverError, match="mutation at 2 overflows"):
        mutate(over, 2)
    under = Quiver.from_arrows(3, [(1, 2, 1), (2, 3, MULT_CAP), (3, 1, 1)])
    assert mutate(under, 2).mult(1, 3) == MULT_CAP - 1
    assert _mutate_int(over.rows, 1) is None


def test_canonical_key_bytes_match_numpy_int64_bytes():
    rng = np.random.default_rng(19)
    cases = [random_quiver(rng, int(rng.integers(1, 8)), 3) for _ in range(60)]
    cases.append(Quiver.from_arrows(3, [(1, 2, MULT_CAP), (3, 2, 5)]))
    for q in cases:
        key, sigma = canonical_form(q)
        order = [0] * q.n
        for old, new in enumerate(sigma):
            order[new - 1] = old
        m = b_array(q)[np.ix_(order, order)]
        assert key.data == q.n.to_bytes(2, "big") + m.tobytes()
