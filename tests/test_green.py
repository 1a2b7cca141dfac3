from functools import partial

import numpy as np
import pytest

from quivergreen.canonical import canonical_key
from quivergreen.catalog import get, make_rank3, make_theta
from quivergreen.core import (
    MULT_CAP,
    DirectSumDecomposition,
    Quiver,
    Rank3Params,
    find_ending_kcycle,
    induced_subquiver,
    mutate,
    opposite,
    relabel,
)
from quivergreen.errors import CertificateError, InternalInvariantError, QuiverError
from quivergreen.green import (
    GREEN,
    RED,
    FramedQuiver,
    acyclic_mgs,
    apply_green_sequence,
    check_mgs,
    direct_sum_mgs,
    frame,
    kcycle_mgs,
    mutate_framed,
    rank3_mgs,
    reverse_rotate_mgs,
    rotate_mgs,
    search_mgs,
    verify_mgs,
    vertex_status,
)

from oracles import (
    enumerate_green_mgs,
    random_acyclic_quiver,
    random_quiver,
    search_mgs_reference,
)

A2 = Quiver.from_arrows(2, [(1, 2)])


def test_frame_initial_state():
    q = make_rank3(2, 2, 2)
    fq = frame(q)
    assert fq.green_vertices() == (1, 2, 3)
    assert fq.n == 3 and fq.mutable_block().rows == q.rows
    assert fq.c_block() == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    assert fq.rows == tuple(b + c for b, c in zip(q.rows, fq.c_block()))


@pytest.mark.parametrize(
    "call",
    [
        lambda v: mutate(A2, v),
        lambda v: A2.mult(v, 2),
        lambda v: relabel(A2, [v, 2]),
        lambda v: induced_subquiver(A2, [v]),
        lambda v: mutate_framed(frame(A2), v),
        lambda v: vertex_status(frame(A2), v),
        lambda v: apply_green_sequence(A2, [v, 2]),
        lambda v: check_mgs(A2, [v, 2]),
        lambda v: verify_mgs(A2, [v, 2]),
    ],
)
@pytest.mark.parametrize("label", [True, 1.0, "1", None])
def test_vertex_labels_that_are_not_integers_are_rejected(call, label):
    # each call accepts the label 1; nothing may coerce a look-alike to it
    call(1)
    with pytest.raises(QuiverError, match="must be an integer"):
        call(label)


class _Label(int):
    """An int subclass, standing for any integer type that is not ``int``."""


def test_certificates_hold_plain_int_vertices():
    cert = verify_mgs(A2, [_Label(1), _Label(2)])
    assert cert.sequence == (1, 2)
    assert all(type(v) is int for v in cert.sequence)
    _, mapping = induced_subquiver(A2, [_Label(2)])
    assert mapping == (2,) and type(mapping[0]) is int
    with pytest.raises(QuiverError, match="must be an integer"):
        verify_mgs(A2, [np.int64(1), np.int64(2)])


def test_vertex_status_a2_by_hand():
    fq = frame(A2)
    assert vertex_status(fq, 1) == GREEN and vertex_status(fq, 2) == GREEN
    fq1 = mutate_framed(fq, 1)
    assert vertex_status(fq1, 1) == RED and vertex_status(fq1, 2) == GREEN
    fq2 = mutate_framed(fq1, 2)
    assert vertex_status(fq2, 1) == RED and vertex_status(fq2, 2) == RED


def test_sign_coherence_is_asserted():
    # a frozen block with a mixed-sign row is rejected outright
    rows = ((0, 0, 1, -1), (0, 0, 0, 1))
    with pytest.raises(InternalInvariantError):
        FramedQuiver(rows)


@pytest.mark.parametrize(
    "rows",
    [
        ((0, 0, 1, 0), (0, 0, 0)),  # a short row
        ((0, 0, 1, 0, 0), (0, 0, 0, 1, 0)),  # 2n + 1 entries each
        ((0, 1), (-1, 0)),  # a bare 2 x 2 exchange matrix
    ],
)
def test_framed_state_needs_n_rows_of_2n_entries(rows):
    with pytest.raises(QuiverError, match="n rows of 2n entries"):
        FramedQuiver(rows)


@pytest.mark.parametrize(
    "rows, message",
    [
        # 5 arrows one way and 3 the other between the same two vertices
        (((0, 5, 1, 0), (3, 0, 0, 1)), "skew-symmetric"),
        (((0, 4 * MULT_CAP, 1, 0), (-4 * MULT_CAP, 0, 0, 1)), "exceeds cap"),
        (((0, 1, MULT_CAP + 1, 0), (-1, 0, 0, 1)), "exceeds cap"),
        (((1, 0, 1, 0), (0, -1, 0, 1)), "diagonal"),
        (((0, True, 1, 0), (-1, 0, 0, 1)), "must be an integer"),
        (((0, 1.0, 1, 0), (-1, 0, 0, 1)), "must be an integer"),
        (((0, 1, 1, 0), (-1, 0, 0, 1.0)), "must be an integer"),
        ((), "at least one vertex"),
    ],
    ids=["not-skew", "b-over-cap", "c-over-cap", "loop", "bool", "float", "float-c", "empty"],
)
def test_framed_state_rejects_an_invalid_matrix(rows, message):
    with pytest.raises(QuiverError, match=message):
        FramedQuiver(rows)


@pytest.mark.parametrize("rows", [5, None, [1, 2]])
def test_framed_state_rejects_what_is_not_a_list_of_rows(rows):
    with pytest.raises(QuiverError):
        FramedQuiver(rows)


def test_framed_state_keeps_plain_int_rows():
    fq = FramedQuiver(((0, _Label(1), 1, 0), [-1, 0, 0, 1]))
    assert fq.rows == ((0, 1, 1, 0), (-1, 0, 0, 1))
    assert {type(x) for row in fq.rows for x in row} == {int}
    assert fq.mutable_block() == Quiver([[0, 1], [-1, 0]])
    assert mutate_framed(fq, 1).rows == ((0, -1, -1, 0), (1, 0, 0, 1))


def test_apply_green_sequence_violation():
    fq, status = apply_green_sequence(make_rank3(1, 1, 1), (1, 1))
    assert not status.ok
    assert status.step == 2 and status.vertex == 1


def test_apply_green_sequence_theta_and_z6():
    fq, status = apply_green_sequence(make_theta(4), (2, 3, 4, 1, 2))
    assert status.ok and fq.all_red()
    fq, status = apply_green_sequence(get("Z6").quiver, (3, 1, 2, 5, 6, 4, 3))
    assert status.ok and fq.all_red()


def test_verify_mgs_a2():
    cert = verify_mgs(A2, (1, 2))
    assert cert is not None and cert.permutation == (1, 2)
    longer = verify_mgs(A2, (2, 1, 2))
    assert longer is not None and longer.permutation == (2, 1)
    assert verify_mgs(A2, (1,)) is None
    assert verify_mgs(A2, ()) is None


def test_verify_mgs_theta_family():
    for n in range(4, 10):
        q = make_theta(n)
        cert = verify_mgs(q, tuple([*range(2, n + 1), 1, 2]))
        assert cert is not None
        # the permutation maps the final quiver back onto the input
        final, _ = apply_green_sequence(q, cert.sequence)
        assert relabel(final.mutable_block(), cert.permutation) == q


def test_verify_mgs_rejects_markov():
    markov = make_rank3(2, 2, 2)
    for seq in enumerate_green_mgs(markov, 6):
        raise AssertionError(f"markov should admit no MGS, found {seq}")
    assert verify_mgs(markov, (1, 2, 3)) is None


def test_check_mgs_reasons():
    _, reason = check_mgs(A2, (1, 1))
    assert "red" in reason
    _, reason = check_mgs(A2, (1,))
    assert "green" in reason


def test_search_a2_shortest_lex():
    res = search_mgs(A2, 4, 10**5)
    assert res.found and res.certificate.sequence == (1, 2)
    # oracle: the only MGS up to length 4 are (1,2) and (2,1,2)
    assert enumerate_green_mgs(A2, 4) == {(1, 2), (2, 1, 2)}


def test_search_markov_never_found():
    res = search_mgs(make_rank3(2, 2, 2), 8, 10**6)
    assert res.status in ("exhausted", "budget")


def test_search_theta4():
    res = search_mgs(make_theta(4), 6, 10**6)
    assert res.found and len(res.certificate.sequence) <= 5


def test_search_budget_hit():
    res = search_mgs(make_theta(6), max_len=10, max_states=5)
    assert res.status == "budget"


def test_search_shortest_lex_least_matches_enumeration():
    # the reported sequence must be the lexicographically least among the
    # shortest, compared against literal enumeration of all green sequences
    rng = np.random.default_rng(151)
    checked = 0
    while checked < 40:
        n = int(rng.integers(2, 5))
        q = random_quiver(rng, n, 1)
        res = search_mgs(q, max_len=6)
        all_mgs = enumerate_green_mgs(q, 6)
        if not res.found:
            assert not all_mgs, q.arrows()
            continue
        shortest = min(len(s) for s in all_mgs)
        expected = min(s for s in all_mgs if len(s) == shortest)
        assert res.certificate.sequence == expected, q.arrows()
        checked += 1


def test_search_prune_matches_unpruned_rank3():
    # every rank-3 quiver with entries up to 2: the search skips steps at
    # the head of a multiple arrow, the unpruned reference takes them
    vals = range(-2, 3)
    for x in vals:
        for y in vals:
            for z in vals:
                q = Quiver([[0, x, y], [-x, 0, z], [-y, -z, 0]])
                pruned = search_mgs(q, 6, 10**5)
                full = search_mgs_reference(q, 6, 10**5, prune=False)
                assert pruned.found == full.found, q.arrows()
                if pruned.found:
                    assert pruned.certificate == full.certificate


def test_acyclic_mgs():
    cert = acyclic_mgs(A2)
    assert cert.sequence == (1, 2)
    path = Quiver.from_arrows(3, [(1, 2), (2, 3)])
    cert = acyclic_mgs(path)
    assert 3 <= len(cert.sequence) <= 6
    empty3 = Quiver.from_arrows(3, [])
    assert acyclic_mgs(empty3).sequence == (1, 2, 3)
    with pytest.raises(QuiverError):
        acyclic_mgs(make_rank3(1, 1, 1))


def test_acyclic_mgs_random():
    rng = np.random.default_rng(53)
    for _ in range(60):
        q = random_acyclic_quiver(rng, int(rng.integers(1, 7)), 2)
        cert = acyclic_mgs(q)
        assert verify_mgs(q, cert.sequence) is not None


def test_rotate_a2_example():
    cert = verify_mgs(A2, (1, 2))
    new_q, new_cert = rotate_mgs(A2, cert)
    assert new_q == Quiver.from_arrows(2, [(2, 1)])
    assert new_cert.sequence == (2, 1)
    assert new_cert.permutation == cert.permutation


def test_reverse_then_rotate_is_identity():
    q = make_theta(4)
    cert = verify_mgs(q, (2, 3, 4, 1, 2))
    back_q, back_cert = reverse_rotate_mgs(q, cert)
    again_q, again_cert = rotate_mgs(back_q, back_cert)
    assert again_q == q and again_cert == cert


def test_rotating_theta_certificate_stays_in_class():
    q = make_theta(4)
    cert = verify_mgs(q, (2, 3, 4, 1, 2))
    cur_q, cur_cert = q, cert
    for _ in range(len(cert.sequence)):
        cur_q, cur_cert = rotate_mgs(cur_q, cur_cert)
    assert canonical_key(cur_q) == canonical_key(q)


def test_rotate_rejects_bad_certificate():
    from quivergreen.green import MgsCertificate

    with pytest.raises(CertificateError):
        rotate_mgs(A2, MgsCertificate((2, 2), (1, 2)))


def test_direct_sum_mgs():
    # two single arrows glued by one cross arrow
    q = Quiver.from_arrows(4, [(1, 2), (3, 4), (2, 3)])
    decomp = DirectSumDecomposition((1, 2), (3, 4), ((2, 3),), 1)
    left = verify_mgs(Quiver.from_arrows(2, [(1, 2)]), (1, 2))
    right = verify_mgs(Quiver.from_arrows(2, [(1, 2)]), (1, 2))
    cert = direct_sum_mgs(q, decomp, left, right)
    assert cert.sequence == (1, 2, 3, 4)

    # disjoint union: no cross arrows at all
    q2 = Quiver.from_arrows(4, [(1, 2), (3, 4)])
    decomp2 = DirectSumDecomposition((1, 2), (3, 4), (), 0)
    cert2 = direct_sum_mgs(q2, decomp2, left, right)
    assert verify_mgs(q2, cert2.sequence) is not None

    # single vertex glued onto a single arrow
    q3 = Quiver.from_arrows(3, [(1, 2), (2, 3)])
    decomp3 = DirectSumDecomposition((1,), (2, 3), ((1, 2),), 1)
    single = acyclic_mgs(Quiver([[0]]))
    cert3 = direct_sum_mgs(q3, decomp3, single, left)
    assert cert3.sequence == (1, 2, 3)


def test_direct_sum_mgs_names_failed_premise():
    q = Quiver.from_arrows(4, [(1, 2), (3, 4), (2, 3)])
    decomp = DirectSumDecomposition((1, 2), (3, 4), ((2, 3),), 1)
    good = verify_mgs(Quiver.from_arrows(2, [(1, 2)]), (1, 2))
    from quivergreen.green import MgsCertificate

    bad = MgsCertificate((2, 2), (1, 2))
    with pytest.raises(CertificateError, match="left"):
        direct_sum_mgs(q, decomp, bad, good)
    with pytest.raises(CertificateError, match="right"):
        direct_sum_mgs(q, decomp, good, bad)
    with pytest.raises(CertificateError, match="decomposition"):
        direct_sum_mgs(
            q, DirectSumDecomposition((1, 3), (2, 4), (), 0), good, good
        )


def test_direct_sum_rejects_non_int_part_labels():
    # 1.0 and True pass the set test (they equal 1) but are not vertices
    q = Quiver.from_arrows(2, [(1, 2)])
    single = acyclic_mgs(Quiver([[0]]))
    assert DirectSumDecomposition((1,), (2,), ((1, 2),), 1).check(q)
    for left, right in (((1.0,), (2,)), ((True,), (2,)), ((1,), (2.0,))):
        decomp = DirectSumDecomposition(left, right, ((1, 2),), 1)
        assert decomp.check(q) is False
        with pytest.raises(CertificateError, match="decomposition"):
            direct_sum_mgs(q, decomp, single, single)


def test_kcycle_mgs_cases():
    # bare oriented triangle: core is the single vertex 3
    tri = make_rank3(1, 1, 1)
    info = find_ending_kcycle(tri)
    core, _ = induced_subquiver(tri, {3})
    cert = kcycle_mgs(tri, info, acyclic_mgs(core))
    assert cert.sequence == (2, 3, 1, 2)

    # triangle with a pendant tail hanging off the attachment vertex
    q = Quiver.from_arrows(4, [(1, 2), (2, 3), (3, 1), (3, 4)])
    info = find_ending_kcycle(q)
    assert info == ((1, 2, 3), 3)
    core, _ = induced_subquiver(q, {3, 4})
    cert = kcycle_mgs(q, info, acyclic_mgs(core))
    assert verify_mgs(q, cert.sequence) is not None

    # 4-cycle ending
    q4 = Quiver.from_arrows(5, [(1, 2), (2, 3), (3, 4), (4, 1), (4, 5)])
    info = find_ending_kcycle(q4)
    assert info == ((1, 2, 3, 4), 4)
    core, _ = induced_subquiver(q4, {4, 5})
    cert = kcycle_mgs(q4, info, acyclic_mgs(core))
    assert cert.sequence[0] == 3 and cert.sequence[-1] == 3
    assert verify_mgs(q4, cert.sequence) is not None


def test_rank3_mgs_classification():
    assert rank3_mgs(Rank3Params(1, 3, 2)).sequence == (2, 1, 3, 2)
    assert rank3_mgs(Rank3Params(1, 2, 3)).sequence == (2, 3, 1, 2)
    assert rank3_mgs(Rank3Params(2, 2, 2)) is None
    assert rank3_mgs(Rank3Params(3, 5, 2)) is None
    # degenerate: missing arrows give an acyclic quiver
    cert = rank3_mgs(Rank3Params(0, 1, 0))
    assert cert is not None and len(cert.sequence) == 3


def test_rank3_mgs_normalization_covers_all_positions():
    # the single arrow can sit in any of the three slots
    for params in [(1, 3, 2), (3, 1, 2), (2, 3, 1), (1, 2, 3), (4, 1, 2)]:
        cert = rank3_mgs(Rank3Params(*params))
        assert cert is not None
        assert verify_mgs(make_rank3(*params), cert.sequence) is not None


def test_opposite_duality_on_searched_quivers():
    rng = np.random.default_rng(59)
    checked = 0
    while checked < 50:
        n = int(rng.integers(2, 5))
        q = random_quiver(rng, n, 2)
        res = search_mgs(q)
        if not res.found:
            continue
        dual = search_mgs(opposite(q), max_len=len(res.certificate.sequence) + q.n)
        assert dual.found, (q.arrows(), res.certificate.sequence)
        checked += 1


def _assert_search_matches_oracle(q):
    """Compare each sequence found by the search, and by the unpruned
    reference search, with the shortest, then lexicographically least, MGS
    from literal enumeration; returns the number compared."""
    compared = 0
    unpruned = partial(search_mgs_reference, prune=False)
    for search in (search_mgs, unpruned):
        res = search(q)
        if not res.found:
            continue
        seq = res.certificate.sequence
        expected = min(enumerate_green_mgs(q, len(seq)), key=lambda s: (len(s), s))
        assert seq == expected, (q.arrows(), search)
        # the last admissible bound still finds it, one below is exhausted
        tight = search(q, max_len=len(seq))
        assert tight.certificate == res.certificate, (q.arrows(), search)
        short = search(q, max_len=len(seq) - 1)
        assert short.status == "exhausted", (q.arrows(), search)
        compared += 1
    return compared


def test_search_matches_oracle_rank3_cyclic():
    compared = 0
    for a in range(1, 4):
        for b in range(1, 4):
            for c in range(1, 4):
                if min(a, b, c) == 1:
                    compared += _assert_search_matches_oracle(make_rank3(a, b, c))
    assert compared == 2 * 19


def test_search_matches_oracle_random_rank4():
    rng = np.random.default_rng(2024)
    compared = 0
    for _ in range(30):
        compared += _assert_search_matches_oracle(random_quiver(rng, 4, 2))
    assert compared >= 40


def test_search_matches_oracle_theta5():
    assert _assert_search_matches_oracle(make_theta(5)) == 2


def test_search_max_len_below_rank_is_exhausted():
    # every vertex is green at the start, so an MGS has length at least n
    for q in (A2, make_rank3(1, 2, 3), make_theta(5)):
        for max_len in range(1, q.n):
            assert search_mgs(q, max_len=max_len).status == "exhausted"


def test_search_theta7_state_count_pinned():
    res = search_mgs(make_theta(7))
    assert res.found
    # distinct framed states built: those within the bound of the answer;
    # building every child the bound drops gives 1,689, and a plain
    # breadth-first search builds 16,232
    assert res.states == 673


def test_search_budget_counts_states_across_passes():
    q = make_theta(7)
    res = search_mgs(q)
    at_budget = search_mgs(q, max_states=res.states)
    assert at_budget.found and at_budget.certificate == res.certificate
    assert at_budget.states == res.states
    assert search_mgs(q, max_states=res.states - 1).status == "budget"
