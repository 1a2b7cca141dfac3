"""The shortest-MGS search on integer framed rows, checked against the
replay's textbook step, a second plain-int implementation of mutation,
which ``mutate_framed`` takes on ``FramedQuiver`` states: the search kernel
step by step against ``mutate_framed``, and whole searches against
``search_mgs_reference``.  The replay must certify every sequence without
the search kernel."""

import numpy as np
import pytest

from quivergreen import catalog, core, green
from quivergreen.catalog import make_rank3
from quivergreen.core import MULT_CAP, Quiver
from quivergreen.errors import InternalInvariantError, QuiverError
from quivergreen.green import (
    _frame_rows,
    _mutate_rows,
    frame,
    mutate_framed,
    search_mgs,
    verify_mgs,
)

from oracles import random_quiver, search_mgs_reference

# 1 -> 2 -> 3 with 2**16 arrows each: mutating at 2 would put 2**32 arrows
# from 1 to 3, above MULT_CAP
CAP_PATH = Quiver([[0, 2**16, 0], [-(2**16), 0, 2**16], [0, -(2**16), 0]])


def _green_bits(fq):
    return sum(1 << i for i in range(fq.n) if fq.green_mask()[i])


def _assert_same_state(rows, green, fq):
    assert rows == fq.rows
    assert green == _green_bits(fq)


def test_frame_rows_match_frame():
    for name in catalog.names():
        q = catalog.get(name).quiver
        _assert_same_state(_frame_rows(q), (1 << q.n) - 1, frame(q))


def test_kernel_matches_mutate_framed_on_random_green_walks():
    rng = np.random.default_rng(71)
    steps = 0
    for _ in range(150):
        n = int(rng.integers(2, 7))
        q = random_quiver(rng, n, int(rng.integers(1, 4)))
        fq, rows, green = frame(q), _frame_rows(q), (1 << n) - 1
        for _ in range(3 * n):
            greens = fq.green_vertices()
            if not greens:
                break
            k = int(rng.choice(greens))
            try:
                fq = mutate_framed(fq, k)
            except QuiverError:
                assert _mutate_rows(rows, green, k - 1, n) is None
                break
            rows, green = _mutate_rows(rows, green, k - 1, n)
            _assert_same_state(rows, green, fq)
            steps += 1
    assert steps > 1000


def test_kernel_and_mutate_framed_both_refuse_a_cap_hit():
    fq, rows = frame(CAP_PATH), _frame_rows(CAP_PATH)
    with pytest.raises(QuiverError):
        mutate_framed(fq, 2)
    assert _mutate_rows(rows, 0b111, 1, 3) is None
    # the other two steps stay within the cap, on both sides
    for k in (1, 3):
        child, green = _mutate_rows(rows, 0b111, k - 1, 3)
        _assert_same_state(child, green, mutate_framed(fq, k))


@pytest.mark.parametrize(
    "c_other",
    [
        (0, -1),  # becomes (1, -1): neither green nor red
        (-1, 0),  # becomes (0, 0): no c-vector at all
    ],
)
def test_kernel_rejects_a_state_that_loses_sign_coherence(c_other):
    # not reachable from a frame: vertex 2 is red with c-row c_other and
    # has one arrow from 1, whose c-row is (1, 0); mutating at 1 adds
    # (1, 0) to c_other
    rows = ((0, -1, 1, 0), (1, 0) + c_other)
    with pytest.raises(InternalInvariantError, match="neither green nor red"):
        _mutate_rows(rows, 0b01, 0, 2)


def test_replay_certifies_every_search_result_without_the_search_kernel(
    monkeypatch,
):
    found = []
    for name in catalog.names():
        q = catalog.get(name).quiver
        res = search_mgs(q, max_states=3000)
        if res.found:
            found.append((name, q, res.certificate))
    assert len(found) >= 10

    def refuse(rows, k):
        raise AssertionError("the search kernel ran")

    monkeypatch.setattr(core, "_mutate_int", refuse)
    monkeypatch.setattr(green, "_mutate_int", refuse)
    with pytest.raises(AssertionError, match="the search kernel ran"):
        search_mgs(catalog.get("K4").quiver)
    for name, q, cert in found:
        assert verify_mgs(q, cert.sequence) == cert, name


def _assert_matches_reference(q, **kwargs):
    # the package search builds only the states its bound admits, a subset
    # of what the reference builds
    res = search_mgs(q, **kwargs)
    ref = search_mgs_reference(q, **kwargs)
    if ref.status == "budget" and res.status != "budget":
        # the reference spent the shared state budget on children the
        # bound drops; without it, it must reach the same outcome
        ref = search_mgs_reference(q, **{**kwargs, "max_states": None})
    assert (res.status, res.certificate) == (ref.status, ref.certificate), (
        q.arrows(),
        kwargs,
    )
    assert res.states <= ref.states, (q.arrows(), kwargs)
    # no MGS takes a step at the head of a multiple arrow, so the search
    # that skips those steps agrees with the one that takes them, unless
    # the latter runs out of budget on the extra branches
    full = search_mgs_reference(q, **kwargs, prune=False)
    if full.status != "budget":
        assert (full.status, full.certificate) == (res.status, res.certificate), (
            q.arrows(),
            kwargs,
        )
    return res


def test_search_matches_reference_on_random_quivers():
    rng = np.random.default_rng(313)
    statuses = set()
    for _ in range(200):
        n = int(rng.integers(2, 7))
        q = random_quiver(rng, n, int(rng.integers(0, 4)))
        res = _assert_matches_reference(q, max_states=300)
        statuses.add(res.status)
    assert statuses == {"found", "exhausted", "budget"}


def test_search_matches_reference_on_the_catalog():
    for name in catalog.names():
        q = catalog.get(name).quiver
        _assert_matches_reference(q, max_states=400)


def test_search_matches_reference_at_every_max_len():
    # the normal form and the prediction change only which states are
    # built: at the default max_len and around the rank
    rng = np.random.default_rng(1717)
    statuses = set()
    for _ in range(300):
        n = int(rng.integers(2, 7))
        q = random_quiver(rng, n, int(rng.integers(0, 4)))
        for max_len in (None, n - 1, n, n + 1):
            res = _assert_matches_reference(q, max_len=max_len, max_states=300)
            statuses.add(res.status)
    assert statuses == {"found", "exhausted", "budget"}


def test_search_matches_reference_above_the_safe_entry():
    # entries above isqrt(MULT_CAP): such states take every step, predict
    # nothing and build their children at once, so cap hits show as before.
    # Only multiple arrows are scaled: a step at the head of one is never
    # taken, so the steps that can reach the cap are at heads of single
    # arrows only, and 2**29 lets two scaled entries add up beyond it
    rng = np.random.default_rng(4099)
    statuses = set()
    for _ in range(40):
        n = int(rng.integers(2, 5))
        scale = int(rng.choice([20_000, 46_341, 70_000, 2**16, 2**29]))
        rows = random_quiver(rng, n, 3).rows
        q = Quiver([[scale * x if abs(x) > 1 else x for x in row] for row in rows])
        for max_len in (None, n, n + 2):
            res = _assert_matches_reference(q, max_len=max_len, max_states=300)
            statuses.add(res.status)
    assert statuses == {"found", "exhausted", "budget"}


def test_a_wrong_green_prediction_raises(monkeypatch):
    calls = []

    def all_red(rows, green, k, n):
        calls.append(k)
        return 0

    monkeypatch.setattr(green, "_predict_green", all_red)
    with pytest.raises(InternalInvariantError, match="predicted"):
        search_mgs(catalog.get("K4").quiver)
    assert calls


def test_search_states_do_not_depend_on_vertex_labels():
    # the states built are those within the bound, a set that relabelling
    # maps onto itself; the order of the normal form does depend on labels
    rng = np.random.default_rng(29)
    quivers = [catalog.get(name).quiver for name in ("K4", "Z6", "W5", "Theta_6")]
    for _ in range(60):
        n = int(rng.integers(2, 7))
        quivers.append(random_quiver(rng, n, int(rng.integers(1, 4))))
    for q in quivers:
        res = search_mgs(q, max_states=5000)
        for _ in range(3):
            sigma = [int(v) + 1 for v in rng.permutation(q.n)]
            other = search_mgs(core.relabel(q, sigma), max_states=5000)
            assert (other.status, other.states) == (res.status, res.states), (
                q.arrows(),
                sigma,
            )


def test_search_hits_the_state_budget_at_the_same_count():
    # the budget caps the search's own count: it finds the reference's
    # certificate exactly when the budget covers every state it builds
    for q in (catalog.get("K4").quiver, catalog.get("Theta_5").quiver):
        total = search_mgs(q).states
        cert = search_mgs_reference(q).certificate
        budgets = (1, 2, 3, total // 3, total // 2, total - 1, total, total + 1)
        for max_states in budgets:
            res = search_mgs(q, max_states=max_states)
            assert res.found == (max_states >= total), max_states
            if res.found:
                assert (res.certificate, res.states) == (cert, total)
            else:
                assert res.states == max_states + 1


def test_a_cap_hit_turns_exhausted_into_budget():
    # max_len 2 is below the rank, so nothing can be found; vertex 2 heads
    # a single arrow, and its step is refused by the cap (it would add
    # MULT_CAP arrows from 1 to 3 to the MULT_CAP already there), so the
    # search may not claim "exhausted"
    q = Quiver.from_arrows(3, [(1, 2, 1), (2, 3, MULT_CAP), (1, 3, MULT_CAP)])
    res = _assert_matches_reference(q, max_len=2)
    assert res.status == "budget"
    # on CAP_PATH the step that hits the cap is never tried (2 heads a
    # multiple arrow)
    res = _assert_matches_reference(CAP_PATH, max_len=2)
    assert res.status == "exhausted"


def test_no_edge_is_built_twice(monkeypatch):
    # each state is expanded once, so each of its steps is built once
    built = []
    mutate_rows = green._mutate_rows

    def counting(rows, green_bits, k, n):
        built.append((rows, k))
        return mutate_rows(rows, green_bits, k, n)

    monkeypatch.setattr(green, "_mutate_rows", counting)
    rng = np.random.default_rng(83)
    quivers = [catalog.get(name).quiver for name in catalog.names()]
    for _ in range(100):
        n = int(rng.integers(2, 7))
        quivers.append(random_quiver(rng, n, int(rng.integers(0, 4))))
    total = 0
    for q in quivers:
        built.clear()
        search_mgs(q, max_states=3000)
        assert len(set(built)) == len(built), q.arrows()
        total += len(built)
    assert total > 10_000


@pytest.mark.parametrize(
    "name, states, sequence",
    [
        ("K4", 39, (1, 2, 3, 4, 2)),
        ("Z6", 286, (3, 1, 2, 4, 5, 6, 3)),
        ("W5", 321, (1, 3, 2, 4, 5, 1, 3)),
        ("W5p", 341, (1, 2, 4, 5, 1, 3, 4)),
        ("Theta_5", 109, (2, 1, 3, 4, 5, 2)),
        ("Theta_6", 280, (2, 1, 3, 4, 5, 6, 2)),
        ("Theta_7", 673, (2, 1, 3, 4, 5, 6, 7, 2)),
        ("Theta_8", 1552, (2, 1, 3, 4, 5, 6, 7, 8, 2)),
    ],
)
def test_search_counters_pinned(name, states, sequence):
    # deterministic counters: more states means more work, another
    # sequence means a changed tie-break
    res = search_mgs(catalog.get(name).quiver)
    assert res.found
    assert res.states == states
    assert res.certificate.sequence == sequence


def test_search_markov_pinned():
    # every vertex heads a double arrow, so nothing is expanded
    res = search_mgs(make_rank3(2, 2, 2))
    assert (res.status, res.states) == ("exhausted", 1)


@pytest.mark.parametrize("budget", ["max_len", "max_states"])
@pytest.mark.parametrize("value", [0, -1, 1.5, True])
def test_search_rejects_bad_budgets(budget, value):
    with pytest.raises(QuiverError, match=budget):
        search_mgs(catalog.get("K4").quiver, **{budget: value})
