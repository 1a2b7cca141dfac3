"""The MGS replay, which changes the framed rows in place, against
``oracles.replay_reference``, which builds the full framed matrix of every
state by the textbook rule and checks every row of it: final rows, status,
certificate or reason, and exception type and message must all agree."""

from collections import Counter

import numpy as np
import pytest

from quivergreen import green
from quivergreen.catalog import get, make_theta
from quivergreen.core import Quiver
from quivergreen.errors import InternalInvariantError, QuiverError
from quivergreen.green import apply_green_sequence, check_mgs, frame, mutate_framed

from oracles import (
    check_mgs_reference,
    random_acyclic_quiver,
    random_quiver,
    replay_reference,
)

# a step at an entry of at most isqrt(MULT_CAP) = 46,340 stays within the
# cap, and one more can pass it
NEAR_CAP = (46340, 46341)


def _outcome(fn, q, seq):
    try:
        return fn(q, seq)
    except (QuiverError, InternalInvariantError) as exc:
        return type(exc), str(exc)


def _replay_outcome(q, seq):
    out = _outcome(apply_green_sequence, q, seq)
    if isinstance(out[0], green.FramedQuiver):
        return out[0].rows, out[1]
    return out


def _green_walk(rng, q, length):
    """Up to ``length`` random green steps; a step that overflows the cap
    ends the walk and is kept."""
    fq, seq = frame(q), []
    while len(seq) < length and fq.green_vertices():
        k = int(rng.choice(fq.green_vertices()))
        seq.append(k)
        try:
            fq = mutate_framed(fq, k)
        except QuiverError:
            break
    return seq, fq


def _near_cap_quiver(rng, n):
    b = np.zeros((n, n), dtype=np.int64)
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.6:
                b[i, j] = rng.choice(NEAR_CAP) * rng.choice([1, -1])
                b[j, i] = -b[i, j]
    return Quiver(b.tolist())


def _sequences(rng, q):
    n = q.n
    walk, fq = _green_walk(rng, q, 3 * n + 2)
    yield walk
    yield walk[: int(rng.integers(0, len(walk) + 1))]
    yield ()
    # a red step, then entries that are never reached, so never checked
    reds = [k for k in range(1, n + 1) if k not in fq.green_vertices()]
    if reds:
        yield walk + [int(rng.choice(reds)), "never read", n + 5]
    pos = int(rng.integers(0, len(walk) + 1))
    for bad in (0, n + 1, -1):
        yield walk[:pos] + [bad] + walk[pos:]
    for bad in (True, float(walk[0]) if walk else 1.0, "1", None):
        yield walk[:pos] + [bad] + walk[pos:]
    yield [np.int64(k) for k in walk]


_KINDS = {
    "certificate": None,
    "red step": "is red at step",
    "ends green": "ends with green",
    "empty": "empty sequence",
    "out of range": "outside 1..",
    "not an integer": "must be an integer",
    "cap": "overflows the multiplicity cap",
}


def _kind(outcome):
    if isinstance(outcome[0], green.MgsCertificate):
        return "certificate"
    return next(k for k, text in _KINDS.items() if text and text in outcome[1])


def test_replay_matches_the_full_matrix_reference():
    rng = np.random.default_rng(2210)
    kinds = Counter()
    quivers = 0
    for t in range(336):
        n = 1 + t % 7
        kind = t // 7 % 4
        if kind == 0:
            q = random_acyclic_quiver(rng, n, 2)
        elif kind == 3:
            q = _near_cap_quiver(rng, n)
        else:
            q = random_quiver(rng, n, kind + 1)
        quivers += 1
        for seq in _sequences(rng, q):
            ref = _outcome(replay_reference, q, seq)
            assert _replay_outcome(q, seq) == ref, (q.rows, seq)
            ref_check = _outcome(check_mgs_reference, q, seq)
            assert _outcome(check_mgs, q, seq) == ref_check, (q.rows, seq)
            kinds[_kind(ref_check)] += 1
    assert quivers >= 300
    assert min(kinds[k] for k in _KINDS) >= 50, kinds


@pytest.mark.parametrize(
    "q",
    [get("K4").quiver, make_theta(7), get("Z6").quiver],
    ids=["K4", "Theta_7", "Z6"],
)
def test_replay_matches_the_reference_on_catalog_certificates(q):
    cert = green.search_mgs(q).certificate
    assert check_mgs(q, cert.sequence) == check_mgs_reference(q, cert.sequence)
    assert check_mgs(q, cert.sequence) == (cert, "")


def _corrupt_first_step(target):
    """``_framed_step`` that, on its first call, first puts a -1 into a zero
    c-entry of a green row the step changes, in a column where row ``k``
    is zero: the pivot row ``k`` itself, or a neighbour ``i`` with ``b_ik !=
    0``.  The step cannot repair it, so the row it changes is mixed."""
    original = green._framed_step
    calls = []

    def step(rows, kk, n, flags):
        if not calls:
            if target == "pivot":
                i = kk
            else:
                i = next(
                    i for i, row in enumerate(rows) if i != kk and row[kk] and flags[i]
                )
            j = next(
                j for j in range(n, 2 * n) if rows[i][j] == 0 and rows[kk][j] == 0
            )
            rows[i][j] = -1
            calls.append(i)
        return original(rows, kk, n, flags)

    return step, calls


@pytest.mark.parametrize("target", ["pivot", "neighbour"])
@pytest.mark.parametrize(
    "q", [get("K4").quiver, make_theta(5)], ids=["K4", "Theta_5"]
)
def test_the_changed_row_check_catches_a_corrupt_row(monkeypatch, q, target):
    cert = green.search_mgs(q).certificate
    step, calls = _corrupt_first_step(target)
    monkeypatch.setattr(green, "_framed_step", step)
    with pytest.raises(InternalInvariantError, match="neither green nor red") as exc:
        check_mgs(q, cert.sequence)
    assert f"vertex {calls[0] + 1} " in str(exc.value)
