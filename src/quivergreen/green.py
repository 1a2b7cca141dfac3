"""Framed quivers, green-sequence replay and verification, and all the
constructive builders of maximal green sequences (MGS).

A framed quiver doubles the vertex set: mutable vertices ``1..n`` plus one
frozen copy ``i'`` of each, with an initial arrow ``i -> i'``.  After any run
of mutations at mutable vertices every mutable vertex is green (no arrows
arriving from frozen vertices) or red (no arrows leaving towards frozen
vertices), never both or neither; the engine asserts this at every state.

Everything here runs on plain Python ints.  The shortest-MGS search
(:func:`search_mgs`) is one best-first pass over framed states ordered by
depth plus green count; it mutates framed rows with the kernel
``core._mutate_int``.  The replay that verifies every MGS (:func:`check_mgs`)
is a second implementation of mutation, so it checks the search
independently: one textbook step, :func:`_framed_step`, changes the framed
rows in place, held as lists, and re-checks every row it changes for
sign-coherence.  :func:`mutate_framed` takes the same step on a copy.

Builders never trust the theorems that motivate them: every certificate they
return has been replayed and re-verified before it leaves this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from heapq import heappop, heappush
from math import isqrt
from typing import Optional

from .core import (
    DirectSumDecomposition,
    MULT_CAP,
    Quiver,
    Rank3Params,
    _int_rows,
    _least_topological_order,
    _mutate_int,
    _require_budget,
    _require_int,
    _take,
    induced_subquiver,
    mutate,
)
from .errors import CertificateError, InternalInvariantError, QuiverError

DEFAULT_MAX_STATES = 10**6


def default_max_len(n: int) -> int:
    return 2 * n + 4


def _green_flag(c, i: int) -> bool:
    """True if the c-row ``c`` of vertex ``i + 1`` is green, False if it is
    red; raise if it is neither (mixed signs, or all zero)."""
    lo, hi = min(c), max(c)
    if (lo >= 0) == (hi <= 0):
        raise InternalInvariantError(
            f"vertex {i + 1} is neither green nor red; framed state corrupt"
        )
    return lo >= 0


class FramedQuiver:
    """Immutable framed-quiver state over mutable vertices ``1..n`` and
    frozen vertices ``n+1..2n``, held as the top ``n`` rows ``B | C`` of its
    ``2n x 2n`` skew-symmetric matrix: tuples of ``2n`` plain ints.  They
    fix the whole matrix, whose bottom rows are ``-C^T | 0``.  The
    constructor raises ``QuiverError`` unless there is a row, every entry
    is an integer within the multiplicity cap and ``B`` is skew-symmetric."""

    __slots__ = ("rows", "n", "_green")

    def __init__(self, rows):
        # the checks of ``Quiver``, on rows of 2n entries
        self.rows = rows = _int_rows(rows, 2)
        self.n = n = len(rows)
        # raises unless every mutable vertex is green or red
        self._green = tuple(_green_flag(row[n:], i) for i, row in enumerate(rows))

    def mutable_block(self) -> Quiver:
        # the constructor checked it: skew-symmetric and within the cap
        return Quiver._trusted(tuple(row[: self.n] for row in self.rows))

    def c_block(self) -> tuple[tuple[int, ...], ...]:
        return tuple(row[self.n :] for row in self.rows)

    def green_mask(self) -> tuple[bool, ...]:
        """Green flag of each vertex, computed once by the sign-coherence
        check."""
        return self._green

    def green_vertices(self) -> tuple[int, ...]:
        return tuple(i for i, g in enumerate(self._green, start=1) if g)

    def all_red(self) -> bool:
        return not any(self._green)

    def __eq__(self, other):
        return isinstance(other, FramedQuiver) and self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __repr__(self):
        greens = ",".join(map(str, self.green_vertices()))
        return f"FramedQuiver(n={self.n}, green=[{greens}])"


def _frame_rows(q: Quiver) -> tuple[tuple[int, ...], ...]:
    """Top ``n`` rows ``B | C`` of the initial framed matrix: ``q``'s rows
    followed by the identity."""
    n = q.n
    # identity row i is the width-n window of ``unit`` that starts i places
    # before its 1
    unit = (0,) * (n - 1) + (1,) + (0,) * (n - 1)
    return tuple(row + unit[n - 1 - i : 2 * n - 1 - i] for i, row in enumerate(q.rows))


def frame(q: Quiver) -> FramedQuiver:
    """Initial framed state: mutable block ``q.rows``, one arrow ``i -> i'``
    per vertex, everything green."""
    return FramedQuiver(_frame_rows(q))


def _framed_step(rows, kk: int, n: int, green) -> None:
    """Mutate the framed rows ``rows`` (``n`` lists of ``2n`` ints, changed
    in place) at mutable vertex ``kk`` (0-based), and update the green flags
    ``green`` (a list of bools) of the rows that change.

    Each entry follows the textbook rule: ``b'_ij = -b_ij`` when ``i`` or
    ``j`` is ``k``, else ``b_ij + (|b_ik| b_kj + b_ik |b_kj|) / 2``.  The
    term vanishes where ``b_ik = 0`` or ``b_kj = 0``, so row ``k`` is
    negated, a row with ``b_ik != 0`` changes only at ``k`` and where row
    ``k`` is nonzero, and every other row is left alone; arrows between
    frozen vertices are never held, matching ice-quiver mutation.  A changed
    entry beyond the multiplicity cap raises (divergent quivers square their
    multiplicities every round, so this triggers in finite depth).  Every
    changed row is checked for sign-coherence; a row left alone is the row
    checked before and keeps its verdict, so every state is checked in full.
    """
    pivot = [(j, y, abs(y)) for j, y in enumerate(rows[kk]) if y]
    changed = []
    for i, row in enumerate(rows):
        b = row[kk]
        if i == kk:
            for j, y, _ in pivot:
                row[j] = -y
        elif b:
            a = abs(b)
            for j, y, m in pivot:
                x = row[j] + (a * y + b * m) // 2
                if x > MULT_CAP or x < -MULT_CAP:
                    raise QuiverError(
                        f"framed mutation at {kk + 1} overflows the multiplicity cap"
                    )
                row[j] = x
            row[kk] = -b
        else:
            continue
        changed.append(i)
    # after the whole step, so a cap hit anywhere in it is reported first
    for i in changed:
        green[i] = _green_flag(rows[i][n:], i)


def mutate_framed(fq: FramedQuiver, k: int) -> FramedQuiver:
    """Mutate the framed state at mutable vertex ``k`` by
    :func:`_framed_step` on a copy of its rows; arrows created between
    frozen vertices are deleted, matching ice-quiver mutation.  A step that
    would exceed the multiplicity cap raises."""
    n = fq.n
    k = _require_int(k, "vertex")
    if not (1 <= k <= n):
        raise QuiverError(f"vertex {k} outside mutable range 1..{n}")
    rows = [list(row) for row in fq.rows]
    _framed_step(rows, k - 1, n, list(fq.green_mask()))
    return FramedQuiver(rows)


GREEN = "green"
RED = "red"


def vertex_status(fq: FramedQuiver, i: int) -> str:
    """``green`` or ``red``; anything else would falsify sign-coherence and
    raises from inside the framed-state constructor."""
    i = _require_int(i, "vertex")
    if not (1 <= i <= fq.n):
        raise QuiverError(f"vertex {i} outside mutable range 1..{fq.n}")
    return GREEN if fq.green_mask()[i - 1] else RED


@dataclass(frozen=True)
class ReplayStatus:
    """Outcome of replaying a vertex sequence by green mutations."""

    ok: bool
    step: Optional[int] = None  # 1-based index of the offending step
    vertex: Optional[int] = None
    reason: str = ""


def _replay(q: Quiver, seq):
    """Replay ``seq`` on the framed rows of ``q``, held as lists and changed
    in place by :func:`_framed_step`, stopping at the first mutation of a
    non-green vertex.  Returns ``(rows, green flags, status)``; each entry
    is checked once, when its step is reached."""
    n = q.n
    rows = [list(row) for row in _frame_rows(q)]
    green = [True] * n  # the frame's c-rows are the unit vectors
    for idx, k in enumerate(seq, start=1):
        if type(k) is not int:
            k = _require_int(k, f"vertex at step {idx}")
        if not (1 <= k <= n):
            raise QuiverError(f"vertex {k} outside 1..{n} at step {idx}")
        if not green[k - 1]:
            return rows, green, ReplayStatus(
                False, idx, k, f"vertex {k} is red at step {idx}"
            )
        _framed_step(rows, k - 1, n, green)
    return rows, green, ReplayStatus(True)


def apply_green_sequence(q: Quiver, seq) -> tuple[FramedQuiver, ReplayStatus]:
    """Replay ``seq`` on the framed quiver of ``q``, stopping at the first
    mutation of a non-green vertex.  Returns the state reached."""
    rows, _, status = _replay(q, seq)
    return FramedQuiver(rows), status


@dataclass(frozen=True)
class MgsCertificate:
    """A verified maximal green sequence with its induced vertex permutation.

    ``permutation[i-1]`` is the image of vertex ``i``; relabelling the final
    mutable block by it recovers the starting quiver exactly.
    """

    sequence: tuple[int, ...]
    permutation: tuple[int, ...]

    def to_json(self) -> dict:
        return {
            "sequence": list(self.sequence),
            "permutation": list(self.permutation),
        }

    def as_tuple_text(self) -> str:
        return "(" + ", ".join(map(str, self.sequence)) + ")"


def _extract_permutation(rows, n: int) -> Optional[tuple[int, ...]]:
    """Read the induced permutation off the final c-block of the framed rows
    ``rows``, which for a completed MGS must be minus a permutation matrix.

    Row ``i`` holds its -1 in column ``sigma(i)``; with this reading,
    relabelling the final mutable block by ``sigma`` recovers the starting
    quiver (the column reading would give the inverse map).
    """
    sigma = []
    for row in rows:
        c = row[n:]
        if c.count(-1) != 1 or c.count(0) != n - 1:
            return None
        sigma.append(c.index(-1) + 1)
    if sorted(sigma) != list(range(1, n + 1)):
        return None
    return tuple(sigma)


def check_mgs(q: Quiver, seq) -> tuple[Optional[MgsCertificate], str]:
    """Verify ``seq`` as an MGS of ``q``; returns (certificate, "") on success
    or (None, diagnostic reason).

    The sequence is replayed by :func:`_replay`, and the all-red test, the
    induced permutation and the map back onto ``q`` are read off the final
    framed rows."""
    seq = tuple(seq)
    if not seq:
        return None, "empty sequence cannot end all-red"
    rows, green, status = _replay(q, seq)
    if not status.ok:
        return None, status.reason
    if any(green):
        greens = tuple(i for i, g in enumerate(green, start=1) if g)
        return None, f"sequence ends with green vertices {greens}"
    n = q.n
    sigma = _extract_permutation(rows, n)
    if sigma is None:
        return None, "final frozen block is not minus a permutation matrix"
    # relabelling the final block by sigma must give back the input
    back = _take(q.rows, [s - 1 for s in sigma])
    if any(tuple(row[:n]) != b_row for row, b_row in zip(rows, back)):
        return None, "induced permutation does not map the result back"
    # the replay took every entry as an integer; store them as plain ints
    return MgsCertificate(tuple(map(int, seq)), sigma), ""


def verify_mgs(q: Quiver, seq) -> Optional[MgsCertificate]:
    """Certificate iff ``seq`` is a maximal green sequence of ``q``."""
    cert, _ = check_mgs(q, seq)
    return cert


@dataclass(frozen=True)
class SearchResult:
    """Outcome of :func:`search_mgs`: "found" with the certificate of a
    shortest MGS, "exhausted" when no MGS within ``max_len`` exists, or
    "budget" when the state budget or the multiplicity cap cut the search
    short.  ``states`` counts the distinct framed states built; a found
    search stops at the first all-red state it pops."""

    status: str  # "found" | "exhausted" | "budget"
    certificate: Optional[MgsCertificate]
    states: int

    @property
    def found(self) -> bool:
        return self.status == "found"


def _mutate_rows(rows, green: int, k: int, n: int):
    """Mutate the framed rows ``rows`` at mutable vertex ``k`` (0-based);
    ``green`` has bit ``i`` set when vertex ``i+1`` is green.

    Returns ``(child rows, child green bits)``, or None when an entry would
    exceed ``MULT_CAP`` (where the replay raises).  The rows are
    mutated by the integer kernel ``core._mutate_int``, which hands back
    every row it leaves alone as the same object.  Every rebuilt c-row is
    checked for sign-coherence; reused rows keep the parent's verdict, so
    every state the search builds is checked in full.
    """
    out = _mutate_int(rows, k)
    if out is None:
        return None
    bad = -1
    for i, row in enumerate(out):
        if row is rows[i]:
            continue
        c = row[n:]
        lo, hi = min(c), max(c)
        if lo >= 0 and hi > 0:
            green |= 1 << i
        elif hi <= 0 and lo < 0:
            green &= ~(1 << i)
        elif bad < 0:
            bad = i
    if bad >= 0:
        raise InternalInvariantError(
            f"vertex {bad + 1} is neither green nor red; framed state corrupt"
        )
    return out, green


# A state with every entry at most this bound has no child beyond MULT_CAP:
# a changed entry is x + b*y with |x|, |b|, |y| <= r, and r + r*r <= MULT_CAP
_SAFE_ENTRY = isqrt(MULT_CAP)


# rows of B recur across the states of a search and across the searches of
# one run: the 551 searches of a seed-1 psi pass ask 14,327 times for 1,096
# distinct rows
@lru_cache(maxsize=1 << 10)
def _column_masks(b_row: tuple[int, ...]) -> tuple[int, int, bool, int]:
    """What a step at ``k`` reads off row ``k`` of B (``b_row[i] = b_ki =
    -b_ik``): the bits of the vertices adjacent to ``k``, the bits of those
    with ``b_ik > 0`` (the only c-rows the step changes when ``k`` is
    green), whether ``k`` heads a multiple arrow, and ``1 + max|b_ik|``, a
    factor by which the step can at most grow the largest entry."""
    adjacent = gaining = 0
    for i, b in enumerate(b_row):
        if b:
            adjacent |= 1 << i
            if b < 0:
                gaining |= 1 << i
    low = min(b_row)
    return adjacent, gaining, low <= -2, 1 + max(max(b_row), -low)


def _predict_green(rows, green: int, k: int, n: int) -> int:
    """Green bits of the child of framed rows ``rows`` at green vertex ``k``
    (0-based), read off the parent without mutating it.

    ``c_k >= 0`` for a green ``k``, so mutation adds ``b_ik c_k`` to the
    c-row of each ``i`` with ``b_ik > 0`` and leaves every other c-row but
    ``k``'s alone: green rows stay green, row ``k`` turns red, and a red row
    turns green iff ``sum(c_i) + b_ik sum(c_k) > 0``, because the new row is
    sign-coherent (Derksen, Weyman and Zelevinsky, JAMS 2010).
    """
    bits = green & ~(1 << k)
    sum_k = None
    for i, row in enumerate(rows):
        b = row[k]
        if b > 0 and not green >> i & 1:
            if sum_k is None:
                sum_k = sum(rows[k][n:])
            if sum(row[n:]) + b * sum_k > 0:
                bits |= 1 << i
    return bits


def search_mgs(
    q: Quiver,
    max_len: Optional[int] = None,
    max_states: Optional[int] = None,
) -> SearchResult:
    """Search for a shortest MGS (ties: lexicographically least sequence) by
    one best-first pass on the green-count bound.

    A green vertex stays green until it is mutated (sign-coherence of
    c-vectors), so a state at depth ``d`` with ``g`` green vertices lies on
    no MGS shorter than ``d + g``, and one mutation turns at most one green
    vertex red, so ``d + g`` never decreases along a green step.  The search
    pops entries from a heap in increasing order of ``(d + g, d,
    sequence)``: every prefix of a sequence comes before it, so a state's
    first pop has its shortest depth and its lexicographically least
    sequence of that depth, and the state is expanded then and never again.
    The first all-red state popped has ``g = 0``, so it ends a shortest MGS,
    and its sequence is the least of that length.  An entry with ``d + g >
    max_len`` never enters the heap (the root is always expanded), and the
    search ends when the heap is empty.  Mutations at the head of a multiple
    arrow are never expanded; no MGS contains such a step.

    Only sequences in lexicographic normal form are extended (Anisimov and
    Knuth, "Inhomogeneous sorting", 1979).  Each entry carries the set F of
    vertices it may not mutate next: the root has none, and mutating ``k``
    at ``s`` gives ``(F(s) | {i < k}) & {i : b_ik = 0 at s}``.  A step at
    ``i`` in F commutes with every step back to a larger one, and row and
    column ``i`` do not change along the way, so moving it before that step
    reaches the same state, as green, by a smaller sequence: no state's
    least sequence is skipped.  A state with an entry above
    ``isqrt(MULT_CAP)``, where the moved sequence might pass the cap, takes
    every step and passes an empty F on.

    A child is built when its entry is popped, not before: its green bits,
    and so its place in the heap, are predicted from the parent by
    :func:`_predict_green` (a step that can turn no red vertex green only
    turns its own vertex red), and the prediction is checked when the child
    is built.  Every child of a state with an entry above
    ``isqrt(MULT_CAP)`` is built when that state is expanded instead, so
    that every cap hit is seen where the step is first tried.

    The search runs on integer rows: a state is the tuple of the top ``n``
    rows ``B | C`` of its framed matrix, mutated, capped and checked for
    sign-coherence by :func:`_mutate_rows`.  The sequence it returns is
    replayed by :func:`verify_mgs`, whose step :func:`_framed_step` is a
    second plain-int implementation of mutation, before it is reported.

    ``states`` counts the distinct framed states built, each once: the
    children of the entries popped, and the children of states with an
    entry above ``isqrt(MULT_CAP)``.  ``max_states`` caps that count.
    "exhausted" is only claimed when no MGS of length at most ``max_len``
    exists; branches cut off by the multiplicity cap downgrade it to
    "budget".
    """
    n = q.n
    max_len = _require_budget(
        default_max_len(n) if max_len is None else max_len, "max_len"
    )
    max_states = _require_budget(
        DEFAULT_MAX_STATES if max_states is None else max_states, "max_states"
    )

    start = _frame_rows(q)
    # every state built -> its number, in order of construction
    number: dict[tuple, int] = {start: 0}
    expanded: set[int] = set()
    capped = False
    # (depth + green count, depth, sequence, rows, green bits, step, child
    # green bits, F, peak): the child that the 0-based ``step`` builds from
    # the parent ``rows`` with ``green`` bits, or, with step None, the built
    # state ``rows`` itself.  ``peak`` bounds the state's entries: exact at
    # the root, a parent's times its step's growth factor below it, and
    # measured exactly where it passes _SAFE_ENTRY.
    full = (1 << n) - 1
    heap = [(n, 0, (), start, full, None, full, 0, max(1, max(map(max, q.rows))))]
    while heap:
        _, depth, seq, rows, green, k, bits, f, peak = heappop(heap)
        if k is None:
            s = number[rows]
        else:
            # a parent within _SAFE_ENTRY has no child beyond the cap
            rows, green = _mutate_rows(rows, green, k, n)
            if green != bits:
                raise InternalInvariantError(
                    f"step {k + 1} gave green bits {green:b}, predicted {bits:b}"
                )
            s = number.setdefault(rows, len(number))
            if len(number) > max_states:
                return SearchResult("budget", None, len(number))
        if s in expanded:
            continue  # popped before, with a smaller key
        if not green:
            cert = verify_mgs(q, seq)
            if cert is None:
                raise InternalInvariantError(
                    f"search produced sequence {seq} that fails verification"
                )
            return SearchResult("found", cert, len(number))
        expanded.add(s)
        if peak > _SAFE_ENTRY:
            peak = max(max(map(max, rows)), -min(map(min, rows)))
        big = peak > _SAFE_ENTRY
        if big:
            f = 0
        depth += 1
        red = ~green
        for kk in range(n):
            bit = 1 << kk
            if not green & bit or f & bit:
                continue
            adjacent, gaining, heads, grow = _column_masks(rows[kk][:n])
            if heads:
                continue  # head of a multiple arrow
            if big:
                child = _mutate_rows(rows, green, kk, n)
                if child is None:
                    capped = True
                    continue
                crows, cbits = child
                number.setdefault(crows, len(number))
                if len(number) > max_states:
                    return SearchResult("budget", None, len(number))
                entry = (crows, cbits, None, cbits, 0)
            else:
                cbits = (
                    _predict_green(rows, green, kk, n)
                    if gaining & red
                    else green & ~bit
                )
                entry = (rows, green, kk, cbits, (f | (bit - 1)) & ~adjacent)
            need = depth + cbits.bit_count()
            if need <= max_len:
                heappush(heap, (need, depth, seq + (kk + 1,), *entry, peak * grow))
    return SearchResult("budget" if capped else "exhausted", None, len(number))


def acyclic_mgs(q: Quiver) -> MgsCertificate:
    """MGS of an acyclic quiver: the least topological order of its vertices.

    Mutating a source of the whole framed quiver only reverses its arrows,
    and each vertex in this order is such a source when its turn comes, so
    the green vertices are exactly the unmutated ones and the least-index
    source of the green subquiver is the least unmutated vertex without an
    arrow from another unmutated vertex.  The least topological order
    (``core._least_topological_order``, the one Kahn loop of the package)
    picks exactly that vertex at every step, and it lists every vertex
    exactly when ``q`` is acyclic; ``verify_mgs`` replays the result."""
    order = _least_topological_order(q.rows)
    if len(order) < q.n:
        raise QuiverError("acyclic_mgs requires an acyclic quiver")
    seq = [v + 1 for v in order]
    cert = verify_mgs(q, seq)
    if cert is None:
        raise InternalInvariantError(
            f"source-mutation sequence {seq} failed verification"
        )
    return cert


def _require_verified(q: Quiver, cert: MgsCertificate) -> MgsCertificate:
    fresh, reason = check_mgs(q, cert.sequence)
    if fresh is None:
        raise CertificateError(f"certificate does not verify: {reason}")
    if fresh.permutation != cert.permutation:
        raise CertificateError(
            "certificate permutation disagrees with the replayed one"
        )
    return fresh


def rotate_mgs(q: Quiver, cert: MgsCertificate) -> tuple[Quiver, MgsCertificate]:
    """Shift an MGS one step forward along its mutation cycle: the sequence
    with its head removed and ``sigma^-1(head)`` appended is an MGS of the
    once-mutated quiver, with the same induced permutation."""
    cert = _require_verified(q, cert)
    seq, sigma = cert.sequence, cert.permutation
    inv = [0] * len(sigma)
    for i, s in enumerate(sigma):
        inv[s - 1] = i + 1
    head = seq[0]
    new_q = mutate(q, head)
    new_seq = seq[1:] + (inv[head - 1],)
    new_cert = verify_mgs(new_q, new_seq)
    if new_cert is None or new_cert.permutation != sigma:
        raise InternalInvariantError("rotated sequence failed re-verification")
    return new_q, new_cert


def reverse_rotate_mgs(
    q: Quiver, cert: MgsCertificate
) -> tuple[Quiver, MgsCertificate]:
    """Inverse of :func:`rotate_mgs`: prepend ``sigma(last)`` (dropping the
    last entry) to get an MGS of the quiver mutated at that new head."""
    cert = _require_verified(q, cert)
    seq, sigma = cert.sequence, cert.permutation
    new_head = sigma[seq[-1] - 1]
    new_q = mutate(q, new_head)
    new_seq = (new_head,) + seq[:-1]
    new_cert = verify_mgs(new_q, new_seq)
    if new_cert is None or new_cert.permutation != sigma:
        raise InternalInvariantError(
            "reverse-rotated sequence failed re-verification"
        )
    return new_q, new_cert


def direct_sum_mgs(
    q: Quiver,
    decomp: DirectSumDecomposition,
    cert_left: MgsCertificate,
    cert_right: MgsCertificate,
) -> MgsCertificate:
    """MGS of a one-way glued quiver: play the left part's sequence, then the
    right part's, each written in the labels of ``q``."""
    if not decomp.check(q):
        raise CertificateError("decomposition does not match the quiver")
    sub_l, map_l = induced_subquiver(q, decomp.part_left)
    if verify_mgs(sub_l, cert_left.sequence) is None:
        raise CertificateError("left certificate fails on the left part")
    sub_r, map_r = induced_subquiver(q, decomp.part_right)
    if verify_mgs(sub_r, cert_right.sequence) is None:
        raise CertificateError("right certificate fails on the right part")
    seq = tuple(map_l[v - 1] for v in cert_left.sequence) + tuple(
        map_r[v - 1] for v in cert_right.sequence
    )
    cert = verify_mgs(q, seq)
    if cert is None:
        raise CertificateError("concatenated sequence fails on the sum")
    return cert


def kcycle_mgs(
    q: Quiver,
    cycle_info: tuple[tuple[int, ...], int],
    cert_c: MgsCertificate,
) -> MgsCertificate:
    """MGS of a quiver ending in an oriented k-cycle ``v1 -> ... -> vk -> v1``
    whose vertices ``v1..v(k-1)`` are otherwise isolated: walk down the cycle,
    play the core's sequence, then walk back up."""
    cycle, attach = cycle_info
    k = len(cycle)
    if k < 3 or attach != cycle[-1]:
        raise CertificateError("cycle info is malformed")
    core_vertices = sorted(set(range(1, q.n + 1)) - set(cycle[:-1]))
    sub_c, map_c = induced_subquiver(q, core_vertices)
    if verify_mgs(sub_c, cert_c.sequence) is None:
        raise CertificateError("core certificate fails on the core subquiver")
    i_c = tuple(map_c[v - 1] for v in cert_c.sequence)
    down = tuple(reversed(cycle[1 : k - 1]))
    up = tuple(cycle[1 : k - 1])
    seq = down + i_c + (cycle[0],) + up
    cert = verify_mgs(q, seq)
    if cert is None:
        raise CertificateError("cycle-ending sequence fails on the quiver")
    return cert


def rank3_mgs(params: Rank3Params) -> Optional[MgsCertificate]:
    """MGS of the cyclic rank-3 quiver, or None when every multiplicity is at
    least 2 (no MGS exists then).

    With some multiplicity equal to 1 the quiver is relabelled so the single
    arrow is 1 -> 2; then ``(2,1,3,2)`` works when b > c, ``(2,3,1,2)`` when
    c > b, and either when b = c.  Multiplicity 0 degenerates to an acyclic
    quiver, handled by source mutations.
    """
    from .catalog import make_rank3

    a, b, c = params.a, params.b, params.c
    q = make_rank3(a, b, c)
    if min(a, b, c) == 0:
        return acyclic_mgs(q)
    if min(a, b, c) >= 2:
        return None
    # rotate labels so the first parameter is 1: one rotation step sends
    # (a, b, c) to (c, a, b)
    triple = (a, b, c)
    r = 0
    while triple[0] != 1:
        triple = (triple[2], triple[0], triple[1])
        r += 1
    _, bb, cc = triple
    seq_norm = (2, 1, 3, 2) if bb > cc else (2, 3, 1, 2) if cc > bb else (2, 1, 3, 2)
    seq = tuple(((w - 1 - r) % 3) + 1 for w in seq_norm)
    cert = verify_mgs(q, seq)
    if cert is None:
        raise InternalInvariantError(
            f"closed-form rank-3 sequence {seq} failed for {params}"
        )
    return cert
