"""Canonical forms and isomorphism testing for quivers.

Two quivers get the same key iff they differ by a vertex relabelling only;
arrow reversal is deliberately not folded in, so a quiver and its opposite
usually get distinct keys.

The canonical form of an ``n x n`` exchange matrix is the minimum, over all
vertex orderings, of the matrix read in "growing principal submatrix" order:
when vertex number ``k`` is appended, the newly determined entries are
``b[p0][pk], ..., b[p(k-1)][pk]`` followed by ``b[pk][p0], ..., b[pk][p(k-1)]``.
The minimising search extends partial orderings level by level, keeping every
partial that still achieves the minimum and deduplicating partials whose
remaining cross profiles are entry-wise identical.  Each unused vertex's
partial column is one integer: the entries shifted by ``max |b_ij|`` are its
digits, so appending an entry is one multiply-add and, on columns of one
length, integer order is the lexicographic one.  Every vertex ties at the
first level, so the search starts from the ordered pairs holding the least
entry.  The dedup only merges partials that use the same vertex set, so it
turns the factorial search into one over vertex subsets: on a highly
symmetric quiver it still visits about 2^n partials (the arrowless quiver on
12 vertices, the cap, takes about 0.05 s on a 2-vCPU machine), while a
quiver with few symmetries keeps only a handful per level.

Deciding whether two given quivers are isomorphic needs no canonical form.
``are_isomorphic`` and ``ClassIndex`` match one quiver onto another after one
round of colour refinement, the first step of McKay and Piperno, "Practical
graph isomorphism II" (J. Symbolic Comput. 2014): a vertex's colour combines
its sorted row with its neighbours' sorted rows, weighted by the arrows to
them.  Vertices whose colour is unique are mapped directly; the rest are
matched by backtracking within their colour classes.  Every map is checked
entry by entry before it is returned, so no answer rests on the colouring.
``are_isomorphic`` computes a quiver's sorted degrees and colour classes
once and keeps them in the quiver's ``_iso`` slot, next to the canonical
form in ``_canon``, so a catalog quiver that many inputs are matched against
pays for them once per process.  The exchange-graph walk keeps one
``ClassIndex`` of every class it has reached and canonicalises a quiver
only when it matches none of them, that is, only once per class.  The index
remembers each row's degree for its own lifetime, since a child shares with
its parent every row not adjacent to the mutated vertex; the walk hands
``add`` the degrees ``find`` computed, so a new class's rows are not hashed
again.  Apart from those two slots and the index, the module keeps no cache.
"""

from __future__ import annotations

import hashlib
from array import array
from dataclasses import dataclass
from itertools import chain
from operator import mul
from typing import Optional

from .core import Quiver, _take
from .errors import CapabilityError

MAX_CANONICAL_N = 12
SHORT_KEY_LENGTH = 12  # hex digits of ``CanonicalKey.short``


@dataclass(frozen=True)
class CanonicalKey:
    """Serialized canonical matrix; equal keys iff isomorphic quivers."""

    data: bytes

    def hex(self) -> str:
        return self.data.hex()

    def short(self) -> str:
        """Digest prefix for labels and graph exports.  A plain prefix of the
        serialization would collide (every key of the same rank starts with
        the same bytes), so hash first."""
        return hashlib.sha256(self.data).hexdigest()[:SHORT_KEY_LENGTH]

    def __lt__(self, other: "CanonicalKey") -> bool:
        return self.data < other.data


def _canonical_order(q: Quiver) -> tuple[int, ...]:
    """A vertex ordering (0-indexed) realising the minimal matrix."""
    b = q.rows
    n = q.n
    if n == 1:
        return (0,)
    # A partial ordering p carries cols[w], the column b[x][w] for x in p
    # read as one integer, for every unused vertex w, and None for the used
    # ones; extending p by v appends b[v][w] to each unused column.  Entries
    # shifted by peak = max |b_ij| are digits in base 2 * peak + 1, so
    # appending is code * base + digit, and on columns of one length (all
    # columns of a level) integer order is lexicographic order.  This relies
    # on ``Quiver`` enforcing skew-symmetry: the row half b[v][x] of an
    # extension is the negation of its column half, so comparing extensions
    # by v is comparing cols[v], and two partials with the same cols (hence
    # the same used set) have the same future entries, so cols is the dedup
    # profile.  At level 1 every vertex ties, so the search starts from the
    # ordered pairs (i, j), i != j, whose entry b[i][j] is the least one.
    least = min(map(min, b))
    base = 1 - 2 * least  # skew-symmetry: peak = -least
    digits = [[x - least for x in row] for row in b]
    extended = [
        ((i,), [None if w == i else d for w, d in enumerate(digits[i])], j)
        for i, row in enumerate(b)
        for j, x in enumerate(row)
        if x == least and j != i  # the diagonal holds it too when b = 0
    ]
    for _ in range(2, n):
        # dedup partials whose future extension entries must coincide,
        # keeping the first one seen
        seen = {}
        for p, cols, v in extended:
            grown = [
                None if col is None else col * base + x
                for col, x in zip(cols, digits[v])
            ]
            grown[v] = None
            grown = tuple(grown)
            if grown not in seen:
                seen[grown] = p + (v,)
        best = None
        extended = []
        for cols, p in seen.items():
            for v, col in enumerate(cols):
                if col is None:
                    continue
                if best is None or col < best:
                    best = col
                    extended = [(p, cols, v)]
                elif col == best:
                    extended.append((p, cols, v))
    p, _, v = extended[0]
    return p + (v,)


def canonical_form(q: Quiver) -> tuple[CanonicalKey, tuple[int, ...]]:
    """Canonical key plus a witnessing relabelling.

    The returned permutation ``sigma`` (1-indexed, ``sigma[i-1]`` = new label
    of vertex ``i``) satisfies: relabelling ``q`` by ``sigma`` yields the
    canonical matrix.
    """
    if q.n > MAX_CANONICAL_N:
        raise CapabilityError(
            f"canonical form supported up to {MAX_CANONICAL_N} vertices, got {q.n}"
        )
    if q._canon is not None:
        return q._canon
    order = _canonical_order(q)
    # the canonical matrix as native int64 bytes (array "q"), the same bytes
    # as numpy's int64 tobytes
    m = array("q", chain.from_iterable(_take(q.rows, order)))
    key = CanonicalKey(q.n.to_bytes(2, "big") + m.tobytes())
    sigma = [0] * q.n
    for new0, old0 in enumerate(order):
        sigma[old0] = new0 + 1
    result = (key, tuple(sigma))
    q._canon = result
    return result


def canonical_key(q: Quiver) -> CanonicalKey:
    return canonical_form(q)[0]


_DEGREE_MASK = (1 << 28) - 1


def _degrees(rows, memo=None) -> list[int]:
    """A hash of each vertex's sorted row, its arrow multiset signed by
    direction, cut to 28 bits so that the weighted sums of ``_colours``
    stay small ints; a collision only merges colours, as any hash collision
    does.  ``memo`` maps rows to their degree and gains the rows it lacks."""
    if memo is None:
        memo = {}
    degrees = []
    for row in rows:
        degree = memo.get(row)
        if degree is None:
            degree = memo[row] = hash(tuple(sorted(row))) & _DEGREE_MASK
        degrees.append(degree)
    return degrees


def _colours(rows, degrees) -> list[int]:
    """One round of colour refinement on top of ``degrees``: a vertex's
    colour adds the sum of ``b_ij * degrees[j]`` over its neighbours ``j``.
    An isomorphism maps each vertex to one of the same colour.  Colours that
    coincide without that, by a hash collision or because two neighbourhoods
    have the same weighted sum, only make a larger class for the
    backtracking; the sum is cheaper than sorting each neighbourhood."""
    return [hash((d, sum(map(mul, row, degrees)))) for d, row in zip(degrees, rows)]


def _classes(colours) -> dict:
    """Colour -> the vertices (0-based, ascending) of that colour."""
    classes: dict = {}
    for v, colour in enumerate(colours):
        classes.setdefault(colour, []).append(v)
    return classes


def _isomorphism(rows, classes, target_rows, target_classes):
    """A permutation ``sigma`` (1-indexed) with ``relabel(q, sigma)`` equal to
    the target, where ``rows`` and ``classes`` are ``q``'s matrix and colour
    classes and ``target_rows`` and ``target_classes`` the target's; or None
    when the two are not isomorphic."""
    if len(classes) != len(target_classes):
        return None
    n = len(rows)
    image: list = [None] * n
    todo = []  # (vertex, candidate images) for colours shared by several vertices
    for colour, vs in classes.items():
        ws = target_classes.get(colour)
        if ws is None or len(ws) != len(vs):
            return None
        if len(vs) == 1:
            image[vs[0]] = ws[0]
        else:
            todo.extend((v, ws) for v in vs)
    if todo and not _backtrack(rows, target_rows, image, _adjacent_first(rows, todo)):
        return None
    inverse = [0] * n
    for v, w in enumerate(image):
        inverse[w] = v
    if _take(rows, inverse) != target_rows:
        return None
    return tuple(w + 1 for w in image)


def _adjacent_first(rows, todo):
    """``todo`` reordered breadth-first, so that each vertex but the first
    of its component comes after a neighbour: a wrong image is then refuted
    as soon as one neighbour is placed."""
    rest = dict(todo)
    ordered = []
    for start, _ in todo:
        if start not in rest:
            continue
        i = len(ordered)
        ordered.append((start, rest.pop(start)))
        while i < len(ordered):
            row = rows[ordered[i][0]]
            i += 1
            for u in [u for u in rest if row[u]]:
                ordered.append((u, rest.pop(u)))
    return ordered


def _backtrack(rows, target_rows, image, todo) -> bool:
    """Extend ``image`` to the vertices of ``todo`` so that every entry
    between a newly placed vertex and any placed vertex agrees with the
    target (skew-symmetry covers the transposed entry).  Entries between
    the vertices placed beforehand are left to the caller's check."""
    placed = [v for v, w in enumerate(image) if w is not None]
    used = set(image[v] for v in placed)

    def place(i: int) -> bool:
        if i == len(todo):
            return True
        v, ws = todo[i]
        row = rows[v]
        for w in ws:
            if w in used:
                continue
            trow = target_rows[w]
            for u in placed:
                if row[u] != trow[image[u]]:
                    break
            else:
                image[v] = w
                used.add(w)
                placed.append(v)
                if place(i + 1):
                    return True
                placed.pop()
                used.discard(w)
        image[v] = None
        return False

    return place(0)


class ClassIndex:
    """Isomorphism classes, each held by a representative and an opaque
    value (a key, or the exchange walk's node) and bucketed by the multiset
    of its sorted rows, so that a quiver in one of them gets that class's
    value and a verified witness without a canonical form."""

    def __init__(self):
        self._buckets: dict[tuple, list] = {}
        # row -> degree for the life of the index: a mutation keeps every
        # row not adjacent to its vertex, and equal rows recur in a class
        self._degree: dict[tuple, int] = {}

    def degrees(self, q: Quiver) -> list[int]:
        """The row degrees of ``q`` that ``find`` and ``add`` take."""
        return _degrees(q.rows, self._degree)

    def add(self, value, rep: Quiver, degrees: Optional[list[int]] = None) -> None:
        """Hold the class of ``rep`` with ``value``.  ``degrees`` are the
        row degrees of ``rep``, if the caller has them already: those of a
        quiver that ``rep`` relabels, permuted the same way."""
        if degrees is None:
            degrees = self.degrees(rep)
        # the colour classes are computed when a quiver first lands in the
        # bucket, since many held classes are never matched
        entry = [value, rep.rows, degrees, None]
        self._buckets.setdefault(tuple(sorted(degrees)), []).append(entry)

    def find(
        self, q: Quiver, degrees: Optional[list[int]] = None
    ) -> Optional[tuple[object, tuple[int, ...]]]:
        """``(value, sigma)`` for the class of ``q`` with ``relabel(q, sigma)``
        equal to its representative, or None if no held class matches.
        ``degrees`` are the row degrees of ``q``, if the caller has them."""
        if degrees is None:
            degrees = self.degrees(q)
        bucket = self._buckets.get(tuple(sorted(degrees)))
        if bucket is None:
            return None
        classes = _classes(_colours(q.rows, degrees))
        for entry in bucket:
            value, rows, rep_degrees, target_classes = entry
            if target_classes is None:
                target_classes = entry[3] = _classes(_colours(rows, rep_degrees))
            sigma = _isomorphism(q.rows, classes, rows, target_classes)
            if sigma is not None:
                return value, sigma
        return None


def _invariants(q: Quiver) -> tuple[list[int], dict]:
    """``q``'s sorted row degrees and colour classes, computed on the first
    call and kept in ``q._iso``."""
    if q._iso is None:
        degrees = _degrees(q.rows)
        q._iso = (sorted(degrees), _classes(_colours(q.rows, degrees)))
    return q._iso


def are_isomorphic(q1: Quiver, q2: Quiver) -> Optional[tuple[int, ...]]:
    """A permutation ``sigma`` with ``b2[s(i)][s(j)] = b1[i][j]``, or None.

    Supported up to the canonical-form cap of 12 vertices.
    """
    if q1.n != q2.n:
        return None
    if q1.n > MAX_CANONICAL_N:
        raise CapabilityError(
            f"isomorphism test supported up to {MAX_CANONICAL_N} vertices, got {q1.n}"
        )
    degrees1, classes1 = _invariants(q1)
    degrees2, classes2 = _invariants(q2)
    if degrees1 != degrees2:
        return None
    return _isomorphism(q1.rows, classes1, q2.rows, classes2)
