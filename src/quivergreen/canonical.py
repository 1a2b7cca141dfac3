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
remaining cross profiles are entry-wise identical.  The dedup only merges
partials that use the same vertex set, so it turns the factorial search into
one over vertex subsets: on a highly symmetric quiver it still visits about
2^n partials (the arrowless quiver on 12 vertices, the cap, takes about
0.1 s), while a quiver with few symmetries keeps only a handful per level.
"""

from __future__ import annotations

import hashlib
from array import array
from dataclasses import dataclass
from itertools import chain
from typing import Optional

from .core import Quiver, _take
from .errors import CapabilityError

MAX_CANONICAL_N = 12


@dataclass(frozen=True)
class CanonicalKey:
    """Serialized canonical matrix; equal keys iff isomorphic quivers."""

    data: bytes

    def hex(self) -> str:
        return self.data.hex()

    def short(self, length: int = 12) -> str:
        """Digest prefix for labels and graph exports.  A plain prefix of the
        serialization would collide (every key of the same rank starts with
        the same bytes), so hash first."""
        return hashlib.sha256(self.data).hexdigest()[:length]

    def __lt__(self, other: "CanonicalKey") -> bool:
        return self.data < other.data


def _canonical_order(q: Quiver) -> tuple[int, ...]:
    """A vertex ordering (0-indexed) realising the minimal matrix."""
    b = q.rows
    n = q.n
    # A partial ordering p carries cols[w] = (b[x][w] for x in p) for every
    # unused vertex w, and None for the used ones; extending p by v appends
    # b[v][w] to each unused column.  This relies on ``Quiver`` enforcing
    # skew-symmetry: the row half b[v][x] of an extension is the negation of
    # its column half, so comparing extensions by v is comparing cols[v], and
    # two partials with the same cols (hence the same used set) have the same
    # future entries, so cols is the dedup profile.
    partials: list[tuple[tuple[int, ...], tuple]] = [((), ((),) * n)]
    for _ in range(n):
        best = None
        extended: list[tuple[tuple[int, ...], tuple, int]] = []
        for p, cols in partials:
            for v, col in enumerate(cols):
                if col is None:
                    continue
                if best is None or col < best:
                    best = col
                    extended = [(p, cols, v)]
                elif col == best:
                    extended.append((p, cols, v))
        # dedup partials whose future extension entries must coincide,
        # keeping the first one seen
        seen = {}
        for p, cols, v in extended:
            grown = [
                None if col is None else col + (x,) for col, x in zip(cols, b[v])
            ]
            grown[v] = None
            grown = tuple(grown)
            if grown not in seen:
                seen[grown] = p + (v,)
        partials = [(p, cols) for cols, p in seen.items()]
    return partials[0][0]


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
    # the canonical matrix as native int64 bytes, as numpy's tobytes gives them
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


def are_isomorphic(q1: Quiver, q2: Quiver) -> Optional[tuple[int, ...]]:
    """A permutation ``sigma`` with ``b2[s(i)][s(j)] = b1[i][j]``, or None.

    Built from the two canonical witnesses: if both quivers reduce to the same
    canonical matrix, composing one witness with the inverse of the other
    maps the first quiver onto the second.
    """
    if q1.n != q2.n:
        return None
    key1, s1 = canonical_form(q1)
    key2, s2 = canonical_form(q2)
    if key1 != key2:
        return None
    inv2 = [0] * q2.n
    for i, s in enumerate(s2):
        inv2[s - 1] = i + 1
    return tuple(inv2[s1[i] - 1] for i in range(q1.n))
