"""Exchange-matrix quivers and structural operations.

A quiver here is a finite directed multigraph without loops or 2-cycles,
encoded by a skew-symmetric integer matrix ``b`` where ``b[i][j] > 0`` means
``b[i][j]`` arrows from vertex ``i+1`` to vertex ``j+1``.  All public
operations take and return 1-indexed vertex labels.  The matrix itself is
0-indexed and held as ``Quiver.rows``, a tuple of row tuples of plain Python
ints: mutation, relabelling and every structural scan run on those, with
one integer mutation kernel (``_mutate_int``).  An integer is a Python
``int`` that is not a ``bool``; the package needs nothing beyond Python.
"""

from __future__ import annotations

import heapq
import re
from dataclasses import dataclass
from itertools import combinations
from operator import itemgetter, neg
from typing import Iterable, Iterator, Optional, Sequence

from .errors import CapabilityError, QuiverError

# Multiplicities above this cap abort with an error instead of growing
# without bound; every entry then fits the int64 of the canonical key bytes.
MULT_CAP = 2**31 - 1

# Vertex counts above this cap are rejected before any matrix is built (an
# n x n matrix at the cap holds about a million entries), so an input such
# as {"n": 100000, ...} is an input error instead of ten billion entries.
MAX_VERTICES = 1024

# The direct-sum scan tries every bipartition of the vertices, 2^(n-1) - 1
# of them, so it runs only up to this many vertices.
MAX_DIRECT_SUM_N = 16


def _require_int(x, what: str) -> int:
    """``x`` if it is a Python ``int`` and not a ``bool``.  Anything else,
    including a float, a string or a numpy integer, is rejected rather than
    coerced."""
    if isinstance(x, bool) or not isinstance(x, int):
        raise QuiverError(f"{what} must be an integer, got {x!r}")
    return int(x)


_DECIMAL = re.compile(r"-?[0-9]+")


def _parse_int(text: str, what: str) -> int:
    """The integer that ``text`` spells in ASCII decimal digits, with an
    optional leading minus.  ``int`` alone would also take blanks, a plus
    sign, underscores and non-ASCII digits; the range is left to the
    receiving function, so a bad value gets that function's message."""
    if not _DECIMAL.fullmatch(text):
        raise QuiverError(f"{what} must be a decimal integer, got {text!r}")
    return int(text)


def _require_budget(x, what: str) -> int:
    """A search budget (``max_len``, ``max_states``, ``max_nodes``,
    ``max_mult``): an integer of at least 1, checked on entry so that a bad
    value is an input error rather than an empty search."""
    value = _require_int(x, what)
    if value < 1:
        raise QuiverError(f"{what} must be at least 1, got {x!r}")
    return value


def _check_vertex_count(n: int) -> None:
    if n < 1:
        raise QuiverError("a quiver needs at least one vertex")
    if n > MAX_VERTICES:
        raise QuiverError(f"{n} vertices exceed the cap of {MAX_VERTICES}")


def _int_row(row, what: str) -> tuple[int, ...]:
    """A nonempty row of integers within the multiplicity cap, as a tuple of
    plain ints."""
    if set(map(type, row)) != {int}:  # a bool, a float, a numpy integer...
        row = [_require_int(x, what) for x in row]
    row = tuple(row)
    if max(row) > MULT_CAP or min(row) < -MULT_CAP:
        raise QuiverError(f"arrow multiplicity exceeds cap {MULT_CAP}")
    return row


def _int_rows(rows, width: int = 1) -> tuple[tuple[int, ...], ...]:
    """Validate a matrix given as nested lists: ``n`` rows of ``width * n``
    integers within the multiplicity cap, whose leading ``n x n`` block has
    a zero diagonal and is skew-symmetric.  ``width`` is 1 for an exchange
    matrix and 2 for the rows ``B | C`` of a framed state.  Returns the rows
    as a tuple of tuples of plain ints."""
    if not isinstance(rows, (list, tuple)):
        raise QuiverError("exchange matrix must be a list of rows")
    n = len(rows)
    _check_vertex_count(n)
    out = []
    for row in rows:
        if not isinstance(row, (list, tuple)) or len(row) != width * n:
            raise QuiverError(
                "exchange matrix must be square"
                if width == 1
                else "framed state must be n rows of 2n entries"
            )
        out.append(_int_row(row, "matrix entry"))
    if any(row[i] != 0 for i, row in enumerate(out)):
        raise QuiverError("diagonal entries must be zero (no loops)")
    # row[:n] of a width-1 row is the row itself
    if any(row[:n] != tuple(map(neg, col)) for row, col in zip(out, zip(*out))):
        raise QuiverError("exchange matrix must be skew-symmetric")
    return tuple(out)


class Quiver:
    """Immutable quiver on vertices ``1..n`` backed by a skew-symmetric matrix.

    ``rows`` holds the matrix as a tuple of ``n`` row tuples of plain ints;
    every structural operation reads it.  The constructor takes the matrix
    as a list of ``n`` lists (or tuples) of ``n`` integers.  Two slots
    cache what ``canonical`` derives from the matrix, filled on first use:
    ``_canon`` the canonical form, ``_iso`` the isomorphism invariants.
    """

    __slots__ = ("rows", "n", "_canon", "_iso")

    def __init__(self, b):
        self._adopt(_int_rows(b))

    def _adopt(self, rows: tuple[tuple[int, ...], ...]) -> "Quiver":
        """Take ``rows`` as this quiver's matrix, unchecked."""
        self.rows = rows
        self.n = len(rows)
        self._canon = None
        self._iso = None
        return self

    @classmethod
    def _trusted(cls, rows: tuple[tuple[int, ...], ...]) -> "Quiver":
        """Quiver on a tuple of int row tuples that internal code derived
        from a valid quiver, so it needs none of the checks in ``__init__``."""
        return cls.__new__(cls)._adopt(rows)

    @classmethod
    def from_arrows(cls, n: int, arrows: Iterable[Sequence[int]]) -> "Quiver":
        """Build a quiver from ``(tail, head, mult)`` triples, 1-indexed.

        A bare ``(tail, head)`` pair means multiplicity 1.  At most one entry
        per unordered vertex pair is accepted.
        """
        n = _require_int(n, "vertex count")
        _check_vertex_count(n)
        b = [[0] * n for _ in range(n)]
        seen = set()
        for entry in arrows:
            if len(entry) == 2:
                t, h, m = entry[0], entry[1], 1
            elif len(entry) == 3:
                t, h, m = entry
            else:
                raise QuiverError(f"bad arrow entry {entry!r}")
            what = f"each entry of arrow {entry!r}"
            t, h, m = (_require_int(x, what) for x in (t, h, m))
            if not (1 <= t <= n and 1 <= h <= n):
                raise QuiverError(f"arrow {entry!r} has a vertex outside 1..{n}")
            if t == h:
                raise QuiverError(f"arrow {entry!r} is a loop")
            if m < 1:
                raise QuiverError(f"arrow {entry!r} has multiplicity < 1")
            if m > MULT_CAP:
                raise QuiverError(
                    f"arrow {entry!r} exceeds multiplicity cap {MULT_CAP}"
                )
            pair = (min(t, h), max(t, h))
            if pair in seen:
                raise QuiverError(f"duplicate arrow entry for vertex pair {pair}")
            seen.add(pair)
            b[t - 1][h - 1] = m
            b[h - 1][t - 1] = -m
        return cls(b)

    def arrows(self) -> list[tuple[int, int, int]]:
        """All arrows as sorted ``(tail, head, mult)`` triples, 1-indexed."""
        return [
            (i + 1, j + 1, m)
            for i, row in enumerate(self.rows)
            for j, m in enumerate(row)
            if m > 0
        ]

    def mult(self, i: int, j: int) -> int:
        """Signed multiplicity between vertices ``i`` and ``j`` (1-indexed)."""
        self._check_vertex(i)
        self._check_vertex(j)
        return self.rows[i - 1][j - 1]

    def _check_vertex(self, k: int) -> int:
        """``k`` as a plain int, if it is a vertex label of this quiver."""
        if type(k) is not int:
            k = _require_int(k, "vertex")
        if not (1 <= k <= self.n):
            raise QuiverError(f"vertex {k} outside 1..{self.n}")
        return k

    def __eq__(self, other):
        return isinstance(other, Quiver) and self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __repr__(self):
        return f"Quiver(n={self.n}, arrows={self.arrows()})"


@dataclass(frozen=True)
class Rank3Params:
    """Multiplicities of the oriented 3-cycle: a arrows 1->2, b arrows 2->3, c arrows 3->1."""

    a: int
    b: int
    c: int

    def __post_init__(self):
        if min(self.a, self.b, self.c) < 0:
            raise QuiverError("rank-3 cycle multiplicities must be nonnegative")


@dataclass(frozen=True)
class RFamilyParams:
    """Parameters of the rank-4 family with a single triangle feeding vertex 4.

    The plain orientation has arrows 2->1, 2->3, 1->3, 4->1 (x a), 3->4 (x c)
    and 4->2 (x b); ``opposite`` selects the fully reversed quiver.
    """

    a: int
    b: int
    c: int
    opposite: bool = False

    def __post_init__(self):
        if min(self.a, self.b, self.c) < 0:
            raise QuiverError("family multiplicities must be nonnegative")


@dataclass(frozen=True)
class DirectSumDecomposition:
    """A bipartition with all cross arrows single and pointing left to right."""

    part_left: tuple[int, ...]
    part_right: tuple[int, ...]
    cross_arrows: tuple[tuple[int, int], ...]
    t: int

    def check(self, q: Quiver) -> bool:
        """Re-verify both defining conditions against ``q``."""
        # type(), not isinstance(): True, like 1.0, would pass the set test as 1
        if any(type(v) is not int for v in (*self.part_left, *self.part_right)):
            return False
        left, right = set(self.part_left), set(self.part_right)
        if left & right or left | right != set(range(1, q.n + 1)):
            return False
        if not left or not right:
            return False
        cross = _cross_arrows(q.rows, self.part_left, self.part_right)
        if cross is None or sorted(cross) != sorted(self.cross_arrows):
            return False
        return self.t == len({t for t, _ in cross})


def _cross_arrows(rows, left, right) -> Optional[list[tuple[int, int]]]:
    """The arrows from ``left`` to ``right`` (1-indexed labels, ``rows`` the
    matrix as row tuples), in left-major order, or None unless every arrow
    between the parts is single and points left to right."""
    cross = []
    for i in left:
        for j in right:
            m = rows[i - 1][j - 1]
            if m < 0 or m >= 2:
                return None
            if m == 1:
                cross.append((i, j))
    return cross


def _take(rows, idx: Sequence[int]) -> tuple[tuple[int, ...], ...]:
    """The submatrix of ``rows`` on the 0-based indices ``idx``, in that
    order, as row tuples."""
    if len(idx) == 1:
        i = idx[0]
        return ((rows[i][i],),)
    get = itemgetter(*idx)
    return tuple(map(get, get(rows)))


def relabel(q: Quiver, sigma: Sequence[int]) -> Quiver:
    """Apply the vertex permutation ``sigma`` (``sigma[i-1]`` is the new label
    of vertex ``i``), so the result satisfies ``b'[s(i)][s(j)] = b[i][j]``."""
    sigma = [s if type(s) is int else _require_int(s, "vertex label") for s in sigma]
    if sorted(sigma) != list(range(1, q.n + 1)):
        raise QuiverError(f"{sigma!r} is not a permutation of 1..{q.n}")
    inv = [0] * q.n
    for i, s in enumerate(sigma):
        inv[s - 1] = i
    return Quiver._trusted(_take(q.rows, inv))


def _mutate_int(rows, k: int):
    """Mutation at vertex ``k`` (0-based) of the matrix whose rows are
    ``rows``: ``n = len(rows)`` row tuples of plain ints whose first ``n``
    columns are the exchange matrix B and whose further columns, if any,
    are frozen (the c-vectors of a framed state).

    Row ``k`` is negated; a row ``i`` with ``b_ik == 0`` is returned as the
    same object; any other row becomes ``r[j] + b_ik * max(sign(b_ik) *
    r_k[j], 0)`` with ``-b_ik`` at ``k``, which touches only the columns
    where row ``k`` has the sign of ``b_ik``.  Returns the new rows, or None
    when a changed entry would exceed ``MULT_CAP`` (every other entry is the
    parent's, within the cap).
    """
    up = []  # (j, r_k[j]) where r_k[j] > 0
    down = []  # (j, -r_k[j]) where r_k[j] < 0
    for j, y in enumerate(rows[k]):
        if y > 0:
            up.append((j, y))
        elif y < 0:
            down.append((j, -y))
    out = []
    for i, r in enumerate(rows):
        b = r[k]
        if i == k:
            out.append(tuple([-x for x in r]))
        elif b == 0:
            out.append(r)
        else:
            row = list(r)
            for j, y in up if b > 0 else down:
                x = row[j] + b * y
                if x > MULT_CAP or x < -MULT_CAP:
                    return None
                row[j] = x
            row[k] = -b
            out.append(tuple(row))
    return tuple(out)


def mutate(q: Quiver, k: int) -> Quiver:
    """Mutate at vertex ``k``.  The input is unchanged."""
    k = q._check_vertex(k)
    rows = _mutate_int(q.rows, k - 1)
    if rows is None:
        raise QuiverError(f"mutation at {k} overflows the multiplicity cap")
    return Quiver._trusted(rows)


def mutate_sequence(q: Quiver, seq: Iterable[int]) -> Quiver:
    for k in seq:
        q = mutate(q, k)
    return q


def opposite(q: Quiver) -> Quiver:
    """Reverse every arrow."""
    return Quiver._trusted(tuple(tuple([-x for x in row]) for row in q.rows))


def induced_subquiver(q: Quiver, vs: Iterable[int]) -> tuple[Quiver, tuple[int, ...]]:
    """Restrict to the vertex set ``vs``.

    Vertices are relabelled ``1..len(vs)`` in increasing order of their old
    labels; the returned map lists the old label of each new vertex, so
    ``mapping[new - 1] == old``.
    """
    vlist = sorted({q._check_vertex(v) for v in vs})
    if not vlist:
        raise QuiverError("vertex set must be nonempty")
    sub = Quiver._trusted(_take(q.rows, [v - 1 for v in vlist]))
    return sub, tuple(vlist)


def underlying_edges(q: Quiver) -> list[tuple[int, int]]:
    """Edges of the underlying undirected simple graph as ``(i, j)`` with i < j."""
    rows = q.rows
    return [
        (i + 1, j + 1)
        for i in range(q.n)
        for j in range(i + 1, q.n)
        if rows[i][j] != 0
    ]


# The diagonal is zero and b[j][i] = -b[i][j], so a row's least entry is 0
# exactly when nothing arrives at its vertex, and its greatest exactly when
# nothing leaves it.


def sources(q: Quiver) -> tuple[int, ...]:
    """Vertices that are not the head of any arrow."""
    return tuple(i + 1 for i, row in enumerate(q.rows) if min(row) == 0)


def sinks(q: Quiver) -> tuple[int, ...]:
    """Vertices that are not the tail of any arrow."""
    return tuple(i + 1 for i, row in enumerate(q.rows) if max(row) == 0)


def _least_topological_order(rows) -> list[int]:
    """The vertices (0-based) that Kahn's algorithm lists on the arrow
    digraph of the square matrix ``rows``, in the order it lists them: at
    each step the least vertex that no unlisted vertex has an arrow to.  It
    lists exactly the vertices that no directed cycle reaches, so the list
    is the least topological order of all vertices exactly when the digraph
    is acyclic."""
    # b[v][w] < 0 for each arrow w -> v
    indegree = [sum(1 for x in row if x < 0) for row in rows]
    ready = [v for v, d in enumerate(indegree) if d == 0]  # ascending: a heap
    order = []
    while ready:
        v = heapq.heappop(ready)
        order.append(v)
        for w, m in enumerate(rows[v]):
            if m > 0:
                indegree[w] -= 1
                if indegree[w] == 0:
                    heapq.heappush(ready, w)
    return order


def is_acyclic(q: Quiver) -> bool:
    """True iff the arrow digraph has no directed cycle, that is, iff it has
    a topological order."""
    return len(_least_topological_order(q.rows)) == q.n


def _cycle_order(rows, vs: Sequence[int]) -> Optional[list[int]]:
    """Order ``vs`` around a cycle of the underlying graph, or None if the
    induced subquiver is not a single chordless cycle."""
    k = len(vs)
    if k < 3:
        return None
    adj = {
        v: [w for w in vs if w != v and rows[v - 1][w - 1] != 0] for v in vs
    }
    if any(len(nbrs) != 2 for nbrs in adj.values()):
        return None
    start = min(vs)
    order = [start, min(adj[start])]
    while len(order) < k:
        prev, cur = order[-2], order[-1]
        nxt = [w for w in adj[cur] if w != prev]
        if len(nxt) != 1:
            return None
        order.append(nxt[0])
    # closed and connected: last vertex must link back to the start
    if order[0] not in adj[order[-1]]:
        return None
    if len(set(order)) != k:
        return None
    return order


def _chordless_cycles(rows) -> Iterator[list[tuple[list[int], bool]]]:
    """Chordless cycles of the underlying graph of the matrix ``rows`` (row
    tuples), one list per length 3..n, so a caller can stop after any length.

    Each cycle is an ordered vertex list starting at its least vertex, in
    arrow direction when the arrows run consistently around it, together
    with that orientation flag.
    """
    n = len(rows)
    for size in range(3, n + 1):
        layer = []
        for vs in combinations(range(1, n + 1), size):
            order = _cycle_order(rows, vs)
            if order is None:
                continue
            arcs = [(order[i - 1] - 1, order[i] - 1) for i in range(size)]
            forward = all(rows[u][v] > 0 for u, v in arcs)
            backward = all(rows[v][u] > 0 for u, v in arcs)
            if backward:
                order = [order[0]] + order[1:][::-1]
            layer.append((order, forward or backward))
        yield layer


def induced_cycles(q: Quiver) -> list[tuple[tuple[int, ...], bool]]:
    """All chordless cycles of the underlying graph, length >= 3.

    Each cycle is reported as an ordered vertex tuple starting at its least
    vertex, together with an orientation flag: True when the arrows run
    consistently around the cycle.  Multiplicities do not affect the shape.
    """
    cycles = [
        (tuple(order), oriented)
        for layer in _chordless_cycles(q.rows)
        for order, oriented in layer
    ]
    return sorted(cycles, key=lambda item: (len(item[0]), item[0]))


def b_matrix_rank(q: Quiver) -> int:
    """Exact rank of the exchange matrix over the rationals.

    Uses fraction-free (Bareiss) elimination on Python integers, so there is
    no overflow or rounding; skew-symmetry makes the result even.
    """
    m = [list(row) for row in q.rows]
    n = q.n
    rank = 0
    prev = 1
    row = 0
    for col in range(n):
        piv = next((r for r in range(row, n) if m[r][col] != 0), None)
        if piv is None:
            continue
        m[row], m[piv] = m[piv], m[row]
        for r in range(row + 1, n):
            for c in range(col + 1, n):
                m[r][c] = (m[r][c] * m[row][col] - m[r][col] * m[row][c]) // prev
            m[r][col] = 0
        prev = m[row][col]
        row += 1
        rank += 1
        if row == n:
            break
    return rank


def find_direct_sum(q: Quiver) -> Optional[DirectSumDecomposition]:
    """First bipartition (by increasing left size, then lexicographic) whose
    cross arrows are all single and all point left to right, or None."""
    if q.n > MAX_DIRECT_SUM_N:
        raise CapabilityError(
            f"direct-sum scan supported up to {MAX_DIRECT_SUM_N} vertices, got {q.n}"
        )
    rows = q.rows
    verts = list(range(1, q.n + 1))
    for size in range(1, q.n):
        for left in combinations(verts, size):
            left_set = set(left)
            right = tuple(v for v in verts if v not in left_set)
            cross = _cross_arrows(rows, left, right)
            if cross is not None:
                return DirectSumDecomposition(
                    part_left=left,
                    part_right=right,
                    cross_arrows=tuple(cross),
                    t=len({t for t, _ in cross}),
                )
    return None


def find_ending_kcycle(q: Quiver) -> Optional[tuple[tuple[int, ...], int]]:
    """Detect an oriented k-cycle ``v1 -> v2 -> ... -> vk -> v1`` of single
    arrows where ``v1..v(k-1)`` carry no arrows beyond their two cycle arrows.

    Returns the smallest such k and then the lexicographically least ordered
    cycle, as ``(cycle, attachment)`` with ``attachment == cycle[-1]``.

    Each of ``v1..v(k-1)`` is a through vertex: one single arrow in, one
    single arrow out and nothing else; and ``k >= 3``.  So either every
    vertex of the cycle is a through vertex, and the least rotation starts
    at its least vertex, or ``v1..v(k-1)`` is a maximal chain of through
    vertices whose ends both meet ``vk``.  The cycles are read off the
    chains, in time linear in the number of through vertices once they are
    known.
    """
    rows = q.rows
    n = q.n
    # through vertex (0-based) -> (the vertex its arrow comes from, the
    # vertex its arrow goes to)
    through = {
        v: (row.index(-1), row.index(1))
        for v, row in enumerate(rows)
        if row.count(0) == n - 2 and 1 in row and -1 in row
    }
    found = []
    seen = set()
    for v, (before, _) in through.items():
        if before in through:
            continue  # not the first vertex of a chain
        chain = [v]
        after = through[v][1]
        while after in through:
            chain.append(after)
            after = through[after][1]
        seen.update(chain)
        if len(chain) >= 2 and after == before:
            found.append(tuple(w + 1 for w in chain) + (before + 1,))
    # what is left lies on cycles of through vertices alone; the dict holds
    # them in ascending order, so each cycle is met first at its least vertex
    for v in through:
        if v not in seen:
            cycle = [v]
            after = through[v][1]
            while after != v:
                cycle.append(after)
                after = through[after][1]
            seen.update(cycle)
            found.append(tuple(w + 1 for w in cycle))
    if not found:
        return None
    best = min(found, key=lambda cycle: (len(cycle), cycle))
    return best, best[-1]


def separating_edges(q: Quiver) -> list[tuple[int, int]]:
    """Arrows through which no bi-infinite directed path passes.

    An arrow ``i -> j`` lies on a bi-infinite path iff some directed cycle
    reaches ``i`` and ``j`` reaches some directed cycle; everything else is
    separating.  Kahn's algorithm lists exactly the vertices that no cycle
    reaches, and on the reversed arrows exactly those that reach no cycle.
    """
    no_cycle_reaches = set(_least_topological_order(q.rows))
    reaches_no_cycle = set(
        _least_topological_order([[-x for x in row] for row in q.rows])
    )
    return [
        (i, j)
        for i, j, _ in q.arrows()
        if i - 1 in no_cycle_reaches or j - 1 in reaches_no_cycle
    ]
