"""Exchange-matrix quivers and structural operations.

A quiver here is a finite directed multigraph without loops or 2-cycles,
encoded by a skew-symmetric integer matrix ``b`` where ``b[i][j] > 0`` means
``b[i][j]`` arrows from vertex ``i+1`` to vertex ``j+1``.  All public
operations take and return 1-indexed vertex labels; the matrix itself is a
plain 0-indexed numpy array.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import QuiverError

# Multiplicities above this cap abort with an error instead of overflowing.
# int64 arithmetic is exact for the mutation formula as long as every entry
# stays within the cap, since cap**2 + cap < 2**63.
MULT_CAP = 2**31 - 1

# Vertex counts above this cap are rejected before any matrix is allocated
# (an n x n int64 matrix at the cap takes 8 MiB), so an input such as
# {"n": 100000, ...} is an input error instead of a 74.5 GiB allocation.
MAX_VERTICES = 1024


def _require_int(x, what: str) -> int:
    """``x`` as an int if it is a Python or numpy integer.  Anything else,
    including a bool, a float or a string, is rejected rather than coerced."""
    if isinstance(x, bool) or not isinstance(x, (int, np.integer)):
        raise QuiverError(f"{what} must be an integer, got {x!r}")
    return int(x)


def _check_vertex_count(n: int) -> None:
    if n < 1:
        raise QuiverError("a quiver needs at least one vertex")
    if n > MAX_VERTICES:
        raise QuiverError(f"{n} vertices exceed the cap of {MAX_VERTICES}")


def _check_int_rows(rows) -> None:
    """Validate a matrix given as nested lists before numpy sees it: a square
    list of rows of integers within the multiplicity cap."""
    if not isinstance(rows, (list, tuple)):
        raise QuiverError("exchange matrix must be a list of rows")
    _check_vertex_count(len(rows))
    for row in rows:
        if not isinstance(row, (list, tuple)) or len(row) != len(rows):
            raise QuiverError("exchange matrix must be square")
        for x in row:
            if abs(_require_int(x, "matrix entry")) > MULT_CAP:
                raise QuiverError(f"arrow multiplicity exceeds cap {MULT_CAP}")


class Quiver:
    """Immutable quiver on vertices ``1..n`` backed by a skew-symmetric matrix."""

    __slots__ = ("b", "n", "_bytes", "_canon")

    def __init__(self, b):
        if isinstance(b, np.ndarray):
            # signed integers only: an unsigned matrix is skew-symmetric only
            # when it is zero, and uint64 would wrap when converted
            if b.dtype.kind != "i":
                raise QuiverError(
                    f"exchange matrix must have signed integer entries, not {b.dtype}"
                )
        else:
            _check_int_rows(b)
        arr = np.array(b, dtype=np.int64)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise QuiverError("exchange matrix must be square")
        n = arr.shape[0]
        _check_vertex_count(n)
        if np.any(np.diagonal(arr) != 0):
            raise QuiverError("diagonal entries must be zero (no loops)")
        if not np.array_equal(arr, -arr.T):
            raise QuiverError("exchange matrix must be skew-symmetric")
        if np.any(np.abs(arr) > MULT_CAP):
            raise QuiverError(f"arrow multiplicity exceeds cap {MULT_CAP}")
        arr.setflags(write=False)
        self.b = arr
        self.n = n
        self._bytes = arr.tobytes()
        self._canon = None

    @classmethod
    def from_arrows(cls, n: int, arrows: Iterable[Sequence[int]]) -> "Quiver":
        """Build a quiver from ``(tail, head, mult)`` triples, 1-indexed.

        A bare ``(tail, head)`` pair means multiplicity 1.  At most one entry
        per unordered vertex pair is accepted.
        """
        n = _require_int(n, "vertex count")
        _check_vertex_count(n)
        b = np.zeros((n, n), dtype=np.int64)
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
            b[t - 1, h - 1] = m
            b[h - 1, t - 1] = -m
        return cls(b)

    def arrows(self) -> list[tuple[int, int, int]]:
        """All arrows as sorted ``(tail, head, mult)`` triples, 1-indexed."""
        out = []
        for i in range(self.n):
            for j in range(self.n):
                if self.b[i, j] > 0:
                    out.append((i + 1, j + 1, int(self.b[i, j])))
        return out

    def mult(self, i: int, j: int) -> int:
        """Signed multiplicity between vertices ``i`` and ``j`` (1-indexed)."""
        self._check_vertex(i)
        self._check_vertex(j)
        return int(self.b[i - 1, j - 1])

    def _check_vertex(self, k: int) -> None:
        if not (1 <= k <= self.n):
            raise QuiverError(f"vertex {k} outside 1..{self.n}")

    def __eq__(self, other):
        return isinstance(other, Quiver) and self._bytes == other._bytes

    def __hash__(self):
        return hash(self._bytes)

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
        left, right = set(self.part_left), set(self.part_right)
        if left & right or left | right != set(range(1, q.n + 1)):
            return False
        if not left or not right:
            return False
        cross = []
        for i in left:
            for j in right:
                m = q.mult(i, j)
                if m < 0:
                    return False  # arrow pointing right to left
                if m >= 2:
                    return False  # multiple cross arrow
                if m == 1:
                    cross.append((i, j))
        if sorted(cross) != sorted(self.cross_arrows):
            return False
        return self.t == len({t for t, _ in cross})


def relabel(q: Quiver, sigma: Sequence[int]) -> Quiver:
    """Apply the vertex permutation ``sigma`` (``sigma[i-1]`` is the new label
    of vertex ``i``), so the result satisfies ``b'[s(i)][s(j)] = b[i][j]``."""
    if sorted(sigma) != list(range(1, q.n + 1)):
        raise QuiverError(f"{sigma!r} is not a permutation of 1..{q.n}")
    inv = [0] * q.n
    for i, s in enumerate(sigma):
        inv[s - 1] = i
    return Quiver(q.b[np.ix_(inv, inv)])


def mutate(q: Quiver, k: int) -> Quiver:
    """Mutate at vertex ``k``: compose 2-paths through ``k``, reverse arrows
    at ``k``, cancel opposite pairs.  The input is unchanged."""
    q._check_vertex(k)
    kk = k - 1
    b = q.b
    pos_in = np.maximum(b[:, kk], 0)  # multiplicities of arrows into k
    pos_out = np.maximum(b[kk, :], 0)  # multiplicities of arrows out of k
    bp = b + np.outer(pos_in, pos_out) - np.outer(pos_out, pos_in)
    bp[kk, :] = -b[kk, :]
    bp[:, kk] = -b[:, kk]
    if np.any(np.abs(bp) > MULT_CAP):
        raise QuiverError(f"mutation at {k} overflows the multiplicity cap")
    return Quiver(bp)


def mutate_sequence(q: Quiver, seq: Iterable[int]) -> Quiver:
    for k in seq:
        q = mutate(q, k)
    return q


def opposite(q: Quiver) -> Quiver:
    """Reverse every arrow."""
    return Quiver(-q.b)


def induced_subquiver(q: Quiver, vs: Iterable[int]) -> tuple[Quiver, tuple[int, ...]]:
    """Restrict to the vertex set ``vs``.

    Vertices are relabelled ``1..len(vs)`` in increasing order of their old
    labels; the returned map lists the old label of each new vertex, so
    ``mapping[new - 1] == old``.
    """
    vlist = sorted(set(vs))
    if not vlist:
        raise QuiverError("vertex set must be nonempty")
    for v in vlist:
        q._check_vertex(v)
    idx = [v - 1 for v in vlist]
    sub = Quiver(q.b[np.ix_(idx, idx)])
    return sub, tuple(vlist)


def underlying_edges(q: Quiver) -> list[tuple[int, int]]:
    """Edges of the underlying undirected simple graph as ``(i, j)`` with i < j."""
    return [
        (i + 1, j + 1)
        for i in range(q.n)
        for j in range(i + 1, q.n)
        if q.b[i, j] != 0
    ]


def sources(q: Quiver) -> tuple[int, ...]:
    """Vertices that are not the head of any arrow."""
    return tuple(i + 1 for i in range(q.n) if np.all(q.b[:, i] <= 0))


def sinks(q: Quiver) -> tuple[int, ...]:
    """Vertices that are not the tail of any arrow."""
    return tuple(i + 1 for i in range(q.n) if np.all(q.b[i, :] <= 0))


def is_acyclic(q: Quiver) -> bool:
    """True iff the arrow digraph has no directed cycle (peel sources off)."""
    remaining = set(range(q.n))
    while remaining:
        srcs = [
            i for i in remaining if all(q.b[j, i] <= 0 for j in remaining)
        ]
        if not srcs:
            return False
        remaining.difference_update(srcs)
    return True


def _cycle_order(q: Quiver, vs: Sequence[int]) -> Optional[list[int]]:
    """Order ``vs`` around a cycle of the underlying graph, or None if the
    induced subquiver is not a single chordless cycle."""
    k = len(vs)
    if k < 3:
        return None
    adj = {
        v: [w for w in vs if w != v and q.b[v - 1, w - 1] != 0] for v in vs
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


def induced_cycles(q: Quiver) -> list[tuple[tuple[int, ...], bool]]:
    """All chordless cycles of the underlying graph, length >= 3.

    Each cycle is reported as an ordered vertex tuple starting at its least
    vertex, together with an orientation flag: True when the arrows run
    consistently around the cycle.  Multiplicities do not affect the shape.
    """
    out = []
    verts = range(1, q.n + 1)
    for size in range(3, q.n + 1):
        for vs in combinations(verts, size):
            order = _cycle_order(q, vs)
            if order is None:
                continue
            forward = all(
                q.b[order[i] - 1, order[(i + 1) % size] - 1] > 0
                for i in range(size)
            )
            backward = all(
                q.b[order[(i + 1) % size] - 1, order[i] - 1] > 0
                for i in range(size)
            )
            if backward:
                # report in arrow direction, still starting at the least vertex
                order = [order[0]] + order[1:][::-1]
            out.append((tuple(order), forward or backward))
    out.sort(key=lambda item: (len(item[0]), item[0]))
    return out


def b_matrix_rank(q: Quiver) -> int:
    """Exact rank of the exchange matrix over the rationals.

    Uses fraction-free (Bareiss) elimination on Python integers, so there is
    no overflow or rounding; skew-symmetry makes the result even.
    """
    m = [[int(x) for x in row] for row in q.b]
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
    if q.n > 16:
        raise QuiverError("direct-sum scan is exhaustive and capped at 16 vertices")
    verts = list(range(1, q.n + 1))
    for size in range(1, q.n):
        for left in combinations(verts, size):
            left_set = set(left)
            right = tuple(v for v in verts if v not in left_set)
            cross = []
            ok = True
            for i in left:
                for j in right:
                    m = q.mult(i, j)
                    if m < 0 or m >= 2:
                        ok = False
                        break
                    if m == 1:
                        cross.append((i, j))
                if not ok:
                    break
            if ok:
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
    """
    best = None
    verts = range(1, q.n + 1)
    for size in range(3, q.n + 1):
        if best is not None:
            break
        for vs in combinations(verts, size):
            order = _cycle_order(q, vs)
            if order is None:
                continue
            forward = all(
                q.b[order[i] - 1, order[(i + 1) % size] - 1] == 1
                for i in range(size)
            )
            backward = all(
                q.b[order[(i + 1) % size] - 1, order[i] - 1] == 1
                for i in range(size)
            )
            if not (forward or backward):
                continue
            if backward:
                order = [order[0]] + order[1:][::-1]
            outside = set(verts) - set(vs)
            attached = [
                v
                for v in order
                if any(q.b[v - 1, w - 1] != 0 for w in outside)
            ]
            if len(attached) > 1:
                continue
            # rotations of the cycle that put a valid attachment vertex last
            candidates = []
            for pos, v in enumerate(order):
                if attached and v != attached[0]:
                    continue
                rot = order[pos + 1:] + order[: pos + 1]
                candidates.append(tuple(rot))
            if candidates:
                cand = min(candidates)
                if best is None or cand < best:
                    best = cand
    if best is None:
        return None
    return best, best[-1]


def separating_edges(q: Quiver) -> list[tuple[int, int]]:
    """Arrows through which no bi-infinite directed path passes.

    An arrow ``i -> j`` lies on a bi-infinite path iff some directed cycle
    reaches ``i`` and ``j`` reaches some directed cycle; everything else is
    separating.
    """
    n = q.n
    succ = {v: set() for v in range(1, n + 1)}
    pred = {v: set() for v in range(1, n + 1)}
    for i in range(n):
        for j in range(n):
            if q.b[i, j] > 0:
                succ[i + 1].add(j + 1)
                pred[j + 1].add(i + 1)

    on_cycle = set()
    for v in range(1, n + 1):
        # v lies on a directed cycle iff v is reachable from one of its successors
        frontier = set(succ[v])
        seen = set(frontier)
        while frontier:
            if v in seen:
                on_cycle.add(v)
                break
            frontier = {w for u in frontier for w in succ[u]} - seen
            seen |= frontier

    def closure(start: set, nbrs) -> set:
        out = set(start)
        frontier = set(start)
        while frontier:
            frontier = {w for u in frontier for w in nbrs[u]} - out
            out |= frontier
        return out

    fed_by_cycle = closure(on_cycle, succ)  # vertices some cycle reaches
    feeds_cycle = closure(on_cycle, pred)  # vertices that reach some cycle

    out = []
    for i in range(n):
        for j in range(n):
            if q.b[i, j] > 0:
                if not (i + 1 in fed_by_cycle and j + 1 in feeds_cycle):
                    out.append((i + 1, j + 1))
    return out
