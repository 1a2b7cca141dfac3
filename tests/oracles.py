"""Independent reference implementations used to compute expected values.

Everything here is deliberately naive (explicit arrow lists, literal
enumeration, Fraction arithmetic) and shares no algorithmic code with the
package, so agreement is meaningful.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, permutations, product

import numpy as np

from quivergreen.core import Quiver
from quivergreen.green import frame, mutate_framed


def naive_mutate_arrows(n: int, arrows: list[tuple[int, int]], k: int) -> dict:
    """Mutation as three literal steps on an explicit arrow list (one entry
    per arrow instance).  Returns net multiplicities {(tail, head): mult}."""
    ins = [a for a in arrows if a[1] == k]
    outs = [a for a in arrows if a[0] == k]
    composite = [(i, j) for (i, _) in ins for (_, j) in outs]
    reversed_orig = [
        (h, t) if k in (t, h) else (t, h) for (t, h) in arrows
    ]
    count: dict[tuple[int, int], int] = {}
    for a in reversed_orig + composite:
        count[a] = count.get(a, 0) + 1
    net = {}
    for (t, h), m in count.items():
        opposite_count = count.get((h, t), 0)
        if m > opposite_count:
            net[(t, h)] = m - opposite_count
    return net


def quiver_to_arrow_list(q: Quiver) -> list[tuple[int, int]]:
    out = []
    for t, h, m in q.arrows():
        out.extend([(t, h)] * m)
    return out


def arrow_dict(q: Quiver) -> dict:
    return {(t, h): m for t, h, m in q.arrows()}


def has_directed_cycle_paths(q: Quiver) -> bool:
    """Cycle detection by exhaustive simple-path search."""
    adj = {
        v: [w for w in range(1, q.n + 1) if q.b[v - 1, w - 1] > 0]
        for v in range(1, q.n + 1)
    }

    def walk(start, cur, visited):
        for nxt in adj[cur]:
            if nxt == start:
                return True
            if nxt not in visited and walk(start, nxt, visited | {nxt}):
                return True
        return False

    return any(walk(v, v, {v}) for v in range(1, q.n + 1))


def chordless_cycles_brute(q: Quiver) -> set[frozenset]:
    """Vertex sets of chordless cycles, by checking every subset."""
    out = set()
    edges = {
        (i + 1, j + 1)
        for i in range(q.n)
        for j in range(q.n)
        if i != j and q.b[i, j] != 0
    }
    for size in range(3, q.n + 1):
        for vs in combinations(range(1, q.n + 1), size):
            deg = {
                v: sum(1 for w in vs if w != v and (v, w) in edges) for v in vs
            }
            if any(d != 2 for d in deg.values()):
                continue
            # connectivity: walk the 2-regular graph
            start = vs[0]
            nbrs = [w for w in vs if (start, w) in edges]
            seen = {start}
            cur, prev = nbrs[0], start
            while cur != start:
                seen.add(cur)
                step = [w for w in vs if w != prev and (cur, w) in edges]
                prev, cur = cur, step[0]
            if len(seen) == size:
                out.add(frozenset(vs))
    return out


def cycle_is_oriented(q: Quiver, vs: frozenset) -> bool:
    """Orientation check for a known chordless cycle: every vertex has one
    in-arrow and one out-arrow inside the cycle."""
    for v in vs:
        outs = sum(1 for w in vs if w != v and q.b[v - 1, w - 1] > 0)
        ins = sum(1 for w in vs if w != v and q.b[w - 1, v - 1] > 0)
        if outs != 1 or ins != 1:
            return False
    return True


def rank_fractions(q: Quiver) -> int:
    """Rank via rational Gaussian elimination."""
    m = [[Fraction(int(x)) for x in row] for row in q.b]
    n = q.n
    rank = 0
    row = 0
    for col in range(n):
        piv = next((r for r in range(row, n) if m[r][col] != 0), None)
        if piv is None:
            continue
        m[row], m[piv] = m[piv], m[row]
        for r in range(n):
            if r != row and m[r][col] != 0:
                factor = m[r][col] / m[row][col]
                for c in range(n):
                    m[r][c] -= factor * m[row][c]
        row += 1
        rank += 1
    return rank


def growth_sequence(b: np.ndarray, order: tuple[int, ...]) -> tuple:
    seq = []
    for k, v in enumerate(order):
        for i in range(k):
            seq.append(int(b[order[i], v]))
        for i in range(k):
            seq.append(int(b[v, order[i]]))
    return tuple(seq)


def canonical_matrix_literal(q: Quiver) -> bytes:
    """Minimum growth-order serialization over all n! orderings."""
    best_seq = None
    best_order = None
    for order in permutations(range(q.n)):
        seq = growth_sequence(q.b, order)
        if best_seq is None or seq < best_seq:
            best_seq = seq
            best_order = order
    m = q.b[np.ix_(best_order, best_order)]
    return q.n.to_bytes(2, "big") + m.astype(np.int64).tobytes()


def canonical_order_reference(q: Quiver) -> tuple[int, ...]:
    """The ordering the canonical search must pick, computed the slow way:
    every extension and every dedup profile is rebuilt from single matrix
    reads, with both the column and the row half spelled out, and nothing
    assumes skew-symmetry.  Partials are visited in the same order and the
    first-seen partial of each profile is kept, so the package's search must
    return exactly this ordering.  The matrix is read as nested lists only to
    keep the symmetric 12-vertex cases within test time."""
    b = q.b.tolist()
    n = q.n
    partials: list[tuple[int, ...]] = [()]
    used_all = frozenset(range(n))
    for _ in range(n):
        best_ext = None
        extended: list[tuple[int, ...]] = []
        for p in partials:
            used = set(p)
            for v in range(n):
                if v in used:
                    continue
                ext = tuple(b[x][v] for x in p) + tuple(b[v][x] for x in p)
                if best_ext is None or ext < best_ext:
                    best_ext = ext
                    extended = [p + (v,)]
                elif ext == best_ext:
                    extended.append(p + (v,))
        seen = {}
        for p in extended:
            unused = sorted(used_all - set(p))
            profile = tuple(
                (w, tuple(b[x][w] for x in p), tuple(b[w][x] for x in p))
                for w in unused
            )
            if profile not in seen:
                seen[profile] = p
        partials = list(seen.values())
    return partials[0]


def iso_brute(q1: Quiver, q2: Quiver):
    """Try all permutations; return one mapping q1 onto q2, or None."""
    if q1.n != q2.n:
        return None
    n = q1.n
    for perm in permutations(range(1, n + 1)):
        if all(
            q2.b[perm[i] - 1, perm[j] - 1] == q1.b[i, j]
            for i in range(n)
            for j in range(n)
        ):
            return perm
    return None


def admissible_brute(q: Quiver):
    """Try all 2^edges sign assignments against every chordless cycle."""
    edges = sorted(
        (i + 1, j + 1)
        for i in range(q.n)
        for j in range(i + 1, q.n)
        if q.b[i, j] != 0
    )
    cycles = [
        (vs, cycle_is_oriented(q, vs)) for vs in chordless_cycles_brute(q)
    ]
    for bits in product((1, -1), repeat=len(edges)):
        table = dict(zip(edges, bits))
        ok = True
        for vs, oriented in cycles:
            pos = sum(
                1
                for (a, b) in edges
                if a in vs and b in vs and table[(a, b)] > 0
            )
            if pos % 2 != (1 if oriented else 0):
                ok = False
                break
        if ok:
            return table
    return None


def enumerate_green_mgs(q: Quiver, max_len: int) -> set[tuple[int, ...]]:
    """All maximal green sequences of length <= max_len by literal
    enumeration of every green sequence (no pruning, no deduplication).
    Branches whose multiplicities blow past the engine cap are skipped."""
    from quivergreen.errors import QuiverError

    found = set()
    stack = [(frame(q), ())]
    while stack:
        fq, seq = stack.pop()
        if fq.all_red():
            found.add(seq)
            continue
        if len(seq) >= max_len:
            continue
        for k in fq.green_vertices():
            try:
                stack.append((mutate_framed(fq, k), seq + (k,)))
            except QuiverError:
                continue
    return found


def mutation_class_brute(q: Quiver, limit: int = 100):
    """Class members up to isomorphism via permutation-search deduplication."""
    from quivergreen.core import mutate

    reps = [q]
    frontier = [q]
    while frontier:
        nxt = []
        for cur in frontier:
            for k in range(1, cur.n + 1):
                child = mutate(cur, k)
                if any(iso_brute(child, r) is not None for r in reps):
                    continue
                reps.append(child)
                nxt.append(child)
                if len(reps) > limit:
                    raise RuntimeError("class larger than the oracle limit")
        frontier = nxt
    return reps


def random_quiver(rng, n: int, max_mult: int) -> Quiver:
    b = np.zeros((n, n), dtype=np.int64)
    for i in range(n):
        for j in range(i + 1, n):
            b[i, j] = rng.integers(-max_mult, max_mult + 1)
            b[j, i] = -b[i, j]
    return Quiver(b)


def random_acyclic_quiver(rng, n: int, max_mult: int) -> Quiver:
    """Arrows only point from lower to higher labels, then relabel randomly."""
    b = np.zeros((n, n), dtype=np.int64)
    for i in range(n):
        for j in range(i + 1, n):
            m = rng.integers(0, max_mult + 1)
            b[i, j] = m
            b[j, i] = -m
    perm = rng.permutation(n)
    b = b[np.ix_(perm, perm)]
    return Quiver(b)
