"""Independent reference implementations used to compute expected values.

Most of it is deliberately naive (explicit arrow lists, literal
enumeration, Fraction arithmetic) and shares no algorithmic code with the
package, so agreement is meaningful.  Most ``*_reference`` functions are
earlier versions of package code, kept verbatim when a faster rewrite
replaced them, so that the rewrite can be held to the same output.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, permutations, product
from typing import Optional

import numpy as np

import quivergreen.exchange as exchange
from quivergreen.canonical import CanonicalKey, canonical_key
from quivergreen.core import (
    MULT_CAP,
    Quiver,
    _chordless_cycles,
    _require_budget,
    is_acyclic,
    mutate,
    relabel,
    sinks,
    sources,
)
from quivergreen.errors import InternalInvariantError, QuiverError
from quivergreen.exchange import (
    DEFAULT_MAX_MULT,
    DEFAULT_MAX_NODES,
    BoundaryEntry,
    ExchangeGraph,
    ExchangeNode,
    MutationAcyclicResult,
    PsiResult,
    _over_mult,
)
from quivergreen.green import (
    DEFAULT_MAX_STATES,
    FramedQuiver,
    MgsCertificate,
    ReplayStatus,
    SearchResult,
    default_max_len,
    frame,
    mutate_framed,
    verify_mgs,
)
from quivergreen.obstructions import (
    decide_mgs,
    solve_admissibility,
)


def b_array(q: Quiver) -> np.ndarray:
    """The exchange matrix of ``q`` as an int64 numpy array, for the oracles
    that index it as one."""
    return np.array(q.rows, dtype=np.int64)


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
    b = b_array(q)
    adj = {
        v: [w for w in range(1, q.n + 1) if b[v - 1, w - 1] > 0]
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


def separating_edges_closure(q: Quiver) -> list[tuple[int, int]]:
    """Arrows ``i -> j`` such that not both some vertex on a directed cycle
    reaches ``i`` and ``j`` reaches some vertex on a directed cycle, read off
    the transitive closure of the arrow relation (Warshall)."""
    n = q.n
    b = b_array(q)
    reach = [[b[i, j] > 0 for j in range(n)] for i in range(n)]
    for k in range(n):
        for i in range(n):
            if reach[i][k]:
                for j in range(n):
                    reach[i][j] = reach[i][j] or reach[k][j]
    on_cycle = [c for c in range(n) if reach[c][c]]
    fed = {v for v in range(n) if any(c == v or reach[c][v] for c in on_cycle)}
    feeds = {v for v in range(n) if any(c == v or reach[v][c] for c in on_cycle)}
    return [
        (i, j)
        for i, j, _ in q.arrows()
        if not (i - 1 in fed and j - 1 in feeds)
    ]


def chordless_cycles_brute(q: Quiver) -> set[frozenset]:
    """Vertex sets of chordless cycles, by checking every subset."""
    out = set()
    b = b_array(q)
    edges = {
        (i + 1, j + 1)
        for i in range(q.n)
        for j in range(q.n)
        if i != j and b[i, j] != 0
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
    b = b_array(q)
    for v in vs:
        outs = sum(1 for w in vs if w != v and b[v - 1, w - 1] > 0)
        ins = sum(1 for w in vs if w != v and b[w - 1, v - 1] > 0)
        if outs != 1 or ins != 1:
            return False
    return True


def rank_fractions(q: Quiver) -> int:
    """Rank via rational Gaussian elimination."""
    m = [[Fraction(int(x)) for x in row] for row in b_array(q)]
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
    b = b_array(q)
    for order in permutations(range(q.n)):
        seq = growth_sequence(b, order)
        if best_seq is None or seq < best_seq:
            best_seq = seq
            best_order = order
    m = b[np.ix_(best_order, best_order)]
    return q.n.to_bytes(2, "big") + m.astype(np.int64).tobytes()


def canonical_order_literal(q: Quiver) -> tuple[int, ...]:
    """The ordering the canonical search must pick, computed the slow way:
    every extension and every dedup profile is rebuilt from single matrix
    reads, with both the column and the row half spelled out, and nothing
    assumes skew-symmetry.  Partials are visited in the same order and the
    first-seen partial of each profile is kept, so the package's search must
    return exactly this ordering.  The matrix is read as nested lists only to
    keep the symmetric 12-vertex cases within test time."""
    b = [list(row) for row in q.rows]
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


def canonical_order_reference(q: Quiver) -> tuple[int, ...]:
    """The package's earlier canonical search, kept verbatim: columns are
    tuples of entries, compared lexicographically, and the search starts at
    level 1.  The package now reads each column as one integer and starts at
    level 2, and must return exactly this ordering."""
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


def iso_brute(q1: Quiver, q2: Quiver):
    """Try all permutations; return one mapping q1 onto q2, or None."""
    if q1.n != q2.n:
        return None
    n = q1.n
    b1, b2 = b_array(q1), b_array(q2)
    for perm in permutations(range(1, n + 1)):
        if all(
            b2[perm[i] - 1, perm[j] - 1] == b1[i, j]
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
        if q.rows[i][j] != 0
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
    return Quiver(b.tolist())


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
    return Quiver(b.tolist())


def ending_kcycle_brute(q: Quiver):
    """``find_ending_kcycle`` from its definition: over every cyclic vertex
    sequence ``v1 -> ... -> vk -> v1`` of single arrows with no other arrows
    among its vertices and with no vertex but ``vk`` joined to the rest of
    the quiver, the least k and then the least sequence, as ``(cycle, vk)``."""
    b = q.rows
    verts = range(1, q.n + 1)
    for k in range(3, q.n + 1):
        found = []
        for cyc in permutations(verts, k):
            arcs = {(cyc[i], cyc[(i + 1) % k]) for i in range(k)}
            if any(b[t - 1][h - 1] != 1 for t, h in arcs):
                continue
            chords = [
                (u, w)
                for u, w in combinations(cyc, 2)
                if b[u - 1][w - 1] != 0 and (u, w) not in arcs and (w, u) not in arcs
            ]
            attached = [
                v
                for v in cyc[:-1]
                if any(b[v - 1][w - 1] != 0 for w in verts if w not in cyc)
            ]
            if not chords and not attached:
                found.append(cyc)
        if found:
            return min(found), min(found)[-1]
    return None


def ending_kcycle_reference(q: Quiver):
    """``find_ending_kcycle`` as it was before it followed chains of through
    vertices: every chordless cycle, by length, then the rotations that put
    the only vertex joined to the rest of the quiver last (every rotation
    when none is).  Exponential in n, so only for small quivers."""
    rows = q.rows
    for layer in _chordless_cycles(rows):
        found = []
        for order, oriented in layer:
            if not oriented or any(
                rows[order[i - 1] - 1][order[i] - 1] != 1 for i in range(len(order))
            ):
                continue
            outside = [w for w in range(1, q.n + 1) if w not in order]
            attached = [
                v for v in order if any(rows[v - 1][w - 1] != 0 for w in outside)
            ]
            if len(attached) > 1:
                continue
            found.extend(
                tuple(order[pos + 1:] + order[: pos + 1])
                for pos, v in enumerate(order)
                if not attached or v == attached[0]
            )
        if found:
            best = min(found)
            return best, best[-1]
    return None


def dot_boundary_lines_reference(graph, boundary) -> set[str]:
    """DOT edge lines between boundary entries and component members, found
    from the boundary side: mutate every entry at every vertex and keep the
    results whose canonical key is a member."""
    from quivergreen.canonical import canonical_form
    from quivergreen.core import mutate

    lines = set()
    for entry in boundary:
        for k in range(1, entry.quiver.n + 1):
            nkey = canonical_form(mutate(entry.quiver, k))[0]
            if nkey.data in graph.nodes:
                a, b = sorted((entry.key.short(), nkey.short()))
                lines.add(f'  "{a}" -- "{b}";')
    return lines


def bad_subquiver_reference(q: Quiver):
    """The bad-subquiver scan over every vertex subset: by size 3..n, then
    subsets in lexicographic order, try the cyclic rank-3 rule (a 3-subset
    spanning an oriented cycle with all multiplicities at least 2), then each
    catalog entry whose ``no_mgs`` fact is True, by name, of that size, by
    permutation search.  Matrix entries are read through ``q.mult``."""
    from quivergreen import catalog
    from quivergreen.obstructions import (
        CatalogNoMgsObstruction,
        Rank3CyclicObstruction,
        SubquiverObstruction,
    )

    entries = []
    for name in catalog.names():
        entry = catalog.get(name)
        if entry.known_facts.get("no_mgs") is True:
            cq = entry.quiver
            rows = [[cq.mult(i, j) for j in range(1, cq.n + 1)] for i in range(1, cq.n + 1)]
            entries.append((name, rows))

    def isomorphic(m, rows):
        # equal sorted rows is necessary; only then try every permutation
        if sorted(sorted(r) for r in m) != sorted(sorted(r) for r in rows):
            return False
        size = len(m)
        return any(
            all(rows[p[i]][p[j]] == m[i][j] for i in range(size) for j in range(size))
            for p in permutations(range(size))
        )

    for size in range(3, q.n + 1):
        for vs in combinations(range(1, q.n + 1), size):
            m = [[q.mult(v, w) for w in vs] for v in vs]
            if size == 3:
                for order in ((1, 2, 3), (1, 3, 2)):
                    mults = tuple(m[order[i] - 1][order[(i + 1) % 3] - 1] for i in range(3))
                    if min(mults) >= 2:
                        return SubquiverObstruction(vs, Rank3CyclicObstruction(order, mults))
            for name, rows in entries:
                if len(rows) == size and isomorphic(m, rows):
                    return SubquiverObstruction(vs, CatalogNoMgsObstruction(name))
    return None


def search_mgs_reference(q: Quiver, max_len=None, max_states=None, prune=True):
    """The shortest-MGS search on ``FramedQuiver`` states, kept as the oracle
    for ``green.search_mgs`` and formulated independently of it: where the
    package search is one best-first pass over bare integer rows mutated by
    ``core._mutate_int``, this is iterative deepening on "depth + green
    count", layer by layer, with each state built by ``mutate_framed`` and
    keyed by its rows, every sequence extended, in every order, and every
    child built before the bound is read.  Status and certificate must
    agree with the package search, which builds only the states within the
    bound of its answer, so its ``states`` is at most this one.
    ``prune=False`` also takes the steps at heads of multiple arrows, which
    the package search always skips."""
    if max_len is None:
        max_len = default_max_len(q.n)
    if max_states is None:
        max_states = DEFAULT_MAX_STATES
    if max_len < 1:
        raise QuiverError("max_len must be at least 1")

    start = frame(q)
    start_key = start.rows
    # memoised across passes: key -> (state, green count), and
    # key -> [(k, child key or None when the mutation hit the cap), ...]
    built: dict[tuple, tuple[FramedQuiver, int]] = {start_key: (start, q.n)}
    edges: dict[tuple, list[tuple[int, Optional[tuple]]]] = {}
    capped = False
    bound = min(q.n, max_len)
    while True:
        next_bound = None
        reached = {start_key}
        layer: dict[tuple, tuple[int, ...]] = {start_key: ()}
        depth = 0
        while layer:
            depth += 1
            next_layer: dict[tuple, tuple[int, ...]] = {}
            for key, seq in layer.items():
                out = edges.get(key)
                if out is None:
                    fq = built[key][0]
                    out = []
                    for k in fq.green_vertices():
                        if prune and any(r[k - 1] >= 2 for r in fq.rows):
                            continue
                        try:
                            child = mutate_framed(fq, k)
                        except QuiverError:
                            out.append((k, None))
                            continue
                        ckey = child.rows
                        if ckey not in built:
                            green = sum(child.green_mask())
                            built[ckey] = (child, green)
                            if len(built) > max_states:
                                return SearchResult("budget", None, len(built))
                        out.append((k, ckey))
                    edges[key] = out
                for k, ckey in out:
                    if ckey is None:
                        capped = True
                        continue
                    if ckey in reached:
                        continue  # reached at a shorter depth already
                    cseq = seq + (k,)
                    if ckey in next_layer:
                        if cseq < next_layer[ckey]:
                            next_layer[ckey] = cseq
                        continue
                    need = depth + built[ckey][1]
                    if need > bound:
                        if next_bound is None or need < next_bound:
                            next_bound = need
                        continue
                    next_layer[ckey] = cseq
            goals = [seq for key, seq in next_layer.items() if built[key][1] == 0]
            if goals:
                best = min(goals)
                cert = verify_mgs(q, best)
                if cert is None:
                    raise InternalInvariantError(
                        f"search produced sequence {best} that fails verification"
                    )
                return SearchResult("found", cert, len(built))
            reached.update(next_layer)
            layer = next_layer
        if next_bound is None or next_bound > max_len:
            return SearchResult(
                "budget" if capped else "exhausted", None, len(built)
            )
        bound = next_bound


def acyclic_mgs_reference(q: Quiver):
    """MGS of an acyclic quiver by a framed walk, kept as the oracle for
    ``green.acyclic_mgs`` (which reads a topological order off the matrix):
    repeatedly mutate the least-index source of the subquiver induced on the
    still-green vertices."""
    if not is_acyclic(q):
        raise QuiverError("acyclic_mgs requires an acyclic quiver")
    fq = frame(q)
    seq = []
    for _ in range(4 * q.n + 4):
        greens = fq.green_vertices()
        if not greens:
            break
        block = fq.mutable_block().rows
        srcs = [
            v for v in greens if all(block[w - 1][v - 1] <= 0 for w in greens)
        ]
        if not srcs:
            raise InternalInvariantError(
                "green subquiver of an acyclic quiver lost all its sources"
            )
        k = min(srcs)
        fq = mutate_framed(fq, k)
        seq.append(k)
    cert = verify_mgs(q, seq)
    if cert is None:
        raise InternalInvariantError(
            f"source-mutation sequence {seq} failed verification"
        )
    return cert


def replay_reference(q: Quiver, seq):
    """The MGS replay on the full ``2n x 2n`` framed matrix, kept as the
    oracle for ``green.apply_green_sequence``: every entry of every state is
    computed by the textbook rule ``b'_ij = -b_ij`` when ``i`` or ``j`` is
    ``k``, else ``b_ij + (|b_ik| b_kj + b_ik |b_kj|) / 2``, arrows between
    frozen vertices are deleted, and every mutable row of every state is
    checked for sign-coherence, as the replay did when it built one
    ``FramedQuiver`` per step.  Returns the top ``n`` rows of the state
    reached, as tuples, and the ``ReplayStatus``; raises what the package
    replay raises, with the same message."""
    n = q.n
    m = 2 * n
    b = [[0] * m for _ in range(m)]
    for i in range(n):
        for j in range(n):
            b[i][j] = q.rows[i][j]
        b[i][n + i] = 1
        b[n + i][i] = -1

    def greens():
        flags = []
        for i in range(n):
            c = b[i][n:]
            green = any(c) and all(x >= 0 for x in c)
            red = any(c) and all(x <= 0 for x in c)
            if green == red:
                raise InternalInvariantError(
                    f"vertex {i + 1} is neither green nor red; framed state corrupt"
                )
            flags.append(green)
        return flags

    for idx, k in enumerate(seq, start=1):
        if isinstance(k, bool) or not isinstance(k, int):
            raise QuiverError(f"vertex at step {idx} must be an integer, got {k!r}")
        k = int(k)
        if not (1 <= k <= n):
            raise QuiverError(f"vertex {k} outside 1..{n} at step {idx}")
        if not greens()[k - 1]:
            return tuple(map(tuple, b[:n])), ReplayStatus(
                False, idx, k, f"vertex {k} is red at step {idx}"
            )
        kk = k - 1
        b = [
            [
                0
                if i >= n and j >= n
                else -b[i][j]
                if kk in (i, j)
                else b[i][j]
                + (abs(b[i][kk]) * b[kk][j] + b[i][kk] * abs(b[kk][j])) // 2
                for j in range(m)
            ]
            for i in range(m)
        ]
        if any(abs(x) > MULT_CAP for row in b for x in row):
            raise QuiverError(f"framed mutation at {k} overflows the multiplicity cap")
        assert all(b[i][j] == -b[j][i] for i in range(m) for j in range(m))
        greens()
    return tuple(map(tuple, b[:n])), ReplayStatus(True)


def check_mgs_reference(q: Quiver, seq):
    """``green.check_mgs`` on :func:`replay_reference`: the final frozen
    block must be minus a permutation matrix, and ``core.relabel`` by that
    permutation must map the final mutable block back onto ``q``."""
    seq = tuple(seq)
    if not seq:
        return None, "empty sequence cannot end all-red"
    rows, status = replay_reference(q, seq)
    if not status.ok:
        return None, status.reason
    n = q.n
    greens = tuple(i for i in range(1, n + 1) if max(rows[i - 1][n:]) > 0)
    if greens:
        return None, f"sequence ends with green vertices {greens}"
    sigma = []
    for row in rows:
        c = list(row[n:])
        if sorted(c) != [-1] + [0] * (n - 1):
            return None, "final frozen block is not minus a permutation matrix"
        sigma.append(c.index(-1) + 1)
    if len(set(sigma)) != n:
        return None, "final frozen block is not minus a permutation matrix"
    if relabel(Quiver([row[:n] for row in rows]), sigma) != q:
        return None, "induced permutation does not map the result back"
    return MgsCertificate(tuple(int(v) for v in seq), tuple(sigma)), ""


# The four traversals below are the mutation loops of ``exchange`` and
# ``obstructions`` as they were before each (node, vertex) pair that leads
# back to a known neighbour was skipped: every pair is mutated and
# canonicalised.  Their outputs must equal the package's.


def _canonical_rep(q: Quiver) -> tuple[CanonicalKey, Quiver]:
    # through the ``exchange`` binding, which the call-count pins patch
    key, sigma = exchange.canonical_form(q)
    return key, relabel(q, sigma)


def explore_reference(
    q: Quiver,
    max_nodes: int = DEFAULT_MAX_NODES,
    max_mult: int = DEFAULT_MAX_MULT,
) -> ExchangeGraph:
    max_nodes = _require_budget(max_nodes, "max_nodes")
    max_mult = _require_budget(max_mult, "max_mult")
    graph = ExchangeGraph(meta={"max_nodes": max_nodes, "max_mult": max_mult})
    key, rep = _canonical_rep(q)
    root = ExchangeNode(
        key, rep, 0, truncated=_over_mult(rep, max_mult)
    )
    graph.nodes[key.data] = root
    frontier = [root]
    while frontier:
        frontier.sort(key=lambda n: n.key.data)
        nxt = []
        for node in frontier:
            if node.truncated:
                graph.complete = False
                continue
            for k in range(1, node.quiver.n + 1):
                try:
                    child = mutate(node.quiver, k)
                except QuiverError:
                    # beyond exact integer range: same treatment as max_mult
                    node.truncated = True
                    graph.complete = False
                    continue
                ckey, crep = _canonical_rep(child)
                if ckey.data not in graph.nodes:
                    if len(graph.nodes) >= max_nodes:
                        # no node for the child, so no edge to it either
                        graph.complete = False
                        continue
                    cnode = ExchangeNode(
                        ckey,
                        crep,
                        node.layer + 1,
                        truncated=_over_mult(crep, max_mult),
                    )
                    graph.nodes[ckey.data] = cnode
                    nxt.append(cnode)
                graph.add_edge(ckey.data, node.key.data)
        frontier = nxt
    return graph


def psi_component_reference(
    q: Quiver,
    max_len: Optional[int] = None,
    max_states: Optional[int] = None,
    max_nodes: int = DEFAULT_MAX_NODES,
) -> PsiResult:
    if max_len is None:
        max_len = default_max_len(q.n) + q.n  # component members vary in girth
    if max_states is None:
        max_states = DEFAULT_MAX_STATES
    max_nodes = _require_budget(max_nodes, "max_nodes")
    key, rep = _canonical_rep(q)
    start = decide_mgs(rep, max_len, max_states)
    if not start.yes:
        raise QuiverError(
            "psi_component requires a starting quiver with a maximal green sequence"
        )
    graph = ExchangeGraph(
        meta={"max_len": max_len, "max_states": max_states, "max_nodes": max_nodes}
    )
    root = ExchangeNode(key, rep, 0, mgs=start)
    graph.nodes[key.data] = root
    boundary: dict[bytes, BoundaryEntry] = {}
    unresolved = 0
    frontier = [root]
    while frontier:
        frontier.sort(key=lambda n: n.key.data)
        nxt = []
        for node in frontier:
            for k in range(1, node.quiver.n + 1):
                try:
                    child = mutate(node.quiver, k)
                except QuiverError:
                    unresolved += 1  # neighbour beyond exact integer range
                    continue
                ckey, crep = _canonical_rep(child)
                if ckey.data in boundary:
                    boundary[ckey.data].members.add(node.key.data)
                    continue
                if ckey.data not in graph.nodes:
                    if len(graph.nodes) >= max_nodes:
                        graph.complete = False
                        unresolved += 1
                        continue
                    verdict = decide_mgs(crep, max_len, max_states)
                    if verdict.no:
                        boundary[ckey.data] = BoundaryEntry(
                            ckey, crep, verdict.obstruction, {node.key.data}
                        )
                        continue
                    if not verdict.yes:
                        unresolved += 1
                        continue
                    cnode = ExchangeNode(
                        ckey, crep, node.layer + 1, mgs=verdict
                    )
                    graph.nodes[ckey.data] = cnode
                    nxt.append(cnode)
                graph.add_edge(ckey.data, node.key.data)
        frontier = nxt
    complete = graph.complete and unresolved == 0
    entries = [boundary[k] for k in sorted(boundary)]
    return PsiResult(graph, entries, complete)


def enumerate_acyclic_reference(q: Quiver) -> list[Quiver]:
    if not is_acyclic(q):
        raise QuiverError("enumerate_acyclic requires an acyclic starting quiver")
    key, rep = _canonical_rep(q)
    found = {key.data: rep}
    frontier = [rep]
    while frontier:
        nxt = []
        for cur in frontier:
            for k in sorted(set(sources(cur)) | set(sinks(cur))):
                child = mutate(cur, k)
                ckey, crep = _canonical_rep(child)
                if ckey.data not in found:
                    found[ckey.data] = crep
                    nxt.append(crep)
        frontier = nxt
    return [found[k] for k in sorted(found)]


def is_mutation_acyclic_reference(
    q: Quiver, depth: int = 8, max_quivers: int = 10_000
) -> MutationAcyclicResult:
    adm = solve_admissibility(q)
    if not adm.satisfiable:
        return MutationAcyclicResult("no", admissibility=adm)
    if is_acyclic(q):
        return MutationAcyclicResult("yes", sequence=())
    seen = {canonical_key(q).data}
    frontier = [(q, ())]
    count = 1
    exhausted = True
    for _ in range(depth):
        nxt = []
        for cur, seq in frontier:
            for k in range(1, cur.n + 1):
                child = mutate(cur, k)
                key = canonical_key(child).data
                if key in seen:
                    continue
                seen.add(key)
                count += 1
                if is_acyclic(child):
                    return MutationAcyclicResult("yes", sequence=seq + (k,))
                if count <= max_quivers:
                    nxt.append((child, seq + (k,)))
                else:
                    exhausted = False
        if not nxt:
            if exhausted:
                return MutationAcyclicResult(
                    "unknown",
                    admissibility=adm,
                    note="class exhausted without an acyclic member",
                )
            break
        frontier = nxt
    return MutationAcyclicResult(
        "unknown", admissibility=adm, note="budget reached"
    )
