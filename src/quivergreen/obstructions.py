"""Machine-checkable reasons a quiver has no maximal green sequence, plus the
combined existence decider and related certificate checkers.

The pieces:

* quasi-Cartan admissibility as a parity system over GF(2): one equation per
  chordless cycle (oriented cycles need an odd number of ``+`` edges,
  non-oriented an even number), solved by elimination with a minimal
  inconsistent-cycle witness on failure;
* good-vertex analysis and the closed-form good-sequence trajectory of the
  rank-4 triangle-plus-apex family, whose parameters grow forever and
  therefore forbid a maximal green sequence;
* ``decide_mgs``: acyclic and rank-3 closed forms, a bad-subquiver scan (the
  cyclic rank-3 rule on vertex triples plus no-MGS catalog matches at the
  catalog's ranks), family matching, direct-sum and cycle-ending
  decompositions, then bounded search;
* separating-edge (Louise) certificate verification.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from itertools import combinations, permutations
from typing import Optional, Union

from .canonical import are_isomorphic
from .core import (
    MAX_DIRECT_SUM_N,
    Quiver,
    Rank3Params,
    RFamilyParams,
    _require_budget,
    _take,
    find_direct_sum,
    find_ending_kcycle,
    induced_cycles,
    induced_subquiver,
    is_acyclic,
    mutate,
    mutate_sequence,
    opposite,
    separating_edges,
    underlying_edges,
)
from .errors import CapabilityError, CertificateError, InternalInvariantError, QuiverError
from .green import (
    MgsCertificate,
    acyclic_mgs,
    default_max_len,
    direct_sum_mgs,
    kcycle_mgs,
    rank3_mgs,
    search_mgs,
    verify_mgs,
    DEFAULT_MAX_STATES,
)

# ---------------------------------------------------------------------------
# quasi-Cartan admissibility
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CompanionAssignment:
    """Sign per underlying edge; +1 encodes a positive companion entry."""

    signs: tuple[tuple[tuple[int, int], int], ...]

    def as_dict(self) -> dict[tuple[int, int], int]:
        return dict(self.signs)


@dataclass(frozen=True)
class AdmissibilityResult:
    satisfiable: bool
    assignment: Optional[CompanionAssignment] = None
    # inconsistent cycles, each as (ordered vertex tuple, oriented flag)
    witness_cycles: tuple[tuple[tuple[int, ...], bool], ...] = ()


def _cycle_constraints(q: Quiver):
    """(edge list, [(mask, parity, cycle), ...]) for the parity system."""
    edges = underlying_edges(q)
    edge_index = {e: i for i, e in enumerate(edges)}
    rows = []
    for cycle, oriented in induced_cycles(q):
        mask = 0
        size = len(cycle)
        for i in range(size):
            a, b = cycle[i], cycle[(i + 1) % size]
            mask |= 1 << edge_index[(min(a, b), max(a, b))]
        rows.append((mask, 1 if oriented else 0, (cycle, oriented)))
    return edges, rows


def _gf2_unsat_witness(rows: list[tuple[int, int]]) -> Optional[list[int]]:
    """Indices of rows XOR-ing to the contradiction 0 = 1, or None if SAT."""
    basis: dict[int, tuple[int, int, int]] = {}
    for idx, (mask, parity) in enumerate(rows):
        hist = 1 << idx
        while mask:
            low = mask & (-mask)
            if low not in basis:
                basis[low] = (mask, parity, hist)
                break
            bm, bp, bh = basis[low]
            mask ^= bm
            parity ^= bp
            hist ^= bh
        else:
            if parity:
                return [i for i in range(idx + 1) if hist >> i & 1]
    return None


def solve_admissibility(q: Quiver) -> AdmissibilityResult:
    """Decide whether the cycle-parity system has a solution.

    SAT returns the lexicographically least sign vector over the sorted edge
    list (preferring ``-``); UNSAT returns an inclusion-minimal set of cycles
    whose parity equations are jointly contradictory.
    """
    edges, rows = _cycle_constraints(q)
    plain = [(m, p) for m, p, _ in rows]
    witness = _gf2_unsat_witness(plain)
    if witness is not None:
        # shrink to an inclusion-minimal inconsistent subset
        subset = list(witness)
        for idx in list(subset):
            trial = [i for i in subset if i != idx]
            if _gf2_unsat_witness([plain[i] for i in trial]) is not None:
                subset = trial
        return AdmissibilityResult(
            satisfiable=False,
            witness_cycles=tuple(rows[i][2] for i in subset),
        )
    # greedy lexicographically least solution: fix edges in order, prefer -
    fixed: list[tuple[int, int]] = []  # (mask with single bit, value)
    for pos in range(len(edges)):
        bit = 1 << pos
        trial = plain + [(f, v) for f, v in fixed] + [(bit, 0)]
        value = 0 if _gf2_unsat_witness(trial) is None else 1
        fixed.append((bit, value))
    signs = tuple(
        (edges[pos], 1 if value else -1) for pos, (_, value) in enumerate(fixed)
    )
    return AdmissibilityResult(True, CompanionAssignment(signs))


def assignment_is_admissible(q: Quiver, assignment: CompanionAssignment) -> bool:
    """Independent re-check: every chordless cycle satisfies its parity rule."""
    table = assignment.as_dict()
    if set(table) != set(underlying_edges(q)):
        return False
    for cycle, oriented in induced_cycles(q):
        size = len(cycle)
        positives = 0
        for i in range(size):
            a, b = cycle[i], cycle[(i + 1) % size]
            if table[(min(a, b), max(a, b))] > 0:
                positives += 1
        if positives % 2 != (1 if oriented else 0):
            return False
    return True


def flip_vertex_signs(
    q: Quiver, assignment: CompanionAssignment, v: int
) -> CompanionAssignment:
    """Flip the sign of every edge at ``v``; maps admissible to admissible."""
    signs = tuple(
        (edge, -s if v in edge else s) for edge, s in assignment.signs
    )
    return CompanionAssignment(signs)


# ---------------------------------------------------------------------------
# obstruction data
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Rank3CyclicObstruction:
    """An oriented 3-cycle whose multiplicities are all at least 2."""

    vertices: tuple[int, int, int]  # in arrow order v1 -> v2 -> v3 -> v1
    mults: tuple[int, int, int]


@dataclass(frozen=True)
class CatalogNoMgsObstruction:
    """Isomorphic to a bundled quiver known to admit no MGS."""

    name: str


@dataclass(frozen=True)
class RFamilyObstruction:
    """Matches the rank-4 family region whose good sequences diverge.

    ``matched`` records whether the quiver itself or its opposite is
    isomorphic to the plain normal form with these parameters; ``delta`` is
    the per-round multiplicity growth, and ``preview`` the parameter triples
    after one and two good mutations.
    """

    params: tuple[int, int, int]
    matched: str  # "plain" | "opposite"
    delta: int
    preview: tuple[tuple[int, int, int], ...] = ()


@dataclass(frozen=True)
class SubquiverObstruction:
    """An induced subquiver (given by its vertices) has no MGS."""

    vertices: tuple[int, ...]
    inner: Union[
        Rank3CyclicObstruction, CatalogNoMgsObstruction, "RFamilyObstruction"
    ]


Obstruction = Union[
    Rank3CyclicObstruction,
    CatalogNoMgsObstruction,
    RFamilyObstruction,
    SubquiverObstruction,
]


@dataclass(frozen=True)
class MgsVerdict:
    kind: str  # "yes" | "no" | "unknown"
    certificate: Optional[MgsCertificate] = None
    obstruction: Optional[Obstruction] = None
    budgets: dict = field(default_factory=dict)

    @property
    def yes(self) -> bool:
        return self.kind == "yes"

    @property
    def no(self) -> bool:
        return self.kind == "no"


# ---------------------------------------------------------------------------
# rank-3 and catalog helpers
# ---------------------------------------------------------------------------


def _rank3_cycle(
    rows: tuple[tuple[int, ...], ...], vs: tuple[int, int, int]
) -> Optional[tuple[tuple[int, int, int], tuple[int, int, int]]]:
    """If the vertices ``vs`` (``rows`` the matrix as row tuples) span an
    oriented 3-cycle, its order ``(v1, v2, v3)`` in positions 1..3 of ``vs``,
    ``(1, 2, 3)`` or ``(1, 3, 2)``, and multiplicities ``(a, b, c)`` with
    ``a`` arrows v1 -> v2, ``b`` arrows v2 -> v3, ``c`` arrows v3 -> v1;
    else None."""
    x, y, z = (v - 1 for v in vs)
    a, b, c = rows[x][y], rows[y][z], rows[z][x]
    if a > 0 and b > 0 and c > 0:
        return (1, 2, 3), (a, b, c)
    if a < 0 and b < 0 and c < 0:  # the cycle x -> z -> y -> x
        return (1, 3, 2), (-c, -b, -a)
    return None


def _core(rows, k: int) -> set[int]:
    """The vertices (0-based) of the k-core of the underlying graph: what is
    left after removing, again and again, a vertex with fewer than ``k``
    neighbours left.  Every vertex set whose induced graph has least degree
    at least ``k`` lies inside it."""
    left = set(range(len(rows)))
    degree = [len(row) - row.count(0) for row in rows]
    low = [v for v in left if degree[v] < k]
    while low:
        v = low.pop()
        left.discard(v)
        for w, x in enumerate(rows[v]):
            if x and w in left:
                degree[w] -= 1
                if degree[w] == k - 1:
                    low.append(w)
    return left


@functools.cache
def _no_mgs_catalog_entries() -> tuple[tuple[str, Quiver, int, int], ...]:
    """(name, quiver, multiple arrows, least degree) of the catalog entries
    whose ``no_mgs`` fact is True, by name, built once: the catalog never
    changes.  A full subquiver has at most as many multiple arrows as the
    whole quiver and lies in the core of its least degree, so the last two
    fields rule entries out before any isomorphism test.  Rank-3 entries are
    skipped: a rank-3 quiver without an MGS is an oriented 3-cycle with all
    multiplicities at least 2, so the rank-3 rule already catches every one
    of them."""
    from . import catalog

    out = []
    for name in catalog.names():
        entry = catalog.get(name)
        cq = entry.quiver
        if entry.known_facts.get("no_mgs") is True and cq.n != 3:
            multiple = sum(x >= 2 for row in cq.rows for x in row)
            least = min(len(row) - row.count(0) for row in cq.rows)
            out.append((name, cq, multiple, least))
    return tuple(out)


def _find_bad_subquiver(q: Quiver) -> Optional[SubquiverObstruction]:
    """First full subquiver with no MGS by a stated rule: the rank-3 rule
    (an oriented 3-cycle with all multiplicities at least 2) on vertex
    triples in lexicographic order, then a match against the no-MGS catalog
    entries, tried only at their ranks (by size, subset, then entry).

    The rule needs a multiple arrow (|b| >= 2) between each pair of a
    triple, so only the triples i < j < k with j and k among the multiple
    arrows of i, and j joined to k by one, are tried, in the same order.
    An entry is tried only if ``q`` has at least as many multiple arrows: at
    the rank of ``q`` on ``q`` itself, and below it only on the subsets
    inside the core of the entry's least degree (see ``_core``), enumerated
    in the same order as all subsets."""
    rows = q.rows
    n = q.n
    multiple = 0
    for i, row in enumerate(rows):
        later = [j for j in range(i + 1, n) if row[j] >= 2 or row[j] <= -2]
        multiple += len(later)
        for pos, j in enumerate(later):
            row_j = rows[j]
            for k in later[pos + 1:]:
                if row_j[k] >= 2 or row_j[k] <= -2:
                    vs = (i + 1, j + 1, k + 1)
                    shape = _rank3_cycle(rows, vs)
                    if shape is not None:
                        return SubquiverObstruction(vs, Rank3CyclicObstruction(*shape))
    entries = [e for e in _no_mgs_catalog_entries() if e[1].n <= n and e[2] <= multiple]
    if not entries:
        return None
    for size in sorted({cq.n for _, cq, _, _ in entries}):
        if size == n:
            for name, cq, _, _ in entries:
                if cq.n == n and are_isomorphic(q, cq) is not None:
                    verts = tuple(range(1, n + 1))
                    return SubquiverObstruction(verts, CatalogNoMgsObstruction(name))
            continue
        cores = {}
        tried = []  # (name, quiver, core) of the entries of this size
        for name, cq, _, least in entries:
            if cq.n == size:
                if least not in cores:
                    cores[least] = _core(rows, least)
                tried.append((name, cq, cores[least]))
        span = sorted(set().union(*cores.values()))
        for vs in combinations(span, size):
            sub = None
            for name, cq, core in tried:
                if core.issuperset(vs):
                    if sub is None:
                        sub = Quiver._trusted(_take(rows, vs))
                    if are_isomorphic(sub, cq) is not None:
                        return SubquiverObstruction(
                            tuple(v + 1 for v in vs), CatalogNoMgsObstruction(name)
                        )
    return None


# ---------------------------------------------------------------------------
# the rank-4 divergent family
# ---------------------------------------------------------------------------


def match_r_family(q: Quiver) -> list[tuple[int, int, int]]:
    """Parameter triples ``(a, b, c)`` with ``q`` isomorphic to the plain
    normal form (triangle 2->1, 2->3, 1->3 plus apex arrows 4->1 x a,
    4->2 x b, 3->4 x c)."""
    if q.n != 4:
        return []
    b = q.rows
    found = set()
    for v1, v2, v3, v4 in permutations(range(4)):
        if b[v2][v1] != 1 or b[v2][v3] != 1 or b[v1][v3] != 1:
            continue
        triple = (b[v4][v1], b[v4][v2], b[v3][v4])
        if min(triple) >= 0:
            found.add(triple)
    return sorted(found)


def r_family_diverges(a: int, b: int, c: int) -> bool:
    """True when good sequences of the family member (or of its opposite)
    provably never return: multiplicities from the apex at least 2, the free
    corner at most ``c - 2``, and a strictly growing round increment."""
    if b < 2 or c < 2 or c - a < 2:
        return False
    if c > b:
        return c - b - a > 0
    return b > c


def _trajectory_params(p: RFamilyParams, k: int) -> RFamilyParams:
    a, b, c = p.a, p.b, p.c
    n, odd = divmod(k, 2)
    if not p.opposite:
        d = c - b - a
        if odd:
            return RFamilyParams(c - b, b + (n + 1) * d, c + n * d, opposite=True)
        return RFamilyParams(a, b + n * d, c + n * d, opposite=False)
    d = b + a - c
    if odd:
        return RFamilyParams(b - c, c + (n + 1) * d, b + n * d, opposite=True)
    return RFamilyParams(a, b + n * d, c + n * d, opposite=True)


def r_family_trajectory(p: RFamilyParams, k: int) -> Quiver:
    """Closed-form image of the family member after a good sequence of
    length ``k``, returned in normal form.

    Every step of a good sequence mutates the unique good vertex, so the
    image is forced; within the valid region the parameters grow by
    ``|c - b - a|`` per round and the quiver never returns to itself.
    """
    from .catalog import make_r_family

    a, b, c = p.a, p.b, p.c
    if c - a < 2 or abs(c - b - a) == 0:
        raise QuiverError(f"{p} is outside the trajectory region")
    if not p.opposite and not (c > b >= 2):
        raise QuiverError("plain trajectory requires c > b >= 2")
    if p.opposite and not (b > c >= 2):
        raise QuiverError("opposite trajectory requires b > c >= 2")
    if k < 0:
        raise QuiverError("trajectory length must be nonnegative")
    out = _trajectory_params(p, k)
    return make_r_family(out.a, out.b, out.c, opposite=out.opposite)


def _match_r_obstruction(q: Quiver) -> Optional[RFamilyObstruction]:
    for matched, probe in (("plain", q), ("opposite", opposite(q))):
        for a, b, c in match_r_family(probe):
            if r_family_diverges(a, b, c):
                delta = abs(c - b - a)
                start = RFamilyParams(a, b, c, opposite=(c < b))
                preview = tuple(
                    (t.a, t.b, t.c)
                    for t in (_trajectory_params(start, 1), _trajectory_params(start, 2))
                )
                return RFamilyObstruction((a, b, c), matched, delta, preview)
    return None


# ---------------------------------------------------------------------------
# good vertices
# ---------------------------------------------------------------------------


def good_vertices(q: Quiver) -> tuple[int, ...]:
    """Vertices that are not the head of a multiple arrow and whose mutation
    creates no full subquiver that the bad-subquiver scan flags (the cyclic
    rank-3 rule on vertex triples plus no-MGS catalog matches at the
    catalog's ranks).  Supported for rank 3 and 4."""
    if q.n not in (3, 4):
        raise CapabilityError("good-vertex analysis is implemented for rank 3 and 4")
    out = []
    for k in range(1, q.n + 1):
        if any(row[k - 1] >= 2 for row in q.rows):
            continue  # head of a multiple arrow
        image = mutate(q, k)
        if _find_bad_subquiver(image) is None:
            out.append(k)
    return tuple(out)


# ---------------------------------------------------------------------------
# the combined decider
# ---------------------------------------------------------------------------


def recheck_obstruction(q: Quiver, obs: Obstruction) -> bool:
    """Independently re-establish that ``obs`` rules out an MGS for ``q``."""
    if isinstance(obs, Rank3CyclicObstruction):
        if q.n != 3:
            return False
        shape = _rank3_cycle(q.rows, (1, 2, 3))
        return (
            shape is not None
            and shape == (obs.vertices, obs.mults)
            and min(obs.mults) >= 2
        )
    if isinstance(obs, CatalogNoMgsObstruction):
        from . import catalog

        try:
            entry = catalog.get(obs.name)
        except KeyError:
            return False
        return (
            entry.known_facts.get("no_mgs") is True
            and are_isomorphic(q, entry.quiver) is not None
        )
    if isinstance(obs, RFamilyObstruction):
        from .catalog import make_r_family

        a, b, c = obs.params
        if not r_family_diverges(a, b, c):
            return False
        probe = q if obs.matched == "plain" else opposite(q)
        return are_isomorphic(probe, make_r_family(a, b, c)) is not None
    if isinstance(obs, SubquiverObstruction):
        sub, _ = induced_subquiver(q, obs.vertices)
        return recheck_obstruction(sub, obs.inner)
    return False


def _decide_rank3(q: Quiver) -> MgsVerdict:
    shape = _rank3_cycle(q.rows, (1, 2, 3))
    if shape is None:
        raise InternalInvariantError("rank-3 decider called on a non-cyclic quiver")
    (v1, v2, v3), (a, b, c) = shape
    if min(a, b, c) >= 2:
        return MgsVerdict("no", obstruction=Rank3CyclicObstruction((v1, v2, v3), (a, b, c)))
    base = rank3_mgs(Rank3Params(a, b, c))
    order = (v1, v2, v3)
    seq = tuple(order[w - 1] for w in base.sequence)
    cert = verify_mgs(q, seq)
    if cert is None:
        raise InternalInvariantError("relabelled rank-3 sequence failed")
    return MgsVerdict("yes", certificate=cert)


def decide_mgs(
    q: Quiver,
    max_len: Optional[int] = None,
    max_states: Optional[int] = None,
) -> MgsVerdict:
    """Decide whether ``q`` has a maximal green sequence.

    Tries, in order: the acyclic construction; the rank-3 classification; a
    scan for induced subquivers that forbid an MGS; matching against the
    divergent rank-4 family; direct-sum (up to ``MAX_DIRECT_SUM_N``
    vertices) and cycle-ending decompositions (recursing on the parts); and
    finally the shortest-MGS search, one best-first pass on the green-count
    bound that returns the lexicographically least of the shortest
    sequences.
    Either answer comes with a replayable certificate or a re-checked
    obstruction; running out of budget yields "unknown".
    """
    max_len = _require_budget(
        default_max_len(q.n) if max_len is None else max_len, "max_len"
    )
    max_states = _require_budget(
        DEFAULT_MAX_STATES if max_states is None else max_states, "max_states"
    )
    budgets = {"max_len": max_len, "max_states": max_states}

    def no(obstruction: Obstruction) -> MgsVerdict:
        if not recheck_obstruction(q, obstruction):
            raise InternalInvariantError(f"obstruction failed its re-check: {obstruction}")
        return MgsVerdict("no", obstruction=obstruction)

    if is_acyclic(q):
        return MgsVerdict("yes", certificate=acyclic_mgs(q))
    if q.n == 3:
        return _decide_rank3(q)

    bad = _find_bad_subquiver(q)
    if bad is not None:
        if len(bad.vertices) == q.n and isinstance(bad.inner, CatalogNoMgsObstruction):
            return no(bad.inner)
        return no(bad)

    r_obs = _match_r_obstruction(q)
    if r_obs is not None:
        return no(r_obs)

    # every direct-sum part and every cycle core is strictly smaller than
    # q, so the recursion ends
    ds = find_direct_sum(q) if q.n <= MAX_DIRECT_SUM_N else None
    if ds is not None:
        sub_l, _ = induced_subquiver(q, ds.part_left)
        sub_r, _ = induced_subquiver(q, ds.part_right)
        left = decide_mgs(sub_l, max_len, max_states)
        right = decide_mgs(sub_r, max_len, max_states)
        if left.no:
            return no(_lift(left.obstruction, ds.part_left))
        if right.no:
            return no(_lift(right.obstruction, ds.part_right))
        if left.yes and right.yes:
            cert = direct_sum_mgs(q, ds, left.certificate, right.certificate)
            return MgsVerdict("yes", certificate=cert)

    kc = find_ending_kcycle(q)
    if kc is not None:
        cycle, _ = kc
        core_vs = tuple(sorted(set(range(1, q.n + 1)) - set(cycle[:-1])))
        sub_c, _ = induced_subquiver(q, core_vs)
        core = decide_mgs(sub_c, max_len, max_states)
        if core.no:
            return no(_lift(core.obstruction, core_vs))
        if core.yes:
            cert = kcycle_mgs(q, kc, core.certificate)
            return MgsVerdict("yes", certificate=cert)

    result = search_mgs(q, max_len, max_states)
    if result.found:
        return MgsVerdict("yes", certificate=result.certificate)
    budgets["search_status"] = result.status
    budgets["search_states"] = result.states
    return MgsVerdict("unknown", budgets=budgets)


def _lift(obs: Obstruction, vertices: tuple[int, ...]) -> Obstruction:
    """Re-express an obstruction found in the induced subquiver on the
    sorted vertex tuple ``vertices`` (relabelled ``1..len(vertices)`` in
    that order) as a subquiver obstruction of the parent quiver.

    The relabelling is monotone, so a nested obstruction stated in the
    part's own coordinates stays valid verbatim for the parent's induced
    subquiver on the mapped vertex set.
    """
    if isinstance(obs, SubquiverObstruction):
        mapped = tuple(vertices[v - 1] for v in obs.vertices)
        return SubquiverObstruction(mapped, obs.inner)
    return SubquiverObstruction(vertices, obs)


# ---------------------------------------------------------------------------
# serialization and rendering
# ---------------------------------------------------------------------------


def obstruction_to_json(obs: Obstruction) -> dict:
    if isinstance(obs, Rank3CyclicObstruction):
        return {
            "kind": "rank3_cyclic",
            "vertices": list(obs.vertices),
            "mults": list(obs.mults),
        }
    if isinstance(obs, CatalogNoMgsObstruction):
        return {"kind": "catalog", "name": obs.name}
    if isinstance(obs, RFamilyObstruction):
        return {
            "kind": "r_family",
            "params": list(obs.params),
            "matched": obs.matched,
            "delta": obs.delta,
            "preview": [list(p) for p in obs.preview],
        }
    if isinstance(obs, SubquiverObstruction):
        return {
            "kind": "subquiver",
            "vertices": list(obs.vertices),
            "inner": obstruction_to_json(obs.inner),
        }
    raise CertificateError(f"not an obstruction: {obs!r}")


def describe_obstruction(obs: Obstruction) -> str:
    """One-line human-readable reason the quiver has no MGS."""
    if isinstance(obs, Rank3CyclicObstruction):
        a, b, c = obs.mults
        return (
            f"oriented 3-cycle {obs.vertices} with multiplicities "
            f"({a},{b},{c}), all at least 2"
        )
    if isinstance(obs, CatalogNoMgsObstruction):
        return f"isomorphic to the catalog quiver {obs.name}, which has no MGS"
    if isinstance(obs, RFamilyObstruction):
        a, b, c = obs.params
        side = "" if obs.matched == "plain" else " after reversing all arrows"
        return (
            f"matches the divergent rank-4 family with parameters ({a},{b},{c})"
            f"{side}; good sequences grow by {obs.delta} per round and never return"
        )
    if isinstance(obs, SubquiverObstruction):
        inner = describe_obstruction(obs.inner)
        vs = "{" + ",".join(map(str, obs.vertices)) + "}"
        return f"induced subquiver on {vs} has no MGS: {inner}"
    return repr(obs)


def verdict_to_json(verdict: MgsVerdict) -> dict:
    out: dict = {"verdict": verdict.kind}
    if verdict.yes:
        out["sequence"] = list(verdict.certificate.sequence)
        out["permutation"] = list(verdict.certificate.permutation)
    elif verdict.no:
        out["obstruction"] = obstruction_to_json(verdict.obstruction)
    else:
        out["budgets"] = dict(sorted(verdict.budgets.items()))
    return out


# ---------------------------------------------------------------------------
# Louise certificates
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LouiseNoEdges:
    kind: str = "no_edges"


@dataclass(frozen=True)
class LouiseAcyclicLeaf:
    kind: str = "acyclic"


@dataclass(frozen=True)
class LouiseNode:
    mutations: tuple[int, ...]
    edge: tuple[int, int]
    minus_tail: "LouiseCertificate"
    minus_head: "LouiseCertificate"
    minus_both: "LouiseCertificate"
    kind: str = "node"


LouiseCertificate = Union[LouiseNoEdges, LouiseAcyclicLeaf, LouiseNode]


def louise_to_json(cert: LouiseCertificate) -> dict:
    if isinstance(cert, LouiseNoEdges):
        return {"kind": "no_edges"}
    if isinstance(cert, LouiseAcyclicLeaf):
        return {"kind": "acyclic"}
    return {
        "kind": "node",
        "mutations": list(cert.mutations),
        "edge": list(cert.edge),
        "children": [
            louise_to_json(cert.minus_tail),
            louise_to_json(cert.minus_head),
            louise_to_json(cert.minus_both),
        ],
    }


def louise_from_json(data) -> LouiseCertificate:
    if not isinstance(data, dict) or "kind" not in data:
        raise CertificateError("certificate node must be an object with a kind")
    kind = data["kind"]
    if kind == "no_edges":
        return LouiseNoEdges()
    if kind == "acyclic":
        return LouiseAcyclicLeaf()
    if kind == "node":
        try:
            mutations = tuple(data["mutations"])
            i, j = data["edge"]
            children = data["children"]
            if len(children) != 3:
                raise CertificateError("a node needs exactly three children")
        except (KeyError, TypeError, ValueError) as exc:
            raise CertificateError(f"malformed certificate node: {exc}") from exc
        # type(), not isinstance(): a bool is an int, and must be rejected too
        if any(type(v) is not int for v in (*mutations, i, j)):
            raise CertificateError("certificate vertices must be JSON integers")
        return LouiseNode(
            mutations,
            (i, j),
            louise_from_json(children[0]),
            louise_from_json(children[1]),
            louise_from_json(children[2]),
        )
    raise CertificateError(f"unknown certificate kind {kind!r}")


def verify_louise_certificate(q: Quiver, cert: LouiseCertificate) -> bool:
    """Check a separating-edge decomposition certificate.

    A quiver qualifies outright when it has no arrows, or when it is acyclic.
    Otherwise the certificate names a mutation path to some class member with
    a separating arrow ``i -> j`` and recursively certifies the subquivers
    obtained by deleting ``i``, ``j`` and both (children are stated in the
    relabelled coordinates of those subquivers).  Malformed structure raises;
    a well-formed certificate that fails a condition returns False.
    """
    if isinstance(cert, LouiseNoEdges):
        return not q.arrows()
    if isinstance(cert, LouiseAcyclicLeaf):
        return is_acyclic(q)
    if not isinstance(cert, LouiseNode):
        raise CertificateError(f"not a certificate: {cert!r}")
    for k in cert.mutations:
        if not (1 <= k <= q.n):
            raise CertificateError(f"mutation vertex {k} outside 1..{q.n}")
    moved = mutate_sequence(q, cert.mutations)
    i, j = cert.edge
    if not (1 <= i <= q.n and 1 <= j <= q.n) or i == j:
        raise CertificateError(f"edge {cert.edge} is malformed")
    if moved.mult(i, j) <= 0:
        return False
    if (i, j) not in separating_edges(moved):
        return False
    remaining = set(range(1, q.n + 1))
    for vs, child in (
        (remaining - {i}, cert.minus_tail),
        (remaining - {j}, cert.minus_head),
        (remaining - {i, j}, cert.minus_both),
    ):
        if not vs:
            if not isinstance(child, LouiseNoEdges):
                return False
            continue
        sub, _ = induced_subquiver(moved, vs)
        if not verify_louise_certificate(sub, child):
            return False
    return True
