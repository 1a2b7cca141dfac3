import json

import numpy as np
import pytest

import quivergreen.core as core
from quivergreen.canonical import canonical_key
from quivergreen.catalog import get, make_lin3, make_r_family, make_rank3, make_theta
from quivergreen.catalog import names as catalog_names
from quivergreen.core import (
    Quiver,
    RFamilyParams,
    induced_subquiver,
    is_acyclic,
    mutate,
    opposite,
    relabel,
)
from quivergreen.errors import CapabilityError, CertificateError, QuiverError
from quivergreen.exchange import is_mutation_acyclic
from quivergreen.green import verify_mgs
from quivergreen.obstructions import (
    CatalogNoMgsObstruction,
    Rank3CyclicObstruction,
    RFamilyObstruction,
    SubquiverObstruction,
    assignment_is_admissible,
    decide_mgs,
    describe_obstruction,
    flip_vertex_signs,
    good_vertices,
    louise_from_json,
    louise_to_json,
    match_r_family,
    obstruction_to_json,
    r_family_trajectory,
    recheck_obstruction,
    solve_admissibility,
    verify_louise_certificate,
    _find_bad_subquiver,
)

from oracles import (
    admissible_brute,
    b_array,
    bad_subquiver_reference,
    random_acyclic_quiver,
    random_quiver,
)


# ---------------------------------------------------------------------------
# admissibility
# ---------------------------------------------------------------------------


def test_admissibility_unsat_trio():
    for name in ("K4", "W5", "W5p"):
        result = solve_admissibility(get(name).quiver)
        assert not result.satisfiable, name
        assert result.witness_cycles


def test_unsat_witness_xors_to_contradiction():
    for name in ("K4", "W5", "W5p"):
        q = get(name).quiver
        result = solve_admissibility(q)
        # every edge must appear an even number of times across the witness
        # cycles while the orientation parities sum to 1 (mod 2)
        edge_uses: dict = {}
        parity = 0
        for cycle, oriented in result.witness_cycles:
            parity ^= 1 if oriented else 0
            size = len(cycle)
            for i in range(size):
                a, b = cycle[i], cycle[(i + 1) % size]
                e = (min(a, b), max(a, b))
                edge_uses[e] = edge_uses.get(e, 0) + 1
        assert all(v % 2 == 0 for v in edge_uses.values())
        assert parity == 1


def test_unsat_witness_is_minimal():
    for name in ("K4", "W5", "W5p"):
        q = get(name).quiver
        result = solve_admissibility(q)
        cycles = list(result.witness_cycles)
        # dropping any single cycle breaks the contradiction
        for drop in range(len(cycles)):
            edge_uses: dict = {}
            parity = 0
            for idx, (cycle, oriented) in enumerate(cycles):
                if idx == drop:
                    continue
                parity ^= 1 if oriented else 0
                size = len(cycle)
                for i in range(size):
                    a, b = cycle[i], cycle[(i + 1) % size]
                    e = (min(a, b), max(a, b))
                    edge_uses[e] = edge_uses.get(e, 0) + 1
            still_contradiction = (
                all(v % 2 == 0 for v in edge_uses.values()) and parity == 1
            )
            assert not still_contradiction


def test_acyclic_quivers_are_sat_all_minus():
    rng = np.random.default_rng(61)
    for _ in range(100):
        q = random_acyclic_quiver(rng, int(rng.integers(2, 7)), 2)
        result = solve_admissibility(q)
        assert result.satisfiable
        # lexicographically least solution prefers minus everywhere, and for
        # acyclic quivers all-minus works outright
        assert all(s == -1 for _, s in result.assignment.signs)


def test_sat_assignments_recheck():
    rng = np.random.default_rng(67)
    for _ in range(150):
        q = random_quiver(rng, int(rng.integers(2, 6)), 2)
        result = solve_admissibility(q)
        if result.satisfiable:
            assert assignment_is_admissible(q, result.assignment)


def test_sign_flip_preserves_admissibility():
    rng = np.random.default_rng(71)
    flipped = 0
    for _ in range(100):
        q = random_quiver(rng, int(rng.integers(3, 6)), 2)
        result = solve_admissibility(q)
        if not result.satisfiable or not result.assignment.signs:
            continue
        for v in range(1, q.n + 1):
            assert assignment_is_admissible(q, flip_vertex_signs(q, result.assignment, v))
        flipped += 1
    assert flipped > 30


def test_admissibility_matches_bruteforce():
    rng = np.random.default_rng(73)
    for _ in range(200):
        q = random_quiver(rng, int(rng.integers(2, 6)), 2)
        assert solve_admissibility(q).satisfiable == (
            admissible_brute(q) is not None
        )


# ---------------------------------------------------------------------------
# mutation-acyclicity
# ---------------------------------------------------------------------------


def test_mutation_acyclic():
    assert is_mutation_acyclic(get("K4").quiver).kind == "no"
    probe = is_mutation_acyclic(make_rank3(1, 1, 1), 1, 10)
    assert probe.kind == "yes" and len(probe.sequence) == 1
    path = make_lin3(1, 1)
    assert is_mutation_acyclic(path, 0, 1).kind == "yes"
    assert is_mutation_acyclic(path, 0, 1).sequence == ()


def test_mutation_acyclic_witness_replays():
    rng = np.random.default_rng(79)
    for _ in range(40):
        q = random_quiver(rng, int(rng.integers(2, 5)), 2)
        probe = is_mutation_acyclic(q, depth=4, max_quivers=500)
        if probe.kind == "yes":
            from quivergreen.core import mutate_sequence

            assert is_acyclic(mutate_sequence(q, probe.sequence))


# ---------------------------------------------------------------------------
# the bad-subquiver scan
# ---------------------------------------------------------------------------


def test_bad_subquiver_scan_matches_reference_on_random_quivers():
    rng = np.random.default_rng(97)
    found = 0
    for _ in range(210):
        n = int(rng.integers(3, 9))
        q = random_quiver(rng, n, int(rng.integers(1, 4)))
        expected = bad_subquiver_reference(q)
        assert _find_bad_subquiver(q) == expected, q.arrows()
        found += expected is not None
    assert 0 < found < 210  # both outcomes occur


def _with_eighth_vertex(q: Quiver, attach: tuple[int, ...]) -> Quiver:
    """``q`` (rank 7) plus vertex 8 with ``attach[v-1]`` arrows 8 -> v
    (negative: v -> 8)."""
    b = np.zeros((8, 8), dtype=np.int64)
    b[:7, :7] = b_array(q)
    b[7, :7] = attach
    b[:7, 7] = [-m for m in attach]
    return Quiver(b.tolist())


def test_bad_subquiver_scan_matches_reference_on_catalog_and_x7_extensions():
    for name in catalog_names():
        q = get(name).quiver
        assert _find_bad_subquiver(q) == bad_subquiver_reference(q), name
    rng = np.random.default_rng(101)
    attachments = [
        (0, 0, 0, 0, 0, 0, 0),
        (0, 0, 0, 0, 0, 0, 1),
        (1, 0, 0, 0, 0, 0, -1),
        (1, -1, 1, -1, 1, -1, 0),
        (-1, 1, 0, 1, 0, -1, 1),
        (2, -2, 0, 0, 0, 0, 0),
        (0, 0, 0, 2, 0, 0, -2),
    ]
    caught = set()
    for name in ("X7", "X7_twin"):
        for attach in attachments:
            q = _with_eighth_vertex(get(name).quiver, attach)
            for _ in range(3):
                q = relabel(q, tuple(int(v) + 1 for v in rng.permutation(8)))
                bad = _find_bad_subquiver(q)
                assert bad is not None
                assert bad == bad_subquiver_reference(q), (name, attach)
                caught.add(type(bad.inner))
    assert caught == {CatalogNoMgsObstruction, Rank3CyclicObstruction}


def _planted(rng, n: int, inner: Quiver) -> Quiver:
    """A random quiver on ``n`` vertices, sparse or with multiplicities up
    to 3, whose full subquiver on ``inner.n`` random vertices is ``inner``."""
    if rng.random() < 0.5:
        q = random_quiver(rng, n, int(rng.integers(1, 4)))
        b = b_array(q)
    else:
        b = np.zeros((n, n), dtype=np.int64)
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < 0.3:
                    b[i, j] = rng.choice([1, -1, 2])
                    b[j, i] = -b[i, j]
    vs = sorted(int(v) for v in rng.permutation(n)[: inner.n])
    perm = [int(v) for v in rng.permutation(inner.n)]
    for x, row in enumerate(inner.rows):
        for y, m in enumerate(row):
            b[vs[perm[x]], vs[perm[y]]] = m
    return Quiver(b.tolist())


def test_bad_subquiver_scan_matches_the_every_subset_scan_with_planted_x7():
    # the first rank-3 triple and the first catalog match, in (size,
    # subset, entry) order, are those of the scan over every vertex subset
    rng = np.random.default_rng(283)
    inners = [get("X7").quiver, get("X7_twin").quiver]
    kinds = {None: 0, Rank3CyclicObstruction: 0, CatalogNoMgsObstruction: 0}
    for i in range(400):
        n = int(rng.integers(3, 11))
        if n >= 7 and i % 5 < 2:
            q = _planted(rng, n, inners[i % 2])
        else:
            q = random_quiver(rng, n, int(rng.integers(1, 4)))
        expected = bad_subquiver_reference(q)
        assert _find_bad_subquiver(q) == expected, q.rows
        kinds[None if expected is None else type(expected.inner)] += 1
    assert min(kinds.values()) >= 20, kinds


def test_rank3_no_mgs_catalog_entries_are_caught_by_rank3_rule():
    # the scan skips rank-3 catalog entries; the rank-3 rule must cover them
    rank3 = [
        name
        for name in catalog_names()
        if get(name).known_facts.get("no_mgs") is True and get(name).quiver.n == 3
    ]
    assert rank3  # Markov
    for name in rank3:
        q = get(name).quiver
        bad = _find_bad_subquiver(q)
        assert isinstance(bad.inner, Rank3CyclicObstruction), name
        assert bad.vertices == (1, 2, 3)
        assert recheck_obstruction(q, bad.inner)


# ---------------------------------------------------------------------------
# good vertices and the divergent family
# ---------------------------------------------------------------------------


def test_good_vertices_r_family():
    assert good_vertices(make_r_family(0, 2, 3)) == (3,)
    assert good_vertices(opposite(make_r_family(0, 2, 3))) == (2,)
    for a, b, c in [(1, 2, 4), (0, 3, 5), (2, 5, 4), (1, 4, 3)]:
        plain = make_r_family(a, b, c)
        if c > b:
            assert good_vertices(plain) == (3,)
            assert good_vertices(opposite(plain)) == (2,)


def test_good_vertices_triangle():
    assert good_vertices(make_rank3(1, 1, 1)) == (1, 2, 3)
    assert good_vertices(make_rank3(2, 2, 2)) == ()
    with pytest.raises(CapabilityError):
        good_vertices(make_theta(5))


def test_trajectory_examples():
    p = RFamilyParams(0, 2, 3)
    assert r_family_trajectory(p, 2) == make_r_family(0, 3, 4)
    assert r_family_trajectory(p, 1) == make_r_family(1, 3, 3, opposite=True)
    assert r_family_trajectory(p, 0) == make_r_family(0, 2, 3)
    with pytest.raises(QuiverError):
        r_family_trajectory(RFamilyParams(0, 2, 2), 1)  # b = c excluded
    with pytest.raises(QuiverError):
        r_family_trajectory(RFamilyParams(2, 2, 3), 1)  # c - a too small


def _literal_good_trajectory(q: Quiver, k: int) -> Quiver:
    for _ in range(k):
        gv = good_vertices(q)
        assert len(gv) == 1, "trajectory region must pin a unique good vertex"
        q = mutate(q, gv[0])
    return q


@pytest.mark.parametrize(
    "params",
    [
        (0, 2, 3, False),
        (0, 3, 5, False),
        (1, 2, 4, False),
        (0, 2, 4, False),
        (1, 3, 5, False),
        (0, 4, 5, False),
        (2, 2, 5, False),
        (1, 2, 5, False),
        (0, 2, 5, False),
        (0, 3, 4, False),
        (1, 4, 3, True),
        (2, 5, 4, True),
        (0, 3, 2, True),
        (1, 5, 3, True),
        (0, 4, 2, True),
        (2, 4, 4, False),  # delta negative is rejected below
    ],
)
def test_trajectory_matches_literal_mutation(params):
    a, b, c, op = params
    p = RFamilyParams(a, b, c, opposite=op)
    if abs(c - b - a) == 0 or c - a < 2 or (not op and not c > b >= 2) or (
        op and not b > c >= 2
    ):
        with pytest.raises(QuiverError):
            r_family_trajectory(p, 1)
        return
    for k in range(0, 9):
        closed = r_family_trajectory(p, k)
        literal = _literal_good_trajectory(make_r_family(a, b, c, opposite=op), k)
        assert canonical_key(closed) == canonical_key(literal), (params, k)


def test_match_r_family():
    from quivergreen.obstructions import r_family_diverges

    assert (0, 2, 3) in match_r_family(make_r_family(0, 2, 3))
    # the all-ones theta quiver happens to match the family shape, but only
    # with parameters outside the divergent region
    assert all(not r_family_diverges(*p) for p in match_r_family(make_theta(4)))
    # matching is label-independent
    from quivergreen.core import relabel

    shuffled = relabel(make_r_family(1, 2, 4), (3, 1, 4, 2))
    assert (1, 2, 4) in match_r_family(shuffled)


def test_match_r_family_finds_exactly_the_isomorphic_members():
    # every triple names a family member isomorphic to the input, and a
    # relabelled member is matched with its own parameters
    rng = np.random.default_rng(62)
    for _ in range(150):
        a, b, c = (int(x) for x in rng.integers(0, 4, size=3))
        q = relabel(make_r_family(a, b, c), [int(v) + 1 for v in rng.permutation(4)])
        triples = match_r_family(q)
        assert (a, b, c) in triples
        key = canonical_key(q)
        assert all(canonical_key(make_r_family(*t)) == key for t in triples)
    for _ in range(150):
        q = random_quiver(rng, 4, 2)
        key = canonical_key(q)
        assert all(canonical_key(make_r_family(*t)) == key for t in match_r_family(q))


# ---------------------------------------------------------------------------
# the decider
# ---------------------------------------------------------------------------


def test_decide_acyclic_and_rank3():
    v = decide_mgs(make_lin3(1, 1))
    assert v.yes and verify_mgs(make_lin3(1, 1), v.certificate.sequence)
    v = decide_mgs(make_rank3(2, 2, 2))
    assert v.no and isinstance(v.obstruction, Rank3CyclicObstruction)
    v = decide_mgs(make_rank3(1, 3, 2))
    assert v.yes and v.certificate.sequence == (2, 1, 3, 2)


def test_decide_r_family_five_triples_and_opposites():
    for a, b, c in [(0, 2, 3), (1, 4, 3), (0, 3, 5), (2, 5, 4), (1, 2, 4)]:
        for op in (False, True):
            q = make_r_family(a, b, c, opposite=op)
            v = decide_mgs(q)
            assert v.no, (a, b, c, op)
            assert isinstance(v.obstruction, RFamilyObstruction)
            # with a = 0 the reversed quiver re-enters the family with b and
            # c swapped, so either parameter reading is a valid witness
            assert v.obstruction.params in {(a, b, c), (a, c, b)}
            assert recheck_obstruction(q, v.obstruction)


def test_decide_catalog_members():
    v = decide_mgs(get("X7").quiver)
    assert v.no and isinstance(v.obstruction, CatalogNoMgsObstruction)
    assert v.obstruction.name == "X7"
    v = decide_mgs(get("X7_twin").quiver)
    assert v.no and v.obstruction.name == "X7_twin"


def test_decide_theta():
    v = decide_mgs(make_theta(7))
    assert v.yes
    assert len(v.certificate.sequence) == 8  # shortest beats nothing: n + 1


def test_decide_k4_uses_decomposition():
    v = decide_mgs(get("K4").quiver)
    assert v.yes
    assert verify_mgs(get("K4").quiver, v.certificate.sequence) is not None


def _path_into_triangle(n):
    """The path 1 -> ... -> n-2 whose last vertex lies on the oriented
    triangle n-2 -> n-1 -> n -> n-2."""
    return Quiver.from_arrows(n, [(i, i + 1) for i in range(1, n)] + [(n, n - 2)])


@pytest.mark.parametrize("n", [16, 17])
def test_decide_answers_on_either_side_of_the_direct_sum_cap(n):
    # above 16 vertices the direct-sum stage is skipped, not an input error
    q = _path_into_triangle(n)
    v = decide_mgs(q)
    assert v.yes
    assert verify_mgs(q, v.certificate.sequence) == v.certificate


def _oriented_cycle(n):
    return Quiver.from_arrows(n, [(i, i % n + 1) for i in range(1, n + 1)])


def _no_subset_scan(*args):
    raise AssertionError("a vertex subset was scanned for a cycle")


@pytest.mark.parametrize(
    "q",
    [_oriented_cycle(17), _oriented_cycle(25), _oriented_cycle(40), _path_into_triangle(20)],
    ids=["cycle17", "cycle25", "cycle40", "path_into_triangle20"],
)
def test_decide_reads_ending_cycles_off_through_vertex_chains(monkeypatch, q):
    # a scan over vertex subsets would take time exponential in n here
    monkeypatch.setattr(core, "_cycle_order", _no_subset_scan)
    v = decide_mgs(q)
    assert v.yes
    assert verify_mgs(q, v.certificate.sequence) == v.certificate


def test_decide_subquiver_obstruction():
    # a 4-vertex quiver containing the Markov triangle
    q = Quiver.from_arrows(4, [(1, 2, 2), (2, 3, 2), (3, 1, 2), (1, 4)])
    v = decide_mgs(q)
    assert v.no and isinstance(v.obstruction, SubquiverObstruction)
    assert v.obstruction.vertices == (1, 2, 3)
    assert recheck_obstruction(q, v.obstruction)


def test_decide_verdicts_recheck():
    rng = np.random.default_rng(83)
    for _ in range(60):
        q = random_quiver(rng, int(rng.integers(2, 5)), 2)
        v = decide_mgs(q, max_len=8, max_states=10**5)
        if v.yes:
            assert verify_mgs(q, v.certificate.sequence) is not None
        elif v.no:
            assert recheck_obstruction(q, v.obstruction)


def test_decide_consistent_with_subquiver_rule():
    # when the decider says yes, no induced subquiver may be a definite no
    rng = np.random.default_rng(89)
    from itertools import combinations

    checked = 0
    while checked < 30:
        q = random_quiver(rng, 4, 2)
        v = decide_mgs(q, max_len=10, max_states=10**5)
        if not v.yes:
            continue
        checked += 1
        for size in (2, 3):
            for vs in combinations(range(1, 5), size):
                sub, _ = induced_subquiver(q, vs)
                assert not decide_mgs(sub).no, (q.arrows(), vs)


def test_obstruction_serialization_and_description():
    v = decide_mgs(make_r_family(0, 2, 3))
    data = obstruction_to_json(v.obstruction)
    assert data["kind"] == "r_family" and data["params"] == [0, 2, 3]
    assert "never return" in describe_obstruction(v.obstruction)
    q = Quiver.from_arrows(4, [(1, 2, 2), (2, 3, 2), (3, 1, 2), (1, 4)])
    v = decide_mgs(q)
    data = obstruction_to_json(v.obstruction)
    assert data["kind"] == "subquiver" and data["inner"]["kind"] == "rank3_cyclic"
    assert "induced subquiver" in describe_obstruction(v.obstruction)


# ---------------------------------------------------------------------------
# Louise certificates
# ---------------------------------------------------------------------------


def test_k4_louise_certificate_verifies():
    k4 = get("K4").quiver
    cert = louise_from_json(get("K4").known_facts["louise"])
    assert verify_louise_certificate(k4, cert)


def test_louise_leaves():
    arrowless = Quiver([[0, 0], [0, 0]])
    assert verify_louise_certificate(arrowless, louise_from_json({"kind": "no_edges"}))
    assert not verify_louise_certificate(
        make_rank3(1, 1, 1), louise_from_json({"kind": "acyclic"})
    )
    assert verify_louise_certificate(
        make_lin3(1, 1), louise_from_json({"kind": "acyclic"})
    )


def test_louise_tampering_fails():
    k4 = get("K4").quiver
    base = get("K4").known_facts["louise"]

    wrong_edge = json.loads(json.dumps(base))
    wrong_edge["edge"] = [2, 4]  # a real arrow, but not separating
    assert not verify_louise_certificate(k4, louise_from_json(wrong_edge))

    missing_arrow = json.loads(json.dumps(base))
    missing_arrow["edge"] = [2, 3]  # the arrow points the other way
    assert not verify_louise_certificate(k4, louise_from_json(missing_arrow))

    wrong_child = json.loads(json.dumps(base))
    wrong_child["children"][0] = {"kind": "acyclic"}  # that part is cyclic
    assert not verify_louise_certificate(k4, louise_from_json(wrong_child))

    wrong_mutation = json.loads(json.dumps(base))
    wrong_mutation["children"][0]["mutations"] = [2]
    assert not verify_louise_certificate(k4, louise_from_json(wrong_mutation))


def test_louise_malformed_raises():
    with pytest.raises(CertificateError):
        louise_from_json({"kind": "mystery"})
    with pytest.raises(CertificateError):
        louise_from_json({"kind": "node", "mutations": [], "edge": [1], "children": []})
    k4 = get("K4").quiver
    bad_vertex = {
        "kind": "node",
        "mutations": [9],
        "edge": [1, 2],
        "children": [{"kind": "acyclic"}] * 3,
    }
    with pytest.raises(CertificateError):
        verify_louise_certificate(k4, louise_from_json(bad_vertex))


def test_louise_json_roundtrip():
    cert = louise_from_json(get("K4").known_facts["louise"])
    assert louise_from_json(louise_to_json(cert)) == cert


def _node_json(mutations, edge):
    leaf = {"kind": "acyclic"}
    return {
        "kind": "node", "mutations": mutations, "edge": edge, "children": [leaf] * 3
    }


def test_louise_from_json_rejects_float_mutation():
    # 1.7 used to load as vertex 1
    with pytest.raises(CertificateError):
        louise_from_json(_node_json([1.7], [1, 2]))


def test_louise_from_json_rejects_bool_and_string_edge():
    # [true, "2"] used to load as the edge (1, 2)
    with pytest.raises(CertificateError):
        louise_from_json(_node_json([], [True, "2"]))
    assert louise_from_json(_node_json([3], [1, 2])).edge == (1, 2)


@pytest.mark.parametrize(
    "depth, max_quivers, message",
    [
        (-1, 10, "depth must be at least 0"),
        (1.0, 10, "depth must be an integer"),
        (True, 10, "depth must be an integer"),
        (3, 0, "max_quivers must be at least 1"),
        (3, -5, "max_quivers must be at least 1"),
        (3, 2.5, "max_quivers must be an integer"),
    ],
)
def test_is_mutation_acyclic_rejects_bad_budgets_on_entry(
    monkeypatch, depth, max_quivers, message
):
    import quivergreen.exchange as exchange

    def unreachable(q):
        raise AssertionError("budgets are checked before the admissibility test")

    monkeypatch.setattr(exchange, "solve_admissibility", unreachable)
    with pytest.raises(QuiverError, match=message):
        is_mutation_acyclic(make_rank3(1, 1, 1), depth, max_quivers)
    # depth 0 is a legitimate budget: no mutation at all
    monkeypatch.undo()
    assert is_mutation_acyclic(make_rank3(1, 1, 1), 0, 1).note == "budget reached"


def test_is_mutation_acyclic_counts_a_capped_branch_as_not_covered():
    # a member within the default depth mutates beyond MULT_CAP; that branch
    # is unexplored, so the class is never reported as exhausted
    q = Quiver([[0, 2, -1, -1], [-2, 0, 1, 1], [1, -1, 0, 2], [1, -1, -2, 0]])
    result = is_mutation_acyclic(q)
    assert (result.kind, result.note) == ("unknown", "budget reached")
