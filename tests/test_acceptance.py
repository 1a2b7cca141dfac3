"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
criteria complete; every tolerance and budget is pinned here.
"""

import json
import time
from itertools import combinations, permutations, product

import numpy as np
import pytest

from quivergreen.canonical import are_isomorphic, canonical_key
from quivergreen.catalog import (
    get,
    make_lin3,
    make_r_family,
    make_rank3,
    make_theta,
    make_tri3,
)
from quivergreen.core import (
    DirectSumDecomposition,
    Quiver,
    RFamilyParams,
    b_matrix_rank,
    find_ending_kcycle,
    induced_subquiver,
    is_acyclic,
    mutate,
    opposite,
    relabel,
)
from quivergreen.exchange import enumerate_acyclic, explore, psi_component
from quivergreen.green import (
    direct_sum_mgs,
    kcycle_mgs,
    reverse_rotate_mgs,
    rotate_mgs,
    search_mgs,
    verify_mgs,
)
from quivergreen.obstructions import (
    Rank3CyclicObstruction,
    decide_mgs,
    good_vertices,
    louise_from_json,
    r_family_trajectory,
    recheck_obstruction,
    solve_admissibility,
    verify_louise_certificate,
)

from oracles import (
    admissible_brute,
    b_array,
    iso_brute,
    mutation_class_brute,
    naive_mutate_arrows,
    quiver_to_arrow_list,
    random_acyclic_quiver,
    random_quiver,
)


def report(number: int, title: str, detail: str) -> None:
    print(f"acceptance {number:02d} {title}: PASS ({detail})")


def test_criterion_01_mutation_calculus():
    rng = np.random.default_rng(2024)
    start = time.monotonic()
    for _ in range(1000):
        n = int(rng.integers(2, 9))
        q = random_quiver(rng, n, 3)
        k = int(rng.integers(1, n + 1))
        m = mutate(q, k)
        b = b_array(m)
        assert np.array_equal(b, -b.T), "skew-symmetry broken"
        assert mutate(m, k) == q, "mutation is not an involution"
        assert b_matrix_rank(m) == b_matrix_rank(q), "rank not invariant"
        assert opposite(m) == mutate(opposite(q), k), "opposite does not commute"
    elapsed = time.monotonic() - start
    assert elapsed < 5.0, f"budget exceeded: {elapsed:.2f}s"
    report(1, "mutation calculus", f"1000 quivers, {elapsed:.2f}s")


def test_criterion_02_theta_family():
    for n in range(4, 10):
        q = make_theta(n)
        cert = verify_mgs(q, tuple([*range(2, n + 1), 1, 2]))
        assert cert is not None, f"theta_{n} sequence rejected"
        final = q
        for k in cert.sequence:
            final = mutate(final, k)
        assert relabel(final, cert.permutation) == q
        assert are_isomorphic(final, q) is not None
    z6 = get("Z6").quiver
    assert verify_mgs(z6, (3, 1, 2, 5, 6, 4, 3)) is not None
    report(2, "theta family", "theta_4..theta_9 and the rank-6 companion verified")


def _explicit_rank3_sequences(a, b, c):
    """The closed-form sequences, reconstructed independently: relabel the
    cycle so the unit multiplicity sits on the arrow 1 -> 2 (one rotation
    step maps parameters (a, b, c) to (c, a, b) and vertex v to v + 1), then
    play (2,1,3,2) when b > c, (2,3,1,2) when c > b, either when equal."""
    triple, r = (a, b, c), 0
    while triple[0] != 1:
        triple = (triple[2], triple[0], triple[1])
        r += 1
    _, bb, cc = triple
    patterns = [(2, 1, 3, 2)] if bb > cc else [(2, 3, 1, 2)] if cc > bb else [
        (2, 1, 3, 2),
        (2, 3, 1, 2),
    ]
    return [
        tuple(((w - 1 - r) % 3) + 1 for w in pattern) for pattern in patterns
    ]


def test_criterion_03_rank3_classification():
    start = time.monotonic()
    yes = no = 0
    for a, b, c in product(range(1, 6), repeat=3):
        q = make_rank3(a, b, c)
        verdict = decide_mgs(q)
        if min(a, b, c) >= 2:
            assert verdict.no, (a, b, c)
            no += 1
        else:
            assert verdict.yes, (a, b, c)
            yes += 1
            for seq in _explicit_rank3_sequences(a, b, c):
                assert verify_mgs(q, seq) is not None, (a, b, c, seq)
    elapsed = time.monotonic() - start
    assert yes + no == 125
    assert elapsed < 30.0, f"budget exceeded: {elapsed:.2f}s"
    report(3, "rank-3 classification", f"{yes} yes / {no} no, {elapsed:.2f}s")


def test_criterion_04_admissibility():
    for name in ("K4", "W5", "W5p"):
        assert not solve_admissibility(get(name).quiver).satisfiable, name
    rng = np.random.default_rng(404)
    for _ in range(500):
        q = random_acyclic_quiver(rng, int(rng.integers(2, 7)), 2)
        assert solve_admissibility(q).satisfiable
    agree = 0
    for _ in range(200):
        q = random_quiver(rng, int(rng.integers(2, 6)), 2)
        assert solve_admissibility(q).satisfiable == (admissible_brute(q) is not None)
        agree += 1
    report(4, "admissibility", f"3 unsat + 500 acyclic sat + {agree} brute-force matches")


def test_criterion_05_r_family():
    assert good_vertices(make_r_family(0, 2, 3)) == (3,)
    assert good_vertices(opposite(make_r_family(0, 2, 3))) == (2,)

    # twenty parameter sets inside the trajectory region, both orientations
    param_sets = [
        (0, 2, 3, False), (0, 2, 4, False), (0, 2, 5, False), (0, 3, 4, False),
        (0, 3, 5, False), (0, 4, 5, False), (1, 2, 4, False), (1, 2, 5, False),
        (1, 3, 5, False), (2, 2, 5, False), (2, 3, 6, False), (1, 4, 6, False),
        (1, 4, 3, True), (2, 5, 4, True), (0, 3, 2, True), (1, 5, 3, True),
        (0, 4, 2, True), (2, 6, 4, True), (0, 5, 3, True), (1, 6, 4, True),
    ]
    assert len(param_sets) == 20
    for a, b, c, op in param_sets:
        q = make_r_family(a, b, c, opposite=op)
        p = RFamilyParams(a, b, c, opposite=op)
        for k in range(0, 9):
            closed = r_family_trajectory(p, k)
            literal = q
            for _ in range(k):
                gv = good_vertices(literal)
                assert len(gv) == 1, (a, b, c, op, k)
                literal = mutate(literal, gv[0])
            assert canonical_key(closed) == canonical_key(literal), (a, b, c, op, k)

    for a, b, c in [(0, 2, 3), (1, 4, 3), (0, 3, 5), (2, 5, 4), (1, 2, 4)]:
        for op in (False, True):
            verdict = decide_mgs(make_r_family(a, b, c, opposite=op))
            assert verdict.no, (a, b, c, op)
    report(5, "r-family", "good vertices, 20 trajectories x k<=8, 5 triples + opposites")


def test_criterion_06_psi_component_k4():
    start = time.monotonic()
    res = psi_component(get("K4").quiver, max_len=16, max_states=10**6)
    elapsed = time.monotonic() - start
    assert res.complete, "component exploration must finish definitively"
    assert res.size == 17, f"expected 17 classes, got {res.size}"
    assert res.acyclic_count() == 0
    assert res.boundary, "boundary must be nonempty"
    for entry in res.boundary:
        assert recheck_obstruction(entry.quiver, entry.obstruction)
    # stability across runs
    res2 = psi_component(get("K4").quiver, max_len=16, max_states=10**6)
    assert set(res.graph.nodes) == set(res2.graph.nodes)
    assert elapsed < 300.0, f"budget exceeded: {elapsed:.1f}s"
    report(
        6,
        "MGS component of K4",
        f"17 classes, 0 acyclic, {len(res.boundary)} obstructed boundary, {elapsed:.1f}s",
    )


def _graph_fingerprint(res) -> bytes:
    """Canonical form of the component as an abstract undirected graph."""
    keys = sorted(res.graph.nodes)
    index = {k: i for i, k in enumerate(keys)}
    n = len(keys)
    adj = [[0] * n for _ in range(n)]
    for a, b in res.graph.edges:
        adj[index[a]][index[b]] = adj[index[b]][index[a]] = 1
    best = None
    for perm in permutations(range(n)):
        flat = tuple(adj[perm[i]][perm[j]] for i in range(n) for j in range(n))
        if best is None or flat < best:
            best = flat
    return bytes([n]) + bytes(best)


# The component shape of the fully symmetric triangles: one node, no edges.
SINGLE_NODE_SHAPE = bytes([1, 0])


def _confirm_symmetric_triangle(t: int) -> None:
    """Check with the naive oracles why Tri3(t,t,t), t >= 2, is a single node.

    Mutation at the source or the sink gives back the seed, and mutation at
    the middle vertex gives an oriented 3-cycle with weights (t, t, t + t^2).
    All three weights are at least 2, so that neighbour has no MGS by the
    cyclic rank-3 rule (Bruestle, Dupont and Perotin, IMRN 2014).
    """
    seed = make_tri3(t, t, t)
    arrows = quiver_to_arrow_list(seed)
    tails = {a for a, _ in arrows}
    heads = {b for _, b in arrows}
    (source,) = tails - heads
    (sink,) = heads - tails
    (middle,) = tails & heads
    for k in (source, sink):
        net = naive_mutate_arrows(3, arrows, k)
        back = Quiver.from_arrows(3, [(a, b, m) for (a, b), m in net.items()])
        assert iso_brute(back, seed) is not None, (t, k, net)
    net = naive_mutate_arrows(3, arrows, middle)
    assert sorted(net.values()) == [t, t, t + t * t], (t, net)
    assert sorted(a for a, _ in net) == sorted(b for _, b in net) == [1, 2, 3], net
    cycle = Quiver.from_arrows(3, [(a, b, m) for (a, b), m in net.items()])

    res = psi_component(seed)
    assert res.complete and res.size == 1 and not res.graph.edges
    assert len(res.boundary) == 1, [e.quiver.arrows() for e in res.boundary]
    entry = res.boundary[0]
    assert iso_brute(entry.quiver, cycle) is not None, entry.quiver.arrows()
    assert isinstance(entry.obstruction, Rank3CyclicObstruction)
    assert recheck_obstruction(entry.quiver, entry.obstruction)


def test_criterion_07_rank3_psi_sweep():
    seeds = [make_lin3(a, b) for a in range(1, 5) for b in range(1, 5)]
    seeds += [
        make_tri3(a, b, c)
        for a in range(1, 5)
        for b in range(1, 5)
        for c in range(1, 5)
    ]
    shapes: dict[bytes, list] = {}
    finite_checked = 0
    for seed in seeds:
        res = psi_component(seed)
        assert res.complete
        assert res.size <= 6, seed.arrows()
        full = explore(seed, max_nodes=500, max_mult=64)
        if full.complete:
            # mutation-finite class: the MGS subgraph is the whole graph
            assert set(res.graph.nodes) == set(full.nodes), seed.arrows()
            assert not res.boundary
            finite_checked += 1
        shapes.setdefault(_graph_fingerprint(res), []).append(seed)
    # Every seed falls into one of seven generic shapes except the fully
    # symmetric triangles Tri3(t,t,t), t >= 2.  Their source and sink
    # mutations are isomorphic to the seed, and their middle mutation is an
    # oriented 3-cycle with all weights >= 2, which has no MGS; so their
    # component is a single node with no edges.
    for t in (2, 3, 4):
        _confirm_symmetric_triangle(t)
    generic = set(shapes) - {SINGLE_NODE_SHAPE}
    assert len(generic) <= 7, f"{len(generic)} generic component shapes"
    assert sorted(s.arrows() for s in shapes.get(SINGLE_NODE_SHAPE, [])) == sorted(
        make_tri3(t, t, t).arrows() for t in (2, 3, 4)
    ), "the single-node shape must come from exactly Tri3(t,t,t), t = 2, 3, 4"
    report(
        7,
        "rank-3 MGS components",
        f"{len(seeds)} seeds, {finite_checked} mutation-finite, "
        f"{len(generic)} generic component shapes plus the single-node shape "
        f"of Tri3(t,t,t), t = 2, 3, 4",
    )


def test_criterion_08_rotation():
    rng = np.random.default_rng(808)
    done = 0
    while done < 50:
        q = random_acyclic_quiver(rng, int(rng.integers(2, 6)), 2)
        found = search_mgs(q)
        assert found.found
        cert = found.certificate
        rq, rcert = rotate_mgs(q, cert)  # re-verified inside
        bq, bcert = reverse_rotate_mgs(rq, rcert)
        assert (bq, bcert) == (q, cert), "reverse after rotate must restore"
        done += 1
    report(8, "rotation lemmas", "50 searched certificates rotated both ways")


def _mgs_pool():
    pool = []
    for name in ("A2", "A3", "Theta_4", "Theta_5"):
        entry = get(name)
        verdict = decide_mgs(entry.quiver)
        pool.append((entry.quiver, verdict.certificate))
    for params in ((1, 1, 1), (1, 2, 2), (1, 2, 1)):
        q = make_rank3(*params)
        pool.append((q, decide_mgs(q).certificate))
    return pool


def _shift_quiver(q: Quiver, offset: int, total: int) -> list:
    return [(t + offset, h + offset, m) for t, h, m in q.arrows()]


def test_criterion_09_direct_sums_and_cycle_endings():
    rng = np.random.default_rng(909)
    pool = _mgs_pool()

    for _ in range(50):
        (ql, cl) = pool[int(rng.integers(len(pool)))]
        (qr, cr) = pool[int(rng.integers(len(pool)))]
        n = ql.n + qr.n
        arrows = _shift_quiver(ql, 0, n) + _shift_quiver(qr, ql.n, n)
        cross = []
        for i in range(1, ql.n + 1):
            for j in range(ql.n + 1, n + 1):
                if rng.random() < 0.3:
                    arrows.append((i, j, 1))
                    cross.append((i, j))
        q = Quiver.from_arrows(n, arrows)
        decomp = DirectSumDecomposition(
            tuple(range(1, ql.n + 1)),
            tuple(range(ql.n + 1, n + 1)),
            tuple(cross),
            len({t for t, _ in cross}),
        )
        cert = direct_sum_mgs(q, decomp, cl, cr)
        assert verify_mgs(q, cert.sequence) is not None

    for _ in range(50):
        (core, core_cert) = pool[int(rng.integers(len(pool)))]
        k = int(rng.integers(3, 6))
        attach = int(rng.integers(1, core.n + 1))
        n = core.n + k - 1
        arrows = [(t, h, m) for t, h, m in core.arrows()]
        chain = [attach] + list(range(core.n + 1, core.n + k))
        for a, b in zip(chain, chain[1:]):
            arrows.append((a, b, 1))
        arrows.append((chain[-1], attach, 1))
        q = Quiver.from_arrows(n, arrows)
        info = find_ending_kcycle(q)
        assert info is not None
        cycle, _ = info
        core_vs = tuple(sorted(set(range(1, n + 1)) - set(cycle[:-1])))
        sub, _ = induced_subquiver(q, core_vs)
        sub_verdict = decide_mgs(sub)
        assert sub_verdict.yes
        cert = kcycle_mgs(q, info, sub_verdict.certificate)
        assert verify_mgs(q, cert.sequence) is not None

    report(9, "direct sums and cycle endings", "100 randomized composites re-verified")


def test_criterion_10_louise_certificate():
    k4 = get("K4").quiver
    base = get("K4").known_facts["louise"]
    assert verify_louise_certificate(k4, louise_from_json(base))

    tampered = []
    wrong_edge = json.loads(json.dumps(base))
    wrong_edge["edge"] = [2, 4]  # real arrow, not separating
    tampered.append(wrong_edge)
    reversed_edge = json.loads(json.dumps(base))
    reversed_edge["edge"] = [2, 3]  # arrow points the other way
    tampered.append(reversed_edge)
    wrong_child = json.loads(json.dumps(base))
    wrong_child["children"][0] = {"kind": "acyclic"}  # cyclic part
    tampered.append(wrong_child)
    wrong_leaf = json.loads(json.dumps(base))
    wrong_leaf["children"][1] = {"kind": "no_edges"}  # part has arrows
    tampered.append(wrong_leaf)
    wrong_mutation = json.loads(json.dumps(base))
    wrong_mutation["children"][0]["mutations"] = [2]
    tampered.append(wrong_mutation)
    for bad in tampered:
        assert not verify_louise_certificate(k4, louise_from_json(bad))
    report(10, "louise certificate", f"bundled proof verifies, {len(tampered)} tampers fail")


def test_criterion_11_exchange_graph_sanity():
    a3 = get("A3").quiver
    assert len(explore(a3, 100, 10)) == 4
    assert len(enumerate_acyclic(a3)) == 3
    assert len(explore(get("X7").quiver, 10, 64)) == 2
    assert len(explore(make_rank3(2, 2, 2), 10, 10)) == 1
    # brute-force oracles: permutation-search isomorphism, no canonical keys
    assert len(mutation_class_brute(a3)) == 4
    assert len(mutation_class_brute(get("X7").quiver, limit=5)) == 2
    assert len(mutation_class_brute(make_rank3(2, 2, 2))) == 1
    orientations = set()
    for bits in product((0, 1), repeat=2):
        arrows = [(1, 2) if bits[0] else (2, 1), (2, 3) if bits[1] else (3, 2)]
        orientations.add(canonical_key(Quiver.from_arrows(3, arrows)).data)
    assert len(orientations) == 3  # path orientations up to relabelling
    report(11, "exchange-graph sanity", "A3=4, acyclic=3, X7=2, Markov=1, oracles agree")
