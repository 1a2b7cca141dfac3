"""Independent reference checks for the benchmark's outputs.

Plain Python on explicit integer matrices: this module imports neither numpy
nor quivergreen nor the test helpers, and restates the mathematics in its own
form (the Fomin-Zelevinsky mutation rule on an extended 2n x n matrix,
brute-force vertex permutations, a hand-written answer table), so agreement
with the library means something.

A quiver is a JSON-style document ``{"n": n, "arrows": [[tail, head, mult],
...]}`` with 1-indexed vertices; ``matrix`` turns it into a list-of-lists
skew-symmetric matrix ``b`` with ``b[i][j] > 0`` for arrows ``i+1 -> j+1``.
"""

from __future__ import annotations

from itertools import permutations

# ---------------------------------------------------------------------------
# hand-written answer table
# ---------------------------------------------------------------------------

# Catalog verdicts.  "length" is the exact length of a shortest MGS: n + 1 for
# Theta_n, Z6 and K4 (a length-n MGS exists only for acyclic quivers, and all
# three have a length-(n+1) one).  "obstruction" is the kind of certificate a
# "no" must carry.
DECIDE_TABLE = {
    "Theta_5": {"verdict": "yes", "length": 6},
    "Theta_6": {"verdict": "yes", "length": 7},
    "Theta_7": {"verdict": "yes", "length": 8},
    "Z6": {"verdict": "yes", "length": 7},
    "K4": {"verdict": "yes", "length": 5},
    "W5": {"verdict": "yes"},
    "W5p": {"verdict": "yes"},
    "X7": {"verdict": "no", "obstruction": "catalog"},
    "X7_twin": {"verdict": "no", "obstruction": "catalog"},
    "Markov": {"verdict": "no", "obstruction": "rank3_cyclic"},
    "Q_2,3,4": {"verdict": "no", "obstruction": "rank3_cyclic"},
    "R_0,2,3": {"verdict": "no", "obstruction": "r_family"},
    "R_0,2,4": {"verdict": "no", "obstruction": "r_family"},
    "R_1,2,4": {"verdict": "no", "obstruction": "r_family"},
    "R_1,4,3_op": {"verdict": "no", "obstruction": "r_family"},
    "R_0,3,2_op": {"verdict": "no", "obstruction": "r_family"},
}

# Sizes of finite mutation classes up to isomorphism: type A from
# Torkildsen's count, type D from Bastian-Prellberg-Rubey-Stump, type E as
# tabulated in the same literature (A_2 = 1, A_3 = 4, A_4 = 6).  A disjoint
# union of k copies of a class with m members has C(m + k - 1, k) classes,
# and the sizes multiply across unions of different classes.
CLASS_SIZES = {
    "A_5": 19,
    "A_6": 49,
    "D_5": 26,
    "D_6": 80,
    "E_6": 67,
    "E_7": 416,
    "3xA_3": 20,
    "2xA_4": 21,
    "2xA_3+A_4": 60,
    "6xA_2": 1,
}

# The MGS component around K4: 17 classes, none of them acyclic.
PSI_TABLE = {"K4": {"nodes": 17, "acyclic": 0}}

# Acyclic rank-4 quivers with multiplicities at most 2, up to isomorphism.
RANK4_ACYCLIC_CLASSES = 425

# Bundled quivers known to have no MGS, written out by hand.
NO_MGS_QUIVERS = {
    "Markov": {"n": 3, "arrows": [[1, 2, 2], [2, 3, 2], [3, 1, 2]]},
    "X7": {
        "n": 7,
        "arrows": [
            [7, 1, 1], [1, 2, 2], [2, 7, 1],
            [7, 3, 1], [3, 4, 2], [4, 7, 1],
            [7, 5, 1], [5, 6, 2], [6, 7, 1],
        ],
    },
}


def _x7_twin() -> dict:
    return to_doc(mutate(matrix(NO_MGS_QUIVERS["X7"]), 6))


# ---------------------------------------------------------------------------
# plain matrices
# ---------------------------------------------------------------------------


def matrix(doc: dict) -> list[list[int]]:
    n = doc["n"]
    b = [[0] * n for _ in range(n)]
    for t, h, m in doc["arrows"]:
        b[t - 1][h - 1] = m
        b[h - 1][t - 1] = -m
    return b


def to_doc(b: list[list[int]]) -> dict:
    n = len(b)
    arrows = [
        [i + 1, j + 1, b[i][j]] for i in range(n) for j in range(n) if b[i][j] > 0
    ]
    return {"n": n, "arrows": arrows}


def _sgn(x: int) -> int:
    return (x > 0) - (x < 0)


def mutate(b: list[list[int]], k: int) -> list[list[int]]:
    """Fomin-Zelevinsky mutation at 0-indexed column ``k`` of a matrix with at
    least as many rows as columns (extended exchange matrices included)."""
    rows, cols = len(b), len(b[0])
    out = [row[:] for row in b]
    for i in range(rows):
        for j in range(cols):
            if i == k or j == k:
                out[i][j] = -b[i][j]
            else:
                out[i][j] = b[i][j] + _sgn(b[i][k]) * max(b[i][k] * b[k][j], 0)
    return out


def is_acyclic(b: list[list[int]]) -> bool:
    """No directed cycle: repeatedly delete vertices without incoming arrows."""
    alive = list(range(len(b)))
    while alive:
        keep = [v for v in alive if any(b[u][v] > 0 for u in alive)]
        if len(keep) == len(alive):
            return False
        alive = keep
    return True


def relabelled(b: list[list[int]], perm) -> tuple:
    """Row-major entries of the matrix read in the vertex order ``perm``."""
    return tuple(b[p][q] for p in perm for q in perm)


def canonical(b: list[list[int]]) -> tuple:
    """Least relabelled reading over all vertex orders (brute force; small n)."""
    return min(relabelled(b, p) for p in permutations(range(len(b))))


def find_isomorphism(b1, b2):
    """A vertex map ``f`` with ``b2[f[i]][f[j]] == b1[i][j]``, or None.

    Backtracking over vertex permutations, pruned by checking every pair
    among the vertices already placed and by the multiset of each vertex's
    row, which any isomorphism preserves.
    """
    n = len(b1)
    if n != len(b2):
        return None
    sig1 = [sorted(row) for row in b1]
    sig2 = [sorted(row) for row in b2]
    if sorted(map(tuple, sig1)) != sorted(map(tuple, sig2)):
        return None
    image = [None] * n
    used = [False] * n

    def place(i: int) -> bool:
        if i == n:
            return True
        for w in range(n):
            if used[w] or sig2[w] != sig1[i]:
                continue
            if all(b2[image[j]][w] == b1[j][i] for j in range(i)):
                image[i] = w
                used[w] = True
                if place(i + 1):
                    return True
                used[w] = False
        return False

    return tuple(image) if place(0) else None


def induced(b: list[list[int]], vertices) -> list[list[int]]:
    """Induced submatrix on 1-indexed ``vertices``, relabelled in increasing order."""
    vs = sorted(v - 1 for v in vertices)
    return [[b[i][j] for j in vs] for i in vs]


# ---------------------------------------------------------------------------
# maximal green sequences
# ---------------------------------------------------------------------------


def replay_mgs(b: list[list[int]], seq) -> tuple[int, ...]:
    """Replay ``seq`` (1-indexed) by framed mutation and return the induced
    permutation, or raise ``ValueError`` naming the first failed condition.

    The framed quiver is the extended 2n x n matrix: the exchange matrix on
    top of the frozen rows, which start at minus the identity (one arrow
    ``i -> i'`` per vertex).  A vertex is green while its frozen column is
    nonpositive and red once it is nonnegative.  At the end every vertex must
    be red, the frozen block must be a permutation matrix, and relabelling
    the final exchange matrix by that permutation must give back ``b``.
    """
    n = len(b)
    ext = [row[:] for row in b] + [
        [-1 if i == j else 0 for j in range(n)] for i in range(n)
    ]
    for step, k in enumerate(seq, start=1):
        if not 1 <= k <= n:
            raise ValueError(f"step {step}: vertex {k} outside 1..{n}")
        column = [ext[n + i][k - 1] for i in range(n)]
        if not (all(c <= 0 for c in column) and any(c < 0 for c in column)):
            raise ValueError(f"step {step}: vertex {k} is not green")
        ext = mutate(ext, k - 1)
        for j in range(n):
            column = [ext[n + i][j] for i in range(n)]
            if not (all(c <= 0 for c in column) or all(c >= 0 for c in column)):
                raise ValueError(f"step {step}: vertex {j + 1} is not sign-coherent")
    frozen = [ext[n + i] for i in range(n)]
    sigma = []
    for j in range(n):
        column = [frozen[i][j] for i in range(n)]
        if sorted(column) != [0] * (n - 1) + [1]:
            raise ValueError("final frozen block is not a permutation matrix")
        sigma.append(column.index(1))
    if sorted(sigma) != list(range(n)):
        raise ValueError("final frozen block is not a permutation matrix")
    if any(b[sigma[i]][sigma[j]] != ext[i][j] for i in range(n) for j in range(n)):
        raise ValueError("induced permutation does not map the result back")
    return tuple(s + 1 for s in sigma)


# ---------------------------------------------------------------------------
# obstructions
# ---------------------------------------------------------------------------


def rank3_cyclic(b: list[list[int]]):
    """Vertex orders (0-indexed) in which ``b`` is an oriented 3-cycle with
    every multiplicity at least 2, by trying all vertex permutations."""
    if len(b) != 3:
        return []
    return [
        p
        for p in permutations(range(3))
        if min(b[p[0]][p[1]], b[p[1]][p[2]], b[p[2]][p[0]]) >= 2
    ]


def r_family_params(b: list[list[int]]) -> set[tuple[int, int, int]]:
    """Every ``(a, b, c)`` for which some vertex order turns ``b`` into the
    family's normal form."""
    if len(b) != 4:
        return set()
    found = set()
    for p1, p2, p3, p4 in permutations(range(4)):
        if b[p2][p1] == b[p2][p3] == b[p1][p3] == 1:
            a, bb, c = b[p4][p1], b[p4][p2], b[p3][p4]
            if min(a, bb, c) >= 0:
                found.add((a, bb, c))
    return found


def r_family_no_mgs(a: int, bb: int, c: int) -> bool:
    """The region of the rank-4 family where the unique good vertex forces
    the parameters to grow every round: apex multiplicities at least 2, the
    free corner at most c - 2, and a nonzero round increment of the right
    sign (c - b - a > 0 when c > b; any b > c on the opposite side)."""
    if bb < 2 or c < 2 or c - a < 2:
        return False
    return c - bb - a > 0 if c > bb else bb > c


def check_obstruction(b: list[list[int]], obs: dict) -> None:
    """Re-derive an exported obstruction; raise ``ValueError`` if it fails."""
    kind = obs["kind"]
    if kind == "subquiver":
        vs = obs["vertices"]
        if len(set(vs)) != len(vs) or not all(1 <= v <= len(b) for v in vs):
            raise ValueError(f"bad subquiver vertices {vs}")
        check_obstruction(induced(b, vs), obs["inner"])
    elif kind == "rank3_cyclic":
        orders = rank3_cyclic(b)
        if not orders:
            raise ValueError("no oriented 3-cycle with all multiplicities >= 2")
        v1, v2, v3 = (v - 1 for v in obs["vertices"])
        if [b[v1][v2], b[v2][v3], b[v3][v1]] != obs["mults"]:
            raise ValueError("stated rank-3 multiplicities do not match")
    elif kind == "r_family":
        probe = b if obs["matched"] == "plain" else [[-x for x in row] for row in b]
        params = tuple(obs["params"])
        if params not in r_family_params(probe):
            raise ValueError(f"quiver does not match the family at {params}")
        if not r_family_no_mgs(*params):
            raise ValueError(f"family parameters {params} are outside the no-MGS region")
    elif kind == "catalog":
        known = {**NO_MGS_QUIVERS, "X7_twin": _x7_twin()}
        if obs["name"] not in known:
            raise ValueError(f"{obs['name']} is not a known no-MGS quiver")
        if find_isomorphism(b, matrix(known[obs["name"]])) is None:
            raise ValueError(f"quiver is not isomorphic to {obs['name']}")
    else:
        raise ValueError(f"unknown obstruction kind {kind!r}")


# ---------------------------------------------------------------------------
# per-workload checks; each returns a list of problems (empty when correct)
# ---------------------------------------------------------------------------


def check_decide(name: str, doc: dict, out: dict) -> list[str]:
    want = DECIDE_TABLE[name]
    b = matrix(doc)
    if out["verdict"] != want["verdict"]:
        return [f"verdict {out['verdict']!r}, expected {want['verdict']!r}"]
    try:
        if out["verdict"] == "yes":
            seq = out["sequence"]
            sigma = replay_mgs(b, seq)
            if list(sigma) != out["permutation"]:
                return [f"stated permutation {out['permutation']} != replayed {sigma}"]
            if "length" in want and len(seq) != want["length"]:
                return [f"MGS length {len(seq)}, expected {want['length']}"]
            if not is_acyclic(b) and len(seq) <= len(b):
                return [f"length-{len(seq)} MGS on a quiver with an oriented cycle"]
        else:
            if _obstruction_kind(out["obstruction"]) != want["obstruction"]:
                return [f"obstruction {out['obstruction']['kind']!r}, expected {want['obstruction']!r}"]
            check_obstruction(b, out["obstruction"])
    except ValueError as exc:
        return [str(exc)]
    return []


def _obstruction_kind(obs: dict) -> str:
    while obs["kind"] == "subquiver":
        obs = obs["inner"]
    return obs["kind"]


def _graph_problems(export: dict) -> list[str]:
    keys = [node["key"] for node in export["nodes"]]
    problems = []
    if len(set(keys)) != len(keys):
        problems.append("duplicate node keys")
    known = set(keys) | {entry["key"] for entry in export.get("boundary", [])}
    if any(a not in known or b not in known for a, b in export["edges"]):
        problems.append("edge names a node the graph does not contain")
    if not export["complete"]:
        problems.append("graph is incomplete")
    return problems


def check_explore(name: str, doc: dict, export: dict) -> list[str]:
    problems = _graph_problems(export)
    if len(export["nodes"]) != CLASS_SIZES[name]:
        problems.append(f"{len(export['nodes'])} classes, expected {CLASS_SIZES[name]}")
    if any(node["truncated"] for node in export["nodes"]):
        problems.append("truncated node in a finite class")
    roots = [node for node in export["nodes"] if node["layer"] == 0]
    if len(roots) != 1 or find_isomorphism(matrix(doc), matrix(roots[0])) is None:
        problems.append("layer-0 node is not the input's class")
    return problems


def check_psi(name: str, doc: dict, out: dict, memo: dict) -> list[str]:
    """Every member has a replayable MGS, every boundary class a re-derived
    obstruction, the input lies in the component, and the component is closed:
    each mutation of a member is a member or a boundary class.  Together these
    pin the component down exactly.  Edges must be the member pairs one
    mutation apart."""
    export = out["export"]
    problems = _graph_problems(export)
    if not out["complete"]:
        problems.append("psi result flagged incomplete")
    members = {}
    for node, seq in zip(export["nodes"], out["sequences"]):
        b = matrix(node)
        if node["mgs"] != "yes":
            problems.append(f"member with verdict {node['mgs']!r}")
        try:
            replay_mgs(b, seq)
        except ValueError as exc:
            problems.append(f"member certificate: {exc}")
        if node["acyclic"] != is_acyclic(b):
            problems.append("member acyclic flag is wrong")
        members[_canon(b, memo)] = (node["key"], b)
    boundary = set()
    for entry in export["boundary"]:
        b = matrix({"n": doc["n"], "arrows": entry["arrows"]})
        try:
            check_obstruction(b, entry["obstruction"])
        except ValueError as exc:
            problems.append(f"boundary obstruction: {exc}")
        boundary.add(_canon(b, memo))
    if _canon(matrix(doc), memo) not in members:
        problems.append("input class is not in its own component")
    edges = set()
    for canon, (key, b) in members.items():
        for k in range(len(b)):
            nb = _canon(mutate(b, k), memo)
            if nb in members:
                if nb != canon:
                    edges.add(tuple(sorted((key, members[nb][0]))))
            elif nb not in boundary:
                problems.append("a member's neighbour is neither member nor boundary")
    if edges != {tuple(e) for e in export["edges"]}:
        problems.append("edge set differs from member adjacency")
    if name in PSI_TABLE:
        want = PSI_TABLE[name]
        acyclic = sum(1 for node in export["nodes"] if node["acyclic"])
        if (len(members), acyclic) != (want["nodes"], want["acyclic"]):
            problems.append(f"component {len(members)}/{acyclic}, expected {want}")
    return problems


def _canon(b: list[list[int]], memo: dict) -> tuple:
    flat = tuple(x for row in b for x in row)
    if flat not in memo:
        memo[flat] = canonical(b)
    return memo[flat]
