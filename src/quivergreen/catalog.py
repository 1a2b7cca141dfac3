"""Bundled quivers and parametric family constructors.

Every stored fact about a bundled quiver (a known green sequence, an
unsatisfiable sign assignment, invariant values) is re-derived by the test
suite; the catalog is data, not trusted ground truth.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

from .core import Quiver, _parse_int, _require_int, mutate
from .errors import QuiverError


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    quiver: Quiver
    provenance: str
    known_facts: dict = field(default_factory=dict)


def make_rank3(a: int, b: int, c: int) -> Quiver:
    """Cyclic rank-3 quiver: ``a`` arrows 1->2, ``b`` arrows 2->3, ``c`` arrows 3->1."""
    arrows = []
    if a:
        arrows.append((1, 2, a))
    if b:
        arrows.append((2, 3, b))
    if c:
        arrows.append((3, 1, c))
    return Quiver.from_arrows(3, arrows)


def make_r_family(a: int, b: int, c: int, opposite: bool = False) -> Quiver:
    """Rank-4 quiver with triangle 2->1, 2->3, 1->3 and weighted arrows
    4->1 (x a), 3->4 (x c), 4->2 (x b); ``opposite`` reverses everything.

    The plain member is built once per parameter triple and shared, which
    is safe because a ``Quiver`` never changes; the parameters are checked
    first, so a non-integer one is rejected even where an equal integer
    triple was built before."""
    q = _r_family(*(_require_int(x, "R family parameter") for x in (a, b, c)))
    if opposite:
        from .core import opposite as op

        q = op(q)
    return q


@functools.lru_cache(maxsize=256, typed=True)
def _r_family(a: int, b: int, c: int) -> Quiver:
    arrows = [(2, 1, 1), (2, 3, 1), (1, 3, 1)]
    if a:
        arrows.append((4, 1, a))
    if c:
        arrows.append((3, 4, c))
    if b:
        arrows.append((4, 2, b))
    return Quiver.from_arrows(4, arrows)


def make_theta(n: int) -> Quiver:
    """Rank-n quiver: triangle 1->2->3->1, chords 2->n and n->1, and the
    path 3->4->...->n.  Defined for 4 <= n <= 9."""
    if not 4 <= n <= 9:
        raise QuiverError(f"theta family is defined for 4 <= n <= 9, got {n}")
    arrows = [(1, 2, 1), (2, 3, 1), (3, 1, 1), (2, n, 1), (n, 1, 1)]
    arrows += [(i, i + 1, 1) for i in range(3, n)]
    return Quiver.from_arrows(n, arrows)


def make_lin3(a: int, b: int) -> Quiver:
    """Acyclic rank-3 path: ``a`` arrows 1->2 and ``b`` arrows 2->3."""
    arrows = []
    if a:
        arrows.append((1, 2, a))
    if b:
        arrows.append((2, 3, b))
    return Quiver.from_arrows(3, arrows)


def make_tri3(a: int, b: int, c: int) -> Quiver:
    """Acyclic rank-3 triangle: ``b`` arrows 3->1, ``c`` arrows 3->2, ``a`` arrows 1->2."""
    arrows = []
    if b:
        arrows.append((3, 1, b))
    if c:
        arrows.append((3, 2, c))
    if a:
        arrows.append((1, 2, a))
    return Quiver.from_arrows(3, arrows)


def _build_catalog() -> dict[str, CatalogEntry]:
    entries = {}

    def add(name, quiver, provenance, **facts):
        entries[name] = CatalogEntry(name, quiver, provenance, dict(facts))

    k4 = Quiver.from_arrows(
        4, [(1, 2), (1, 3), (1, 4), (2, 4), (3, 2), (4, 3)]
    )
    add(
        "K4",
        k4,
        "complete rank-4 orientation with a unique source",
        admissible="unsat",
        b_rank=4,
        psi_nodes=17,
        psi_acyclic=0,
        louise=_K4_LOUISE,
    )

    w5 = Quiver.from_arrows(
        5, [(4, 3), (3, 2), (2, 1), (1, 4), (1, 5), (5, 4), (3, 5), (5, 2)]
    )
    add(
        "W5",
        w5,
        "rank-5 wheel-like quiver with two non-oriented triangles",
        admissible="unsat",
    )

    w5p = Quiver.from_arrows(
        5, [(3, 4), (4, 5), (5, 3), (1, 4), (5, 1), (1, 2), (2, 5), (2, 3)]
    )
    add(
        "W5p",
        w5p,
        "rank-5 wheel-like quiver with one non-oriented triangle",
        admissible="unsat",
    )

    for n in range(4, 10):
        add(
            f"Theta_{n}",
            make_theta(n),
            "cyclically glued family member, no direct-sum splitting",
            mgs=tuple([*range(2, n + 1), 1, 2]),
        )

    z6 = Quiver.from_arrows(
        6,
        [(1, 4), (2, 4), (5, 4), (6, 4), (4, 3), (3, 1), (3, 2), (3, 5), (3, 6)],
    )
    add(
        "Z6",
        z6,
        "rank-6 double-fan quiver",
        mgs=(3, 1, 2, 5, 6, 4, 3),
    )

    x7 = Quiver.from_arrows(
        7,
        [
            (7, 1),
            (1, 2, 2),
            (2, 7),
            (7, 3),
            (3, 4, 2),
            (4, 7),
            (7, 5),
            (5, 6, 2),
            (6, 7),
        ],
    )
    add(
        "X7",
        x7,
        "rank-7 hub with three double-arrow triangles",
        no_mgs=True,
        class_size=2,
    )
    # the only other quiver in its mutation class, stored as a mutation image
    add(
        "X7_twin",
        mutate(x7, 7),
        "mutation image of X7 at the hub vertex",
        no_mgs=True,
        class_size=2,
    )

    add(
        "Markov",
        make_rank3(2, 2, 2),
        "rank-3 cycle with all multiplicities 2",
        no_mgs=True,
        class_size=1,
    )

    add(
        "A2",
        Quiver.from_arrows(2, [(1, 2)]),
        "single arrow",
        mgs=(1, 2),
    )
    add(
        "A3",
        Quiver.from_arrows(3, [(1, 2), (2, 3)]),
        "oriented path on three vertices",
        class_size=4,
    )

    return entries


# family -> (constructor, number of parameters).  A catalog name spells a
# member ``Q_2,2,2`` (``R_0,2,3_op`` for an opposite R member), the command
# line ``Q3:2,2,2`` (``R:0,2,3,op``).
_PARAMETRIC = {
    "Q": (make_rank3, 3),
    "R": (make_r_family, 3),
    "Theta": (make_theta, 1),
    "Lin3": (make_lin3, 2),
    "Tri3": (make_tri3, 3),
}


def family_member(family: str, params: list[str], opposite: bool = False) -> Quiver:
    """The member of a parametric family from its parameters as written,
    each in ASCII decimal digits; ``opposite`` is for the R family.  Raises
    KeyError for an unknown family and QuiverError for parameters that are
    malformed or outside the family's range."""
    build, count = _PARAMETRIC[family]
    args = [_parse_int(p, f"a {family} family parameter") for p in params]
    if len(args) != count:
        raise QuiverError(f"family {family} takes {count} parameters, got {len(args)}")
    return build(*args, opposite=True) if opposite else build(*args)


_CATALOG: dict[str, CatalogEntry] | None = None


def _catalog() -> dict[str, CatalogEntry]:
    global _CATALOG
    if _CATALOG is None:
        _CATALOG = _build_catalog()
    return _CATALOG


def names() -> list[str]:
    """Names of all bundled entries (parametric families not listed)."""
    return sorted(_catalog())


def get(name: str) -> CatalogEntry:
    """Look up a bundled entry, or build one from a parametric name such as
    ``Q_2,2,2``, ``R_0,2,3``, ``R_0,2,3_op``, ``Lin3_1,2`` or ``Tri3_1,1,2``.
    KeyError when the name is neither; QuiverError when a parametric name
    has malformed parameters (see ``family_member``)."""
    cat = _catalog()
    if name in cat:
        return cat[name]
    family, _, params = name.partition("_")
    opposite = family == "R" and params.endswith("_op")
    params = params.removesuffix("_op") if opposite else params
    try:
        quiver = family_member(family, params.split(","), opposite)
    except KeyError:
        raise KeyError(f"no catalog entry named {name!r}") from None
    return CatalogEntry(name, quiver, "parametric family", {})


# Separating-edge certificate for K4, rooted at the arrow 1 -> 2.  Child
# certificates live in the relabelled coordinates of the induced subquivers;
# removing vertex 1 leaves an oriented triangle that becomes acyclic after
# one mutation at its (relabelled) vertex 1.
_K4_LOUISE = {
    "kind": "node",
    "mutations": [],
    "edge": [1, 2],
    "children": [
        {
            "kind": "node",
            "mutations": [1],
            "edge": [1, 2],
            "children": [
                {"kind": "no_edges"},
                {"kind": "acyclic"},
                {"kind": "no_edges"},
            ],
        },
        {"kind": "acyclic"},
        {"kind": "acyclic"},
    ],
}
