"""Unlabelled exchange-graph exploration and derived reports.

Nodes are isomorphism classes of quivers addressed by canonical key; two
nodes are adjacent when some representatives differ by one mutation.  All
traversals run in breadth-first layers with key-ordered expansion, so the
resulting graphs, exports and statistics are reproducible byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .canonical import CanonicalKey, canonical_form
from .core import (
    Quiver,
    _require_budget,
    b_matrix_rank,
    is_acyclic,
    mutate,
    mutate_sequence,
    relabel,
    sinks,
    sources,
)
from .errors import QuiverError
from .green import DEFAULT_MAX_STATES, default_max_len
from .obstructions import (
    MgsVerdict,
    Obstruction,
    decide_mgs,
    is_mutation_acyclic,
    obstruction_to_json,
    solve_admissibility,
)

DEFAULT_MAX_NODES = 10**5
DEFAULT_MAX_MULT = 64


@dataclass
class ExchangeNode:
    key: CanonicalKey
    quiver: Quiver  # canonical representative
    acyclic: bool
    layer: int
    truncated: bool = False
    mgs: Optional[MgsVerdict] = None


@dataclass
class ExchangeGraph:
    nodes: dict[bytes, ExchangeNode] = field(default_factory=dict)
    edges: set[tuple[bytes, bytes]] = field(default_factory=set)
    complete: bool = True
    meta: dict = field(default_factory=dict)

    def ordered_nodes(self) -> list[ExchangeNode]:
        return sorted(self.nodes.values(), key=lambda n: (n.layer, n.key.data))

    def sorted_edges(self) -> list[tuple[bytes, bytes]]:
        return sorted(self.edges)

    def add_edge(self, a: bytes, b: bytes) -> None:
        """Record the undirected edge between keys ``a`` and ``b``; a
        mutation that returns to the same class adds nothing."""
        if a != b:
            self.edges.add((min(a, b), max(a, b)))

    def __len__(self) -> int:
        return len(self.nodes)


def _canonical_rep(q: Quiver) -> tuple[CanonicalKey, Quiver]:
    key, sigma = canonical_form(q)
    return key, relabel(q, sigma)


def _neighbours(key: bytes, rep: Quiver, vertices, back: dict[bytes, set[int]]):
    """Mutate the canonical representative ``rep`` (key ``key``) at each of
    ``vertices``, skipping those recorded in ``back[key]``, and yield
    ``(child key, child, canonical witness sigma, back vertex)``, or None
    for a mutation beyond the multiplicity cap.  Only a caller that keeps
    the child as a new class needs its representative ``relabel(child,
    sigma)``, so the relabelling is left to it.

    Mutation is an involution that commutes with relabelling: if
    ``mu_k(rep)`` canonicalises with witness ``sigma``, then
    ``mu_{sigma(k)}(relabel(mu_k(rep), sigma)) = relabel(rep, sigma)``.  So
    the back vertex ``sigma[k-1]`` of the child representative mutates back
    into the class of ``rep``.  A caller that has recorded the edge to the
    child adds the back vertex to ``back[child key]``, and the child's own
    expansion then skips it: each edge between two classes is computed from
    one end only.
    """
    skip = back.pop(key, ())
    for k in vertices:
        if k in skip:
            continue
        try:
            child = mutate(rep, k)
        except QuiverError:
            yield None
            continue
        ckey, sigma = canonical_form(child)
        yield ckey, child, sigma, sigma[k - 1]


def _link(
    graph: ExchangeGraph,
    back: dict[bytes, set[int]],
    node: ExchangeNode,
    ckey: CanonicalKey,
    vertex: int,
) -> None:
    """Record the edge from ``node`` to the class ``ckey`` it mutated into,
    and the vertex of that class that mutates back (see ``_neighbours``)."""
    graph.add_edge(ckey.data, node.key.data)
    back.setdefault(ckey.data, set()).add(vertex)


def explore(
    q: Quiver,
    max_nodes: int = DEFAULT_MAX_NODES,
    max_mult: int = DEFAULT_MAX_MULT,
) -> ExchangeGraph:
    """Breadth-first enumeration of the mutation class up to isomorphism.

    A node whose quiver carries a multiplicity above ``max_mult`` is kept but
    marked truncated and never expanded, so infinite classes terminate; the
    graph is flagged incomplete whenever truncation or the node budget cut
    the search short.  Each edge between two classes is computed from one
    end only: a node skips the mutations known to lead back to a neighbour
    that reached it (see ``_neighbours``).
    """
    max_nodes = _require_budget(max_nodes, "max_nodes")
    max_mult = _require_budget(max_mult, "max_mult")
    graph = ExchangeGraph(meta={"max_nodes": max_nodes, "max_mult": max_mult})
    key, rep = _canonical_rep(q)
    root = ExchangeNode(
        key, rep, is_acyclic(rep), 0, truncated=_over_mult(rep, max_mult)
    )
    graph.nodes[key.data] = root
    back: dict[bytes, set[int]] = {}
    frontier = [root]
    while frontier:
        frontier.sort(key=lambda n: n.key.data)
        nxt = []
        for node in frontier:
            if node.truncated:
                graph.complete = False
                continue
            vertices = range(1, node.quiver.n + 1)
            for step in _neighbours(node.key.data, node.quiver, vertices, back):
                if step is None:
                    # beyond exact integer range: same treatment as max_mult
                    node.truncated = True
                    graph.complete = False
                    continue
                ckey, child, sigma, vertex = step
                if ckey.data not in graph.nodes:
                    if len(graph.nodes) >= max_nodes:
                        # no node for the child, so no edge to it either
                        graph.complete = False
                        continue
                    crep = relabel(child, sigma)
                    cnode = ExchangeNode(
                        ckey,
                        crep,
                        is_acyclic(crep),
                        node.layer + 1,
                        truncated=_over_mult(crep, max_mult),
                    )
                    graph.nodes[ckey.data] = cnode
                    nxt.append(cnode)
                _link(graph, back, node, ckey, vertex)
        frontier = nxt
    return graph


def _over_mult(q: Quiver, max_mult: int) -> bool:
    # skew-symmetry: the largest entry is the largest multiplicity
    return max(map(max, q.rows)) > max_mult


def enumerate_acyclic(q: Quiver) -> list[Quiver]:
    """All acyclic quivers in the mutation class of an acyclic quiver, up to
    isomorphism: the closure of ``q`` under mutations at sinks and sources.
    Sorted by canonical key."""
    if not is_acyclic(q):
        raise QuiverError("enumerate_acyclic requires an acyclic starting quiver")
    key, rep = _canonical_rep(q)
    found = {key.data: rep}
    back: dict[bytes, set[int]] = {}
    frontier = [(key.data, rep)]
    while frontier:
        nxt = []
        for cur_key, cur in frontier:
            vertices = sorted(set(sources(cur)) | set(sinks(cur)))
            # a sink or source mutation only reverses arrows, never overflows
            steps = _neighbours(cur_key, cur, vertices, back)
            for ckey, child, sigma, vertex in steps:
                back.setdefault(ckey.data, set()).add(vertex)
                if ckey.data not in found:
                    crep = found[ckey.data] = relabel(child, sigma)
                    nxt.append((ckey.data, crep))
        frontier = nxt
    return [found[k] for k in sorted(found)]


@dataclass
class BoundaryEntry:
    key: CanonicalKey
    quiver: Quiver
    obstruction: Obstruction
    members: set[bytes]  # keys of the component members one mutation away


@dataclass
class PsiResult:
    graph: ExchangeGraph
    boundary: list[BoundaryEntry]
    complete: bool

    @property
    def size(self) -> int:
        return len(self.graph.nodes)

    def acyclic_count(self) -> int:
        return sum(1 for n in self.graph.nodes.values() if n.acyclic)


def psi_component(
    q: Quiver,
    max_len: Optional[int] = None,
    max_states: Optional[int] = None,
    max_nodes: int = DEFAULT_MAX_NODES,
) -> PsiResult:
    """Connected component, around ``q``, of the subgraph of classes that
    admit a maximal green sequence.

    Neighbours with an MGS are expanded; neighbours with an obstruction form
    the boundary and are never expanded; an "unknown" verdict anywhere marks
    the result incomplete rather than guessing.  ``max_len`` and
    ``max_states`` are checked by the first ``decide_mgs`` call, before any
    neighbour is visited.  As in ``explore``, each edge between two members
    is computed from one end only.
    """
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
    root = ExchangeNode(key, rep, is_acyclic(rep), 0, mgs=start)
    graph.nodes[key.data] = root
    boundary: dict[bytes, BoundaryEntry] = {}
    back: dict[bytes, set[int]] = {}
    unresolved = 0
    frontier = [root]
    while frontier:
        frontier.sort(key=lambda n: n.key.data)
        nxt = []
        for node in frontier:
            vertices = range(1, node.quiver.n + 1)
            for step in _neighbours(node.key.data, node.quiver, vertices, back):
                if step is None:
                    unresolved += 1  # neighbour beyond exact integer range
                    continue
                ckey, child, sigma, vertex = step
                if ckey.data in boundary:
                    boundary[ckey.data].members.add(node.key.data)
                    continue
                if ckey.data not in graph.nodes:
                    if len(graph.nodes) >= max_nodes:
                        graph.complete = False
                        unresolved += 1
                        continue
                    crep = relabel(child, sigma)
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
                        ckey, crep, is_acyclic(crep), node.layer + 1, mgs=verdict
                    )
                    graph.nodes[ckey.data] = cnode
                    nxt.append(cnode)
                _link(graph, back, node, ckey, vertex)
        frontier = nxt
    complete = graph.complete and unresolved == 0
    entries = [boundary[k] for k in sorted(boundary)]
    return PsiResult(graph, entries, complete)


def invariant_report(
    q: Quiver,
    depth: int = 8,
    max_quivers: int = 10_000,
    max_len: Optional[int] = None,
    max_states: Optional[int] = None,
    max_nodes: int = DEFAULT_MAX_NODES,
) -> dict:
    """Mutation-invariant summary: exact matrix rank, admissibility outcome,
    the number of acyclic classes when one is reachable, and the size and
    acyclic split of the surrounding MGS component for small ranks."""
    report: dict = {
        "b_rank": b_matrix_rank(q),
        "admissible": "sat" if solve_admissibility(q).satisfiable else "unsat",
        "budgets": {
            "depth": depth,
            "max_quivers": max_quivers,
            "max_len": max_len,
            "max_states": max_states,
            "max_nodes": max_nodes,
        },
    }
    ma = is_mutation_acyclic(q, depth, max_quivers)
    report["mutation_acyclic"] = ma.kind
    if ma.kind == "yes":
        member = mutate_sequence(q, ma.sequence)
        report["acyclic_count"] = len(enumerate_acyclic(member))
    if q.n <= 4:
        verdict = decide_mgs(q, max_len, max_states)
        report["mgs"] = verdict.kind
        if verdict.yes:
            psi = psi_component(q, max_len, max_states, max_nodes)
            report["psi"] = {
                "total": psi.size,
                "acyclic": psi.acyclic_count(),
                "non_acyclic": psi.size - psi.acyclic_count(),
                "complete": psi.complete,
            }
    return report


# ---------------------------------------------------------------------------
# exports
# ---------------------------------------------------------------------------


def graph_to_json(graph: ExchangeGraph, boundary: Optional[list[BoundaryEntry]] = None) -> dict:
    nodes = []
    for node in graph.ordered_nodes():
        nodes.append(
            {
                "key": node.key.hex(),
                "arrows": [list(a) for a in node.quiver.arrows()],
                "n": node.quiver.n,
                "acyclic": node.acyclic,
                "truncated": node.truncated,
                "layer": node.layer,
                "mgs": node.mgs.kind if node.mgs is not None else None,
            }
        )
    payload = {
        "nodes": nodes,
        "edges": [
            [a.hex(), b.hex()] for a, b in graph.sorted_edges()
        ],
        "complete": graph.complete,
        "meta": dict(sorted(graph.meta.items())),
    }
    if boundary is not None:
        payload["boundary"] = [
            {
                "key": entry.key.hex(),
                "arrows": [list(a) for a in entry.quiver.arrows()],
                "obstruction": obstruction_to_json(entry.obstruction),
            }
            for entry in boundary
        ]
    return payload


def graph_to_dot(graph: ExchangeGraph, boundary: Optional[list[BoundaryEntry]] = None) -> str:
    """Undirected DOT rendering: green boxes for classes with an MGS, red
    boxes for obstructed boundary classes, plain ellipses otherwise."""
    lines = ["graph exchange {", "  node [fontsize=10];"]
    for node in graph.ordered_nodes():
        short = node.key.short()
        flags = []
        if node.acyclic:
            flags.append("acyclic")
        if node.truncated:
            flags.append("truncated")
        label = short + ("\\n" + ",".join(flags) if flags else "")
        if node.mgs is not None and node.mgs.yes:
            style = ' shape=box color="green"'
        else:
            style = ""
        lines.append(f'  "{short}" [label="{label}"{style}];')
    if boundary:
        for entry in boundary:
            short = entry.key.short()
            lines.append(
                f'  "{short}" [label="{short}\\nno MGS" shape=box color="red"];'
            )
    shorts = {k: CanonicalKey(k).short() for k in graph.nodes}
    for a, b in graph.sorted_edges():
        lines.append(f'  "{shorts[a]}" -- "{shorts[b]}";')
    for entry in boundary or ():
        # edges to the members psi_component saw one mutation away
        pairs = (sorted((entry.key.short(), shorts[m])) for m in entry.members)
        lines.extend(sorted(f'  "{a}" -- "{b}";' for a, b in pairs))
    lines.append("}")
    return "\n".join(lines) + "\n"
