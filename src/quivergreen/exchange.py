"""Unlabelled exchange-graph exploration and derived reports.

Nodes are isomorphism classes of quivers addressed by canonical key; two
nodes are adjacent when some representatives differ by one mutation.  All
four traversals (``explore``, ``psi_component``, ``enumerate_acyclic`` and
``is_mutation_acyclic``) share one walk, ``_walk``: breadth-first layers
with key-ordered expansion, each edge computed from one end only, so the
resulting graphs, exports and statistics are reproducible byte for byte.
The walk keeps one ``canonical.ClassIndex`` of every class it has reached:
a child in one of them is matched to that class's representative by a
verified isomorphism, and only a class the walk has not yet reached is
canonicalised, once.  Any isomorphism onto the representative names a
valid vertex back to the parent's class, so the choice of witness changes
no output.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .canonical import CanonicalKey, ClassIndex, canonical_form
from .core import (
    Quiver,
    _require_budget,
    _require_int,
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
    AdmissibilityResult,
    MgsVerdict,
    Obstruction,
    decide_mgs,
    obstruction_to_json,
    solve_admissibility,
)

DEFAULT_MAX_NODES = 10**5
DEFAULT_MAX_MULT = 64


@dataclass
class ExchangeNode:
    """One isomorphism class: its canonical key and representative, the BFS
    layer it was found in, whether the walk left it unexpanded, and its MGS
    verdict when ``psi_component`` decided one.  ``acyclic`` is read off the
    representative on each access; no walk computes it in advance."""

    key: CanonicalKey
    quiver: Quiver  # canonical representative
    layer: int
    truncated: bool = False
    mgs: Optional[MgsVerdict] = None

    @property
    def acyclic(self) -> bool:
        return is_acyclic(self.quiver)


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


def _every_vertex(rep: Quiver):
    return range(1, rep.n + 1)


def _walk(q: Quiver, graph: ExchangeGraph, vertices=_every_vertex):
    """Breadth-first walk over the isomorphism classes of the mutation class
    of ``q``, the one traversal behind ``explore``, ``psi_component``,
    ``enumerate_acyclic`` and ``is_mutation_acyclic``.

    Yields ``(parent, node, k, sigma)``: first the canonical root, with
    ``parent`` and ``k`` None; then, for each mutation at vertex ``k`` of an
    expanded node ``parent`` into a class not in ``graph.nodes``, that
    class's node and a witness ``sigma`` with ``relabel(mu_k(parent rep),
    sigma)`` equal to the node's representative; or ``(parent, None, k,
    None)`` for a mutation beyond the multiplicity cap.  The caller adopts
    a node by putting it into ``graph.nodes`` before it resumes the walk;
    the walk then records the edge and expands the node in the next layer,
    unless the node is marked truncated, which leaves the graph incomplete.
    Layers are expanded in key order, each node at
    ``vertices(representative)``; the walk tests no class for acyclicity.

    ``classes`` holds every class the walk has reached, adopted or not, by
    its node.  A child that matches none of them is a new class: only then
    is it canonicalised, relabelled into its canonical representative and
    given a node, whose witness is the canonical one.  A child that matches
    one gets that class's node, the same object each time, and a verified
    isomorphism onto its representative.

    Mutation is an involution that commutes with relabelling: if
    ``relabel(mu_k(rep), sigma)`` is the child's representative, then
    ``mu_{sigma(k)}`` of that representative is ``relabel(rep, sigma)``.  So
    for any witness the back vertex ``sigma[k-1]`` of the child
    representative mutates back into the class of ``rep``, and the walk
    skips it when it expands the child: each edge between two classes is
    computed from one end only, and the choice of witness changes no
    output.
    """
    key, sigma = canonical_form(q)
    root = ExchangeNode(key, relabel(q, sigma), 0)
    classes = ClassIndex()
    classes.add(root, root.quiver)
    yield None, root, None, sigma
    back: dict[bytes, set[int]] = {}
    frontier = list(graph.nodes.values())  # the root, once adopted
    while frontier:
        frontier.sort(key=lambda n: n.key.data)
        nxt = []
        for node in frontier:
            if node.truncated:
                graph.complete = False
                continue
            skip = back.pop(node.key.data, ())
            for k in vertices(node.quiver):
                if k in skip:
                    continue
                try:
                    child = mutate(node.quiver, k)
                except QuiverError:
                    yield node, None, k, None
                    continue
                degrees = classes.degrees(child)
                found = classes.find(child, degrees)
                if found is None:
                    ckey, sigma = canonical_form(child)
                    new = ExchangeNode(ckey, relabel(child, sigma), node.layer + 1)
                    rep_degrees = [0] * child.n
                    for i, s in enumerate(sigma):
                        rep_degrees[s - 1] = degrees[i]
                    classes.add(new, new.quiver, rep_degrees)
                else:
                    new, sigma = found
                if new.key.data not in graph.nodes:
                    yield node, new, k, sigma
                    if new.key.data not in graph.nodes:
                        continue
                    nxt.append(new)
                graph.add_edge(new.key.data, node.key.data)
                back.setdefault(new.key.data, set()).add(sigma[k - 1])
        frontier = nxt


def explore(
    q: Quiver,
    max_nodes: int = DEFAULT_MAX_NODES,
    max_mult: int = DEFAULT_MAX_MULT,
) -> ExchangeGraph:
    """Breadth-first enumeration of the mutation class up to isomorphism.

    A node whose quiver carries a multiplicity above ``max_mult`` is kept but
    marked truncated and never expanded, so infinite classes terminate; the
    graph is flagged incomplete whenever truncation or the node budget cut
    the search short.
    """
    max_nodes = _require_budget(max_nodes, "max_nodes")
    max_mult = _require_budget(max_mult, "max_mult")
    graph = ExchangeGraph(meta={"max_nodes": max_nodes, "max_mult": max_mult})
    for parent, node, _, _ in _walk(q, graph):
        if node is None:
            # beyond exact integer range: same treatment as max_mult
            parent.truncated = True
            graph.complete = False
        elif len(graph.nodes) >= max_nodes:
            # no node for the child, so no edge to it either
            graph.complete = False
        else:
            node.truncated = _over_mult(node.quiver, max_mult)
            graph.nodes[node.key.data] = node
    return graph


def _over_mult(q: Quiver, max_mult: int) -> bool:
    # skew-symmetry: the largest entry is the largest multiplicity
    return max(map(max, q.rows)) > max_mult


def _sinks_and_sources(rep: Quiver) -> list[int]:
    return sorted(set(sources(rep)) | set(sinks(rep)))


def enumerate_acyclic(q: Quiver) -> list[Quiver]:
    """All acyclic quivers in the mutation class of an acyclic quiver, up to
    isomorphism: the closure of ``q`` under mutations at sinks and sources.
    Sorted by canonical key."""
    if not is_acyclic(q):
        raise QuiverError("enumerate_acyclic requires an acyclic starting quiver")
    graph = ExchangeGraph()
    # a sink or source mutation only reverses arrows, never overflows
    for _, node, _, _ in _walk(q, graph, _sinks_and_sources):
        graph.nodes[node.key.data] = node
    return [graph.nodes[k].quiver for k in sorted(graph.nodes)]


@dataclass(frozen=True)
class MutationAcyclicResult:
    kind: str  # "yes" | "no" | "unknown"
    sequence: tuple[int, ...] = ()
    admissibility: Optional[AdmissibilityResult] = None
    note: str = ""


def is_mutation_acyclic(
    q: Quiver, depth: int = 8, max_quivers: int = 10_000
) -> MutationAcyclicResult:
    """Decide mutation-acyclicity where possible.

    An unsatisfiable admissibility system certifies "no" outright (only
    mutation-acyclic quivers admit an admissible companion).  Otherwise the
    class walk looks for an acyclic member up to ``depth`` mutations away,
    expanding at most ``max_quivers`` classes, and a "yes" names a shortest
    mutation sequence to it in the labels of ``q``.  ``depth`` must be an
    integer of at least 0 and ``max_quivers`` one of at least 1; both are
    checked on entry.  A mutation beyond the multiplicity cap leaves its
    branch unexplored, so the walk then never reports the class as
    exhausted.  Every answer carries the admissibility result it solved.
    """
    depth = _require_int(depth, "depth")
    if depth < 0:
        raise QuiverError(f"depth must be at least 0, got {depth!r}")
    max_quivers = _require_budget(max_quivers, "max_quivers")
    adm = solve_admissibility(q)
    if not adm.satisfiable:
        return MutationAcyclicResult("no", admissibility=adm)
    graph = ExchangeGraph()
    # class key -> (parent key, vertex mutated in the parent's
    # representative, witness of the mutated quiver onto the class's
    # representative)
    links: dict[bytes, tuple] = {}
    for parent, node, k, sigma in _walk(q, graph):
        if node is None:
            graph.complete = False  # a branch beyond the multiplicity cap
            continue
        links[node.key.data] = (parent and parent.key.data, k, sigma)
        if node.acyclic:
            return MutationAcyclicResult(
                "yes", _input_sequence(links, node.key.data), admissibility=adm
            )
        node.truncated = node.layer >= depth or len(graph.nodes) >= max_quivers
        graph.nodes[node.key.data] = node
    note = "class exhausted without an acyclic member" if graph.complete else "budget reached"
    return MutationAcyclicResult("unknown", admissibility=adm, note=note)


def _input_sequence(links: dict[bytes, tuple], key: bytes) -> tuple[int, ...]:
    """The mutations from the root to the class ``key``, in the labels of the
    walk's input quiver.  The root representative is the input relabelled by
    the root's witness ``perm``; a step at vertex ``k`` of a representative
    is the step at ``perm⁻¹(k)`` of the input's current image, after which
    the step's witness composes onto ``perm``."""
    steps = []
    while key is not None:
        key, k, sigma = links[key]
        steps.append((k, sigma))
    (_, perm), *steps = reversed(steps)
    sequence = []
    for k, sigma in steps:
        sequence.append(perm.index(k) + 1)
        perm = tuple(sigma[p - 1] for p in perm)
    return tuple(sequence)


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
    the result incomplete rather than guessing.  Each class is decided once
    per call, however many members reach it.  ``max_len`` and
    ``max_states`` are checked by the first ``decide_mgs`` call, before any
    neighbour is visited.
    """
    if max_len is None:
        max_len = default_max_len(q.n) + q.n  # component members vary in girth
    if max_states is None:
        max_states = DEFAULT_MAX_STATES
    max_nodes = _require_budget(max_nodes, "max_nodes")
    graph = ExchangeGraph(
        meta={"max_len": max_len, "max_states": max_states, "max_nodes": max_nodes}
    )
    boundary: dict[bytes, BoundaryEntry] = {}
    unresolved = 0
    for parent, node, _, _ in _walk(q, graph):
        if node is None:
            unresolved += 1  # neighbour beyond exact integer range
        elif node.key.data in boundary:
            boundary[node.key.data].members.add(parent.key.data)
        elif len(graph.nodes) >= max_nodes:
            graph.complete = False
            unresolved += 1
        else:
            if node.mgs is None:
                node.mgs = decide_mgs(node.quiver, max_len, max_states)
            verdict = node.mgs
            if parent is None and not verdict.yes:
                raise QuiverError(
                    "psi_component requires a starting quiver with a maximal green sequence"
                )
            if verdict.yes:
                graph.nodes[node.key.data] = node
            elif verdict.no:
                boundary[node.key.data] = BoundaryEntry(
                    node.key, node.quiver, verdict.obstruction, {parent.key.data}
                )
            else:
                unresolved += 1
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
    ma = is_mutation_acyclic(q, depth, max_quivers)
    report: dict = {
        "b_rank": b_matrix_rank(q),
        "admissible": "sat" if ma.admissibility.satisfiable else "unsat",
        "budgets": {
            "depth": depth,
            "max_quivers": max_quivers,
            "max_len": max_len,
            "max_states": max_states,
            "max_nodes": max_nodes,
        },
    }
    report["mutation_acyclic"] = ma.kind
    if ma.kind == "yes":
        member = mutate_sequence(q, ma.sequence)
        report["acyclic_count"] = len(enumerate_acyclic(member))
    if q.n <= 4:
        verdict = decide_mgs(q, max_len, max_states)
        report["mgs"] = verdict.kind
        if verdict.yes:
            psi = psi_component(q, max_len, max_states, max_nodes)
            acyclic = psi.acyclic_count()
            report["psi"] = {
                "total": psi.size,
                "acyclic": acyclic,
                "non_acyclic": psi.size - acyclic,
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
