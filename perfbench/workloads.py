"""Seeded inputs, tasks and output exports for the four workloads.

Inputs are built here and reach the library only as JSON quiver documents
loaded through ``quivergreen.io.loads_quiver``.  The seed draws a vertex
relabelling of every input and, for ``explore``, an orientation of each
Dynkin tree.  Verdicts, shortest lengths, class sizes and search state counts
do not change under relabelling, so the seed varies the inputs without
changing the work.

Why each workload (see README.md for the layer map):

* ``decide``: ``decide_mgs`` where bounded search or a builder gives "yes"
  and an obstruction gives "no"; the green search and framed mutation do
  almost all the work, canonical forms almost none.
* ``psi``: ``psi_component`` around K4 and around a fixed quarter of the 425
  acyclic rank-4 classes with multiplicities at most 2; every neighbour goes
  through the whole ``decide_mgs`` stage pipeline and many small,
  low-symmetry quivers are canonicalised.
* ``explore``: ``explore`` on finite-type Dynkin classes; mutation, quiver
  construction, relabelling and canonical forms on mostly low-symmetry
  quivers, and no search at all.
* ``explore_symmetric``: ``explore`` on disjoint unions of type-A paths up
  to the 12-vertex canonical cap, where canonical forms of highly symmetric
  quivers take nearly all the time.  Kept apart from ``explore`` so a gain on
  one kind of input cannot hide a regression on the other.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from itertools import product

import reference

WORKLOADS = ("decide", "psi", "explore", "explore_symmetric")

DECIDE_INPUTS = [
    # "yes": bounded search (Theta_n, Z6, W5, W5p) or the direct-sum builder (K4)
    "Theta_5", "Theta_6", "Theta_7", "Z6", "K4", "W5", "W5p",
    # "no": catalog, rank-3 and divergent rank-4 family obstructions
    "X7", "X7_twin", "Markov", "Q_2,3,4",
    "R_0,2,3", "R_0,2,4", "R_1,2,4", "R_1,4,3_op", "R_0,3,2_op",
]


def _path(n):
    return [(i, i + 1) for i in range(1, n)]


DYNKIN_TREES = {
    "A_5": (5, _path(5)),
    "A_6": (6, _path(6)),
    "D_5": (5, _path(4) + [(3, 5)]),
    "D_6": (6, _path(5) + [(4, 6)]),
    "E_6": (6, _path(5) + [(3, 6)]),
    "E_7": (7, _path(6) + [(3, 7)]),
}

# disjoint unions of oriented paths, by the number of vertices of each path
SYMMETRIC_UNIONS = {
    "3xA_3": (3, 3, 3),
    "2xA_4": (4, 4),
    "2xA_3+A_4": (3, 3, 4),
    "6xA_2": (2, 2, 2, 2, 2, 2),
}

# psi seeds: every PSI_STRIDE-th acyclic rank-4 class in the order of the
# reference canonical reading; a fixed subset, so every seed does the same work
PSI_STRIDE = 4


@dataclass
class Task:
    name: str
    doc: dict  # the JSON quiver document the library loads
    text: str  # its serialized form


def _relabelled_doc(n: int, arrows, rng: random.Random) -> dict:
    perm = list(range(1, n + 1))
    rng.shuffle(perm)
    moved = sorted([perm[t - 1], perm[h - 1], m] for t, h, m in arrows)
    return {"n": n, "arrows": moved}


def _task(name: str, n: int, arrows, rng: random.Random) -> Task:
    doc = _relabelled_doc(n, arrows, rng)
    return Task(name, doc, json.dumps(doc))


def rank4_acyclic_classes() -> list[list[list[int]]]:
    """One representative per isomorphism class of acyclic rank-4 quivers with
    multiplicities at most 2: every acyclic quiver is isomorphic to one whose
    arrows all run from lower to higher labels."""
    pairs = [(i, j) for i in range(4) for j in range(i + 1, 4)]
    classes = {}
    for mults in product(range(3), repeat=len(pairs)):
        b = [[0] * 4 for _ in range(4)]
        for (i, j), m in zip(pairs, mults):
            b[i][j], b[j][i] = m, -m
        classes.setdefault(reference.canonical(b), b)
    return [classes[key] for key in sorted(classes)]


def build_tasks(workload: str, seed: int) -> list[Task]:
    """The workload's task list for ``seed``; needs the library only for the
    catalog quivers of ``decide`` and ``psi``."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "decide":
        from quivergreen import catalog

        return [
            _task(name, q.n, q.arrows(), rng)
            for name in DECIDE_INPUTS
            for q in [catalog.get(name).quiver]
        ]
    if workload == "psi":
        from quivergreen import catalog

        k4 = catalog.get("K4").quiver
        tasks = [_task("K4", 4, k4.arrows(), rng)]
        classes = rank4_acyclic_classes()
        for idx in range(0, len(classes), PSI_STRIDE):
            doc = reference.to_doc(classes[idx])
            tasks.append(_task(f"acyclic_{idx}", 4, doc["arrows"], rng))
        rng.shuffle(tasks)
        return tasks
    if workload == "explore":
        tasks = []
        for name, (n, edges) in DYNKIN_TREES.items():
            oriented = [(a, b, 1) if rng.random() < 0.5 else (b, a, 1) for a, b in edges]
            tasks.append(_task(name, n, oriented, rng))
        return tasks
    if workload == "explore_symmetric":
        tasks = []
        for name, lengths in SYMMETRIC_UNIONS.items():
            arrows, offset = [], 0
            for length in lengths:
                arrows += [(offset + a, offset + b, 1) for a, b in _path(length)]
                offset += length
            tasks.append(_task(name, offset, arrows, rng))
        return tasks
    raise ValueError(f"unknown workload {workload!r}")


def runner(workload: str):
    """The library call one task makes, as ``f(quiver) -> result``.  The
    function is looked up in the package on every call, so a traced run sees
    the tracer's wrapper."""
    import quivergreen

    name = {
        "decide": "decide_mgs",
        "psi": "psi_component",
        "explore": "explore",
        "explore_symmetric": "explore",
    }[workload]

    def run(q):
        return getattr(quivergreen, name)(q)

    return run


def failure_reason(workload: str, result) -> str:
    """Why the library's own result is not a definite answer, or ""."""
    if workload == "decide":
        return "verdict unknown" if result.kind == "unknown" else ""
    if workload == "psi":
        return "" if result.complete else "component incomplete"
    return "" if result.complete else "graph incomplete"


def export(workload: str, result) -> dict:
    """The task's output in the library's own export formats."""
    from quivergreen.exchange import graph_to_json
    from quivergreen.obstructions import verdict_to_json

    if workload == "decide":
        return verdict_to_json(result)
    if workload == "psi":
        return {
            "export": graph_to_json(result.graph, result.boundary),
            "complete": result.complete,
            "sequences": [
                list(node.mgs.certificate.sequence)
                for node in result.graph.ordered_nodes()
            ],
        }
    return graph_to_json(result)


def digest(out: dict) -> str:
    return hashlib.sha256(json.dumps(out, sort_keys=True).encode()).hexdigest()


def check(workload: str, task: Task, out: dict, memo: dict) -> list[str]:
    """Problems the independent reference finds with one task's output."""
    if workload == "decide":
        return reference.check_decide(task.name, task.doc, out)
    if workload == "psi":
        return reference.check_psi(task.name, task.doc, out, memo)
    return reference.check_explore(task.name, task.doc, out)
