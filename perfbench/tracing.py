"""Layer tracing from outside the library.

The tracer wraps public functions of each quivergreen module and records a
span per call: name, start, end, parent span, task id and a small note taken
from the arguments or the result.  The library is not edited; instead every
module's own binding of a traced function is replaced, because ``green``,
``obstructions`` and ``exchange`` each import names such as ``mutate``,
``search_mgs`` or ``canonical_form`` into their own namespace, and patching
the defining module alone would miss those calls.

Self time of a span is its duration minus the time covered by its direct
child spans.  Spans stay in memory and are written out when the run ends.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time

from stats import tail

_BUILDERS = {
    "green.builders.acyclic": "acyclic",
    "green.builders.rank3": "rank3",
    "green.builders.direct_sum": "direct_sum",
    "green.builders.kcycle": "kcycle",
}
_FINDERS = {"core.find_direct_sum": "direct_sum", "core.find_ending_kcycle": "kcycle"}
STAGES = ("acyclic", "rank3", "subquiver", "r_family", "direct_sum", "kcycle", "search", "unknown")
_OBSTRUCTION_STAGE = {
    "Rank3CyclicObstruction": "rank3",
    "CatalogNoMgsObstruction": "subquiver",
    "RFamilyObstruction": "r_family",
}


def _found(result) -> bool:
    return result is not None


# (span name, defining module, function, note taken before the call from the
# arguments, note taken after the call from the result)
TARGETS = [
    ("core.mutate", "core", "mutate", None, None),
    ("core.relabel", "core", "relabel", None, None),
    ("core.induced_subquiver", "core", "induced_subquiver", None, None),
    ("core.is_acyclic", "core", "is_acyclic", None, None),
    ("core.induced_cycles", "core", "induced_cycles", None, None),
    ("core.find_direct_sum", "core", "find_direct_sum", None, _found),
    ("core.find_ending_kcycle", "core", "find_ending_kcycle", None, _found),
    # a Quiver whose canonical form is already cached was canonicalised before
    ("canonical.form", "canonical", "canonical_form", lambda q: q._canon is not None, None),
    ("canonical.are_isomorphic", "canonical", "are_isomorphic", None, None),
    ("green.mutate_framed", "green", "mutate_framed", None, None),
    ("green.search", "green", "search_mgs", None, lambda r: r.states),
    ("green.verify", "green", "verify_mgs", None, None),
    ("green.builders.acyclic", "green", "acyclic_mgs", None, None),
    ("green.builders.rank3", "green", "rank3_mgs", None, None),
    ("green.builders.direct_sum", "green", "direct_sum_mgs", None, None),
    ("green.builders.kcycle", "green", "kcycle_mgs", None, None),
    (
        "obstructions.decide",
        "obstructions",
        "decide_mgs",
        None,
        lambda v: (v.kind, type(v.obstruction).__name__),
    ),
    ("obstructions.recheck", "obstructions", "recheck_obstruction", None, None),
    ("exchange.explore", "exchange", "explore", None, lambda g: (len(g.nodes), len(g.edges))),
    ("exchange.psi", "exchange", "psi_component", None, lambda r: (r.size, len(r.boundary))),
    ("io.loads", "io", "loads_quiver", None, None),
]


class Tracer:
    """Span recorder.  ``spans`` holds ``[name, start_ns, end_ns, parent,
    task, note]`` records in start order; ``parent`` indexes ``spans``."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack = [-1]
        self.task = None

    def take(self) -> list[list]:
        """Hand over the spans recorded so far and start a fresh list."""
        out = self.spans[:]
        self.spans.clear()
        return out

    def wrap(self, name, fn, before=None, after=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0, 0, stack[-1], self.task, before(*args) if before else None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if after is not None:
                rec[5] = after(result)
            return result

        return traced


def install(tracer: Tracer):
    """Wrap every target in every quivergreen module that binds it, plus
    ``Quiver.__init__``.  Returns ``(uninstall, bindings_patched)``."""
    from quivergreen.core import Quiver

    modules = [
        m for name, m in sorted(sys.modules.items())
        if name == "quivergreen" or name.startswith("quivergreen.")
    ]
    undo = []
    for span, home, attr, before, after in TARGETS:
        original = getattr(sys.modules[f"quivergreen.{home}"], attr)
        wrapped = tracer.wrap(span, original, before, after)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapped)
                    undo.append((module, key, original))
    init = Quiver.__init__
    Quiver.__init__ = tracer.wrap("core.quiver_new", init)
    undo.append((Quiver, "__init__", init))

    def uninstall():
        for owner, key, original in reversed(undo):
            setattr(owner, key, original)

    return uninstall, len(undo)


def wrapper_cost_us(calls: int = 20000, repeats: int = 5) -> float:
    """Extra time one traced call costs over a plain call, in microseconds."""
    tracer = Tracer()

    def plain(x):
        return x

    traced = tracer.wrap("calibration", plain)
    best = {}
    for label, fn in (("plain", plain), ("traced", traced)):
        runs = []
        for _ in range(repeats):
            tracer.spans.clear()
            start = time.perf_counter_ns()
            for _ in range(calls):
                fn(1)
            runs.append(time.perf_counter_ns() - start)
        best[label] = min(runs)
    return (best["traced"] - best["plain"]) / calls / 1000


def layer_metrics(spans: list[list]) -> dict:
    """Per-layer counts and times for one pass of traced tasks."""
    count, self_ns, total_ns = {}, {}, {}
    own_ns = _self_ns(spans)
    children: dict[int, list[int]] = {}
    exchange_root = [None] * len(spans)  # nearest explore/psi ancestor (or self)
    form_us, form_repeat = [], 0
    states = explore_nodes = explore_edges = psi_nodes = psi_boundary = 0
    canon_in_explore = decide_in_psi = 0
    by_stage = dict.fromkeys(STAGES, 0)
    for idx, (name, start, end, parent, _task, note) in enumerate(spans):
        dur = end - start
        count[name] = count.get(name, 0) + 1
        self_ns[name] = self_ns.get(name, 0) + own_ns[idx]
        total_ns[name] = total_ns.get(name, 0) + dur
        children.setdefault(parent, []).append(idx)
        exchange_root[idx] = (
            name if name in ("exchange.explore", "exchange.psi")
            else exchange_root[parent] if parent >= 0 else None
        )
        if name == "canonical.form":
            form_us.append(dur / 1000)
            form_repeat += bool(note)
            canon_in_explore += exchange_root[idx] == "exchange.explore"
        elif name == "green.search":
            states += note
        elif name == "exchange.explore":
            explore_nodes += note[0]
            explore_edges += note[1]
        elif name == "exchange.psi":
            psi_nodes += note[0]
            psi_boundary += note[1]
        elif name == "obstructions.decide":
            decide_in_psi += parent >= 0 and spans[parent][0] == "exchange.psi"
    for idx, rec in enumerate(spans):
        if rec[0] == "obstructions.decide" and not _inside_decide(spans, rec[3]):
            by_stage[_decide_stage(spans, rec, children.get(idx, []))] += 1

    def calls(name):
        return count.get(name, 0)

    def self_s(*names):
        return sum(self_ns.get(n, 0) for n in names) / 1e9

    builders = tuple(_BUILDERS)
    out = {
        "green.mutate_framed.calls": calls("green.mutate_framed"),
        "green.mutate_framed.self_s": self_s("green.mutate_framed"),
        "green.mutate_framed.us_per_call": _ratio(
            self_s("green.mutate_framed") * 1e6, calls("green.mutate_framed")
        ),
        "green.search.calls": calls("green.search"),
        "green.search.states": states,
        "green.search.self_s": self_s("green.search"),
        "green.search.states_per_s": _ratio(states, total_ns.get("green.search", 0) / 1e9),
        "green.verify.calls": calls("green.verify"),
        "green.verify.self_s": self_s("green.verify"),
        "green.builders.calls": sum(calls(n) for n in builders),
        "green.builders.self_s": self_s(*builders),
        "canonical.form.calls": calls("canonical.form"),
        "canonical.form.repeat_calls": form_repeat,
        "canonical.form.self_s": self_s("canonical.form"),
        "canonical.form.p50_us": statistics.median(form_us) if form_us else 0.0,
        "canonical.form.tail_us": tail(form_us)[0] if form_us else 0.0,
        "canonical.are_isomorphic.calls": calls("canonical.are_isomorphic"),
        "core.mutate.calls": calls("core.mutate"),
        "core.mutate.self_s": self_s("core.mutate"),
        "core.quiver_new.calls": calls("core.quiver_new"),
        "core.quiver_new.self_s": self_s("core.quiver_new"),
    }
    for fn in ("relabel", "induced_subquiver", "is_acyclic", "induced_cycles",
               "find_direct_sum", "find_ending_kcycle"):
        out[f"core.{fn}.self_s"] = self_s(f"core.{fn}")
    out["obstructions.decide.calls"] = calls("obstructions.decide")
    out["obstructions.decide.self_s"] = self_s("obstructions.decide")
    for stage in STAGES:
        out[f"obstructions.decide.by.{stage}"] = by_stage[stage]
    out["obstructions.recheck.calls"] = calls("obstructions.recheck")
    out["obstructions.recheck.self_s"] = self_s("obstructions.recheck")
    out["exchange.explore.nodes"] = explore_nodes
    out["exchange.explore.edges"] = explore_edges
    out["exchange.explore.useful_ratio"] = _ratio(explore_nodes, canon_in_explore)
    out["exchange.psi.nodes"] = psi_nodes
    out["exchange.psi.boundary"] = psi_boundary
    out["exchange.psi.useful_ratio"] = _ratio(psi_nodes, decide_in_psi)
    out["exchange.self_s"] = self_s("exchange.explore", "exchange.psi")
    out["spans"] = len(spans)
    return out


def io_metrics(spans: list[list]) -> dict:
    own_ns = _self_ns(spans)
    loads = [idx for idx, rec in enumerate(spans) if rec[0] == "io.loads"]
    return {"io.loads.calls": len(loads), "io.loads.self_s": sum(own_ns[i] for i in loads) / 1e9}


def _self_ns(spans: list[list]) -> list[int]:
    """Each span's duration minus the durations of its direct children."""
    own = [rec[2] - rec[1] for rec in spans]
    for rec in spans:
        if rec[3] >= 0:
            own[rec[3]] -= rec[2] - rec[1]
    return own


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def _inside_decide(spans, parent: int) -> bool:
    while parent >= 0:
        if spans[parent][0] == "obstructions.decide":
            return True
        parent = spans[parent][3]
    return False


def _decide_stage(spans, rec, kids: list[int]) -> str:
    """Which stage produced a top-level verdict, read off the span's direct
    children (builders, search, structural finders) and the verdict itself."""
    if rec[5] is None:  # the call raised
        return "unknown"
    kind, obstruction = rec[5]
    if kind == "unknown":
        return "unknown"
    if kind == "yes":
        for idx in reversed(kids):
            name = spans[idx][0]
            if name in _BUILDERS:
                return _BUILDERS[name]
            if name == "green.search":
                return "search"
        return "unknown"
    if obstruction in _OBSTRUCTION_STAGE:
        return _OBSTRUCTION_STAGE[obstruction]
    for idx in reversed(kids):
        if spans[idx][0] in _FINDERS and spans[idx][5]:
            return _FINDERS[spans[idx][0]]
    return "subquiver"


def write_spans(path, groups: list[list[list]]) -> None:
    """One tab-separated line per span, numbered across ``groups`` (each a
    list of spans whose parent indexes are local to it), times relative to
    the first span."""
    origin = next((group[0][1] for group in groups if group), 0)
    with open(path, "w") as fh:
        fh.write("index\tparent\ttask\tname\tstart_ns\tend_ns\tnote\n")
        base = 0
        for group in groups:
            for idx, (name, start, end, parent, task, note) in enumerate(group):
                up = base + parent if parent >= 0 else -1
                fh.write(f"{base + idx}\t{up}\t{task}\t{name}\t{start - origin}\t{end - origin}\t{note}\n")
            base += len(group)
