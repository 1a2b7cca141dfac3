"""Command-line interface.

Quiver inputs are one of:

* a path to a JSON quiver file,
* ``catalog:NAME`` for a bundled or parametric catalog entry
  (``catalog:K4``, ``catalog:Theta_5``, ``catalog:Q_2,2,2``),
* an inline family spec: ``Q3:a,b,c``, ``R:a,b,c[,op]``, ``Theta:n``,
  ``Lin3:a,b``, ``Tri3:a,b,c``.

Exit codes: 0 for definite answers (including a definite "no"), 2 when a
budget ran out and the answer is unknown or a graph is incomplete, 1 for
input errors, malformed command lines included.  Output is deterministic
for fixed inputs and budgets.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import catalog as cat
from .core import Quiver, _parse_int, is_acyclic, mutate, mutate_sequence
from .errors import CapabilityError, CertificateError, QuiverError
from .exchange import (
    DEFAULT_MAX_MULT,
    DEFAULT_MAX_NODES,
    enumerate_acyclic,
    explore,
    graph_to_dot,
    graph_to_json,
    invariant_report,
    is_mutation_acyclic,
    psi_component,
)
from .green import rotate_mgs, search_mgs, verify_mgs
from .io import format_arrows, load_quiver, quiver_to_json
from .obstructions import (
    decide_mgs,
    describe_obstruction,
    louise_from_json,
    solve_admissibility,
    verdict_to_json,
    verify_louise_certificate,
)

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_UNKNOWN = 2


def integer(text: str) -> int:
    """A command-line integer, spelled in ASCII digits with an optional
    minus; argparse names this function in its usage errors."""
    return _parse_int(text, "an integer argument")


def _parse_ints(text: str) -> list[int]:
    return [_parse_int(p, "each sequence entry") for p in text.split(",")]


# command-line family prefix -> catalog family (``catalog._PARAMETRIC``)
_FAMILY_SPECS = {"Q3": "Q", "R": "R", "Theta": "Theta", "Lin3": "Lin3", "Tri3": "Tri3"}


def parse_quiver(spec: str) -> Quiver:
    if spec.startswith("catalog:"):
        name = spec.split(":", 1)[1]
        try:
            return cat.get(name).quiver
        except KeyError as exc:
            raise QuiverError(exc.args[0]) from exc
    if ":" in spec:
        prefix, _, args = spec.partition(":")
        family = _FAMILY_SPECS.get(prefix)
        if family is None:
            raise QuiverError(f"unknown family spec {prefix!r}")
        params = args.split(",")
        opposite = family == "R" and params[-1] == "op"
        return cat.family_member(family, params[:-1] if opposite else params, opposite)
    try:
        return load_quiver(spec)
    except OSError as exc:
        raise QuiverError(f"cannot read quiver file {spec!r}: {exc}") from exc


class Output:
    def __init__(self, args):
        self.format = args.format
        self.path = args.out

    def emit(self, payload: dict, text: str) -> None:
        body = (
            json.dumps(payload, sort_keys=True, indent=2) + "\n"
            if self.format == "json"
            else text.rstrip("\n") + "\n"
        )
        self._write(body)

    def emit_raw(self, body: str) -> None:
        self._write(body if body.endswith("\n") else body + "\n")

    def _write(self, body: str) -> None:
        if self.path:
            try:
                with open(self.path, "w") as fh:
                    fh.write(body)
            except OSError as exc:
                raise QuiverError(
                    f"cannot write output file {self.path!r}: {exc}"
                ) from exc
        else:
            sys.stdout.write(body)


def _budget_kwargs(args) -> dict:
    out = {}
    if getattr(args, "max_len", None) is not None:
        out["max_len"] = args.max_len
    if getattr(args, "max_states", None) is not None:
        out["max_states"] = args.max_states
    return out


def cmd_mutate(args, out: Output) -> int:
    q = parse_quiver(args.quiver)
    for k in args.vertices:
        q = mutate(q, k)
    out.emit(quiver_to_json(q), format_arrows(q))
    return EXIT_OK


def cmd_mgs(args, out: Output) -> int:
    q = parse_quiver(args.quiver)
    if args.action == "find":
        result = search_mgs(q, **_budget_kwargs(args))
        if result.found:
            cert = result.certificate
            out.emit(
                {"status": "found", **cert.to_json(), "states": result.states},
                f"maximal green sequence {cert.as_tuple_text()}",
            )
            return EXIT_OK
        out.emit(
            {"status": result.status, "states": result.states},
            f"no sequence found ({result.status}, {result.states} states)",
        )
        print(
            f"search {result.status} after {result.states} states", file=sys.stderr
        )
        return EXIT_UNKNOWN
    if args.action == "verify":
        seq = _parse_ints(args.sequence)
        cert = verify_mgs(q, seq)
        if cert is None:
            out.emit({"valid": False, "sequence": seq}, "not a maximal green sequence")
        else:
            out.emit(
                {"valid": True, **cert.to_json()},
                f"valid; induced permutation {list(cert.permutation)}",
            )
        return EXIT_OK
    # rotate
    seq = _parse_ints(args.sequence)
    cert = verify_mgs(q, seq)
    if cert is None:
        out.emit({"valid": False, "sequence": seq}, "not a maximal green sequence")
        return EXIT_INPUT
    new_q, new_cert = rotate_mgs(q, cert)
    out.emit(
        {"quiver": quiver_to_json(new_q), **new_cert.to_json()},
        f"{format_arrows(new_q)}\nsequence {new_cert.as_tuple_text()}",
    )
    return EXIT_OK


def cmd_decide(args, out: Output) -> int:
    q = parse_quiver(args.quiver)
    verdict = decide_mgs(q, **_budget_kwargs(args))
    payload = verdict_to_json(verdict)
    if verdict.yes:
        text = f"yes: {verdict.certificate.as_tuple_text()}"
    elif verdict.no:
        text = "no: " + describe_obstruction(verdict.obstruction)
    else:
        text = f"unknown within budgets {verdict.budgets}"
        print(f"budget exhausted: {verdict.budgets}", file=sys.stderr)
    out.emit(payload, text)
    return EXIT_OK if verdict.kind != "unknown" else EXIT_UNKNOWN


def cmd_admissible(args, out: Output) -> int:
    q = parse_quiver(args.quiver)
    result = solve_admissibility(q)
    if result.satisfiable:
        signs = {f"{i}-{j}": ("+" if s > 0 else "-") for (i, j), s in result.assignment.signs}
        out.emit(
            {"outcome": "sat", "assignment": signs},
            "admissible; signs: "
            + ", ".join(f"{e}:{s}" for e, s in sorted(signs.items())),
        )
    else:
        cycles = [
            {"vertices": list(c), "oriented": o} for c, o in result.witness_cycles
        ]
        out.emit(
            {"outcome": "unsat", "witnessCycles": cycles},
            "no admissible sign assignment; inconsistent cycles: "
            + "; ".join(
                ("oriented " if o else "non-oriented ") + str(tuple(c))
                for c, o in result.witness_cycles
            ),
        )
    return EXIT_OK


def cmd_mutation_acyclic(args, out: Output) -> int:
    q = parse_quiver(args.quiver)
    result = is_mutation_acyclic(q, depth=args.depth, max_quivers=args.max_nodes)
    payload: dict = {"outcome": result.kind}
    if result.kind == "yes":
        payload["sequence"] = list(result.sequence)
        text = f"yes; mutate at {list(result.sequence)} to reach an acyclic quiver"
    elif result.kind == "no":
        payload["witnessCycles"] = [
            {"vertices": list(c), "oriented": o}
            for c, o in result.admissibility.witness_cycles
        ]
        text = "no; the cycle-parity system is unsatisfiable"
    else:
        payload["note"] = result.note
        text = f"unknown ({result.note})"
    out.emit(payload, text)
    return EXIT_OK if result.kind != "unknown" else EXIT_UNKNOWN


def cmd_graph(args, out: Output) -> int:
    q = parse_quiver(args.quiver)
    if args.action == "explore":
        graph = explore(q, max_nodes=args.max_nodes, max_mult=args.max_mult)
        boundary = None
        complete = graph.complete
    else:
        result = psi_component(
            q, max_nodes=args.max_nodes, **_budget_kwargs(args)
        )
        graph, boundary, complete = result.graph, result.boundary, result.complete
    if out.format == "dot":
        out.emit_raw(graph_to_dot(graph, boundary))
    else:
        payload = graph_to_json(graph, boundary)
        text = (
            f"{len(graph.nodes)} classes, {len(graph.edges)} edges, "
            f"complete={complete}"
        )
        if boundary is not None:
            text += f", boundary={len(boundary)}"
        out.emit(payload, text)
    if not complete:
        print("budget exhausted: graph incomplete", file=sys.stderr)
        return EXIT_UNKNOWN
    return EXIT_OK


def cmd_acyclic_count(args, out: Output) -> int:
    q = parse_quiver(args.quiver)
    if is_acyclic(q):
        members = enumerate_acyclic(q)
        out.emit({"acyclicCount": len(members)}, f"{len(members)} acyclic classes")
        return EXIT_OK
    probe = is_mutation_acyclic(q, depth=args.depth, max_quivers=args.max_nodes)
    if probe.kind == "yes":
        members = enumerate_acyclic(mutate_sequence(q, probe.sequence))
        out.emit({"acyclicCount": len(members)}, f"{len(members)} acyclic classes")
        return EXIT_OK
    if probe.kind == "no":
        out.emit({"acyclicCount": 0}, "0 acyclic classes (not mutation-acyclic)")
        return EXIT_OK
    out.emit({"acyclicCount": None, "note": probe.note}, f"unknown ({probe.note})")
    return EXIT_UNKNOWN


def cmd_invariants(args, out: Output) -> int:
    q = parse_quiver(args.quiver)
    report = invariant_report(
        q,
        depth=args.depth,
        max_quivers=args.max_nodes,
        max_nodes=args.max_nodes,
        **_budget_kwargs(args),
    )
    lines = [f"rank(B) = {report['b_rank']}", f"admissible: {report['admissible']}"]
    lines.append(f"mutation-acyclic: {report['mutation_acyclic']}")
    if "acyclic_count" in report:
        lines.append(f"acyclic classes: {report['acyclic_count']}")
    if "mgs" in report:
        lines.append(f"MGS: {report['mgs']}")
    if "psi" in report:
        psi = report["psi"]
        lines.append(
            f"MGS component: {psi['total']} classes "
            f"({psi['acyclic']} acyclic), complete={psi['complete']}"
        )
    out.emit(report, "\n".join(lines))
    return EXIT_OK


def cmd_louise(args, out: Output) -> int:
    q = parse_quiver(args.quiver)
    try:
        with open(args.certificate) as fh:
            cert = louise_from_json(json.load(fh))
    except OSError as exc:
        raise QuiverError(f"cannot read certificate: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise CertificateError(f"certificate is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise CertificateError("certificate is nested too deeply") from exc
    valid = verify_louise_certificate(q, cert)
    out.emit({"valid": valid}, "valid" if valid else "invalid")
    return EXIT_OK


def cmd_catalog(args, out: Output) -> int:
    if args.action == "list":
        entries = cat.names()
        out.emit({"names": entries}, "\n".join(entries))
        return EXIT_OK
    try:
        entry = cat.get(args.name)
    except KeyError as exc:
        raise QuiverError(exc.args[0]) from exc
    facts = {
        k: (list(v) if isinstance(v, tuple) else v)
        for k, v in entry.known_facts.items()
        if k != "louise"
    }
    payload = {
        "name": entry.name,
        "provenance": entry.provenance,
        "quiver": quiver_to_json(entry.quiver),
        "facts": facts,
    }
    if "louise" in entry.known_facts:
        payload["louise"] = entry.known_facts["louise"]
    text = f"{entry.name}: {format_arrows(entry.quiver)}\n  {entry.provenance}"
    for k, v in sorted(facts.items()):
        text += f"\n  {k}: {v}"
    out.emit(payload, text)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quivergreen",
        description="quiver mutation, maximal green sequences, exchange graphs",
    )
    # the global options are accepted after the subcommand too; there they
    # default to SUPPRESS, so they never overwrite a value given before it
    common = argparse.ArgumentParser(add_help=False)
    for flag, kwargs in (
        ("--format", {"choices": ("text", "json", "dot"), "default": "text"}),
        ("--out", {"help": "write output to a file instead of stdout"}),
        ("--max-len", {"type": integer}),
        ("--max-states", {"type": integer}),
        ("--max-nodes", {"type": integer, "default": DEFAULT_MAX_NODES}),
        ("--max-mult", {"type": integer, "default": DEFAULT_MAX_MULT}),
        ("--depth", {"type": integer, "default": 8}),
    ):
        parser.add_argument(flag, **kwargs)
        common.add_argument(flag, **{**kwargs, "default": argparse.SUPPRESS})
    sub = parser.add_subparsers(dest="command", required=True)

    def add_parser(name, **kwargs):
        return sub.add_parser(name, parents=[common], **kwargs)

    p = add_parser("mutate", help="apply mutations and print the result")
    p.add_argument("quiver")
    p.add_argument("vertices", type=integer, nargs="+")
    p.set_defaults(func=cmd_mutate)

    p = add_parser("mgs", help="find, verify or rotate green sequences")
    p.add_argument("action", choices=("find", "verify", "rotate"))
    p.add_argument("quiver")
    p.add_argument("sequence", nargs="?", help="comma-separated vertices")
    p.set_defaults(func=cmd_mgs)

    p = add_parser("decide", help="decide MGS existence with certificates")
    p.add_argument("quiver")
    p.set_defaults(func=cmd_decide)

    p = add_parser("admissible", help="solve the cycle-parity sign system")
    p.add_argument("quiver")
    p.set_defaults(func=cmd_admissible)

    p = add_parser("mutation-acyclic", help="test for an acyclic class member")
    p.add_argument("quiver")
    p.set_defaults(func=cmd_mutation_acyclic)

    p = add_parser("graph", help="explore the exchange graph or its MGS part")
    p.add_argument("action", choices=("explore", "psi"))
    p.add_argument("quiver")
    p.set_defaults(func=cmd_graph)

    p = add_parser("acyclic-count", help="count acyclic classes in the class")
    p.add_argument("quiver")
    p.set_defaults(func=cmd_acyclic_count)

    p = add_parser("invariants", help="mutation-invariant report")
    p.add_argument("quiver")
    p.set_defaults(func=cmd_invariants)

    p = add_parser("louise", help="verify separating-edge certificates")
    p.add_argument("action", choices=("verify",))
    p.add_argument("quiver")
    p.add_argument("certificate", help="path to a certificate JSON file")
    p.set_defaults(func=cmd_louise)

    p = add_parser("catalog", help="list or show bundled quivers")
    p.add_argument("action", choices=("list", "show"))
    p.add_argument("name", nargs="?")
    p.set_defaults(func=cmd_catalog)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "mgs" and args.action in ("verify", "rotate") and not args.sequence:
            parser.error("mgs verify/rotate needs a comma-separated sequence")
        if args.command == "catalog" and args.action == "show" and not args.name:
            parser.error("catalog show needs a name")
    except SystemExit as exc:
        # argparse exits 2 on a usage error, the code this CLI keeps for
        # "budget ran out"; --help exits 0
        return EXIT_INPUT if exc.code else EXIT_OK
    out = Output(args)
    try:
        return args.func(args, out)
    except (QuiverError, CertificateError, CapabilityError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
