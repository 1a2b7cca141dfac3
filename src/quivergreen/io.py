"""Quiver text format.

The canonical interchange form is a JSON object
``{"n": int, "arrows": [[tail, head, mult], ...]}`` with 1-indexed vertices,
``tail != head``, ``mult >= 1`` and at most one entry per unordered vertex
pair.  A raw matrix form ``{"b": [[...]]}`` is accepted on input.  Both forms
are validated against the quiver invariants when loaded: every number must be
a JSON integer (a float, a string or a bool is rejected, never coerced), the
vertex count is capped by ``core.MAX_VERTICES`` and multiplicities by
``core.MULT_CAP``.
"""

from __future__ import annotations

import json
from pathlib import Path

from .core import Quiver
from .errors import QuiverError


def quiver_to_json(q: Quiver) -> dict:
    return {"n": q.n, "arrows": [list(a) for a in q.arrows()]}


def quiver_from_json(data) -> Quiver:
    if not isinstance(data, dict):
        raise QuiverError("quiver JSON must be an object")
    if "b" in data:
        return Quiver(data["b"])
    if "n" not in data or "arrows" not in data:
        raise QuiverError('quiver JSON needs "n" and "arrows" (or a "b" matrix)')
    arrows = data["arrows"]
    if not isinstance(arrows, list):
        raise QuiverError('"arrows" must be a list of [tail, head, mult] entries')
    for entry in arrows:
        if not isinstance(entry, (list, tuple)) or len(entry) not in (2, 3):
            raise QuiverError(f"bad arrow entry {entry!r}")
    return Quiver.from_arrows(data["n"], arrows)


def loads_quiver(text: str) -> Quiver:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise QuiverError(f"not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise QuiverError("JSON is nested too deeply") from exc
    return quiver_from_json(data)


def load_quiver(path: str | Path) -> Quiver:
    return loads_quiver(Path(path).read_text())


def dumps_quiver(q: Quiver) -> str:
    return json.dumps(quiver_to_json(q), sort_keys=True)


def save_quiver(q: Quiver, path: str | Path) -> None:
    Path(path).write_text(dumps_quiver(q) + "\n")


def format_arrows(q: Quiver) -> str:
    """Compact text form, e.g. ``1->2, 2->3 x2`` on three vertices."""
    parts = []
    for t, h, m in q.arrows():
        parts.append(f"{t}->{h}" + (f" x{m}" if m > 1 else ""))
    return ", ".join(parts) if parts else "(no arrows)"
