"""Summary statistics shared by the run and the tracer."""

from __future__ import annotations

TAIL_BEYOND = 10


def tail(values) -> tuple[float, float, int]:
    """``(value, percentile, sample count)`` for the highest percentile with
    at least ``TAIL_BEYOND`` samples beyond it.  When that percentile would
    not lie above the median (at most ``2 * TAIL_BEYOND`` samples), the
    maximum is reported instead, as percentile 100."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= 2 * TAIL_BEYOND:
        return ordered[-1], 100.0, n
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, n
