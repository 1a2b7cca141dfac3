"""Determinism self-check for the benchmark's counters and output digests.

Runs every workload traced three times: twice with ``--seed`` and once with
the next seed.  Every count of the traced run and the output digest must
repeat exactly under the same seed.  The counts that do not depend on vertex
labels (search states, class and component sizes, boundary and edge counts)
must also repeat across the two seeds.

    python3 perfbench/determinism.py --seed 1
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

from run import is_deterministic
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent

RELABEL_INVARIANT = (
    "green.search.states",
    "exchange.explore.nodes",
    "exchange.explore.edges",
    "exchange.psi.nodes",
    "exchange.psi.boundary",
)


def traced_counts(workload: str, seed: int, seconds: float):
    """(digest, counts, problems) of one traced run."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1"]
    proc = subprocess.run(cmd, stdout=subprocess.DEVNULL)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: run failed with exit code {proc.returncode}")
    record = json.loads((HERE / "out" / f"{workload}-seed{seed}-trace1.json").read_text())
    counts = {name: m["value"] for name, m in record["metrics"].items() if is_deterministic(name)}
    return record["digest"], counts, record["problems"]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=2.0)
    parser.add_argument("--workload", action="append", help="default: every workload")
    args = parser.parse_args()
    mismatches = 0
    for workload in args.workload or WORKLOADS:
        digest_a, first, problems_a = traced_counts(workload, args.seed, args.seconds)
        digest_b, again, problems_b = traced_counts(workload, args.seed, args.seconds)
        _, other, problems_c = traced_counts(workload, args.seed + 1, args.seconds)
        found = [f"run problem: {p}" for p in problems_a + problems_b + problems_c]
        if digest_a != digest_b:
            found.append("output digest differs between runs with the same seed")
        found += [
            f"{name}: {first[name]} then {again[name]} with the same seed"
            for name in first if first[name] != again[name]
        ]
        found += [
            f"{name}: {first[name]} with seed {args.seed}, {other[name]} with seed {args.seed + 1}"
            for name in RELABEL_INVARIANT if first[name] != other[name]
        ]
        same_across = sorted(name for name in first if first[name] == other[name])
        print(f"{workload}: {len(first)} counts repeat under seed {args.seed}; "
              f"{len(same_across)} also under seed {args.seed + 1}"
              + ("" if not found else f"; {len(found)} MISMATCHES"))
        for line in found:
            print(f"  {line}")
        mismatches += len(found)
    print("determinism: " + ("ok" if not mismatches else f"{mismatches} mismatches"))
    return 0 if not mismatches else 1


if __name__ == "__main__":
    sys.exit(main())
