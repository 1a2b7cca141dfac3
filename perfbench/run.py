"""Benchmark for quivergreen: closed-loop desk workloads with checked outputs.

One caller runs the workload's tasks one after another, each starting when
the previous result returns, the way a person at a desk uses the tool.  A
task is one ``decide_mgs``, ``psi_component`` or ``explore`` call.  Every
output is checked against the independent reference in ``reference.py``.

    python3 perfbench/run.py --workload decide --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --seed 1      # all four workloads, one process each

``--trace 0`` reports the end-to-end metrics and ``--trace 1`` the per-layer
metrics of a traced run (see README.md).  The last line of standard output is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; a fuller record goes to ``perfbench/out/``.
"""

import os

# one BLAS thread, set before numpy is imported here or in any child process
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import stats  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

SETUP_PROBES = 7  # fresh processes timed from start to inputs ready
MIN_PASSES = 3  # untraced passes per end-to-end run, whatever the run length

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "task_p50_ms": "ms",
    "task_tail_ms": "ms",
    "peak_rss_mib": "MiB",
}


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "1/s" if name.endswith("per_s") else "s"
    if name.endswith("_us") or name.endswith("us_per_call"):
        return "us"
    if name.endswith("ratio") or name.endswith("share"):
        return "ratio"
    return "count"


def is_deterministic(name: str) -> bool:
    """Counts and ratios of counts, which must repeat exactly across runs."""
    return layer_unit(name) in ("count", "ratio") and name != "trace.overhead_share"


def setup(workload: str, seed: int):
    """Import numpy and quivergreen, build the catalog and load every input
    through ``io.loads_quiver``; returns the tasks and their quivers."""
    import numpy  # noqa: F401
    from quivergreen import catalog
    from quivergreen.io import loads_quiver

    catalog.names()
    tasks = workloads.build_tasks(workload, seed)
    return tasks, [loads_quiver(task.text) for task in tasks]


def measure_setup(workload: str, seed: int) -> list[float]:
    """Seconds from process start to inputs ready, once per fresh process."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    samples = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            proc.stdout.read()
            code = proc.wait()
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"set-up probe failed with exit code {code}")
        samples.append(elapsed)
    return samples


class Pass:
    """One run over every task: wall time, per-task times, output digests
    and, for tasks whose result is not a definite answer, the reason.  The
    outputs themselves are kept only when ``keep`` is set."""

    def __init__(self, workload, fn, quivers, keep=False, tracer=None):
        gc.collect()
        results, self.times = [], []
        start = time.perf_counter()
        for idx, q in enumerate(quivers):
            if tracer is not None:
                tracer.task = idx
            t0 = time.perf_counter()
            try:
                results.append(fn(q))
            except Exception as exc:  # a task that raises counts as failed
                traceback.print_exc(file=sys.stderr)
                results.append(exc)
            self.times.append(time.perf_counter() - t0)
        self.wall = time.perf_counter() - start
        self.spans = tracer.take() if tracer is not None else []
        self.outputs, self.digests, self.reasons = [], [], []
        for res in results:
            if isinstance(res, Exception):
                out, reason = None, f"raised {res!r}"
            else:
                out, reason = workloads.export(workload, res), workloads.failure_reason(workload, res)
            self.outputs.append(out if keep else None)
            self.digests.append(workloads.digest(out))
            self.reasons.append(reason)
        if tracer is not None:
            tracer.take()  # drop spans recorded while exporting


def repeat(make, budget_s: float, minimum: int) -> list:
    """Call ``make(i)`` for i = 0, 1, ... until another call would overrun
    ``budget_s`` seconds, but at least ``minimum`` times.

    Call ``i`` runs pinned to the i-th of the CPUs this process may use, in
    rotation.  On a shared virtual machine each CPU slows down and speeds up
    on its own, by 10 to 30 percent over tens of seconds, so spreading the
    rounds over all of them steadies the medians."""
    cpus = sorted(os.sched_getaffinity(0))
    rounds = []
    start = time.perf_counter()
    try:
        while True:
            os.sched_setaffinity(0, {cpus[len(rounds) % len(cpus)]})
            rounds.append(make(len(rounds)))
            elapsed = time.perf_counter() - start
            if len(rounds) >= minimum and elapsed * (len(rounds) + 1) / len(rounds) > budget_s:
                return rounds
    finally:
        os.sched_setaffinity(0, cpus)


def check_outputs(workload, tasks, passes) -> tuple[list[str], int]:
    """Per-task failures: the library's own, reference disagreements on the
    first pass, and any later pass whose output differs from the first."""
    first = passes[0]
    problems = []
    memo = {}
    if workload == "psi":
        count = len(workloads.rank4_acyclic_classes())
        if count != workloads.reference.RANK4_ACYCLIC_CLASSES:
            problems.append(f"psi seeds: {count} acyclic rank-4 classes, "
                            f"expected {workloads.reference.RANK4_ACYCLIC_CLASSES}")
    failures = 0
    for idx, task in enumerate(tasks):
        bad = []
        if first.outputs[idx] is not None:
            bad = workloads.check(workload, task, first.outputs[idx], memo)
        for p in passes:
            reason = p.reasons[idx] or (
                "output differs from the first pass" if p.digests[idx] != first.digests[idx] else ""
            )
            if reason or bad:
                failures += 1
                problems.append(f"{task.name}: {reason or '; '.join(bad)}")
    return problems, failures


def end_to_end(passes, setup_samples) -> tuple[dict, dict]:
    per_task = [statistics.median(col) for col in zip(*(p.times for p in passes))]
    tail_value, tail_pct, tail_n = stats.tail(per_task)
    values = {
        "setup_s": statistics.median(setup_samples),
        "wall_s": statistics.median(p.wall for p in passes),
        "task_p50_ms": statistics.median(per_task) * 1000,
        "task_tail_ms": tail_value * 1000,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    notes = {
        "task_tail_ms": f"p{tail_pct:.1f} of {tail_n} per-task medians over {len(passes)} passes",
        "setup_s": f"median of {len(setup_samples)} fresh processes",
        "wall_s": f"median of {len(passes)} passes",
    }
    return values, notes


def traced_run(workload, fn, tasks, quivers, budget_s):
    """Untraced and traced passes in alternating order, over the same warm
    inputs.  The inputs are also loaded once more under the tracer, for the
    ``io`` layer."""
    import quivergreen.io
    import tracing

    tracer = tracing.Tracer()
    uninstall, bindings = tracing.install(tracer)
    try:
        for task in tasks:
            quivergreen.io.loads_quiver(task.text)
    finally:
        uninstall()
    io_spans = tracer.take()

    def traced_pass():
        uninstall, _ = tracing.install(tracer)
        try:
            return Pass(workload, fn, quivers, tracer=tracer)
        finally:
            uninstall()

    def pair(i):
        if i % 2:
            traced = traced_pass()
            return Pass(workload, fn, quivers), traced
        return Pass(workload, fn, quivers, keep=(i == 0)), traced_pass()

    pairs = repeat(pair, budget_s, 1)
    untraced = [u for u, _ in pairs]
    traced = [t for _, t in pairs]
    per_pass = [tracing.layer_metrics(p.spans) for p in traced]
    values = {}
    for name in per_pass[0]:
        column = [m[name] for m in per_pass]
        values[name] = column[0] if is_deterministic(name) else statistics.median(column)
    unsteady = [n for n in per_pass[0] if is_deterministic(n) and len({m[n] for m in per_pass}) > 1]
    values.update(tracing.io_metrics(io_spans))
    wall_untraced = statistics.median(p.wall for p in untraced)
    wall_traced = statistics.median(p.wall for p in traced)
    values.update({
        "trace.wall_untraced_s": wall_untraced,
        "trace.wall_traced_s": wall_traced,
        "trace.overhead_s": wall_traced - wall_untraced,
        "trace.overhead_share": (wall_traced - wall_untraced) / wall_untraced,
        "trace.wrapper_us_per_call": tracing.wrapper_cost_us(),
        "trace.bindings_patched": bindings,
    })
    values["trace.spans"] = values.pop("spans")
    OUT.mkdir(exist_ok=True)
    span_file = OUT / f"spans-{workload}.tsv"
    tracing.write_spans(span_file, [io_spans, traced[0].spans])
    return untraced + traced, values, unsteady, span_file


def run_one(args) -> int:
    setup_samples = measure_setup(args.workload, args.seed) if not args.trace else []
    tasks, quivers = setup(args.workload, args.seed)
    fn = workloads.runner(args.workload)
    notes = {}
    unsteady = []
    if args.trace:
        passes, values, unsteady, span_file = traced_run(args.workload, fn, tasks, quivers, args.seconds)
        units = {name: layer_unit(name) for name in values}
        notes["trace.spans"] = f"first traced pass; spans written to {span_file.relative_to(HERE.parent)}"
    else:
        passes = repeat(
            lambda i: Pass(args.workload, fn, quivers, keep=(i == 0)), args.seconds, MIN_PASSES
        )
        values, notes = end_to_end(passes, setup_samples)
        units = END_TO_END_UNITS
    problems, failed = check_outputs(args.workload, tasks, passes)
    problems += [f"count {name} differs between traced passes" for name in unsteady]
    attempted = len(tasks) * len(passes)
    workload_digest = hashlib.sha256("\n".join(passes[0].digests).encode()).hexdigest()
    import numpy

    env = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpus": os.cpu_count(),
        "machine": platform.machine(),
    }
    correct = not problems
    for name, value in values.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{args.workload} {name} = {value:.6g} {units[name]}{note}")
    if not args.trace:
        print(f"{args.workload} failed_share = {failed / attempted:.6g}  ({failed} of {attempted} tasks)")
    print(f"{args.workload} digest sha256:{workload_digest}")
    print(f"{args.workload} env python {env['python']} numpy {env['numpy']} cpus {env['cpus']}")
    for problem in problems:
        print(f"{args.workload} PROBLEM {problem}")
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": env,
        "digest": workload_digest,
        "passes": len(passes),
        "tasks": [task.name for task in tasks],
        "attempted": attempted,
        "failed": failed,
        "failed_share": failed / attempted,
        "problems": problems,
        "notes": notes,
        "setup_samples_s": setup_samples,
        "pass_wall_s": [p.wall for p in passes],
        "task_times_s": [p.times for p in passes],
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in values.items()},
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n"
    )
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": record["metrics"],
    }))
    return 0


def run_all(args) -> int:
    """Each workload in its own fresh process, one at a time."""
    results = {}
    for workload in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        for line in lines[:-1]:
            print(line)
        if proc.returncode != 0 or not lines:
            print(f"{workload}: run failed with exit code {proc.returncode}", file=sys.stderr)
            return 1
        results[workload] = json.loads(lines[-1])
    print(json.dumps(results))
    return 0 if all(r["correct"] for r in results.values()) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS,
                        help="one workload; omit to run all four in turn")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "quivergreen" / "__init__.py").is_file():
        print(f"quivergreen sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_probe:
        setup(args.workload, args.seed)
        print("ready", flush=True)
        return 0
    if args.workload is None:
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
