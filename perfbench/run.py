#!/usr/bin/env python3
"""plausilearn benchmark: one workload per run, one client, closed loop.

    python3 perfbench/run.py --workload settle --seed 1 --seconds 30 --trace 0

Each op starts when the previous one returns, in this single process.  The
run prints one line per metric, a JSON environment record, and, as its last
line, the JSON result {"correct", "attempted", "failed", "metrics"}.

--trace 0 times ops for --seconds and reports the end-to-end metrics.
--trace 1 runs the workload's fixed first `trace_ops` ops twice each, plain
and traced, and reports the per-layer metrics of the traced runs; the same
ops on every commit make its call counts comparable.

Every op's output is checked after the timed region; a wrong output or an
exception counts as a failed op.  See perfbench/README.md.
"""

import argparse
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
DEFAULT_SEED = 1
SETUP_CHILDREN = 4  # extra set-ups in fresh processes, for the setup_s median
# Printed with the others but left out of BENCHMARK.json and the result
# line: on a machine whose speed comes in phases, a median or mean that
# falls between the fast and the slow ops moves too much from run to run
# to gate (see README.md, "Steadiness and bounds").
UNGATED = ("ops_per_s", "op_ms_p50", "paired_ms_p50")
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


@dataclass
class Op:
    kind: str
    input: object
    expect: object
    output: object = None
    error: str | None = None
    ms: float = 0.0


def run_op(workload, kind, given, expect) -> Op:
    op = Op(kind, given, expect)
    start = time.perf_counter()
    try:
        output = workload.run(kind, given)
    except Exception as exc:  # an op that raises is a failed op
        op.error = f"raised {exc!r}"
    op.ms = (time.perf_counter() - start) * 1e3
    if op.error is None:
        try:
            op.output = workload.compact(kind, output)
        except Exception as exc:  # so is an output of the wrong shape
            op.error = f"malformed output: {exc!r}"
    return op


def set_up(name: str, tiny: bool, workdir: str, tracer=None):
    """Import plausilearn and build the workload's model, under `tracer`
    when one is given.  Returns the workload and the seconds it took."""
    start = time.perf_counter()
    sys.path.insert(0, SRC)
    import plausilearn
    import workloads

    if not plausilearn.__file__.startswith(SRC + os.sep):
        raise SystemExit(f"error: plausilearn imported from {plausilearn.__file__}")
    workload = workloads.WORKLOADS[name](tiny)
    if tracer is None:
        workload.setup(workdir)
    else:
        tracer.install()
        try:
            workload.setup(workdir)
        finally:
            tracer.uninstall()
    return workload, time.perf_counter() - start


def timed_loop(workload, seed: int, seconds: float) -> list[Op]:
    """Ops until `seconds` have passed, then to the end of the op cycle."""
    ops: list[Op] = []
    inputs = workload.inputs(seed)
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or ops[-1].kind != "paired":
        ops.append(run_op(workload, *next(inputs)))
    return ops


def tail(values: list[float]) -> tuple[float, float, int]:
    """The highest percentile with at least ten samples above it:
    (value, percentile, samples).  Below eleven samples, the maximum."""
    ordered = sorted(values)
    rank = len(ordered) - 11 if len(ordered) > 10 else len(ordered) - 1
    return ordered[rank], 100.0 * (rank + 1) / len(ordered), len(ordered)


def check_outputs(workload, ops: list[Op], seed: int, tiny: bool) -> list[str | None]:
    import workloads

    reasons = workloads.check_all(workload, ops)
    if seed == DEFAULT_SEED and not tiny:
        with open(os.path.join(HERE, "golden.json")) as fh:
            golden = json.load(fh)[workload.name]
        for i, (op, expected) in enumerate(zip(ops, golden)):
            if reasons[i] is None and expected != workloads.digest(
                workload.canonical(op.kind, op.output)
            ):
                reasons[i] = "output differs from its golden digest"
    return reasons


def child_setups(args) -> list[float]:
    command = [sys.executable, os.path.abspath(__file__), "--setup-only",
               "--workload", args.workload]
    if args.tiny:
        command.append("--tiny")
    samples = []
    for _ in range(SETUP_CHILDREN):
        proc = subprocess.run(command, capture_output=True, text=True,
                              cwd=ROOT, timeout=120, check=True)
        samples.append(json.loads(proc.stdout.splitlines()[-1])["setup_s"])
    return samples


def commit() -> str:
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(args) -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
        "commit": commit(),
        "workload": args.workload,
        "seed": args.seed,
        "tiny": args.tiny,
        "thread_env": {var: os.environ[var] for var in THREAD_VARS},
        "loop": "closed loop, 1 client, 1 thread",
    }


def measure(args, workdir: str):
    workload, setup_s = set_up(args.workload, args.tiny, workdir)
    ops = timed_loop(workload, args.seed, args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    reasons = check_outputs(workload, ops, args.seed, args.tiny)
    setups = [setup_s] + child_setups(args)

    primary = [op.ms for op in ops if op.kind == "op"]
    paired = [op.ms for op in ops if op.kind == "paired"]
    op_tail, paired_tail = tail(primary), tail(paired)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (len(ops) / (sum(op.ms for op in ops) / 1e3), "1/s"),
        "op_ms_p50": (statistics.median(primary), "ms"),
        "op_ms_tail": (op_tail[0], "ms"),
        "paired_ms_p50": (statistics.median(paired), "ms"),
        "paired_ms_tail": (paired_tail[0], "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    notes = {
        "setup_s": f"median of {len(setups)} set-ups",
        "op_ms_tail": f"p{op_tail[1]:.1f} of {op_tail[2]} ops",
        "paired_ms_tail": f"p{paired_tail[1]:.1f} of {paired_tail[2]} paired ops",
    }
    extra = {"setup_s_samples": setups, "tracing_overhead": "measured by --trace 1"}
    return ops, reasons, metrics, notes, extra


def measure_traced(args, workdir: str):
    import tracer as tracing

    tracer = tracing.Tracer()
    workload, _ = set_up(args.workload, args.tiny, workdir, tracer)

    def traced(given) -> Op:
        tracer.install()
        try:
            return run_op(workload, *given)
        finally:
            tracer.uninstall()

    plain, ops = [], []
    inputs = itertools.islice(workload.inputs(args.seed), workload.trace_ops)
    for i, given in enumerate(inputs):
        # Plain and traced in alternating order, so that drift in machine
        # speed cancels out of the overhead.
        if i % 2:
            ops.append(traced(given))
            plain.append(run_op(workload, *given))
        else:
            plain.append(run_op(workload, *given))
            ops.append(traced(given))

    import workloads

    reasons = check_outputs(workload, ops, args.seed, args.tiny)
    for i, (a, b) in enumerate(zip(plain, ops)):
        if reasons[i] is None and (a.error or workloads.digest(
            workload.canonical(a.kind, a.output)
        ) != workloads.digest(workload.canonical(b.kind, b.output))):
            reasons[i] = a.error or "untraced output differs from the traced one"
    traced_s, plain_s = (sum(op.ms for op in run) / 1e3 for run in (ops, plain))
    extra = {
        "tracing_overhead": traced_s / plain_s,
        "traced_ops_per_s": len(ops) / traced_s,
        "untraced_ops_per_s": len(plain) / plain_s,
        "self_ms_sum": sum(tracer.self_ns.values()) / 1e6,
        "traced_wall_ms": tracer.wall_ns / 1e6,
    }
    metrics = tracer.metrics(getattr(workload, "horizon", 0))
    return ops, reasons, metrics, {}, extra


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["settle", "axioms", "check"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="small inputs, for the harness self-test")
    parser.add_argument("--setup-only", action="store_true",
                        help="set up once and print the seconds it took")
    args = parser.parse_args(argv)
    for var in THREAD_VARS:
        os.environ[var] = "1"  # before numpy, imported in set-up, starts its pools
    if not os.path.isfile(os.path.join(SRC, "plausilearn", "__init__.py")):
        sys.stderr.write(f"error: no plausilearn sources under {SRC}\n")
        return 2

    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as workdir:
        if args.setup_only:
            _, setup_s = set_up(args.workload, args.tiny, workdir)
            print(json.dumps({"setup_s": setup_s}))
            return 0
        measured = measure_traced if args.trace else measure
        ops, reasons, metrics, notes, extra = measured(args, workdir)

    failed = sum(reason is not None for reason in reasons)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for name, (value, unit) in metrics.items():
        note = notes.get(name, "not gated" if name in UNGATED else "")
        print(f"  {name:<48} {value:>14.6g} {unit}" + (f"  ({note})" if note else ""))
    print(f"  {'error_rate':<48} {failed / len(ops):>14.6g} ratio"
          f"  ({failed} of {len(ops)} ops failed)")
    for i, reason in enumerate(reasons):
        if reason is not None:
            print(f"  failed op {i} ({ops[i].kind}): {reason}")
    env = {
        **environment(args),
        "ops": {kind: sum(op.kind == kind for op in ops) for kind in ("op", "paired")},
        "error_rate": failed / len(ops),
        "notes": notes,
        "ungated": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items() if name in UNGATED},
        **extra,
    }
    print(json.dumps({"env": env}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items() if name not in UNGATED},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
