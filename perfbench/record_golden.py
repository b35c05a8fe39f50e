#!/usr/bin/env python3
"""Record the golden output digests of each workload's first ops at the
default seed into perfbench/golden.json.

    python3 perfbench/record_golden.py

Record only on a commit whose outputs are trusted: afterwards the benchmark
fails any of these ops whose output digest differs.  The seed-independent
checks must pass before anything is written.
"""

import itertools
import json
import os
import tempfile

import run

GOLDEN_OPS = {"settle": 6, "axioms": 16, "check": 24}  # whole op cycles


def main() -> None:
    golden: dict = {"seed": run.DEFAULT_SEED, "commit": run.commit()}
    for name, count in GOLDEN_OPS.items():
        with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=run.ROOT) as workdir:
            workload, _ = run.set_up(name, False, workdir)
            import workloads

            inputs = itertools.islice(workload.inputs(run.DEFAULT_SEED), count)
            ops = [run.run_op(workload, *given) for given in inputs]
            reasons = workloads.check_all(workload, ops)
            if any(reasons):
                raise SystemExit(f"{name}: not recording failed ops: {reasons}")
            golden[name] = [
                workloads.digest(workload.canonical(op.kind, op.output)) for op in ops
            ]
    with open(os.path.join(run.HERE, "golden.json"), "w") as fh:
        json.dump(golden, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
