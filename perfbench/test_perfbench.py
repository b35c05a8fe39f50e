"""Self-test of the benchmark harness itself.

    python3 -m pytest perfbench/test_perfbench.py
"""

import itertools
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import run  # noqa: E402
import workloads  # noqa: E402
from plausilearn.logic import Counterexample  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


def bench(*args: str, root: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(root, "perfbench", "run.py"), *args],
        capture_output=True, text=True, cwd=root, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_prints_every_metric_with_its_unit(workload, trace):
    proc = bench("--workload", workload, "--seed", "5", "--seconds", "0.5",
                 "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    *lines, env_line, result_line = proc.stdout.splitlines()
    result = json.loads(result_line)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == {m["name"]: m["unit"] for m in spec}
    shown = {line.split()[0]: line.split()[2] for line in lines[1:] if len(line.split()) > 2}
    assert all(shown.get(m["name"]) == m["unit"] for m in spec)
    env = json.loads(env_line)["env"]
    if not trace:
        assert {name: shown[name] for name in run.UNGATED} == {
            name: m["unit"] for name, m in env["ungated"].items()}
    if trace:
        assert 0 < env["self_ms_sum"] <= env["traced_wall_ms"]
        assert env["tracing_overhead"] > 0
    else:
        assert all(m["value"] > 0 for m in result["metrics"].values())
        assert env["error_rate"] == 0


def first_ops(name: str, count: int, tmp_path):
    workload, _ = run.set_up(name, True, str(tmp_path))
    inputs = itertools.islice(workload.inputs(7), count)
    ops = [run.run_op(workload, *given) for given in inputs]
    assert workloads.check_all(workload, ops) == [None] * count
    return workload, ops


def test_shifted_settle_time_fails_its_op(tmp_path):
    workload, ops = first_ops("settle", 3, tmp_path)
    summary = ops[1].output  # not the op sampled for step-by-step conditioning
    trial = summary.trial_results[0]
    # Shift consistently, so that only the recomputation can tell.
    trial.settled, trial.settle_time = True, (trial.settle_time or 0) + 1
    summary.settle_fraction = 1.0
    summary.settle_time_median = float(trial.settle_time)
    summary.settle_time_max = summary.settle_time_p90 = trial.settle_time
    reasons = workloads.check_all(workload, ops)
    assert reasons[1] is not None and reasons[0] is None


def test_flipped_verdicts_fail_their_ops(tmp_path):
    workload, ops = first_ops("check", 5, tmp_path)
    ast, ext, printed = ops[0].output
    ops[0].output = ast, ext ^ 1, printed  # world 0's verdict
    assert workloads.check_all(workload, ops)[0] is not None

    workload, ops = first_ops("axioms", 4, tmp_path)
    ops[2].output.counterexamples.append(Counterexample("K_truth", "T", [], [0]))
    reasons = workloads.check_all(workload, ops)
    assert reasons[2] is not None and reasons[0] is None


def test_golden_digests_hold_and_a_mismatch_fails_the_op(tmp_path, monkeypatch):
    workload, _ = run.set_up("axioms", False, str(tmp_path))
    inputs = itertools.islice(workload.inputs(run.DEFAULT_SEED), 4)
    ops = [run.run_op(workload, *given) for given in inputs]
    assert run.check_outputs(workload, ops, run.DEFAULT_SEED, False) == [None] * 4

    with open(os.path.join(HERE, "golden.json")) as fh:
        golden = json.load(fh)
    golden["axioms"][1] = "0" * 16
    (tmp_path / "golden.json").write_text(json.dumps(golden))
    monkeypatch.setattr(run, "HERE", str(tmp_path))
    reasons = run.check_outputs(workload, ops, run.DEFAULT_SEED, False)
    assert reasons == [None, "output differs from its golden digest", None, None]


def test_an_op_that_raises_is_failed(tmp_path):
    workload, _ = first_ops("settle", 0, tmp_path)
    op = run.run_op(workload, "op", -1, None)  # seeds must be non-negative
    assert op.error is not None
    assert workloads.check_all(workload, [op]) == [op.error]


def test_tail_leaves_ten_samples_above_it():
    assert run.tail([float(v) for v in range(1, 101)]) == (90.0, 90.0, 100)
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 3)


def test_without_the_program_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = bench("--workload", "settle", "--seed", "1", "--seconds", "1",
                 "--trace", "0", root=str(tmp_path))
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
