"""Tests of the benchmark itself:  python3 -m pytest perfbench -q"""

import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402  (sets the thread caps before numpy is imported)

_, injcheck = run._imports()
import tracing  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args, hash_seed="0", cwd=ROOT):
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=170)
    return proc


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_traced_work_counts_repeat_exactly(workload):
    """Two traced runs with one seed and different hash seeds give the same
    counts, so a later change can cite a count as a count."""
    counts = []
    for hash_seed in ("1", "2"):
        out = _result(_run("--workload", workload, "--seed", "5", "--seconds", "0",
                           "--trace", "1", hash_seed=hash_seed))
        assert out["correct"] and out["failed"] == 0
        assert set(out["metrics"]) == {m["name"] for m in BENCHMARK["per_layer"]}
        counts.append({k: v["value"] for k, v in out["metrics"].items()
                       if v["unit"] in ("count", "ratio")})
    assert counts[0] == counts[1]


def test_untraced_run_reports_every_end_to_end_metric():
    out = _result(_run("--workload", "falsify_audit", "--seed", "2", "--seconds", "0",
                       "--trace", "0"))
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] and out["attempted"] >= 1 and out["failed"] == 0
    for metric in BENCHMARK["end_to_end"]:
        reported = out["metrics"].pop(metric["name"])
        assert reported["unit"] == metric["unit"] and reported["value"] > 0
    assert out["metrics"] == {}


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run("--workload", "sign_sweep", "--seed", "1", "--seconds", "1", "--trace", "0",
                cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_self_times_add_up_to_each_operation():
    items = workloads.WORKLOADS["det_square"].generate(0)[:6]
    pool = [workloads.build(item) for item in items]
    tracer = tracing.Tracer()
    tracer.install()
    op_s = []
    try:
        # the wrapper replaces every binding, not only the home module's
        assert injcheck.injectivity.kernel_basis is injcheck.linalg.kernel_basis
        assert hasattr(injcheck.injectivity.kernel_basis, "__wrapped__")
        for op, problem in enumerate(pool, start=1):
            tracer.op_id = op
            t = time.perf_counter()
            injcheck.check_injectivity(problem)
            op_s.append(time.perf_counter() - t)
        spans = list(zip(tracer._parent, tracer._op, tracer._start, tracer._end))
        agg = tracer.end_pass()
    finally:
        tracer.uninstall()
    assert injcheck.injectivity.kernel_basis.__module__ == "injcheck.linalg"
    assert not hasattr(injcheck.injectivity.kernel_basis, "__wrapped__")
    # one top-level span per operation, inside the time measured around it
    roots = {op: end - start for parent, op, start, end in spans if parent < 0}
    assert sorted(roots) == list(range(1, len(pool) + 1))
    for op, root_s in roots.items():
        assert 0 < root_s <= op_s[op - 1]
    assert agg["root_by_op"] == roots
    assert agg["calls"][tracing.NAMES.index("injectivity.check_injectivity")] == len(pool)
    assert tracing.check_operations(op_s, agg, tracing.span_cost()) == []


def test_operation_check_catches_an_untraced_operation():
    """An operation whose top-level call was not wrapped leaves its time
    outside every span; the check must say so."""
    agg = {"root_by_op": {1: 0.010}, "self_s": [0.010], "spans": 40}
    assert tracing.check_operations([0.0101], agg, 1e-6) == []
    assert tracing.check_operations([0.0101, 0.050], agg, 1e-6)
    assert tracing.check_operations([0.0300], agg, 1e-6)
    assert tracing.check_operations([0.0099], agg, 1e-6)


def test_presentations_keep_the_verdicts():
    workload = workloads.WORKLOADS["falsify_audit"]
    statuses = set()
    for seed in (0, 1):
        items = workload.generate(seed)
        pool = [workloads.build(item) for item in items]
        statuses.add(run.run_pass(injcheck, workload, items, pool, None,
                                  decide_only=True).statuses)
    assert len(statuses) == 1
