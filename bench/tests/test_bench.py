"""Tests of the benchmark itself: run with `python3 -m pytest bench/tests -q`."""

import json
import shutil
import subprocess
import sys

import numpy as np
import pytest

import run
import tracer
import workloads
from banachkit import averages, linmaps, search, spaces, suites

SEED = 7


def light_ops(name, tmp_path):
    """A quick slice of a workload, rebuilt from the seed on every call."""
    ops = workloads.build(name, SEED, tmp_path)
    if name == "verify-all":
        keep = {"suite:norms", "suite:rademacher", "suite:pipeline", "suite:gauges"}
        return [op for op in ops if op.label in keep]
    if name == "sampling":
        return [op for op in ops if op.label.endswith(":n16") or "certificate" in op.label]
    return ops[:80]


def traced_pass(runner):
    t = tracer.Tracer()
    t.install()
    try:
        runner.run_pass(t)
    finally:
        t.uninstall()
    return t


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_traced_counts_are_a_function_of_the_seed(name, tmp_path):
    first = traced_pass(run.Runner(light_ops(name, tmp_path / "a"))).layer_metrics()
    second = traced_pass(run.Runner(light_ops(name, tmp_path / "b"))).layer_metrics()
    assert {k: first[k] for k in tracer.COUNTS} == {k: second[k] for k in tracer.COUNTS}


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_every_op_enters_the_package_through_a_traced_call(name, tmp_path):
    runner = run.Runner(light_ops(name, tmp_path))
    t = traced_pass(runner)
    table = t.table()
    top = table[table[:, 4] < 0]
    assert set(top[:, 5].tolist()) == set(range(len(runner.ops)))
    # ops call the package's entry points, never a helper layer directly
    helpers = ("spaces.", "sequences.", "search.", "linalg.", "growth.")
    assert not [t.names[i] for i in set(top[:, 1].tolist()) if t.names[i].startswith(helpers)]


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_tracing_does_not_change_results(name, tmp_path):
    runner = run.Runner(light_ops(name, tmp_path))
    runner.run_pass()
    traced_pass(runner)
    assert runner.reference is not None
    assert runner.mismatches == []


def test_only_known_defects_leave_a_run_correct():
    def report(*failed):
        return json.dumps({"records": [{"name": n, "tier": "ASSERT", "verdict": "fail"}
                                       for n in failed]})

    assert workloads._check_suite("suite:gauges", report("self-concavity")).known
    assert not workloads._check_suite("suite:gauges", report("self-concavity", "x")).known
    assert not workloads._check_suite("suite:norms", report("self-concavity")).known
    runner = run.Runner([workloads.Op("raises", lambda: 1 / 0, None)])
    runner.run_pass()
    assert runner.unexpected == {"raises"}


def test_every_binding_site_is_patched_and_restored():
    original = search.multistart_maximize
    svd, seq_norm, suite_fns = np.linalg.svd, spaces.SeqSpace.norm, dict(suites.SUITES)
    t = tracer.Tracer()
    t.install()
    try:
        for module in (search, linmaps, averages):
            assert module.multistart_maximize.__wrapped__ is original
        assert averages.sign_patterns is linmaps.sign_patterns
        assert averages.sign_patterns.__wrapped__ is not None
        assert spaces.SeqSpace.norm.__wrapped__ is seq_norm
        assert np.linalg.svd.__wrapped__ is svd
        assert all(suites.SUITES[k].__wrapped__ is fn for k, fn in suite_fns.items())
    finally:
        t.uninstall()
    for module in (search, linmaps, averages):
        assert module.multistart_maximize is original
    assert spaces.SeqSpace.norm is seq_norm
    assert np.linalg.svd is svd
    assert suites.SUITES == suite_fns


def test_self_time_excludes_children():
    space = spaces.parse_space("lorentz:2:1:8")
    t = tracer.Tracer()
    t.install()
    try:
        for _ in range(50):
            space.norm(np.arange(8.0))
    finally:
        t.uninstall()
    m = t.layer_metrics()
    table = t.table()
    outer = table[table[:, 4] < 0]
    total = float(np.sum(outer[:, 3] - outer[:, 2])) * 1e-9
    assert m["spaces.norm.calls"] == 50
    assert 0 < m["spaces.norm.self_s"] < total
    assert m["spaces.norm.self_s"] + m["sequences.self_s"] == pytest.approx(total, rel=1e-9)


def test_runs_fail_without_the_package(tmp_path):
    shutil.copytree(run.BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", "tests"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "desk-calls", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120, check=False)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


@pytest.mark.parametrize("trace", (0, 1))
def test_last_line_reports_every_declared_metric(trace):
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "desk-calls", "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        cwd=run.ROOT, capture_output=True, text=True, timeout=170, check=True)
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["attempted"] >= 1
    assert {k: v["unit"] for k, v in last["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}
