"""Tests of the benchmark itself (not of the program it measures).

Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import math
import multiprocessing
import os
import shutil
import subprocess
import sys
from multiprocessing import shared_memory
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.bootstrap()

import hygiene  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, installed_wrappers  # noqa: E402

from repro.mapping.problem_key import problem_key  # noqa: E402

NAMES = sorted(workloads.WORKLOADS)


@pytest.mark.parametrize("name", NAMES)
def test_inputs_depend_only_on_the_seed(name):
    workload = workloads.WORKLOADS[name]("tiny")
    first, second = workload.inputs(7, 2.0), workload.inputs(7, 2.0)
    assert first == second
    assert workload.inputs(8, 2.0) != first
    states = [workload.setup(first, Tracer()), workload.setup(second, Tracer())]
    try:
        keys = [[problem_key(p) for p in s["problems"]] for s in states]
        assert keys[0] == keys[1]
        assert states[0].get("bodies") == states[1].get("bodies")
    finally:
        for state in states:
            workload.teardown(state)
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("trace", [False, True], ids=["end-to-end", "traced"])
@pytest.mark.parametrize("name", NAMES)
def test_tiny_pass_emits_every_metric_and_leaves_nothing(name, trace):
    before = hygiene.snapshot()
    report = run.run_benchmark(name, seed=3, seconds=1.0, trace=trace, scale="tiny")
    assert report["hygiene"] == []
    assert report["correct"], report.get("details")
    assert report["failed"] == 0 and report["attempted"] >= 1

    result = json.loads(run.result_line(report, trace))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    expected = run.units(trace)
    assert set(result["metrics"]) == set(expected)
    for metric, entry in result["metrics"].items():
        assert entry["unit"] == expected[metric]
        assert isinstance(entry["value"], float) and math.isfinite(entry["value"])
        if not trace:
            assert entry["value"] > 0, metric  # end-to-end metrics are never 0

    assert installed_wrappers() == []
    assert multiprocessing.active_children() == []
    assert hygiene.child_pids() == []
    assert hygiene.snapshot() - before == set()


def test_traced_run_reports_the_layers_it_exercises():
    report = run.run_benchmark("table3-n10", seed=5, seconds=1.0, trace=True, scale="tiny")
    metrics = report["metrics"]
    for metric in ("ce.genperm.busy_s", "ce.genperm.rows", "mapping.score.rows", "ce.iterations"):
        assert metrics[metric] > 0, metric
    assert metrics["runstore.cache.hits"] == 0  # no cache on the solve workloads
    assert set(metrics) == {name for name, _unit, _better in layers.PER_LAYER}


def test_a_wrong_answer_is_counted_as_failed(monkeypatch):
    real = workloads.evaluate_reference
    monkeypatch.setattr(workloads, "evaluate_reference", lambda p, x: real(p, x) + 1.0)
    report = run.run_benchmark("solve-n50", seed=1, seconds=0.2, trace=False, scale="tiny")
    assert not report["correct"]
    assert report["failed"] == report["attempted"]
    assert report["hygiene"] == []


def test_leftovers_are_reported_and_cleaned():
    before = hygiene.snapshot()
    segment = shared_memory.SharedMemory(create=True, size=64)
    child = multiprocessing.get_context("fork").Process(target=_sleep, daemon=True)
    child.start()
    try:
        problems = hygiene.leftovers(before)
    finally:
        segment.close()
    assert any(segment.name in p for p in problems)
    assert any(str(child.pid) in p for p in problems)
    assert not child.is_alive()
    assert segment.name not in hygiene.snapshot()


def _sleep() -> None:
    import time

    time.sleep(60)


def test_command_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", ".build"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "solve-n50", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_benchmark_json_declares_what_the_command_prints():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {(w["name"], w["why"]) for w in spec["workloads"]} == {
        (w.name, w.why) for w in workloads.WORKLOADS.values()
    }
    declared = [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]]
    assert declared == run.END_TO_END
    declared = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    assert declared == layers.PER_LAYER
