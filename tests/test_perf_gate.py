"""The perf gate's verdict on fabricated run records.

``benchmarks/perf_gate.py`` runs perfbench on a base revision and on the
working tree; these tests feed its pure verdict functions hand-made run
records, so no perfbench run is needed, and check the working-tree
snapshot head runs from on a throwaway git repository. The floor probe
runs here in-process, so a call it makes that the library no longer
takes fails in the test suite rather than in the gate.
"""

from __future__ import annotations

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent
GATE_PATH = ROOT / "benchmarks" / "perf_gate.py"
END_TO_END = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
BOUND = {m["name"]: m["bound"] for m in END_TO_END}


def load_gate():
    spec = importlib.util.spec_from_file_location("perf_gate", GATE_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


gate = load_gate()

BASE_VALUES = {
    "setup_s": 0.5,
    "runs_per_s": 0.3,
    "goodput_share": 1.0,
    "mapping_et_mean": 21613.0,
    "peak_rss_mb": 60.0,
}


def record(returncode=0, correct=True, attempted=10, failed=0, **values):
    metrics = {**BASE_VALUES, **values}
    return {
        "returncode": returncode,
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": "-"} for name, v in metrics.items()},
    }


def verdict(head, base=None):
    base = base if base is not None else [record() for _ in range(3)]
    return gate.workload_problems("solve-n50", base, head, END_TO_END)


def test_identical_runs_pass():
    assert verdict([record() for _ in range(3)]) == []


def test_throughput_drop_just_past_its_bound_fails():
    slow = BASE_VALUES["runs_per_s"] * (1 - BOUND["runs_per_s"] - 0.01)
    (problem,) = verdict([record(runs_per_s=slow) for _ in range(3)])
    assert "solve-n50: runs_per_s" in problem


def test_throughput_drop_just_inside_its_bound_passes():
    slow = BASE_VALUES["runs_per_s"] * (1 - BOUND["runs_per_s"] + 0.01)
    assert verdict([record(runs_per_s=slow) for _ in range(3)]) == []


def test_the_median_decides_not_one_run():
    slow = BASE_VALUES["runs_per_s"] * 0.5
    assert verdict([record(runs_per_s=slow), record(), record()]) == []


@pytest.mark.parametrize("name", ["setup_s", "peak_rss_mb"])
def test_lower_is_better_rise_past_its_bound_fails(name):
    high = BASE_VALUES[name] * (1 + BOUND[name] + 0.01)
    (problem,) = verdict([record(**{name: high}) for _ in range(3)])
    assert f"solve-n50: {name}" in problem
    # The same change in the better direction is no failure.
    low = BASE_VALUES[name] * (1 - BOUND[name] - 0.01)
    assert verdict([record(**{name: low}) for _ in range(3)]) == []


def test_incorrect_run_fails():
    problems = verdict([record(), record(returncode=1, correct=False), record()])
    assert "solve-n50: head run 1 exited 1" in problems
    assert "solve-n50: head run 1 reported correct: False" in problems


def test_broken_base_fails_too():
    base = [record(), record(), record(returncode=1, correct=False)]
    assert "solve-n50: base run 2 exited 1" in verdict([record() for _ in range(3)], base)


def test_run_without_a_result_line_fails_without_comparing():
    assert verdict([record(), {"returncode": 1}, record()]) == [
        "solve-n50: head run 1 exited 1",
        "solve-n50: head run 1 reported correct: None",
    ]


def test_higher_failed_share_fails():
    base = [record(failed=1), record(), record()]
    head = [record(failed=1), record(failed=1), record()]
    (problem,) = verdict(head, base)
    assert "failed share" in problem
    assert verdict(base, head) == []


def test_worse_by_directions():
    assert gate.worse_by(10.0, 8.0, "higher") == pytest.approx(0.2)
    assert gate.worse_by(10.0, 12.0, "lower") == pytest.approx(0.2)
    assert gate.worse_by(10.0, 12.0, "higher") < 0
    assert gate.worse_by(0.0, 0.0, "lower") == 0.0
    assert gate.worse_by(0.0, 1.0, "lower") == float("inf")


def test_floors():
    assert gate.floor_problems(gate.KERNEL_FLOOR, {"cext": gate.FUSED_FLOOR}) == []
    (kernel,) = gate.floor_problems(gate.KERNEL_FLOOR - 0.01, {"cext": 2.0, "numpy": 2.0})
    assert kernel.startswith("kernel floor")
    (fused,) = gate.floor_problems(7.0, {"cext": 2.0, "numpy": gate.FUSED_FLOOR - 0.01})
    assert fused.startswith("fused floor (numpy)")


def test_snapshot_copies_the_working_tree_without_ignored_files(tmp_path):
    src, dest = tmp_path / "src", tmp_path / "dest"
    (src / "pkg").mkdir(parents=True)
    (src / ".gitignore").write_text("out/\n")
    (src / "pkg" / "tracked.py").write_text("committed = 1\n")
    (src / "gone.py").write_text("deleted later\n")
    subprocess.run(["git", "init", "-q"], cwd=src, check=True)
    subprocess.run(["git", "add", "-A"], cwd=src, check=True)
    (src / "pkg" / "tracked.py").write_text("edited = 2\n")
    (src / "gone.py").unlink()
    (src / "new.py").write_text("untracked = 3\n")
    (src / "out").mkdir()
    (src / "out" / "record.json").write_text("{}")

    gate.snapshot_tree(src, dest)

    copied = sorted(str(p.relative_to(dest)) for p in dest.rglob("*") if p.is_file())
    assert copied == [".gitignore", "new.py", "pkg/tracked.py"]
    assert (dest / "pkg" / "tracked.py").read_text() == "edited = 2\n"


def test_floor_probe_runs_both_sides_and_prints_one_record(capsys):
    # Times only; the floors are not asserted (a loaded runner is too noisy).
    gate.floor_probe()
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 1
    record = json.loads(lines[0])
    for key in ("map_s", "serial_s", "fused_s"):
        assert record[key] > 0
