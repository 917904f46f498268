"""Smoke-test the CE hot-path benchmark script.

Runs ``benchmarks/bench_ce_hotpath.py`` in its ``--smoke`` configuration
(tiny sizes and repetition counts) so every measurement path — including
the fused/serial execution-time parity assertion and the seed-path replica
— is exercised by the suite without meaningful runtime cost.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

BENCH_PATH = Path(__file__).parent.parent / "benchmarks" / "bench_ce_hotpath.py"


def load_bench_module():
    spec = importlib.util.spec_from_file_location("bench_ce_hotpath", BENCH_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_smoke_run_writes_report(tmp_path):
    bench = load_bench_module()
    out = tmp_path / "BENCH_ce_hotpath.json"
    report = bench.run(smoke=True, out=out)

    on_disk = json.loads(out.read_text())
    assert on_disk == report
    assert report["smoke"] is True

    # One full measurement group per loadable backend, numpy always.
    from repro import kernels

    available = [n for n, ok in kernels.available_backends().items() if ok]
    assert set(report["kernels"]) == set(available)
    assert report["host"]["kernel_backends"] == sorted(
        available, key=lambda n: (n != "numpy", n)
    )

    sampling = report["sampling"]["10"]
    assert sampling["kernel"] == "numpy"
    assert sampling["current_mappings_per_s"] > 0
    assert sampling["stacked_mappings_per_s"] > 0

    scoring = report["scoring"]["10"]
    assert scoring["batch_size"] == 200
    assert scoring["plain_rows_per_s"] > 0

    for backend, groups in report["kernels"].items():
        e2e = groups["end_to_end"]["10"]
        assert e2e["kernel"] == backend
        assert e2e["et_parity_fused_vs_serial"] is True
        assert e2e["fused_seconds"] > 0
    assert report["end_to_end"]["10"]["speedup_fused_vs_seed_path"] > 0

    # Smoke scale is too small to judge the acceptance bars; they must be
    # recorded as unjudged rather than as a pass or fail.
    assert report["acceptance"]["met"] is None
    assert report["acceptance"]["kernel"]["met"] is None


def test_committed_report_is_full_scale_and_meets_target():
    committed = BENCH_PATH.parent.parent / "BENCH_ce_hotpath.json"
    report = json.loads(committed.read_text())
    assert report["smoke"] is False
    acc = report["acceptance"]
    assert acc["measured_speedup_vs_seed_path"] >= acc["target_speedup_vs_seed_path"]
    assert acc["met"] is True


def test_committed_report_meets_kernel_target():
    """The compiled kernel layer's headline claim, pinned by the suite."""
    committed = BENCH_PATH.parent.parent / "BENCH_ce_hotpath.json"
    kacc = json.loads(committed.read_text())["acceptance"]["kernel"]
    assert kacc["compiled_backends"], "report was recorded without a compiled backend"
    assert kacc["measured_speedup"] >= kacc["target_speedup"]
    assert kacc["met"] is True
