"""BenchResult: the one way a benchmark session records its report."""

from __future__ import annotations

import json

import pytest

from repro.runstore import BenchResult, RunStore


def _result(**kwargs):
    defaults = dict(smoke=True, groups={"stages": {"warm": {"seconds": 1.5}}, "flag": True})
    defaults.update(kwargs)
    return BenchResult("toy", **defaults)


class TestReportShape:
    def test_schema_keys_and_groups_at_top_level(self):
        report = _result().build_report()
        assert report["benchmark"] == "toy"
        assert report["smoke"] is True
        assert "generated" in report
        assert report["stages"]["warm"]["seconds"] == 1.5
        assert report["flag"] is True
        assert "platform" in report["host"] and "python" in report["host"]

    def test_group_name_may_not_shadow_schema_keys(self):
        with pytest.raises(ValueError, match="collides"):
            BenchResult("toy", smoke=True, groups={"host": {}})

    def test_report_is_json_pure(self):
        # Tuples and numpy scalars must already be JSON-shaped, so the
        # in-memory report compares equal to its disk round trip.
        import numpy as np

        report = _result(
            groups={"g": {"sizes": (6, 8), "value": np.float64(1.5)}}
        ).build_report()
        assert report == json.loads(json.dumps(report))
        assert report["g"]["sizes"] == [6, 8]


class TestWrite:
    def test_run_record(self, tmp_path):
        runs = tmp_path / "runs"
        report = _result().write(runs_root=runs)

        store = RunStore(runs)
        (run_id,) = store.list_runs()
        assert run_id.startswith("bench-toy-")
        manifest = store.load_manifest(run_id)
        assert manifest["status"] == "complete"
        assert manifest["bench"] == {"smoke": True, "groups": ["flag", "stages"]}
        metrics = store.load_metrics(run_id)
        assert metrics["stages"] == {"warm": {"seconds": 1.5}}
        artifact = runs / run_id / "artifacts" / "report.json"
        assert json.loads(artifact.read_text()) == report
