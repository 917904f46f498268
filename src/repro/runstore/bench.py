"""One way to record a benchmark session: :class:`BenchResult`.

The report has a uniform schema —

    {"benchmark", "smoke", "generated", "host", <groups...>}

— where *groups* are the measurement sections spread at the top level.
:meth:`BenchResult.write` records it in the run-store (manifest + metrics
+ the report as an artifact), so a benchmark session is a first-class run
like any experiment. Its caller is ``benchmarks/conftest.py``, which folds
a pytest-benchmark session's timings into one run.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Mapping

from repro.runstore.manifest import build_manifest, host_info
from repro.runstore.store import RunStore
from repro.utils.serialization import to_jsonable
from repro.utils.timing import utc_stamp

__all__ = ["BenchResult"]


class BenchResult:
    """Assemble and record one benchmark report.

    ``groups`` is an ordered mapping of measurement sections.
    """

    def __init__(self, benchmark: str, *, smoke: bool, groups: Mapping[str, Any]) -> None:
        self.benchmark = benchmark
        self.smoke = smoke
        self.groups = dict(groups)
        for key in self.groups:
            if key in {"benchmark", "smoke", "generated", "host"}:
                raise ValueError(f"group name {key!r} collides with a schema key")

    def build_report(self) -> dict[str, Any]:
        """The report dict, already JSON-pure (tuples become lists, numpy
        scalars become numbers) so it compares equal to its disk round-trip."""
        report: dict[str, Any] = {
            "benchmark": self.benchmark,
            "smoke": self.smoke,
            "generated": utc_stamp(),
            "host": host_info(),
        }
        report.update(self.groups)
        return to_jsonable(report)

    def write(self, *, runs_root: str | Path | None = None) -> dict[str, Any]:
        """Build the report and record it as a ``runs/{run_id}/`` entry.

        The run holds the manifest (provenance), the measurement groups as
        metrics, and the full report as an artifact.
        """
        report = self.build_report()
        store = RunStore(runs_root)
        run = store.start_run(
            f"bench-{self.benchmark}",
            manifest=build_manifest(
                f"bench-{self.benchmark}",
                extra={"bench": {"smoke": self.smoke, "groups": sorted(self.groups)}},
            ),
        )
        for group, payload in self.groups.items():
            run.record_metrics(group, payload)
        run.add_artifact("report.json", payload=report)
        run.finalize(status="complete")
        return report
