"""Why three per-file rules stay next to the flow rules that overlap them.

The flow rules only visit the call closures of worker dispatch sites and
solver lifecycle methods (or, for ``shm-lifecycle``, unlink paths). Each
test below places a violation *outside* every such closure: the per-file
rule fires and :func:`run_flow_rules` reports nothing, so deleting the
per-file rule would let that code through. DESIGN.md §12 records the
decision.
"""

from __future__ import annotations

import textwrap

from repro.analysis import lint_source
from repro.analysis.flow import ProjectIndex
from repro.analysis.flow.rules import run_flow_rules

#: Library code with no pool dispatch and no SearchSolver subclass.
PATH = "src/repro/experiments/report_helpers.py"


def per_file_rules(source: str) -> set[str]:
    findings, _ = lint_source(textwrap.dedent(source), PATH)
    return {f.rule for f in findings}


def flow_findings(source: str):
    return run_flow_rules(ProjectIndex.from_sources({PATH: textwrap.dedent(source)}))


def test_seed_discipline_covers_code_rng_provenance_never_visits():
    src = """
        import random

        import numpy as np


        def shuffled(rows):
            random.shuffle(rows)
            np.random.seed(0)
            return rows
    """
    assert "seed-discipline" in per_file_rules(src)
    assert flow_findings(src) == []


def test_wallclock_covers_code_worker_purity_never_visits():
    src = """
        import time


        def stamp(record):
            record["written_at"] = time.time()
            return record
    """
    assert "wallclock" in per_file_rules(src)
    assert flow_findings(src) == []


def test_parallel_safety_shm_monopoly_covers_what_shm_lifecycle_allows():
    # The segment is unlinked on every path, so shm-lifecycle is satisfied;
    # only the per-file rule enforces that the shared plane alone allocates.
    src = """
        from multiprocessing import shared_memory


        def scratch(nbytes):
            seg = shared_memory.SharedMemory(create=True, size=nbytes)
            try:
                seg.buf[0] = 1
            finally:
                seg.close()
                seg.unlink()
    """
    assert "parallel-safety" in per_file_rules(src)
    assert flow_findings(src) == []
