"""Utility substrate: RNG streams, validation, timing, tables, serialization.

These helpers are deliberately dependency-light (numpy + stdlib only) and are
shared by every other subpackage.
"""

from repro.utils.dedup import DedupStats, collapse_duplicate_rows, pack_rows
from repro.utils.rng import (
    RngStreams,
    as_generator,
    derive_seed,
    spawn_generators,
)
from repro.utils.parallel import WorkerPool, default_worker_count
from repro.utils.shared_plane import (
    ProblemPlane,
    SharedProblemHandle,
    resolve_problem,
)
from repro.utils.timing import Stopwatch, TimingRecord, time_call
from repro.utils.tables import format_table, render_kv_block
from repro.utils.validation import (
    check_in_range,
    check_positive,
    check_probability,
    check_probability_matrix,
    check_permutation,
)

__all__ = [
    "DedupStats",
    "collapse_duplicate_rows",
    "pack_rows",
    "RngStreams",
    "as_generator",
    "derive_seed",
    "spawn_generators",
    "default_worker_count",
    "WorkerPool",
    "ProblemPlane",
    "SharedProblemHandle",
    "resolve_problem",
    "Stopwatch",
    "TimingRecord",
    "time_call",
    "format_table",
    "render_kv_block",
    "check_in_range",
    "check_positive",
    "check_probability",
    "check_probability_matrix",
    "check_permutation",
]
