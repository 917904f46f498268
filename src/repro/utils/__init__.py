"""Utility substrate: RNG streams, validation, timing, tables, serialization.

These helpers are deliberately dependency-light (numpy + stdlib only) and are
shared by every other subpackage.
"""

from repro.utils.rng import (
    RngStreams,
    as_generator,
    derive_seed,
    spawn_generators,
)
from repro.utils.parallel import WorkerPool, default_worker_count
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
    "RngStreams",
    "as_generator",
    "derive_seed",
    "spawn_generators",
    "default_worker_count",
    "WorkerPool",
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
