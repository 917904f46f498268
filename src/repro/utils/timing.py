"""Wall-clock timing used to measure *mapping time* (the paper's MT column).

The paper reports two costs per heuristic: the quality of the produced
mapping (ET, in abstract units) and the wall-clock seconds the heuristic
itself took (MT). :class:`Stopwatch` provides the measurement;
:class:`TimingRecord` is the value object carried through result tables.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from datetime import datetime, timezone
from typing import Any, Callable, TypeVar

__all__ = ["Stopwatch", "TimingRecord", "time_call", "utc_stamp"]

T = TypeVar("T")


def utc_stamp() -> str:
    """The one sanctioned wall-clock *timestamp* in the library.

    Every ``generated`` field and run timestamp (run-store manifests,
    events and run ids) routes through this helper so provenance stamps
    are uniform (UTC, second precision, ISO 8601 with a ``Z`` suffix) and
    the wallclock lint debt stays at exactly one call site. Timestamps are
    provenance only — they must never feed back into a reported result.
    """
    now = datetime.now(timezone.utc)  # repro: noqa[wallclock] sole provenance stamp; results only carry Stopwatch durations
    return now.strftime("%Y-%m-%dT%H:%M:%SZ")


@dataclass(frozen=True)
class TimingRecord:
    """Elapsed wall-clock seconds for one labelled measurement."""

    label: str
    seconds: float

    def __post_init__(self) -> None:
        if self.seconds < 0:
            raise ValueError(f"elapsed seconds must be >= 0, got {self.seconds}")

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.label}: {self.seconds:.3f}s"


class Stopwatch:
    """Start/stop/lap stopwatch on :func:`time.perf_counter`.

    Can be used as a context manager::

        with Stopwatch() as sw:
            run_heuristic()
        print(sw.elapsed)

    or manually with :meth:`start` / :meth:`stop`. :meth:`lap` records named
    intermediate durations (since the previous lap) for phase breakdowns.
    """

    def __init__(self) -> None:
        self._start: float | None = None
        self._elapsed: float = 0.0
        self._last_lap: float | None = None
        self.laps: list[TimingRecord] = []

    # -- lifecycle ---------------------------------------------------------
    def start(self) -> "Stopwatch":
        """Start (or resume) timing. Idempotent while running."""
        if self._start is None:
            self._start = time.perf_counter()
            if self._last_lap is None:
                self._last_lap = self._start
        return self

    def stop(self) -> float:
        """Stop timing and return total accumulated elapsed seconds."""
        if self._start is not None:
            self._elapsed += time.perf_counter() - self._start
            self._start = None
        return self._elapsed

    def reset(self) -> None:
        """Forget all accumulated time and laps."""
        self._start = None
        self._elapsed = 0.0
        self._last_lap = None
        self.laps.clear()

    # -- measurement -------------------------------------------------------
    @property
    def running(self) -> bool:
        """True while the stopwatch is accumulating time."""
        return self._start is not None

    @property
    def elapsed(self) -> float:
        """Accumulated seconds, including the in-flight interval if running."""
        extra = (time.perf_counter() - self._start) if self._start is not None else 0.0
        return self._elapsed + extra

    def lap(self, label: str) -> TimingRecord:
        """Record the time since the previous lap (or start) under ``label``."""
        now = time.perf_counter()
        ref = self._last_lap if self._last_lap is not None else now
        rec = TimingRecord(label=label, seconds=max(0.0, now - ref))
        self._last_lap = now
        self.laps.append(rec)
        return rec

    # -- context manager ----------------------------------------------------
    def __enter__(self) -> "Stopwatch":
        return self.start()

    def __exit__(self, *exc: Any) -> None:
        self.stop()


def time_call(fn: Callable[..., T], *args: Any, **kwargs: Any) -> tuple[T, float]:
    """Call ``fn(*args, **kwargs)`` and return ``(result, elapsed_seconds)``."""
    t0 = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - t0
