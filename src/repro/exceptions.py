"""Exception hierarchy for the MaTCH reproduction library.

Every error raised by :mod:`repro` derives from :class:`ReproError` so that
callers can catch library failures with a single ``except`` clause while
still letting programming errors (``TypeError`` from misuse of numpy, etc.)
propagate unchanged.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` library."""


class ValidationError(ReproError, ValueError):
    """An argument or data structure failed validation.

    Subclasses ``ValueError`` so idiomatic ``except ValueError`` call sites
    keep working.
    """


class GraphError(ReproError):
    """A graph is malformed or an operation received an incompatible graph.

    When one input array is at fault, ``field`` names its constructor
    argument (``node_weights``, ``edges`` or ``edge_weights``), the message
    reads ``"<field> <reason>"`` and ``reason`` holds the rest, so a caller
    that took the array under another name (the service wire) can name it.
    """

    def __init__(self, message: str, *, field: str | None = None) -> None:
        super().__init__(f"{field} {message}" if field else message)
        self.field = field
        self.reason = message


class MappingError(ReproError):
    """A task-to-resource mapping is invalid for the given problem instance."""


class ConfigurationError(ReproError, ValueError):
    """An algorithm configuration contains out-of-range or inconsistent values."""


class ExperimentError(ReproError):
    """An experiment specification is unknown or failed to run."""


class SerializationError(ReproError):
    """An object could not be serialized to, or deserialized from, disk."""


class WorkerPoolError(ReproError):
    """The process-pool execution fabric failed.

    Raised when a :class:`repro.utils.parallel.WorkerPool` is used after
    :meth:`close`, or when its worker processes die mid-dispatch (e.g.
    OOM-killed) — surfaced as a clean error instead of a hang.
    """


class FaultInjectionError(ReproError):
    """A deterministic injected fault fired (``REPRO_FAULTS`` harness).

    Raised inside a pool worker when the fault plan says the current cell
    attempt must fail with an exception. Tests and the CI chaos job use it
    to distinguish injected failures from genuine bugs; it never escapes a
    production run because ``REPRO_FAULTS`` is unset there.
    """


class IslandError(ReproError):
    """The multi-node island runtime failed beyond what healing can absorb.

    Raised by the coordinator when a run cannot continue (no islands ever
    joined, the listener died) and by an island worker when the coordinator
    breaks protocol. Node *loss* is not an error — the coordinator heals it
    by re-sharding chains onto survivors.
    """


class FrameError(IslandError):
    """A length-prefixed wire frame is malformed.

    Carries a structured ``kind`` — ``"truncated"`` (peer closed mid-frame),
    ``"oversized"`` (length prefix exceeds the frame cap) or ``"malformed"``
    (body is not valid JSON / not an object) — so transports can distinguish
    a dead peer from a protocol bug.
    """

    def __init__(self, kind: str, message: str) -> None:
        super().__init__(message)
        self.kind = kind


class CheckpointError(ReproError):
    """A solver checkpoint is missing, malformed, or incompatible.

    Raised when resuming from a checkpoint whose format/solver does not
    match the running code, or when a solver cannot export live state
    (e.g. the fused multi-chain CE path, which interleaves chains and has
    no per-run resumable position).
    """
