"""Shared-memory segments of the execution fabric.

The one segment the fabric uses is the :class:`HeartbeatBoard`: the parent
creates one per parallel dispatch, every pool worker stamps the row of the
cell it starts, and the parent reads the board to tell started-and-died
cells from still-queued ones and to enforce deadlines. Cells themselves
carry their problem by value (pickling a paper instance costs about
0.1 ms, DESIGN §9), so no problem crosses shared memory.

Lifecycle guarantees (the leak tests in ``tests/utils`` pin them):

* the parent unlinks each board when its dispatch ends, on normal exit,
  on exceptions and on SIGINT;
* worker-side attachments are unregistered from the ``resource_tracker``
  (see :func:`_attach_segment`), so a worker's exit neither unlinks a
  segment the parent still owns nor warns about "leaked" memory.

:class:`ProblemPlane` and its :class:`SharedProblemHandle` have no caller
in the library; they stay only because the benchmark patches
``ProblemPlane.publish`` by name.
"""

from __future__ import annotations

import os
import time
import weakref
from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.exceptions import ValidationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.mapping.problem import MappingProblem

__all__ = [
    "SharedProblemHandle",
    "ProblemPlane",
    "HeartbeatBoard",
    "mark_heartbeat",
]

#: Byte alignment for array starts inside a segment (numpy is happiest on
#: 16-byte boundaries; also keeps dtypes naturally aligned).
_ALIGN = 16


@dataclass(frozen=True)
class SharedProblemHandle:
    """Picklable reference to one problem :meth:`ProblemPlane.publish` wrote.

    No library code reads it; ROADMAP item 4 step 1 frees it, with the
    plane. ``fields`` is the segment's wire manifest: one
    ``(name, dtype, shape, offset)`` row per array, in publication order.
    The handle is a value object — hashable, comparable, and a few hundred
    bytes on the wire regardless of instance size.
    """

    key: str
    shm_name: str
    fields: tuple[tuple[str, str, tuple[int, ...], int], ...]
    tig_name: str = ""
    res_name: str = ""


def _aligned(offset: int) -> int:
    return (offset + _ALIGN - 1) // _ALIGN * _ALIGN


#: Segment names this process created and still owns. A process that
#: attaches by name to a segment it owns must keep its tracker entry, or
#: the final unlink would unregister a second time (tracker-side KeyError
#: noise).
_OWNED_NAMES: set[str] = set()


def _attach_segment(name: str) -> shared_memory.SharedMemory:
    """Attach to an existing segment without adopting cleanup duty.

    On Python < 3.13 attaching registers the segment with a
    ``resource_tracker`` exactly as creating does (bpo-39959). For a
    *standalone* attacher — a process with its own tracker — that tracker
    would unlink the owner's segment when the attacher exits, so we
    unregister immediately. Pool workers, however, **share** the parent's
    tracker (the fd is inherited), where re-registering an existing name
    is a no-op; unregistering there would strip the parent's own entry
    and make the final unlink complain. The same applies when the owner
    itself attaches by name: its single tracker entry must survive until
    unlink. 3.13+ has ``track=False`` for exactly this.
    """
    try:
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:  # Python < 3.13: no ``track`` parameter
        import multiprocessing

        shm = shared_memory.SharedMemory(name=name)
        if (
            multiprocessing.parent_process() is None
            and name not in _OWNED_NAMES
        ):
            try:
                from multiprocessing import resource_tracker

                resource_tracker.unregister(_tracker_name(shm), "shared_memory")
            except Exception:  # pragma: no cover - best-effort, platform-specific
                pass
        return shm


def _tracker_name(shm: shared_memory.SharedMemory) -> str:
    """The key ``resource_tracker`` knows ``shm`` by, from public attributes.

    On POSIX the segment registers under its slash-prefixed OS name while
    the public :attr:`~multiprocessing.shared_memory.SharedMemory.name`
    property strips the slash; unregistering by the stripped form is a
    silent no-op (the tracker's cache ``discard`` misses) and the bpo-39959
    misbehaviour comes back. Re-derive the registered form instead of
    reaching into the private ``_name`` attribute.
    """
    name = shm.name
    if os.name == "posix" and not name.startswith("/"):
        return "/" + name
    return name


def _unlink_segments(segments: dict[str, shared_memory.SharedMemory]) -> None:
    """Close and unlink every segment; idempotent and exception-proof.

    Module-level so a ``weakref.finalize`` can call it after the owning
    plane object is gone.
    """
    for shm in segments.values():
        _OWNED_NAMES.discard(shm.name)
        try:
            shm.close()
            shm.unlink()
        except FileNotFoundError:  # pragma: no cover - already unlinked
            pass
    segments.clear()


class ProblemPlane:
    """Registry of problems published to shared memory by this process.

    No library code publishes any more: cells carry their problem. The
    class stays for the benchmark's ``publish`` patch, and ROADMAP item 4
    step 1 frees it. :meth:`publish` is idempotent per problem object.
    """

    _seq = 0  # process-wide publication counter (keys must never collide)

    def __init__(self) -> None:
        self._segments: dict[str, shared_memory.SharedMemory] = {}
        self._handles: dict[int, SharedProblemHandle] = {}
        self._pinned: list[Any] = []  # keep published problems alive so id() keys stay valid
        self._closed = False
        self._finalizer = weakref.finalize(self, _unlink_segments, self._segments)

    # -- publication -------------------------------------------------------
    def publish(self, problem: "MappingProblem") -> SharedProblemHandle:
        """Copy ``problem``'s arrays into one segment; return its handle."""
        if self._closed:
            raise ValidationError("cannot publish to a closed ProblemPlane")
        cached = self._handles.get(id(problem))
        if cached is not None:
            return cached

        arrays = problem.plane_arrays()
        fields: list[tuple[str, str, tuple[int, ...], int]] = []
        offset = 0
        for name, arr in arrays.items():
            offset = _aligned(offset)
            fields.append((name, arr.dtype.str, tuple(arr.shape), offset))
            offset += arr.nbytes
        shm = shared_memory.SharedMemory(create=True, size=max(1, offset))
        _OWNED_NAMES.add(shm.name)
        for (name, dtype, shape, off), arr in zip(fields, arrays.values()):
            view = np.ndarray(shape, dtype=np.dtype(dtype), buffer=shm.buf, offset=off)
            view[...] = arr

        ProblemPlane._seq += 1
        handle = SharedProblemHandle(
            key=f"plane-{os.getpid()}-{ProblemPlane._seq}",
            shm_name=shm.name,
            fields=tuple(fields),
            tig_name=problem.tig.name,
            res_name=problem.resources.name,
        )
        self._segments[handle.key] = shm
        self._handles[id(problem)] = handle
        self._pinned.append(problem)
        return handle

    # -- lifecycle ---------------------------------------------------------
    @property
    def n_published(self) -> int:
        """Number of live segments this plane owns."""
        return len(self._segments)

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        """Unlink every owned segment. Idempotent."""
        self._closed = True
        self._handles.clear()
        self._pinned.clear()
        self._finalizer()  # runs _unlink_segments exactly once

    def __enter__(self) -> "ProblemPlane":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


# -- the heartbeat board ------------------------------------------------------


class HeartbeatBoard:
    """Shared per-cell liveness board for fault-tolerant dispatch.

    One ``(n_cells, 3)`` float64 array in shared memory — columns are
    ``[monotonic start time, worker pid, attempt index]`` per cell. A
    worker stamps its row when it *begins* a cell attempt; the parent's
    deadline monitor reads the board to (a) find cells that started but
    never finished (they died with their worker and deserve a retry, while
    still-queued cells did not consume an attempt) and (b) kill the worker
    whose cell ran past its deadline. ``CLOCK_MONOTONIC`` is system-wide on
    the platforms the fabric forks on, so parent/worker stamps compare
    directly. These timestamps steer scheduling only — they can never reach
    a result record.

    The parent creates and unlinks the board per dispatch; workers attach
    by name through :func:`mark_heartbeat`, which keeps one board per
    process.
    """

    _SLOTS = 3  # monotonic start, worker pid, attempt index

    def __init__(
        self, shm: shared_memory.SharedMemory, n_cells: int, *, owner: bool
    ) -> None:
        self.n_cells = n_cells
        self._shm = shm
        self._owner = owner
        self._board = np.ndarray((n_cells, self._SLOTS), dtype=np.float64, buffer=shm.buf)
        if owner:
            self._board[...] = 0.0

    @classmethod
    def create(cls, n_cells: int) -> "HeartbeatBoard":
        """Allocate a zeroed board for ``n_cells`` (parent side)."""
        if n_cells < 1:
            raise ValidationError(f"heartbeat board needs >= 1 cell, got {n_cells}")
        nbytes = n_cells * cls._SLOTS * 8
        shm = shared_memory.SharedMemory(create=True, size=nbytes)
        _OWNED_NAMES.add(shm.name)
        return cls(shm, n_cells, owner=True)

    @classmethod
    def attach(cls, name: str, n_cells: int) -> "HeartbeatBoard":
        """Attach to an existing board by segment name (worker side)."""
        return cls(_attach_segment(name), n_cells, owner=False)

    @property
    def name(self) -> str:
        """The shared-memory segment name workers attach by."""
        return self._shm.name

    # -- worker side -------------------------------------------------------
    def mark(self, index: int, attempt: int) -> None:
        """Stamp cell ``index`` as started by this process for ``attempt``.

        The start time is written last: a non-zero start is the parent's
        signal that pid and attempt are already valid for this row.
        """
        row = self._board[index]
        row[1] = float(os.getpid())
        row[2] = float(attempt)
        row[0] = time.monotonic()  # repro: noqa[wallclock] -- liveness stamp for deadline monitoring; never reaches results

    # -- parent side -------------------------------------------------------
    def started_at(self, index: int, attempt: int) -> float:
        """Monotonic start time of ``attempt`` on cell ``index`` (0.0 if unstarted).

        A stale stamp from an earlier attempt reads as "not started": the
        row must carry the queried attempt index to count.
        """
        row = self._board[index]
        if row[0] > 0.0 and int(row[2]) == attempt:
            return float(row[0])
        return 0.0

    def pid(self, index: int) -> int:
        """The pid that last stamped cell ``index`` (0 if none)."""
        return int(self._board[index, 1])

    def close(self) -> None:
        """Release the mapping; the owner also unlinks the segment."""
        board = self.__dict__.pop("_board", None)
        if board is None:
            return
        del board
        if self._owner:
            _OWNED_NAMES.discard(self._shm.name)
        try:
            self._shm.close()
            if self._owner:
                self._shm.unlink()
        except FileNotFoundError:  # pragma: no cover - already unlinked
            pass


#: The board this worker process last stamped. A worker keeps at most
#: one attachment: every dispatch creates its own board, so a cache of all
#: of them would hold one fd and one mapping per dispatch forever.
_HB_ATTACHED: HeartbeatBoard | None = None


def mark_heartbeat(name: str, n_cells: int, index: int, attempt: int) -> None:
    """Worker-side entry: stamp a cell attempt on the named board.

    Attaches when the board differs from the one last used (closing that
    one), so every later stamp within a dispatch is one ndarray write.
    Best-effort by design: a board the parent already tore down (or a
    platform without shared memory) must degrade to "no heartbeat", never
    break the cell itself.
    """
    global _HB_ATTACHED
    try:
        board = _HB_ATTACHED
        if board is None or board.name != name:
            _HB_ATTACHED = None
            if board is not None:
                board.close()
            board = _HB_ATTACHED = HeartbeatBoard.attach(name, n_cells)
        board.mark(index, attempt)
    except Exception:  # pragma: no cover - platform-specific degradation
        pass

