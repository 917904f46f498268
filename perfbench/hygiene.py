"""Checks that a benchmark run left nothing behind.

:func:`leftovers` runs after every workload, in ``finally``. It waits
briefly for threads and child processes to end, kills what is still alive,
unlinks shared-memory segments created during the run, stops the
multiprocessing resource tracker, and reports every straggler it had to
clean up; any report makes the run fail.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import time
from multiprocessing import resource_tracker, shared_memory

SHM_DIR = "/dev/shm"
GRACE_S = 5.0


def snapshot() -> set[str]:
    """Shared-memory segments present now."""
    try:
        return set(os.listdir(SHM_DIR))
    except OSError:
        return set()


def child_pids() -> list[int]:
    """PIDs whose parent is this process (any start method)."""
    me = str(os.getpid())
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if fields[1] == me and fields[0] != "Z":
            pids.append(int(entry))
    return pids


def _wait(predicate, timeout: float) -> bool:
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() >= deadline:
            return False
        time.sleep(0.02)
    return True


def _stop_resource_tracker() -> None:
    # The tracker is a helper process multiprocessing starts on first use of
    # shared memory; it would otherwise exit only when this process does.
    tracker = resource_tracker._resource_tracker
    stop = getattr(tracker, "_stop", None)
    if stop is not None and getattr(tracker, "_fd", None) is not None:
        stop()


def leftovers(before: set[str]) -> list[str]:
    """Clean up and describe everything the run left behind."""
    problems: list[str] = []
    main = threading.main_thread()

    def threads() -> list[threading.Thread]:
        return [t for t in threading.enumerate() if t is not main and t.is_alive()]

    if not _wait(lambda: not threads(), GRACE_S):
        problems += [f"thread {t.name!r} still running" for t in threads()]

    if not _wait(lambda: not multiprocessing.active_children(), GRACE_S):
        for child in multiprocessing.active_children():
            problems.append(f"child process {child.pid} ({child.name}) still running; killed")
            child.kill()
            child.join(GRACE_S)

    for name in sorted(snapshot() - before):
        problems.append(f"shared-memory segment {name} left behind; unlinked")
        try:
            segment = shared_memory.SharedMemory(name=name)
            segment.close()
            segment.unlink()
        except OSError:
            pass

    _stop_resource_tracker()
    for pid in child_pids():
        problems.append(f"process {pid} still running; killed")
        try:
            os.kill(pid, 9)
            os.waitpid(pid, 0)
        except OSError:
            pass
    return problems
