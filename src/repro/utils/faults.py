"""Deterministic fault injection for the execution fabric (``REPRO_FAULTS``).

The fault-tolerance machinery in :mod:`repro.utils.parallel` — per-cell
deadlines, bounded retries, pool self-healing — is only trustworthy if its
failure paths are *exercised deterministically*. This module provides the
harness: an environment spec names exactly which dispatch cells fail, how,
and on how many attempts, so a chaos test (or the CI chaos job) can kill a
worker under cell 3, watch the pool respawn, and assert the salvaged
results are bit-identical to a fault-free run.

Spec grammar (whitespace ignored)::

    REPRO_FAULTS := clause (";" clause)*
    clause      := action "@" index ("," index)* ["*" times]
    action      := "kill" | "hang" | "raise"

Examples::

    REPRO_FAULTS="kill@3"          # SIGKILL the worker running cell 3
    REPRO_FAULTS="kill@1,5"        # ...cells 1 and 5 (two worker deaths)
    REPRO_FAULTS="hang@2"          # cell 2 sleeps past any deadline
    REPRO_FAULTS="raise@0*3"       # cell 0 raises on its first 3 attempts

Semantics, chosen so retry bit-parity is provable rather than probabilistic:

* indices refer to a cell's position in its ``map_salvage`` dispatch (the
  input order, not the LPT submission order);
* a fault fires only while ``attempt < times`` (default ``times = 1``), so
  the default retry of a killed cell deterministically succeeds — and
  because cells are pure ``(problem, spec, seed)`` functions, the retried
  result is bit-identical to the fault-free one;
* faults fire **only inside pool workers** (``multiprocessing``'s parent
  check): the serial path and the dispatcher's in-process degradation tail
  never execute a fault, so ``kill`` cannot take down the parent.
"""

from __future__ import annotations

import os
import signal
import time
from dataclasses import dataclass

from repro.exceptions import ConfigurationError, FaultInjectionError

__all__ = ["Fault", "FaultPlan", "inject_fault", "FAULTS_ENV", "FAULT_ACTIONS"]

#: The environment variable the harness reads.
FAULTS_ENV = "REPRO_FAULTS"

#: Recognized fault actions.
FAULT_ACTIONS = ("kill", "hang", "raise")

#: How long a "hang" fault sleeps — far past any sane cell deadline, short
#: enough that a leaked hung worker cannot outlive a CI job by much.
_HANG_SECONDS = 600.0


@dataclass(frozen=True)
class Fault:
    """One injected fault: ``action`` at dispatch cell ``index``.

    ``times`` is the number of attempts that fail: the fault fires while
    ``attempt < times`` and is silent afterwards, which makes retry
    behaviour a pure function of the spec.
    """

    index: int
    action: str
    times: int = 1


@dataclass(frozen=True)
class FaultPlan:
    """A parsed ``REPRO_FAULTS`` spec; empty plans are falsy."""

    faults: tuple[Fault, ...] = ()

    def __bool__(self) -> bool:
        return bool(self.faults)

    @classmethod
    def parse(cls, spec: str) -> "FaultPlan":
        """Parse the spec grammar; raises :class:`ConfigurationError` on typos."""
        faults: list[Fault] = []
        for raw_clause in spec.split(";"):
            clause = raw_clause.strip()
            if not clause:
                continue
            action, sep, rest = clause.partition("@")
            action = action.strip()
            if not sep or action not in FAULT_ACTIONS:
                raise ConfigurationError(
                    f"bad REPRO_FAULTS clause {clause!r}: expected "
                    f"'<action>@<index>[,<index>...][*<times>]' with action in "
                    f"{FAULT_ACTIONS}"
                )
            rest, star, times_part = rest.partition("*")
            times = 1
            if star:
                try:
                    times = int(times_part.strip())
                except ValueError:
                    raise ConfigurationError(
                        f"bad REPRO_FAULTS repeat count {times_part!r} in {clause!r}"
                    ) from None
                if times < 1:
                    raise ConfigurationError(
                        f"REPRO_FAULTS repeat count must be >= 1, got {times}"
                    )
            for token in rest.split(","):
                token = token.strip()
                try:
                    index = int(token)
                except ValueError:
                    raise ConfigurationError(
                        f"bad REPRO_FAULTS cell index {token!r} in {clause!r}"
                    ) from None
                if index < 0:
                    raise ConfigurationError(
                        f"REPRO_FAULTS cell index must be >= 0, got {index}"
                    )
                faults.append(Fault(index=index, action=action, times=times))
        return cls(faults=tuple(faults))

    @classmethod
    def from_env(cls) -> "FaultPlan":
        """The plan configured in this process's environment (may be empty)."""
        return cls.parse(os.environ.get(FAULTS_ENV, ""))

    def action_for(self, index: int, attempt: int) -> str | None:
        """The action to fire for ``(cell index, attempt number)``, if any.

        The first matching clause wins, mirroring how an operator reads the
        spec left to right.
        """
        for fault in self.faults:
            if fault.index == index and attempt < fault.times:
                return fault.action
        return None


#: Parsed-plan cache keyed by the raw spec string: workers inject per cell,
#: and re-parsing an unchanged environment spec every time would be waste.
_PLAN_CACHE: dict[str, FaultPlan] = {}


def inject_fault(index: int, attempt: int) -> None:
    """Fire the configured fault for this cell attempt, if any (worker-only).

    Called by the fabric's dispatch envelope before the cell function runs.
    No-op when ``REPRO_FAULTS`` is unset, when no clause matches, or when
    this process is not a pool worker (``kill`` must never hit the parent;
    the serial degradation tail must stay fault-free so salvage always
    terminates).
    """
    spec = os.environ.get(FAULTS_ENV, "")
    if not spec:
        return
    import multiprocessing

    if multiprocessing.parent_process() is None:
        return
    plan = _PLAN_CACHE.get(spec)
    if plan is None:
        plan = _PLAN_CACHE[spec] = FaultPlan.parse(spec)
    action = plan.action_for(index, attempt)
    if action is None:
        return
    if action == "kill":
        os.kill(os.getpid(), signal.SIGKILL)
    elif action == "hang":
        deadline = _HANG_SECONDS
        while deadline > 0:  # sleep in slices so SIGTERM tests stay responsive
            time.sleep(min(deadline, 1.0))
            deadline -= 1.0
    else:  # "raise"
        raise FaultInjectionError(
            f"injected fault: cell {index} raised on attempt {attempt}"
        )
