"""Backend selection for the compiled kernel layer.

One dispatch point decides, per process, which implementation of the hot
kernels runs: ``cext`` (the system-cc-compiled C kernels) or ``numpy``
(the vectorized reference, always available). Selection:

* ``REPRO_KERNEL`` environment variable or the CLI ``--kernel`` flag
  (which just sets the variable, so pool workers inherit it):
  ``auto`` (default), ``cext``, ``numpy``.
* ``auto`` tries ``cext -> numpy`` and *silently* falls back — an
  unusable compiler must never change behaviour, only speed (both
  backends are bit-identical, see the header of ``kernels.c``).
* naming an unavailable backend explicitly raises
  :class:`~repro.exceptions.ConfigurationError` carrying the load
  error — an explicit request must not silently degrade.

Backends load lazily and memoize per process; evaluators resolve their
backend once at construction (a :class:`KernelBackend` is immutable), so
mid-run environment edits cannot desynchronize a live solver.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterator

from repro.exceptions import ConfigurationError
from repro.kernels import impl_numpy
from repro.kernels.impl_cext import KernelUnavailable

__all__ = [
    "KernelBackend",
    "KERNEL_CHOICES",
    "available_backends",
    "get_backend",
    "set_backend",
    "use_backend",
    "reset_kernel_state",
]

#: Valid values for REPRO_KERNEL / --kernel.
KERNEL_CHOICES = ("auto", "cext", "numpy")

#: auto-resolution order: compiled first, numpy as the unconditional floor.
_AUTO_ORDER = ("cext", "numpy")


@dataclass(frozen=True)
class KernelBackend:
    """Immutable function table of one resolved backend."""

    name: str
    compiled: bool
    eval_batch: Callable
    genperm: Callable


def _table(name: str, impl: object, *, compiled: bool) -> KernelBackend:
    return KernelBackend(
        name=name,
        compiled=compiled,
        eval_batch=impl.eval_batch,
        genperm=impl.genperm,
    )


#: name -> loaded backend (or None after a failed load); per-process memo.
_loaded: dict[str, KernelBackend | None] = {}
#: name -> human-readable load failure, for error messages/diagnostics.
_load_errors: dict[str, str] = {}
#: explicit set_backend() override; None defers to REPRO_KERNEL.
_override: KernelBackend | None = None


def _load(name: str) -> KernelBackend | None:
    if name in _loaded:
        return _loaded[name]
    backend: KernelBackend | None = None
    try:
        if name == "numpy":
            backend = _table("numpy", impl_numpy, compiled=False)
        elif name == "cext":
            from repro.kernels import impl_cext

            backend = _table("cext", impl_cext.load(), compiled=True)
        else:
            raise ConfigurationError(
                f"unknown kernel backend {name!r}; choices: {', '.join(KERNEL_CHOICES)}"
            )
    except KernelUnavailable as exc:
        _load_errors[name] = str(exc)
    _loaded[name] = backend
    return backend


def available_backends() -> dict[str, bool]:
    """Load-or-probe every backend; maps name -> availability here."""
    return {name: _load(name) is not None for name in _AUTO_ORDER}


def load_error(name: str) -> str | None:
    """Why ``name`` failed to load (None if it loaded or was never tried)."""
    _load(name)
    return _load_errors.get(name)


def get_backend() -> KernelBackend:
    """The process-active backend (override, else ``REPRO_KERNEL``, else auto)."""
    if _override is not None:
        return _override
    choice = os.environ.get("REPRO_KERNEL", "auto").strip().lower() or "auto"
    return _resolve(choice)


def _resolve(choice: str) -> KernelBackend:
    if choice not in KERNEL_CHOICES:
        raise ConfigurationError(
            f"unknown kernel backend {choice!r}; choices: {', '.join(KERNEL_CHOICES)}"
        )
    if choice == "auto":
        for name in _AUTO_ORDER:
            backend = _load(name)
            if backend is not None:
                return backend
        raise ConfigurationError(  # pragma: no cover - numpy always loads
            "no kernel backend available"
        )
    backend = _load(choice)
    if backend is None:
        reason = _load_errors.get(choice, "unknown load failure")
        raise ConfigurationError(
            f"kernel backend {choice!r} requested but unavailable: {reason}"
        )
    return backend


def set_backend(choice: str | None) -> KernelBackend | None:
    """Pin the process-active backend (``None`` reverts to env resolution)."""
    global _override
    if choice is None:
        _override = None
        return None
    _override = _resolve(choice)
    return _override


@contextmanager
def use_backend(choice: str) -> Iterator[KernelBackend]:
    """Temporarily pin a backend — the parity tests' workhorse."""
    global _override
    previous = _override
    _override = _resolve(choice)
    try:
        yield _override
    finally:
        _override = previous


def reset_kernel_state() -> None:
    """Forget loads, errors and overrides (tests that fake environments)."""
    global _override
    _override = None
    _loaded.clear()
    _load_errors.clear()
