"""Compiled kernel backends for the hot loops (DESIGN.md §11).

Two interchangeable, bit-identical implementations of the library's
two hot kernels — batched Eq. (1)/(2) scoring and the GenPerm position
loop — behind one dispatch point:

* ``cext``: scalar loops in C, compiled on demand with the system C
  compiler (no extra Python dependency);
* ``numpy``: the vectorized reference, always available, and the oracle
  the compiled backend is tested against.

Select with ``REPRO_KERNEL={auto,cext,numpy}`` or ``--kernel``; ``auto``
falls back silently because both backends produce identical bytes (the
cross-backend parity suite in ``tests/kernels/`` enforces this, and the
golden fixtures run under each available backend).
"""

from repro.kernels.csr import ProblemPack, build_pack
from repro.kernels.dispatch import (
    KERNEL_CHOICES,
    KernelBackend,
    available_backends,
    get_backend,
    load_error,
    reset_kernel_state,
    set_backend,
    use_backend,
)

__all__ = [
    "ProblemPack",
    "build_pack",
    "KernelBackend",
    "KERNEL_CHOICES",
    "available_backends",
    "get_backend",
    "load_error",
    "reset_kernel_state",
    "set_backend",
    "use_backend",
]
