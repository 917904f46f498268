"""The C kernel backend: ``kernels.c`` compiled on demand via the system cc.

Plain C through ctypes — no ``Python.h``, no build-time dependency beyond
a working C compiler, and one cached shared object serves every
interpreter version. The compile happens at most once per build: the
object lands in ``$REPRO_KERNEL_CACHE`` (default
``~/.cache/repro-kernels``) under a name keyed on a SHA-256 of the
source, the flags and the resolved compiler path, written via a temp
file + atomic rename so concurrent processes race benignly. Any failure
— no compiler, sandboxed filesystem, bad flags — raises
:class:`KernelUnavailable`, which the dispatcher treats as "this backend
does not exist here".

Flags are part of the bit-exactness contract: ``-ffp-contract=off``
forbids fused multiply-adds (GNU C defaults to ``fast`` contraction at
``-O3``, which would change last-ulp results against numpy) and no
``-ffast-math`` is ever passed.

The batch kernels split their rows across POSIX threads: one per
:data:`MIN_WORK_PER_THREAD` cells of work, at most one per core this
process may run on, and one only in pool workers, whose pool already
uses the cores. Any split gives the same bits.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import os
import shutil
import subprocess
import tempfile
from pathlib import Path

import numpy as np

from repro.kernels.csr import ProblemPack

__all__ = [
    "KernelUnavailable",
    "MIN_WORK_PER_THREAD",
    "load",
    "use_one_thread",
]

_SOURCE = Path(__file__).with_name("kernels.c")
_CFLAGS = ("-O3", "-fPIC", "-shared", "-ffp-contract=off", "-pthread")

#: Least work (cells) one kernel thread must get: a batch call runs on
#: ``min(cores, work // MIN_WORK_PER_THREAD)`` threads, at least one.
#: Set from the 1- vs 2-thread crossover table in DESIGN.md §11.
MIN_WORK_PER_THREAD = 1 << 17

_F64 = np.ctypeslib.ndpointer(dtype=np.float64, flags="C_CONTIGUOUS")
_I64 = np.ctypeslib.ndpointer(dtype=np.int64, flags="C_CONTIGUOUS")
_c_i64 = ctypes.c_int64


class KernelUnavailable(RuntimeError):
    """This backend cannot be loaded in the current environment."""


def _cache_dir() -> Path:
    env = os.environ.get("REPRO_KERNEL_CACHE")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro-kernels"


def _compiler() -> str:
    """The C compiler's resolved path: ``$REPRO_CC``, else cc, else gcc."""
    return _resolve_compiler(os.environ.get("REPRO_CC"), os.environ.get("PATH"))


@functools.lru_cache(maxsize=8)
def _resolve_compiler(env: str | None, path: str | None) -> str:
    # Memoized: the PATH walk and symlink resolution would otherwise cost
    # every backend load more than the cached-object check itself.
    if env:
        cc = shutil.which(env, path=path)
    else:
        cc = shutil.which("cc", path=path) or shutil.which("gcc", path=path)
    if not cc:
        raise KernelUnavailable(
            f"C compiler {env!r} not found"
            if env
            else "no C compiler found (set REPRO_CC to override)"
        )
    return os.path.realpath(cc)


def _build_digest(source: bytes, cflags: tuple[str, ...], cc: str) -> str:
    """Cache key of one build: the source, the flags and the compiler path."""
    h = hashlib.sha256(source)
    for part in (*cflags, cc):
        h.update(b"\0" + part.encode())
    return h.hexdigest()[:16]


def _shared_object() -> Path:
    """Compile (once per source, flags and compiler) and return the .so path."""
    try:
        source = _SOURCE.read_bytes()
    except OSError as exc:
        raise KernelUnavailable(f"kernel source unreadable: {exc}") from exc
    cc = _compiler()
    cache = _cache_dir()
    so_path = cache / f"repro_kernels_{_build_digest(source, _CFLAGS, cc)}.so"
    if so_path.exists():
        return so_path
    try:
        cache.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(suffix=".so", dir=cache)
        os.close(fd)
    except OSError as exc:
        raise KernelUnavailable(f"kernel cache dir unusable: {exc}") from exc
    try:
        proc = subprocess.run(
            [cc, *_CFLAGS, "-o", tmp, str(_SOURCE)],
            capture_output=True,
            text=True,
            timeout=120,
        )
        if proc.returncode != 0:
            raise KernelUnavailable(
                f"C kernel compile failed ({cc}): {proc.stderr.strip()[:500]}"
            )
        os.replace(tmp, so_path)  # atomic: concurrent builders race benignly
    except (OSError, subprocess.SubprocessError) as exc:
        raise KernelUnavailable(f"C kernel compile failed: {exc}") from exc
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return so_path


def _cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        return os.cpu_count() or 1


#: Most threads one kernel call may use in this process.
_thread_budget = _cores()


def use_one_thread() -> None:
    """Run this process's kernel calls single-threaded (pool workers)."""
    global _thread_budget
    _thread_budget = 1


def _n_threads(work: int) -> int:
    """Threads for one batch call doing ``work`` cells."""
    return max(1, min(_thread_budget, work // MIN_WORK_PER_THREAD))


def _bind(lib: ctypes.CDLL) -> None:
    lib.repro_eval_batch.argtypes = [
        _I64, _c_i64, _c_i64, _c_i64,  # X, N, n_t, n_r
        _F64, _F64, _F64,  # W, w, ccm_flat
        _I64, _I64, _F64, _c_i64,  # eu, ev, C, n_e
        _F64, _c_i64,  # out, n_threads
    ]
    lib.repro_eval_batch.restype = ctypes.c_int
    lib.repro_genperm.argtypes = [
        _F64, _F64, _F64,  # P, rand_orders, rand_pos
        _c_i64, _c_i64, _c_i64, _c_i64,  # R, N, n_t, n_res
        _I64, _c_i64,  # X, n_threads
    ]
    lib.repro_genperm.restype = ctypes.c_int


class _CExtKernels:
    """Backend function table bound to the loaded shared object."""

    def __init__(self, lib: ctypes.CDLL) -> None:
        self._lib = lib

    @staticmethod
    def _check(status: int) -> None:
        if status != 0:
            raise MemoryError("C kernel scratch allocation failed")

    def eval_batch(self, pack: ProblemPack, X: np.ndarray) -> np.ndarray:
        X = np.ascontiguousarray(X, dtype=np.int64)
        N, n_e = X.shape[0], pack.eu.shape[0]
        out = np.empty(N, dtype=np.float64)
        self._check(
            self._lib.repro_eval_batch(
                X, N, pack.n_tasks, pack.n_resources,
                pack.task_weights, pack.proc_weights, pack.comm_flat,
                pack.eu, pack.ev, pack.edge_vol, n_e, out,
                _n_threads(N * (pack.n_tasks + n_e)),
            )
        )
        return out

    def genperm(
        self, P: np.ndarray, rand_orders: np.ndarray, rand_pos: np.ndarray
    ) -> np.ndarray:
        R, N, n_t = rand_orders.shape
        n_res = P.shape[2]
        X = np.empty((R, N, n_t), dtype=np.int64)
        self._check(
            self._lib.repro_genperm(
                np.ascontiguousarray(P, dtype=np.float64),
                np.ascontiguousarray(rand_orders, dtype=np.float64),
                np.ascontiguousarray(rand_pos, dtype=np.float64),
                R, N, n_t, n_res, X,
                _n_threads(R * N * n_t * n_res),
            )
        )
        return X


def load() -> _CExtKernels:
    """Compile if needed, load the shared object, smoke-test one call."""
    so_path = _shared_object()
    try:
        lib = ctypes.CDLL(str(so_path))
        _bind(lib)
    except (OSError, AttributeError) as exc:
        raise KernelUnavailable(f"C kernel library unusable: {exc}") from exc
    kernels = _CExtKernels(lib)
    # Smoke test: a stale or truncated cache entry must fail here, not
    # mid-run. One row, one resource, no edges.
    probe = kernels.eval_batch(
        _SmokePack(), np.zeros((1, 1), dtype=np.int64)
    )
    if probe.shape != (1,) or probe[0] != 2.0:  # repro: noqa[float-equality] -- 1.0*2.0 is exact
        raise KernelUnavailable("C kernel smoke test returned wrong result")
    return kernels


class _SmokePack(ProblemPack):
    """One-task, one-resource pack used by the load-time smoke test."""

    def __init__(self) -> None:
        super().__init__(
            n_tasks=1,
            n_resources=1,
            task_weights=np.array([1.0]),
            proc_weights=np.array([2.0]),
            comm=np.zeros((1, 1)),
            eu=np.zeros(0, dtype=np.int64),
            ev=np.zeros(0, dtype=np.int64),
            edge_vol=np.zeros(0, dtype=np.float64),
        )
