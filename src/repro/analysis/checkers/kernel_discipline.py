"""kernel-discipline: compiled-kernel access only through ``repro.kernels``.

The kernel layer's headline guarantee — both backends (numpy and C)
produce bit-identical floats, verified by the cross-backend parity
matrix — only covers code that reaches compiled paths *through* the
:mod:`repro.kernels` dispatch boundary. A ``numba`` / ``cffi`` /
``Cython`` / ``cppyy`` import, an ``@njit`` decoration, or a raw shared-
library load (``ctypes.CDLL``/``WinDLL``/``PyDLL``,
``numpy.ctypeslib.load_library``) anywhere else creates a second,
untested compiled path and a hard dependency on an optional toolchain.
This checker flags those sites; the ``repro/kernels/*`` exemption lives
at the rule level (see :mod:`repro.analysis.rules`).
"""

from __future__ import annotations

import ast

from repro.analysis.checkers.base import Checker, CheckContext, dotted_name
from repro.analysis.rules import KERNEL_DISCIPLINE

__all__ = ["KernelDisciplineChecker"]

#: numba decorators that compile the decorated function.
JIT_DECORATORS = frozenset({"njit", "jit", "vectorize", "guvectorize", "cfunc"})

#: Top-level packages that are FFI / ahead-of-time compilation toolchains.
FFI_PACKAGES = frozenset({"numba", "cffi", "Cython", "cython", "cppyy", "pyximport"})

#: Call targets that load a shared library directly.
LIBRARY_LOADERS = frozenset(
    {
        "ctypes.CDLL", "ctypes.WinDLL", "ctypes.PyDLL",
        "ctypes.cdll.LoadLibrary", "ctypes.windll.LoadLibrary",
        "ctypes.pydll.LoadLibrary",
        "CDLL", "WinDLL", "PyDLL",
        "numpy.ctypeslib.load_library", "np.ctypeslib.load_library",
        "ctypeslib.load_library",
    }
)


class KernelDisciplineChecker(Checker):
    rule_id = KERNEL_DISCIPLINE

    def __init__(self, ctx: CheckContext) -> None:
        super().__init__(ctx)
        self._jit_aliases: set[str] = set()  # from numba import njit [as ...]

    # -- imports -------------------------------------------------------------
    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            root = alias.name.split(".")[0]
            if root in FFI_PACKAGES:
                self.report(
                    node,
                    f"direct import of {alias.name!r} outside repro.kernels; "
                    "go through repro.kernels.get_backend() so the backend "
                    "stays swappable and parity-tested",
                )
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        root = (node.module or "").split(".")[0]
        if root in FFI_PACKAGES:
            self.report(
                node,
                f"direct import from {node.module!r} outside repro.kernels; "
                "go through repro.kernels.get_backend() so the backend "
                "stays swappable and parity-tested",
            )
            if root == "numba":
                for alias in node.names:
                    if alias.name in JIT_DECORATORS:
                        self._jit_aliases.add(alias.asname or alias.name)
        self.generic_visit(node)

    # -- decorations and loads -----------------------------------------------
    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._check_decorators(node)
        self.generic_visit(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._check_decorators(node)
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        dotted = dotted_name(node.func)
        if dotted in LIBRARY_LOADERS:
            self.report(
                node,
                "shared-library load outside repro.kernels; compiled code "
                "must sit behind the dispatch layer so pure-python "
                "environments degrade gracefully",
            )
        self.generic_visit(node)

    def _check_decorators(self, node: ast.FunctionDef | ast.AsyncFunctionDef) -> None:
        for dec in node.decorator_list:
            target = dec.func if isinstance(dec, ast.Call) else dec
            dotted = dotted_name(target)
            if dotted is None:
                continue
            parts = dotted.split(".")
            is_jit = (len(parts) == 1 and parts[0] in self._jit_aliases) or (
                len(parts) >= 2 and parts[0] == "numba" and parts[-1] in JIT_DECORATORS
            )
            if is_jit:
                self.report(
                    dec,
                    f"@{dotted} outside repro.kernels; JIT-compiled hot "
                    "loops belong in repro/kernels/kernels.c where the "
                    "parity matrix covers them",
                )
