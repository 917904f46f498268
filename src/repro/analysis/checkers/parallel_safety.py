"""parallel-safety: process-pool tasks must be stateless, picklable, seeded.

``parallel == serial`` — the property the experiment runner's tests assert
— holds only when (a) the dispatched callable is a module-level def that
pickles by qualified name, and (b) every task argument carries its own
integer seed rather than a live ``numpy.random.Generator`` (pickling a
Generator copies its state, so workers would replay *the same* stream the
parent keeps advancing, and results would depend on worker count).

The checker inspects call sites of the dispatch methods
(``submit``/``map``/``map_salvage``/``starmap``/``apply_async``/…) on
pool/executor-named receivers (the execution fabric's
:class:`repro.utils.parallel.WorkerPool` included):

* the callable must not be a ``lambda`` or a function nested inside
  another function (both unpicklable); ``functools.partial`` is unwrapped
  and its target checked instead;
* no argument expression may construct a Generator inline
  (``as_generator`` / ``default_rng`` / ``spawn_generators``) — spawn
  integer seeds and build the Generator inside the worker.

It additionally guards the execution fabric's monopoly on pool
construction: outside ``repro/utils/parallel.py``, instantiating
``ProcessPoolExecutor`` or ``multiprocessing.Pool`` directly is flagged —
raw pools bypass the warm-worker reuse, the heartbeat board's
guaranteed cleanup, and the ``REPRO_WORKERS`` override that
:class:`repro.utils.parallel.WorkerPool` provides. The same monopoly
covers shared-memory allocation: ``SharedMemory(create=True)`` outside
``repro/utils/shared_plane.py`` is flagged, because only that module's
owner-tracked segments are guaranteed to be unlinked on close, SIGINT and
abandoned pools — an ad-hoc segment is a leak the fabric cannot see.
"""

from __future__ import annotations

import ast

from repro.analysis.checkers.base import (
    DISPATCH_METHODS,
    POOLISH,
    Checker,
    CheckContext,
    dotted_name,
    is_shm_create,
)
from repro.analysis.rules import PARALLEL_SAFETY, path_matches

__all__ = ["ParallelSafetyChecker"]

GENERATOR_BUILDERS = frozenset({"as_generator", "default_rng", "spawn_generators"})
#: The one module allowed to construct raw process pools.
FABRIC_PATHS = ("repro/utils/parallel.py",)
#: The one module allowed to allocate shared-memory segments.
PLANE_PATHS = ("repro/utils/shared_plane.py",)


def _multiprocessing_aliases(tree: ast.Module) -> tuple[set[str], set[str]]:
    """``(names bound to multiprocessing's Pool, multiprocessing module aliases)``."""
    pool_names: set[str] = set()
    module_aliases: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "multiprocessing" or alias.name.startswith(
                    "multiprocessing."
                ):
                    module_aliases.add(alias.asname or alias.name.split(".")[0])
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if module == "multiprocessing" or module.startswith("multiprocessing."):
                for alias in node.names:
                    if alias.name == "Pool":
                        pool_names.add(alias.asname or alias.name)
    return pool_names, module_aliases


def _nested_def_names(tree: ast.Module) -> set[str]:
    """Names of functions defined inside other functions (unpicklable)."""
    nested: set[str] = set()

    def walk(node: ast.AST, inside_function: bool) -> None:
        for child in ast.iter_child_nodes(node):
            is_fn = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            if is_fn and inside_function:
                nested.add(child.name)
            walk(child, inside_function or is_fn)

    walk(tree, False)
    return nested


class ParallelSafetyChecker(Checker):
    rule_id = PARALLEL_SAFETY

    def __init__(self, ctx: CheckContext) -> None:
        super().__init__(ctx)
        self._nested_defs = _nested_def_names(ctx.tree)
        self._mp_pool_names, self._mp_aliases = _multiprocessing_aliases(ctx.tree)
        self._in_fabric = path_matches(ctx.path, FABRIC_PATHS)
        self._in_plane = path_matches(ctx.path, PLANE_PATHS)

    def visit_Call(self, node: ast.Call) -> None:
        task = self._dispatched_callable(node)
        if task is not None:
            self._check_callable(task)
            for arg in [*node.args, *[kw.value for kw in node.keywords]]:
                self._check_no_generator_capture(arg)
        self._check_pool_construction(node)
        self._check_shm_allocation(node)
        self.generic_visit(node)

    # -- dispatch-site detection -------------------------------------------
    def _dispatched_callable(self, node: ast.Call) -> ast.AST | None:
        func = node.func
        if (
            isinstance(func, ast.Attribute)
            and func.attr in DISPATCH_METHODS
            and node.args
        ):
            base = dotted_name(func.value)
            if base and any(p in base.lower() for p in POOLISH):
                return node.args[0]
        return None

    # -- checks ------------------------------------------------------------
    def _check_callable(self, task: ast.AST) -> None:
        if isinstance(task, ast.Lambda):
            self.report(
                task,
                "lambda dispatched to a process pool is not picklable; "
                "use a module-level def",
            )
            return
        if isinstance(task, ast.Name) and task.id in self._nested_defs:
            self.report(
                task,
                f"nested function '{task.id}' dispatched to a process pool "
                "is not picklable; hoist it to module level",
            )
            return
        if isinstance(task, ast.Call):
            inner = dotted_name(task.func) or ""
            if inner.split(".")[-1] == "partial" and task.args:
                self._check_callable(task.args[0])

    def _check_pool_construction(self, node: ast.Call) -> None:
        """Raw pool constructors are the fabric module's exclusive business."""
        if self._in_fabric:
            return
        name = dotted_name(node.func)
        if name is None:
            return
        parts = name.split(".")
        constructed = None
        if parts[-1] == "ProcessPoolExecutor":
            constructed = "ProcessPoolExecutor"
        elif parts[-1] == "Pool":
            if len(parts) == 1 and name in self._mp_pool_names:
                constructed = "multiprocessing.Pool"
            elif len(parts) > 1 and (
                parts[0] in self._mp_aliases or parts[0] == "multiprocessing"
            ):
                constructed = "multiprocessing.Pool"
        if constructed is not None:
            self.report(
                node,
                f"direct {constructed}() construction bypasses the execution "
                "fabric; go through repro.utils.parallel.WorkerPool so runs "
                "get warm-worker reuse, shared-memory cleanup and the "
                "REPRO_WORKERS override",
            )

    def _check_shm_allocation(self, node: ast.Call) -> None:
        """Creating shared-memory segments is ``shared_plane.py``'s business.

        Only ``SharedMemory(create=True)`` is flagged — attaching to an
        existing segment by name is how workers are *supposed* to reach a
        heartbeat board. Allocation outside ``shared_plane.py`` escapes its
        owner tracking, so nothing unlinks the segment on close/SIGINT and the
        resource tracker reports a leak at interpreter exit.
        """
        if not self._in_plane and is_shm_create(node):
            self.report(
                node,
                "SharedMemory(create=True) outside repro/utils/shared_plane.py "
                "allocates a segment the fabric's cleanup cannot see; allocate "
                "it in that module so the segment is owner-tracked and "
                "unlinked on close",
            )

    def _check_no_generator_capture(self, arg: ast.AST) -> None:
        for sub in ast.walk(arg):
            if not isinstance(sub, ast.Call):
                continue
            name = dotted_name(sub.func)
            if name and name.split(".")[-1] in GENERATOR_BUILDERS:
                self.report(
                    sub,
                    f"{name}(...) inside a process-pool dispatch ships a live "
                    "Generator across the fork; pass integer seeds "
                    "(RngStreams.seed_for / derive_seed) and build the "
                    "Generator inside the worker",
                )
