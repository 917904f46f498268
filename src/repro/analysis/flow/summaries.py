"""Per-function summaries: the facts the interprocedural rules consume.

One :class:`FunctionSummary` per function records where it reads the wall
clock, touches ambient RNG state, reads or writes mutable module globals,
and builds ``numpy`` Generators — each with the AST node so findings can
point at the exact line, and for generator builds a seed-provenance
verdict from a small intraprocedural dataflow walk.

Provenance classes (``ok`` / ``bad`` / ``unknown``): values derived from
function parameters (including tuple-unpacks and attribute reads off a
parameter), from :func:`repro.utils.rng.derive_seed` /
``RngStreams.seed_for`` / ``generator_from_state`` / ``spawn_generators``
results, or from arithmetic over those are ``ok``. Module globals and
literal constants are ``bad`` in dispatched code — a worker seeded from
shared state or a fixed literal collapses the per-cell ``(seed, chain)``
stream. Anything the walk cannot see (an unresolvable call's result, a
subscript of unknown origin) is ``unknown`` and deliberately not flagged:
the rule is tuned for high-confidence findings.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from repro.analysis.checkers.base import dotted_name
from repro.analysis.checkers.seed_discipline import LEGACY_NP_RANDOM
from repro.analysis.checkers.wallclock import DATETIME_FUNCS, TIME_FUNCS
from repro.analysis.flow.project import (
    MUTATOR_METHODS,
    FunctionInfo,
    ModuleInfo,
    ProjectIndex,
)

__all__ = [
    "FunctionSummary",
    "GeneratorBuild",
    "summarize",
    "COST_ATTRS",
    "OBJECTIVE_NAMES",
    "is_cost_probe",
    "is_charge_call",
]

#: Attribute calls that cross the cost-model boundary (Eq. (2) probes).
COST_ATTRS = frozenset({"evaluate", "evaluate_batch"})
#: Bare / attribute names under which library code holds a user objective.
OBJECTIVE_NAMES = frozenset({"objective", "score"})

#: Functions whose result is sanctioned seed material.
_SEED_DERIVERS = frozenset(
    {
        "derive_seed", "seed_for", "spawn_generators", "generator_from_state",
        "as_generator", "int", "abs", "hash", "min", "max",
    }
)

#: Generator-building entry points (fully expanded target names).
_BUILDER_TARGETS = {
    "repro.utils.rng.as_generator": "as_generator",
    "repro.utils.rng.spawn_generators": "spawn_generators",
    "numpy.random.default_rng": "default_rng",
}


def is_cost_probe(node: ast.AST) -> bool:
    """True for a call that probes the cost model or a user objective."""
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    if isinstance(func, ast.Attribute):
        return func.attr in COST_ATTRS or func.attr in OBJECTIVE_NAMES
    if isinstance(func, ast.Name):
        return func.id in OBJECTIVE_NAMES
    return False


def is_charge_call(node: ast.AST) -> bool:
    """True for an ``<anything>.charge(...)`` call."""
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "charge"
    )


@dataclass
class GeneratorBuild:
    """One Generator construction site with its seed provenance verdict."""

    node: ast.Call
    builder: str  # as_generator / default_rng / spawn_generators
    verdict: str  # ok / bad / unknown
    detail: str


@dataclass
class FunctionSummary:
    """Everything the flow rules need to know about one function."""

    fn: FunctionInfo
    wallclock: list[tuple[ast.AST, str]] = field(default_factory=list)
    ambient_rng: list[tuple[ast.AST, str]] = field(default_factory=list)
    global_reads: list[tuple[ast.AST, str]] = field(default_factory=list)
    global_writes: list[tuple[ast.AST, str]] = field(default_factory=list)
    generator_builds: list[GeneratorBuild] = field(default_factory=list)


_NESTED_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)


def _own_scope(fn_node: ast.FunctionDef | ast.AsyncFunctionDef):
    """Walk ``fn_node``'s own scope: skip nested def/class/lambda bodies."""
    stack: list[ast.AST] = list(ast.iter_child_nodes(fn_node))
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, _NESTED_SCOPES):
            continue
        stack.extend(ast.iter_child_nodes(node))


def _local_names(fn: FunctionInfo) -> set[str]:
    """Names bound inside the function (params, assigns, loops, withs)."""
    names = set(fn.params)
    for node in _own_scope(fn.node):
        if isinstance(node, ast.Name) and isinstance(node.ctx, (ast.Store, ast.Del)):
            names.add(node.id)
        elif isinstance(node, ast.ExceptHandler) and node.name:
            names.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                names.add(alias.asname or alias.name.split(".")[0])
        elif isinstance(node, ast.comprehension):
            for sub in ast.walk(node.target):
                if isinstance(sub, ast.Name):
                    names.add(sub.id)
    return names


class _Provenance:
    """Intraprocedural seed-provenance evaluator for one function."""

    def __init__(self, fn: FunctionInfo, module: ModuleInfo) -> None:
        self.fn = fn
        self.module = module
        self.named: dict[str, tuple[str, str]] = {
            p: ("ok", f"parameter {p!r}") for p in fn.params
        }
        self._scan_assignments()

    def _scan_assignments(self) -> None:
        for node in _own_scope(self.fn.node):
            if isinstance(node, ast.Assign):
                verdict = self.classify(node.value)
                for tgt in node.targets:
                    self._bind_target(tgt, verdict, node.value)
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                self._bind_target(node.target, self.classify(node.value), node.value)
            elif isinstance(node, (ast.For, ast.AsyncFor)):
                verdict = self.classify(node.iter)
                self._bind_target(node.target, verdict, node.iter)
            elif isinstance(node, ast.comprehension):
                verdict = self.classify(node.iter)
                self._bind_target(node.target, verdict, node.iter)

    def _bind_target(
        self, target: ast.expr, verdict: tuple[str, str], value: ast.expr
    ) -> None:
        if isinstance(target, ast.Name):
            # First binding wins ties only when the later one is worse-known;
            # simple last-write-wins is fine for the straight-line code the
            # rule targets.
            self.named[target.id] = verdict
        elif isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._bind_target(elt, verdict, value)
        elif isinstance(target, ast.Starred):
            self._bind_target(target.value, verdict, value)

    def classify(self, expr: ast.expr | None) -> tuple[str, str]:
        """(verdict, detail) for the value of ``expr`` as seed material."""
        if expr is None:
            return "bad", "no seed argument (ambient entropy)"
        if isinstance(expr, ast.Constant):
            if expr.value is None:
                return "bad", "seed=None (ambient entropy)"
            return "bad", f"constant seed {expr.value!r} shared by every call"
        if isinstance(expr, ast.Name):
            if expr.id in self.named:
                return self.named[expr.id]
            if expr.id in self.module.global_names:
                return "bad", f"module-level state {expr.id!r}"
            return "unknown", f"unresolved name {expr.id!r}"
        if isinstance(expr, ast.Attribute):
            root = expr
            while isinstance(root, ast.Attribute):
                root = root.value
            if isinstance(root, ast.Name):
                if root.id in ("self", "cls") or root.id in self.named:
                    return "ok", f"derived from {root.id!r}"
                if root.id in self.module.global_names:
                    return "bad", f"module-level state {root.id!r}"
            return "unknown", "attribute of unknown origin"
        if isinstance(expr, ast.Call):
            name = dotted_name(expr.func)
            tail = (name or "").split(".")[-1]
            if tail in _SEED_DERIVERS:
                return "ok", f"result of {tail}()"
            return "unknown", f"result of {tail or '<call>'}()"
        if isinstance(expr, ast.BinOp):
            left = self.classify(expr.left)
            right = self.classify(expr.right)
            for side in (left, right):
                if side[0] == "bad":
                    return side
            if "ok" in (left[0], right[0]):
                return "ok", "arithmetic over parameter-derived values"
            return "unknown", "arithmetic over unknown values"
        if isinstance(expr, ast.Subscript):
            return self.classify(expr.value)
        if isinstance(expr, (ast.Tuple, ast.List)):
            verdicts = [self.classify(e) for e in expr.elts]
            for v in verdicts:
                if v[0] == "bad":
                    return v
            if verdicts and all(v[0] == "ok" for v in verdicts):
                return "ok", "container of parameter-derived values"
            return "unknown", "container with unknown elements"
        return "unknown", "expression the dataflow walk cannot see"


def _seed_argument(call: ast.Call) -> ast.expr | None:
    if call.args:
        return call.args[0]
    for kw in call.keywords:
        if kw.arg in ("seed", "rng", "root_seed", "state"):
            return kw.value
    return None


def summarize(
    fn: FunctionInfo, module: ModuleInfo, index: ProjectIndex
) -> FunctionSummary:
    """Compute the flow summary of one function."""
    summary = FunctionSummary(fn=fn)
    locals_ = _local_names(fn)
    prov = _Provenance(fn, module)
    declared_global: set[str] = set()
    for node in _own_scope(fn.node):
        if isinstance(node, ast.Global):
            declared_global.update(node.names)

    for node in _own_scope(fn.node):
        if isinstance(node, ast.Call):
            _scan_call(node, module, prov, summary, locals_)
        elif (
            isinstance(node, ast.Name)
            and isinstance(node.ctx, ast.Load)
            and node.id not in locals_
            and node.id in module.mutated_globals
        ):
            summary.global_reads.append((node, node.id))
        elif isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for tgt in targets:
                if isinstance(tgt, ast.Name) and tgt.id in declared_global:
                    summary.global_writes.append((node, tgt.id))
                elif (
                    isinstance(tgt, ast.Subscript)
                    and isinstance(tgt.value, ast.Name)
                    and tgt.value.id not in locals_
                    and tgt.value.id in module.global_names
                ):
                    summary.global_writes.append((node, tgt.value.id))
    # An augmented/subscript write reads its target too; report it once,
    # as the (more serious) write.
    written = {(getattr(n, "lineno", 0), name) for n, name in summary.global_writes}
    summary.global_reads = [
        (n, name)
        for n, name in summary.global_reads
        if (getattr(n, "lineno", 0), name) not in written
    ]
    return summary


def _scan_call(
    call: ast.Call,
    module: ModuleInfo,
    prov: _Provenance,
    summary: FunctionSummary,
    locals_: set[str],
) -> None:
    dotted = dotted_name(call.func)
    if dotted is None:
        return
    head, _, rest = dotted.partition(".")
    target = module.imports.get(head)
    expanded = f"{target}.{rest}" if target and rest else (target or dotted)
    parts = expanded.split(".")

    # Wall-clock reads.
    if parts[0] == "time" and len(parts) == 2 and parts[1] in TIME_FUNCS:
        summary.wallclock.append((call, f"time.{parts[1]}"))
    elif parts[0] == "datetime" and parts[-1] in DATETIME_FUNCS:
        summary.wallclock.append((call, expanded))

    # Ambient RNG: stdlib random and numpy's legacy global-state API.
    if parts[0] == "random" and len(parts) == 2:
        summary.ambient_rng.append((call, expanded))
    elif (
        len(parts) >= 3
        and parts[0] == "numpy"
        and parts[1] == "random"
        and parts[2] in LEGACY_NP_RANDOM
    ):
        summary.ambient_rng.append((call, f"numpy.random.{parts[2]}"))

    # Mutator-method calls on module globals.
    func = call.func
    if (
        isinstance(func, ast.Attribute)
        and func.attr in MUTATOR_METHODS
        and isinstance(func.value, ast.Name)
        and func.value.id in module.global_names
        and func.value.id not in locals_
    ):
        summary.global_writes.append((call, func.value.id))

    # Generator builds with seed provenance.
    builder = _BUILDER_TARGETS.get(expanded)
    if builder is None and parts[-1] in ("as_generator", "default_rng", "spawn_generators"):
        builder = parts[-1]
    if builder is not None:
        verdict, detail = prov.classify(_seed_argument(call))
        summary.generator_builds.append(
            GeneratorBuild(node=call, builder=builder, verdict=verdict, detail=detail)
        )
