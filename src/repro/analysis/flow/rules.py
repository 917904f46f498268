"""The four interprocedural flow rules.

Each rule is a function over the :class:`~repro.analysis.flow.project.ProjectIndex`
plus the shared call graph, returning :class:`~repro.analysis.findings.Finding`
objects whose ``trace`` carries the call chain from the analysis root
(dispatch site or solver lifecycle method) to the violating function.

Scopes:

* **worker scope** — the closure of every function the execution fabric
  dispatches: first arguments of ``pool.map`` / ``map_salvage`` /
  ``submit`` / ``starmap`` / ``apply_async`` on pool-ish receivers
  (name contains ``pool``/``executor`` or stated ``WorkerPool`` type);
* **solver scope** — the closure of ``start``/``step``/``finalize`` on
  every in-project subclass of ``SearchSolver``;
* ``shm-lifecycle`` has no roots: it is a per-function CFG property
  checked everywhere a segment is created.

Path-level exemptions come from the rule registry
(:mod:`repro.analysis.rules`) exactly as for the per-file checkers;
``# repro: noqa[...]`` suppression is applied by the engine.
"""

from __future__ import annotations

import ast
from typing import Callable, Iterable, Sequence

from repro.analysis.checkers.base import DISPATCH_METHODS, POOLISH, dotted_name, is_shm_create
from repro.analysis.findings import Finding
from repro.analysis.flow.callgraph import CallGraph, local_types
from repro.analysis.flow.cfg import CFG, build_cfg, walk_scan
from repro.analysis.flow.project import FunctionInfo, ProjectIndex
from repro.analysis.flow.summaries import is_charge_call, is_cost_probe, summarize
from repro.analysis.rules import (
    BUDGET_FLOW,
    FLOW_RULE_IDS,
    RNG_PROVENANCE,
    RULES,
    SHM_LIFECYCLE,
    WORKER_PURITY,
)

__all__ = ["run_flow_rules", "worker_roots", "solver_roots"]

#: Stated receiver types that dispatch regardless of variable name.
POOL_CLASS_NAMES = frozenset({"WorkerPool"})

#: The solver base class whose lifecycle methods anchor budget/rng scope.
SOLVER_BASE = "SearchSolver"
LIFECYCLE_METHODS = ("start", "step", "finalize")


def _finding(
    fn: FunctionInfo,
    node: ast.AST,
    rule: str,
    message: str,
    trace: tuple[str, ...],
    source_lines: list[str],
) -> Finding:
    lineno = getattr(node, "lineno", fn.lineno)
    snippet = (
        source_lines[lineno - 1].strip() if 1 <= lineno <= len(source_lines) else ""
    )
    return Finding(
        path=fn.path,
        line=lineno,
        col=getattr(node, "col_offset", 0) + 1,
        rule=rule,
        message=message,
        snippet=snippet,
        trace=trace,
    )


# -- roots --------------------------------------------------------------------


def _is_poolish(receiver: ast.expr, env: dict[str, str]) -> bool:
    dotted = dotted_name(receiver)
    if dotted is not None:
        lowered = dotted.lower()
        if any(fragment in lowered for fragment in POOLISH):
            return True
        head = dotted.split(".")[0]
        stated = env.get(head, "")
        if stated.split(".")[-1] in POOL_CLASS_NAMES:
            return True
    return False


def worker_roots(index: ProjectIndex, graph: CallGraph) -> dict[str, str]:
    """Dispatched functions: qualname → 'path:line' of the dispatch site."""
    roots: dict[str, str] = {}
    for fn in index.functions.values():
        module = index.modules[fn.module]
        env = local_types(fn, module, index)
        for node in ast.walk(fn.node):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not (
                isinstance(func, ast.Attribute)
                and func.attr in DISPATCH_METHODS
                and node.args
                and _is_poolish(func.value, env)
            ):
                continue
            task_arg = node.args[0]
            if not isinstance(task_arg, ast.Name):
                continue
            target = graph.resolve_call(
                ast.Call(func=task_arg, args=[], keywords=[]), fn, module, env
            )
            if target is not None:
                roots.setdefault(
                    target.qualname, f"{fn.path}:{getattr(node, 'lineno', fn.lineno)}"
                )
    return roots


def solver_roots(index: ProjectIndex) -> list[str]:
    """``start``/``step``/``finalize`` of every SearchSolver subclass."""
    roots: list[str] = []
    for cls in index.subclasses_of(SOLVER_BASE):
        for method in LIFECYCLE_METHODS:
            info = cls.methods.get(method)
            if info is not None:
                roots.append(info.qualname)
    return sorted(set(roots))


# -- rule: shm-lifecycle ------------------------------------------------------


def _node_of(cfg: CFG, target: ast.AST) -> int | None:
    for node_id, roots in cfg.scan.items():
        for sub in walk_scan(roots):
            if sub is target:
                return node_id
    return None


def _bare_uses(roots: tuple[ast.AST, ...], name: str) -> bool:
    """True if ``name`` is used bare (not as ``name.attr``) in these roots."""
    parents: dict[int, ast.AST] = {}
    for root in roots:
        for parent in ast.walk(root):
            for child in ast.iter_child_nodes(parent):
                parents[id(child)] = parent
    for root in roots:
        for sub in ast.walk(root):
            if (
                isinstance(sub, ast.Name)
                and sub.id == name
                and isinstance(sub.ctx, ast.Load)
            ):
                parent = parents.get(id(sub))
                if not isinstance(parent, ast.Attribute):
                    return True
    return False


def _is_unlink_guard(roots: tuple[ast.AST, ...], name: str) -> bool:
    for root in roots:
        for sub in ast.walk(root):
            if (
                isinstance(sub, ast.Call)
                and isinstance(sub.func, ast.Attribute)
                and sub.func.attr == "unlink"
                and isinstance(sub.func.value, ast.Name)
                and sub.func.value.id == name
            ):
                return True
    return False


def _shm_creations(fn: FunctionInfo) -> list[tuple[ast.Assign, str]]:
    out: list[tuple[ast.Assign, str]] = []
    for node in ast.walk(fn.node):
        if not isinstance(node, ast.Assign) or not isinstance(node.value, ast.Call):
            continue
        if not is_shm_create(node.value):
            continue
        if len(node.targets) == 1 and isinstance(node.targets[0], ast.Name):
            out.append((node, node.targets[0].id))
    return out


def check_shm_lifecycle(index: ProjectIndex, graph: CallGraph) -> list[Finding]:
    findings: list[Finding] = []
    for fn in index.functions.values():
        creations = _shm_creations(fn)
        if not creations:
            continue
        lines = index.modules[fn.module].source.splitlines()
        cfg = build_cfg(fn.node)
        for assign, name in creations:
            created_at = _node_of(cfg, assign)
            if created_at is None:
                continue
            guards = {
                node_id
                for node_id, roots in cfg.scan.items()
                if node_id != created_at
                and (
                    _is_unlink_guard(roots, name) or _bare_uses(roots, name)
                )
            }
            if cfg.reaches_exit_avoiding(created_at, guards):
                findings.append(
                    _finding(
                        fn,
                        assign,
                        SHM_LIFECYCLE,
                        f"SharedMemory segment {name!r} can reach a function "
                        "exit without unlink/finalize/ownership transfer; "
                        "guard every path (try/finally or escape to an owner)",
                        (fn.qualname,),
                        lines,
                    )
                )
    return findings


# -- rule: budget-flow --------------------------------------------------------


def _probe_and_charge_nodes(cfg: CFG) -> tuple[dict[int, ast.AST], set[int]]:
    probes: dict[int, ast.AST] = {}
    charges: set[int] = set()
    for node_id, roots in cfg.scan.items():
        for sub in walk_scan(roots):
            if is_cost_probe(sub) and node_id not in probes:
                probes[node_id] = sub
            if is_charge_call(sub):
                charges.add(node_id)
    # ``charge()`` rejects zero, so the repo idiom is
    # ``if probes: budget.charge(probes)``. The guard only skips the call
    # when there is nothing to charge, so for coverage purposes the if
    # header counts as the charge site (it post-dominates probes the
    # charge itself would not, because of the guard's skip edge).
    for node_id, stmt in cfg.stmt.items():
        if isinstance(stmt, ast.If) and cfg.scan.get(node_id) == (stmt.test,):
            for inner in stmt.body:
                if any(is_charge_call(s) for s in ast.walk(inner)):
                    charges.add(node_id)
                    break
    return probes, charges


def _covered(node: int, charges: set[int], dom, postdom) -> bool:
    return bool(charges & dom.get(node, set())) or bool(
        charges & postdom.get(node, set())
    )


def check_budget_flow(index: ProjectIndex, graph: CallGraph) -> list[Finding]:
    roots = solver_roots(index)
    scope = graph.reachable(roots)
    findings: list[Finding] = []
    cfg_cache: dict[str, CFG] = {}
    cov_cache: dict[str, tuple[dict[int, ast.AST], set[int], dict, dict]] = {}

    def analysis(qual: str):
        if qual not in cov_cache:
            fn = index.functions[qual]
            cfg = cfg_cache.setdefault(qual, build_cfg(fn.node))
            probes, charges = _probe_and_charge_nodes(cfg)
            cov_cache[qual] = (probes, charges, cfg.dominators(), cfg.postdominators())
        return cov_cache[qual]

    def call_sites_excused(qual: str) -> bool:
        """True if every in-scope call of ``qual`` is charge-covered."""
        sites = 0
        for caller, chain in scope.items():
            for callee, call_node in graph.edges.get(caller, ()):
                if callee != qual:
                    continue
                sites += 1
                probes, charges, dom, postdom = analysis(caller)
                cfg = cfg_cache[caller]
                site_node = _node_of(cfg, call_node)
                if site_node is None or not charges:
                    return False
                if not _covered(site_node, charges, dom, postdom):
                    return False
        return sites > 0

    for qual, chain in scope.items():
        fn = index.functions[qual]
        if RULES[BUDGET_FLOW].is_exempt(fn.path):
            continue
        probes, charges, dom, postdom = analysis(qual)
        if not probes:
            continue
        lines = index.modules[fn.module].source.splitlines()
        excused = not charges and call_sites_excused(qual)
        for node_id, probe in sorted(probes.items()):
            if _covered(node_id, charges, dom, postdom):
                continue
            if excused:
                continue
            findings.append(
                _finding(
                    fn,
                    probe,
                    BUDGET_FLOW,
                    "cost-model probe reachable from the solver lifecycle "
                    "is not dominated or post-dominated by an "
                    "EvaluationBudget.charge() on this path",
                    chain,
                    lines,
                )
            )
    return findings


# -- rule: rng-provenance -----------------------------------------------------


def check_rng_provenance(index: ProjectIndex, graph: CallGraph) -> list[Finding]:
    w_roots = worker_roots(index, graph)
    scope = graph.reachable(list(w_roots) + solver_roots(index))
    findings: list[Finding] = []
    for qual, chain in scope.items():
        fn = index.functions[qual]
        if RULES[RNG_PROVENANCE].is_exempt(fn.path):
            continue
        module = index.modules[fn.module]
        summary = summarize(fn, module, index)
        lines = module.source.splitlines()
        for build in summary.generator_builds:
            if build.verdict != "bad":
                continue
            findings.append(
                _finding(
                    fn,
                    build.node,
                    RNG_PROVENANCE,
                    f"{build.builder}() in dispatched/solver code seeded from "
                    f"{build.detail}; derive the seed from the per-cell "
                    "(seed, chain) stream instead",
                    chain,
                    lines,
                )
            )
    return findings


# -- rule: worker-purity ------------------------------------------------------


def check_worker_purity(index: ProjectIndex, graph: CallGraph) -> list[Finding]:
    w_roots = worker_roots(index, graph)
    scope = graph.reachable(w_roots)
    findings: list[Finding] = []
    for qual, chain in scope.items():
        fn = index.functions[qual]
        if RULES[WORKER_PURITY].is_exempt(fn.path):
            continue
        module = index.modules[fn.module]
        summary = summarize(fn, module, index)
        lines = module.source.splitlines()
        dispatched_at = w_roots.get(chain[0], "")
        suffix = f" (dispatched at {dispatched_at})" if dispatched_at else ""
        for node, what in summary.wallclock:
            findings.append(
                _finding(
                    fn, node, WORKER_PURITY,
                    f"worker-reachable wall-clock read {what}(){suffix}; "
                    "workers must be pure in (problem, spec, seed)",
                    chain, lines,
                )
            )
        for node, what in summary.ambient_rng:
            findings.append(
                _finding(
                    fn, node, WORKER_PURITY,
                    f"worker-reachable ambient RNG {what}(){suffix}; "
                    "draw from the per-cell seed stream instead",
                    chain, lines,
                )
            )
        for node, name in summary.global_reads:
            findings.append(
                _finding(
                    fn, node, WORKER_PURITY,
                    f"worker-reachable read of mutable module global "
                    f"{name!r}{suffix}; pass the value through the cell task",
                    chain, lines,
                )
            )
        for node, name in summary.global_writes:
            findings.append(
                _finding(
                    fn, node, WORKER_PURITY,
                    f"worker-reachable write to module global {name!r}{suffix}; "
                    "worker results must flow only through return values",
                    chain, lines,
                )
            )
    return findings


# -- entry --------------------------------------------------------------------

_RULE_IMPLS: dict[str, Callable[[ProjectIndex, CallGraph], list[Finding]]] = {
    SHM_LIFECYCLE: check_shm_lifecycle,
    BUDGET_FLOW: check_budget_flow,
    RNG_PROVENANCE: check_rng_provenance,
    WORKER_PURITY: check_worker_purity,
}


def run_flow_rules(
    index: ProjectIndex, select: Sequence[str] | None = None
) -> list[Finding]:
    """Run the flow rules over an indexed project; findings are sorted."""
    graph = CallGraph(index)
    wanted: Iterable[str] = FLOW_RULE_IDS if select is None else [
        r for r in FLOW_RULE_IDS if r in set(select)
    ]
    findings: list[Finding] = []
    for rule_id in wanted:
        findings.extend(_RULE_IMPLS[rule_id](index, graph))
    return sorted(findings)
