"""Static analysis enforcing the reproduction's determinism contract.

The headline claims of this codebase — seed-for-seed multi-chain parity,
parallel == serial experiment results, the 30-run ANOVA study — hold only
while every RNG draw flows through :mod:`repro.utils.rng` seed streams and
everything dispatched to :class:`repro.utils.parallel.WorkerPool` is a
stateless, picklable, seed-carrying callable. This package enforces those
invariants mechanically, in two layers: an AST-visitor linter
(``repro-lint`` / ``python -m repro.analysis``) with per-file rules,
and a whole-program flow analysis (``repro-lint --flow``, see
:mod:`repro.analysis.flow`) that builds a call graph, per-function CFGs
and interprocedural summaries to verify RNG seed provenance, shared-memory
lifecycles, budget charging and worker purity across module boundaries.
Both honor inline ``# repro: noqa[rule]`` suppressions, each naming its
rule and carrying a justification. ``DESIGN.md § "Determinism contract" and
§12 "Flow analysis" document the rationale rule by rule.
"""

from repro.analysis.engine import (
    ALL_CHECKERS,
    LintResult,
    flow_paths,
    iter_python_files,
    lint_paths,
    lint_source,
)
from repro.analysis.findings import Finding
from repro.analysis.rules import FLOW_RULE_IDS, RULE_IDS, RULES, Rule

__all__ = [
    "ALL_CHECKERS",
    "FLOW_RULE_IDS",
    "Finding",
    "LintResult",
    "RULES",
    "RULE_IDS",
    "Rule",
    "flow_paths",
    "iter_python_files",
    "lint_paths",
    "lint_source",
]
