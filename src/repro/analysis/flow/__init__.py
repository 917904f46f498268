"""Whole-program flow analysis for the determinism contract.

The per-file checkers in :mod:`repro.analysis.checkers` see one module at
a time; the flow layer sees the program. It builds a project index (module
import graph, function/class tables), a statement-level control-flow graph
per function with dominator/post-dominator trees, and a call graph over
the indexed modules, then runs four interprocedural rules on top:

* ``rng-provenance`` — Generators built in worker- or solver-reachable
  code must be seeded from the per-cell ``(seed, chain)`` stream;
* ``shm-lifecycle`` — every ``SharedMemory(create=True)`` must reach an
  ``unlink``/``weakref.finalize``/ownership-transfer guard on all CFG
  exit paths;
* ``budget-flow`` — cost-model probes reachable from a solver lifecycle
  method must be dominated or post-dominated by a ``charge()``;
* ``worker-purity`` — functions the fabric dispatches must be pure in
  ``(problem, spec, seed)``: no mutable-global state, wall-clock, or
  ambient RNG.

Findings carry call-chain traces (:attr:`repro.analysis.findings.Finding.trace`)
so a violation three calls below a dispatch site reports the whole path.
Soundness limits are documented in ``DESIGN.md`` §12.
"""

from repro.analysis.flow.callgraph import CallGraph
from repro.analysis.flow.cfg import CFG, build_cfg
from repro.analysis.flow.project import FunctionInfo, ModuleInfo, ProjectIndex
from repro.analysis.flow.rules import run_flow_rules
from repro.analysis.flow.summaries import FunctionSummary, summarize

__all__ = [
    "CFG",
    "CallGraph",
    "FunctionInfo",
    "FunctionSummary",
    "ModuleInfo",
    "ProjectIndex",
    "build_cfg",
    "run_flow_rules",
    "summarize",
]
