"""Rule registry for the determinism & parallel-safety linter.

Each rule guards one invariant that the reproduction's headline claims
(seed-for-seed multi-chain parity, parallel == serial experiment results,
the 30-run ANOVA study) depend on. Rules carry their own default path
exemptions: e.g. wall-clock reads are the whole point of
``repro.utils.timing``, and the test suite asserts *bitwise* seed-for-seed
reproducibility, so exact float equality is the point there, not a bug.

Two rule families share this registry: the per-file AST checkers
(:mod:`repro.analysis.checkers`) and the whole-program flow rules
(:mod:`repro.analysis.flow`). Flow rules see the call graph, so their
exemptions mark *sanctioned boundaries* — the execution fabric itself may
read monotonic clocks for liveness, kernel dispatch is an idempotent
per-process cache — rather than "places we don't look".

Paths are matched with :func:`fnmatch.fnmatch` against ``/``-normalized
paths; every pattern is also tried with a ``*/`` prefix so configuration
can say ``repro/utils/timing.py`` regardless of whether files are linted
as ``src/repro/...`` or via an absolute path.
"""

from __future__ import annotations

from dataclasses import dataclass
from fnmatch import fnmatch

__all__ = [
    "Rule",
    "RULES",
    "RULE_IDS",
    "FLOW_RULE_IDS",
    "path_matches",
    "SEED_DISCIPLINE",
    "WALLCLOCK",
    "FLOAT_EQUALITY",
    "PARALLEL_SAFETY",
    "MUTABLE_STATE",
    "KERNEL_DISCIPLINE",
    "RUN_DISCIPLINE",
    "RNG_PROVENANCE",
    "SHM_LIFECYCLE",
    "BUDGET_FLOW",
    "WORKER_PURITY",
    "PARSE_ERROR",
]

SEED_DISCIPLINE = "seed-discipline"
WALLCLOCK = "wallclock"
FLOAT_EQUALITY = "float-equality"
PARALLEL_SAFETY = "parallel-safety"
MUTABLE_STATE = "mutable-state"
KERNEL_DISCIPLINE = "kernel-discipline"
RUN_DISCIPLINE = "run-discipline"
# Whole-program flow rules (repro.analysis.flow).
RNG_PROVENANCE = "rng-provenance"
SHM_LIFECYCLE = "shm-lifecycle"
BUDGET_FLOW = "budget-flow"
WORKER_PURITY = "worker-purity"
#: Pseudo-rule for files the linter cannot parse; not suppressible.
PARSE_ERROR = "parse-error"


def path_matches(path: str, patterns: tuple[str, ...]) -> bool:
    """True if ``path`` (``/``-separated) matches any of ``patterns``."""
    norm = path.replace("\\", "/")
    return any(fnmatch(norm, p) or fnmatch(norm, "*/" + p) for p in patterns)


@dataclass(frozen=True)
class Rule:
    """Metadata for one checker: id, docs, and default path exemptions."""

    id: str
    summary: str
    rationale: str
    #: Files where the whole rule is off by default (see module docstring).
    exempt_globs: tuple[str, ...] = ()
    #: True for the whole-program rules run under ``repro-lint --flow``.
    flow: bool = False

    def is_exempt(self, path: str) -> bool:
        return path_matches(path, self.exempt_globs)


RULES: dict[str, Rule] = {
    r.id: r
    for r in (
        Rule(
            id=SEED_DISCIPLINE,
            summary="all randomness must flow through repro.utils.rng seed streams",
            rationale=(
                "stdlib random and numpy's legacy global-state API are hidden "
                "global state; Generators built outside repro.utils.rng escape "
                "the SeedSequence spawn tree that makes whole tables "
                "replayable from one integer"
            ),
            # Generator *construction* is additionally allowed in tests,
            # benchmarks and examples (fixed-seed fixtures); that carve-out
            # lives in the checker, not here — legacy global-state calls are
            # banned everywhere.
        ),
        Rule(
            id=WALLCLOCK,
            summary="no wall-clock reads outside repro.utils.timing",
            rationale=(
                "timestamps that reach result records make reported numbers "
                "run-dependent; all MT measurements go through Stopwatch so "
                "results carry time only where the paper's tables expect it"
            ),
            exempt_globs=(
                "repro/utils/timing.py",
                "benchmarks/*",
                "examples/*",
            ),
        ),
        Rule(
            id=FLOAT_EQUALITY,
            summary="no == / != between float-valued expressions",
            rationale=(
                "exact float comparison silently changes behaviour across "
                "BLAS builds and vectorization paths; use tolerances, or "
                "noqa the site when exact equality is the semantics (e.g. "
                "the Eq. (12) degeneracy check on exact 0/1 probability mass)"
            ),
            # The test-suite's whole job is asserting bitwise seed-for-seed
            # parity, so exact equality there is intentional.
            exempt_globs=("tests/*",),
        ),
        Rule(
            id=PARALLEL_SAFETY,
            summary="process-pool tasks must be module-level, seed-carrying callables",
            rationale=(
                "parallel == serial only holds when workers receive picklable "
                "top-level functions and integer seeds; lambdas/closures fail "
                "to pickle and shipped Generator objects fork their streams"
            ),
        ),
        Rule(
            id=MUTABLE_STATE,
            summary="no mutable default args; no undeclared in-place writes in hot paths",
            rationale=(
                "mutable defaults are cross-call shared state, and silent "
                "mutation of array arguments in mapping/ and ce/ hot paths "
                "breaks the run-in-any-order property parallel dispatch needs; "
                "declare in-place contracts in the docstring or an out= param"
            ),
        ),
        Rule(
            id=KERNEL_DISCIPLINE,
            summary="compiled-kernel access only through repro.kernels",
            rationale=(
                "the bit-exactness contract (numpy == C, golden "
                "fixtures invariant under REPRO_KERNEL) is enforced at the "
                "repro.kernels dispatch boundary; a numba/cffi/Cython/cppyy "
                "import, @njit decoration, or ctypes/CDLL load elsewhere "
                "creates a compiled path the parity matrix never tests and "
                "that breaks environments without the optional toolchain"
            ),
            exempt_globs=("repro/kernels/*",),
        ),
        Rule(
            id=RUN_DISCIPLINE,
            summary="experiments/benches must write results through the run-store",
            rationale=(
                "a result file written with a bare json.dump or "
                "open(..., 'w') carries no manifest — no git SHA, env "
                "surface, kernel backend, or seeds — so the numbers it holds "
                "cannot be attributed or replayed; run-producing layers "
                "(repro/experiments, repro/service, benchmarks) must route "
                "output through repro.runstore (RunStore/RunHandle), which "
                "is where provenance is attached"
            ),
            # The rule only *applies* inside the run-producing layers; the
            # positive scoping (experiments/ + service/ + benchmarks/) lives
            # in the checker, since exempt_globs can only subtract.
        ),
        Rule(
            id=RNG_PROVENANCE,
            summary="dispatched/solver code must seed Generators from the per-cell stream",
            rationale=(
                "parallel == serial and salvage-replay identity require every "
                "worker draw to come from the cell's (seed, chain) stream; a "
                "Generator seeded from module state, a literal, or ambient "
                "entropy anywhere in the dispatched call chain couples cells "
                "or collapses them onto one stream — flow analysis tracks the "
                "seed back through assignments and call chains to prove "
                "provenance"
            ),
            # The generator factory itself, and leaf code with fixed-seed
            # fixtures, build Generators by design.
            exempt_globs=(
                "repro/utils/rng.py",
                "tests/*",
                "benchmarks/*",
                "examples/*",
            ),
            flow=True,
        ),
        Rule(
            id=SHM_LIFECYCLE,
            summary="SharedMemory(create=True) must be guarded on every CFG exit path",
            rationale=(
                "a segment whose unlink is skipped on one exception path "
                "outlives the run and poisons later runs on the same host "
                "(the CI leak check would fail); every creation must reach "
                "unlink(), a weakref.finalize guard, or transfer ownership "
                "(return/store/pass the segment) on all paths to the exit"
            ),
            flow=True,
        ),
        Rule(
            id=BUDGET_FLOW,
            summary="solver-reachable cost probes must be charge-covered on their path",
            rationale=(
                "the Table 1/3 head-to-head claims only hold under matched "
                "effort; a cost-model probe reachable from a SearchSolver "
                "start/step/finalize must be dominated or post-dominated by "
                "an EvaluationBudget.charge() — otherwise some path spends "
                "evaluations the budget cannot see; callees with no budget "
                "access are excused when every call site is charge-covered "
                "in its caller"
            ),
            # The cost model's own implementation (repro/mapping) IS the
            # boundary being charged — probes there are the thing itself,
            # not un-accounted consumption.
            exempt_globs=("repro/mapping/*",),
            flow=True,
        ),
        Rule(
            id=WORKER_PURITY,
            summary="fabric-dispatched functions must be pure in (problem, spec, seed)",
            rationale=(
                "worker-count invariance and deterministic salvage replay "
                "hold only if a cell's result is a function of its task "
                "tuple: no wall-clock reads, no ambient RNG, no reads or "
                "writes of mutable module globals anywhere in the dispatched "
                "call chain; the fabric's own liveness plumbing (parallel, "
                "shared_plane, faults, timing) and the idempotent per-process "
                "kernel dispatch cache are sanctioned boundaries and exempt "
                "by path"
            ),
            exempt_globs=(
                "repro/utils/parallel.py",
                "repro/utils/shared_plane.py",
                "repro/utils/faults.py",
                "repro/utils/timing.py",
                "repro/kernels/*",
                "tests/*",
                "benchmarks/*",
                "examples/*",
            ),
            flow=True,
        ),
        Rule(
            id=PARSE_ERROR,
            summary="file could not be parsed",
            rationale="a file that does not parse cannot be verified at all",
        ),
    )
}

#: Selectable rule ids (excludes the parse-error pseudo-rule).
RULE_IDS: tuple[str, ...] = tuple(r for r in RULES if r != PARSE_ERROR)

#: The whole-program rules run by ``repro-lint --flow``.
FLOW_RULE_IDS: tuple[str, ...] = tuple(r for r in RULE_IDS if RULES[r].flow)
