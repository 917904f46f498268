"""Good/bad whole-program fixtures for every flow rule.

Each bad fixture seeds a violation that the per-file checkers *cannot*
see — that is the flow layer's reason to exist, so every bad fixture is
also linted per-file and asserted clean there. Fixtures are indexed from
in-memory sources with ``src/repro/...`` display paths so the default
rule exemptions apply exactly as on the real tree.
"""

from __future__ import annotations

import textwrap

from repro.analysis import flow_paths, lint_source
from repro.analysis.flow import ProjectIndex
from repro.analysis.flow.rules import run_flow_rules, solver_roots, worker_roots
from repro.analysis.flow.callgraph import CallGraph


def flow_findings(sources: dict[str, str], select=None):
    index = ProjectIndex.from_sources(
        {path: textwrap.dedent(src) for path, src in sources.items()}
    )
    return run_flow_rules(index, select=select)


def assert_per_file_clean(sources: dict[str, str]):
    """The per-file checkers must miss what the flow rule catches."""
    for path, src in sources.items():
        findings, _ = lint_source(textwrap.dedent(src), path)
        assert findings == [], f"per-file checkers already flag {path}: {findings}"


DISPATCH = {
    "src/repro/experiments/driver.py": """
        from repro.utils.parallel import WorkerPool
        from repro.experiments.cells import run_cell

        def run_all(specs):
            with WorkerPool(2) as pool:
                return pool.map(run_cell, specs)
    """
}


class TestWorkerRoots:
    def test_parallel_map_first_argument_is_a_root(self):
        index = ProjectIndex.from_sources(
            {
                **{k: textwrap.dedent(v) for k, v in DISPATCH.items()},
                "src/repro/experiments/cells.py": "def run_cell(spec):\n    return spec\n",
            }
        )
        roots = worker_roots(index, CallGraph(index))
        assert "repro.experiments.cells.run_cell" in roots
        assert roots["repro.experiments.cells.run_cell"].startswith(
            "src/repro/experiments/driver.py:"
        )

    def test_pool_method_on_annotated_receiver_is_a_root(self):
        sources = {
            "src/repro/utils/parallel.py": textwrap.dedent(
                """
                class WorkerPool:
                    def map_salvage(self, fn, specs):
                        return [fn(s) for s in specs]
                """
            ),
            "src/repro/experiments/driver.py": textwrap.dedent(
                """
                from repro.utils.parallel import WorkerPool

                def run_all(active: WorkerPool, specs):
                    return active.map_salvage(_cell, specs)

                def _cell(spec):
                    return spec
                """
            ),
        }
        index = ProjectIndex.from_sources(sources)
        roots = worker_roots(index, CallGraph(index))
        assert "repro.experiments.driver._cell" in roots

    def test_solver_lifecycle_methods_are_roots(self):
        sources = {
            "src/repro/ce/opt.py": textwrap.dedent(
                """
                class SearchSolver:
                    pass

                class MySolver(SearchSolver):
                    def step(self, state):
                        return state
                """
            )
        }
        index = ProjectIndex.from_sources(sources)
        assert solver_roots(index) == ["repro.ce.opt.MySolver.step"]


class TestWorkerPurity:
    BAD = {
        **DISPATCH,
        "src/repro/experiments/cells.py": """
            _CACHE = {}

            def run_cell(spec):
                return _helper(spec)

            def _helper(spec):
                _CACHE[spec] = 1
                return len(_CACHE)
        """,
    }
    GOOD = {
        **DISPATCH,
        "src/repro/experiments/cells.py": """
            def run_cell(spec):
                local = {}
                local[spec] = 1
                return len(local)
        """,
    }

    def test_global_mutation_below_dispatch_flagged_with_trace(self):
        findings = [f for f in flow_findings(self.BAD) if f.rule == "worker-purity"]
        assert findings, "expected worker-purity findings"
        writes = [f for f in findings if "write to module global" in f.message]
        assert writes
        assert writes[0].trace == (
            "repro.experiments.cells.run_cell",
            "repro.experiments.cells._helper",
        )
        assert "dispatched at src/repro/experiments/driver.py" in writes[0].message

    def test_per_file_checkers_miss_the_bad_fixture(self):
        assert_per_file_clean(self.BAD)

    def test_local_state_is_clean(self):
        assert flow_findings(self.GOOD) == []

    def test_undispatched_global_mutation_is_out_of_scope(self):
        undispatched = {
            "src/repro/experiments/cells.py": self.BAD[
                "src/repro/experiments/cells.py"
            ]
        }
        assert flow_findings(undispatched) == []


class TestRngProvenance:
    BAD = {
        **DISPATCH,
        "src/repro/experiments/cells.py": """
            from repro.utils.rng import as_generator

            _ROOT_SEED = 1234

            def run_cell(spec):
                rng = as_generator(_ROOT_SEED)
                return rng.random()
        """,
    }
    GOOD = {
        **DISPATCH,
        "src/repro/experiments/cells.py": """
            from repro.utils.rng import as_generator

            def run_cell(spec):
                seed, chain = spec
                rng = as_generator(seed + chain)
                return rng.random()
        """,
    }

    def test_module_state_seed_flagged(self):
        findings = [f for f in flow_findings(self.BAD) if f.rule == "rng-provenance"]
        assert len(findings) == 1
        assert "module-level state '_ROOT_SEED'" in findings[0].message

    def test_literal_seed_flagged(self):
        literal = dict(self.BAD)
        literal["src/repro/experiments/cells.py"] = """
            from repro.utils.rng import as_generator

            def run_cell(spec):
                rng = as_generator(42)
                return rng.random()
        """
        findings = [f for f in flow_findings(literal) if f.rule == "rng-provenance"]
        assert len(findings) == 1
        assert "constant seed 42" in findings[0].message

    def test_per_file_checkers_miss_the_bad_fixture(self):
        assert_per_file_clean(self.BAD)

    def test_parameter_derived_seed_is_clean(self):
        assert flow_findings(self.GOOD) == []

    def test_unknown_provenance_not_flagged(self):
        unknown = dict(self.BAD)
        unknown["src/repro/experiments/cells.py"] = """
            from repro.utils.rng import as_generator
            from repro.experiments.config import lookup_seed

            def run_cell(spec):
                rng = as_generator(lookup_seed(spec))
                return rng.random()
        """
        assert [f for f in flow_findings(unknown) if f.rule == "rng-provenance"] == []


class TestBudgetFlow:
    BAD = {
        "src/repro/ce/opt.py": """
            class SearchSolver:
                pass

            class GreedySolver(SearchSolver):
                def __init__(self, model, budget):
                    self.model = model
                    self.budget = budget

                def step(self, state):
                    best = None
                    for cand in state.moves():
                        cost = self.model.evaluate(cand)
                        if best is None or cost < best:
                            best = cost
                    return best
        """
    }
    GOOD = {
        "src/repro/ce/opt.py": """
            class SearchSolver:
                pass

            class GreedySolver(SearchSolver):
                def __init__(self, model, budget):
                    self.model = model
                    self.budget = budget

                def step(self, state):
                    best = None
                    for cand in state.moves():
                        cost = self.model.evaluate(cand)
                        self.budget.charge(1)
                        if best is None or cost < best:
                            best = cost
                    return best
        """
    }

    def test_uncharged_probe_in_solver_step_flagged(self):
        findings = [f for f in flow_findings(self.BAD) if f.rule == "budget-flow"]
        assert len(findings) == 1
        assert findings[0].trace == ("repro.ce.opt.GreedySolver.step",)

    def test_per_file_checkers_miss_the_bad_fixture(self):
        assert_per_file_clean(self.BAD)

    def test_adjacent_charge_covers_the_probe(self):
        assert flow_findings(self.GOOD) == []

    def test_guarded_charge_idiom_covers_the_probe(self):
        guarded = {
            "src/repro/ce/opt.py": """
                class SearchSolver:
                    pass

                class BatchSolver(SearchSolver):
                    def __init__(self, model, budget):
                        self.model = model
                        self.budget = budget

                    def step(self, batch):
                        costs = self.model.evaluate_batch(batch)
                        pending = len(costs)
                        if pending:
                            self.budget.charge(pending)
                        return costs
            """
        }
        assert flow_findings(guarded) == []

    def test_probe_outside_solver_scope_not_flagged(self):
        free = {
            "src/repro/ce/opt.py": """
                def summarize(model, mappings):
                    return [model.evaluate(m) for m in mappings]
            """
        }
        assert flow_findings(free) == []

    def test_mapping_package_is_exempt(self):
        source = """
            class SearchSolver:
                pass

            class Inner(SearchSolver):
                def __init__(self, model):
                    self.model = model

                def step(self, batch):
                    return self.model.evaluate_batch(batch)
        """
        assert flow_findings({"src/repro/mapping/cost_model.py": source}) == []
        # The same solver outside ``repro/mapping`` is flagged.
        assert flow_findings({"src/repro/ce/opt.py": source}) != []


class TestShmLifecycle:
    # Fixtures sit at the shared_plane path: the per-file parallel-safety
    # rule bans SharedMemory(create=True) everywhere *except* there, so
    # inside the plane module only the flow rule can see a leaky path.
    BAD = {
        "src/repro/utils/shared_plane.py": """
            from multiprocessing.shared_memory import SharedMemory

            def publish(payload):
                shm = SharedMemory(create=True, size=len(payload))
                if not payload:
                    raise ValueError("nothing to publish")
                shm.buf[: len(payload)] = payload
                shm.unlink()
                return len(payload)
        """
    }
    GOOD_FINALLY = {
        "src/repro/utils/shared_plane.py": """
            from multiprocessing.shared_memory import SharedMemory

            def publish(payload):
                shm = SharedMemory(create=True, size=len(payload))
                try:
                    if not payload:
                        raise ValueError("nothing to publish")
                    shm.buf[: len(payload)] = payload
                finally:
                    shm.unlink()
                return len(payload)
        """
    }
    GOOD_ESCAPE = {
        "src/repro/utils/shared_plane.py": """
            from multiprocessing.shared_memory import SharedMemory

            def publish(registry, key, size):
                shm = SharedMemory(create=True, size=size)
                registry[key] = shm
                return shm
        """
    }

    def test_leaky_raise_path_flagged(self):
        findings = [f for f in flow_findings(self.BAD) if f.rule == "shm-lifecycle"]
        assert len(findings) == 1
        assert "'shm'" in findings[0].message

    def test_per_file_checkers_miss_the_bad_fixture(self):
        assert_per_file_clean(self.BAD)

    def test_try_finally_unlink_is_clean(self):
        assert flow_findings(self.GOOD_FINALLY) == []

    def test_ownership_escape_is_clean(self):
        assert flow_findings(self.GOOD_ESCAPE) == []

    def test_attach_without_create_not_tracked(self):
        attach = {
            "src/repro/utils/shared_plane.py": """
                from multiprocessing.shared_memory import SharedMemory

                def attach(name):
                    shm = SharedMemory(name=name)
                    return bytes(shm.buf)
            """
        }
        assert flow_findings(attach) == []


class TestEngineIntegration:
    def write_tree(self, tmp_path, cells_source: str):
        pkg = tmp_path / "src" / "repro" / "experiments"
        pkg.mkdir(parents=True)
        (tmp_path / "src" / "repro" / "__init__.py").write_text("", encoding="utf-8")
        (pkg / "__init__.py").write_text("", encoding="utf-8")
        (pkg / "driver.py").write_text(
            textwrap.dedent(DISPATCH["src/repro/experiments/driver.py"]),
            encoding="utf-8",
        )
        (pkg / "cells.py").write_text(textwrap.dedent(cells_source), encoding="utf-8")
        return tmp_path / "src"

    BAD_CELLS = """
        _CACHE = {}

        def run_cell(spec):
            _CACHE[spec] = 1
            return len(_CACHE)
    """

    def test_flow_paths_reports_the_violation(self, tmp_path):
        src = self.write_tree(tmp_path, self.BAD_CELLS)
        result = flow_paths([src], root=tmp_path)
        assert not result.ok
        assert {f.rule for f in result.findings} == {"worker-purity"}
        assert result.findings[0].path == "src/repro/experiments/cells.py"

    def test_noqa_suppresses_flow_findings(self, tmp_path):
        suppressed = """
            _CACHE = {}

            def run_cell(spec):
                _CACHE[spec] = 1  # repro: noqa[worker-purity] -- test fixture
                return spec
        """
        src = self.write_tree(tmp_path, suppressed)
        result = flow_paths([src], root=tmp_path)
        assert result.ok
        assert result.suppressed == 1

    def test_select_restricts_to_named_flow_rule(self, tmp_path):
        src = self.write_tree(tmp_path, self.BAD_CELLS)
        result = flow_paths([src], root=tmp_path, select=["shm-lifecycle"])
        assert result.ok

    def test_unknown_rule_rejected(self, tmp_path):
        import pytest

        src = self.write_tree(tmp_path, self.BAD_CELLS)
        with pytest.raises(ValueError, match="unknown rule"):
            flow_paths([src], root=tmp_path, select=["bogus"])
