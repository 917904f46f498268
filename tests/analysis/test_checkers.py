"""Good/bad fixture snippets for every repro-lint rule.

Each rule gets at least one snippet that must trigger it and one
semantically close snippet that must stay clean, so a checker regression
(either direction) fails loudly. Snippets are linted from strings via
:func:`repro.analysis.lint_source`; the ``path`` argument places them
inside or outside the rules' default exemptions.
"""

from __future__ import annotations

import textwrap

from repro.analysis import lint_source

LIB = "src/repro/somewhere/module.py"  # no exemptions apply here


def findings_for(source: str, path: str = LIB, select=None):
    findings, _ = lint_source(textwrap.dedent(source), path, select=select)
    return findings


def rules_hit(source: str, path: str = LIB, select=None):
    return {f.rule for f in findings_for(source, path, select=select)}


class TestSeedDiscipline:
    def test_stdlib_random_import_flagged(self):
        assert "seed-discipline" in rules_hit("import random\n")

    def test_stdlib_random_from_import_flagged(self):
        assert "seed-discipline" in rules_hit("from random import shuffle\n")

    def test_stdlib_random_call_flagged(self):
        src = """
            import random as rnd
            x = rnd.randint(0, 10)
        """
        findings = [f for f in findings_for(src) if f.rule == "seed-discipline"]
        assert len(findings) == 2  # the import and the call

    def test_legacy_np_random_calls_flagged(self):
        src = """
            import numpy as np
            np.random.seed(0)
            x = np.random.rand(3)
        """
        findings = [f for f in findings_for(src) if f.rule == "seed-discipline"]
        assert len(findings) == 2
        assert all("legacy global-state" in f.message for f in findings)

    def test_np_random_module_alias_flagged(self):
        src = """
            from numpy import random as npr
            npr.shuffle(items)
        """
        assert "seed-discipline" in rules_hit(src)

    def test_default_rng_outside_rng_module_flagged(self):
        src = """
            import numpy as np
            gen = np.random.default_rng(7)
        """
        assert "seed-discipline" in rules_hit(src)

    def test_generator_ctor_from_import_flagged(self):
        assert "seed-discipline" in rules_hit(
            "from numpy.random import default_rng\n"
        )

    def test_randomstate_import_flagged_everywhere(self):
        src = "from numpy.random import RandomState\n"
        assert "seed-discipline" in rules_hit(src, path="tests/test_x.py")

    def test_rng_module_may_construct_generators(self):
        src = """
            import numpy as np
            def as_generator(seed):
                return np.random.default_rng(seed)
        """
        assert rules_hit(src, path="src/repro/utils/rng.py") == set()

    def test_tests_may_construct_fixed_seed_generators(self):
        src = """
            import numpy as np
            gen = np.random.default_rng(42)
        """
        assert rules_hit(src, path="tests/ce/test_something.py") == set()

    def test_as_generator_usage_clean(self):
        src = """
            from repro.utils.rng import as_generator
            gen = as_generator(7)
            x = gen.random(3)
        """
        assert rules_hit(src) == set()

    def test_isinstance_generator_check_clean(self):
        # Attribute *access* (no call) is how as_generator type-checks.
        src = """
            import numpy as np
            def is_gen(x):
                return isinstance(x, np.random.Generator)
        """
        assert rules_hit(src) == set()


class TestWallclock:
    def test_time_time_flagged(self):
        src = """
            import time
            stamp = time.time()
        """
        assert "wallclock" in rules_hit(src)

    def test_perf_counter_from_import_flagged(self):
        src = """
            from time import perf_counter
            t0 = perf_counter()
        """
        assert "wallclock" in rules_hit(src)

    def test_datetime_now_flagged(self):
        src = """
            from datetime import datetime
            stamp = datetime.now()
        """
        assert "wallclock" in rules_hit(src)

    def test_sleep_is_not_a_clock_read(self):
        src = """
            import time
            time.sleep(0.1)
        """
        assert rules_hit(src) == set()

    def test_timing_module_exempt(self):
        src = """
            import time
            t0 = time.perf_counter()
        """
        assert rules_hit(src, path="src/repro/utils/timing.py") == set()

    def test_benchmarks_exempt(self):
        src = """
            import time
            t0 = time.time()
        """
        assert rules_hit(src, path="benchmarks/bench_thing.py") == set()


class TestFloatEquality:
    def test_float_literal_eq_flagged(self):
        assert "float-equality" in rules_hit("ok = x == 0.5\n")

    def test_float_literal_ne_flagged(self):
        assert "float-equality" in rules_hit("ok = x != 1.0\n")

    def test_negative_literal_flagged(self):
        assert "float-equality" in rules_hit("ok = x == -1.0\n")

    def test_float_cast_flagged(self):
        assert "float-equality" in rules_hit("ok = float(a) == b\n")

    def test_known_float_method_flagged(self):
        assert "float-equality" in rules_hit("ok = box.volume() == total\n")

    def test_int_literal_clean(self):
        assert rules_hit("ok = x == 0\n") == set()

    def test_inequality_operators_clean(self):
        assert rules_hit("ok = x <= 0.0\n") == set()

    def test_tests_exempt(self):
        # The suite asserts bitwise seed-for-seed parity on purpose.
        assert rules_hit("assert x == 0.5\n", path="tests/test_x.py") == set()


class TestParallelSafety:
    def test_lambda_flagged(self):
        assert "parallel-safety" in rules_hit(
            "pool.map(lambda x: x + 1, items)\n"
        )

    def test_nested_def_flagged(self):
        src = """
            def outer(items):
                def worker(x):
                    return x + 1
                return pool.map(worker, items)
        """
        assert "parallel-safety" in rules_hit(src)

    def test_partial_of_lambda_flagged(self):
        src = """
            from functools import partial
            pool.map(partial(lambda x, y: x + y, 1), items)
        """
        assert "parallel-safety" in rules_hit(src)

    def test_module_level_def_clean(self):
        src = """
            def worker(x):
                return x + 1
            def run(items):
                return pool.map(worker, items)
        """
        assert rules_hit(src) == set()

    def test_map_salvage_lambda_flagged(self):
        assert "parallel-safety" in rules_hit(
            "pool.map_salvage(lambda c: c, cells)\n"
        )

    def test_map_salvage_nested_def_flagged(self):
        src = """
            def outer(cells):
                def worker(c):
                    return c
                return pool.map_salvage(worker, cells)
        """
        assert "parallel-safety" in rules_hit(src)

    def test_executor_submit_lambda_flagged(self):
        src = """
            def run(executor, x):
                return executor.submit(lambda: x + 1)
        """
        assert "parallel-safety" in rules_hit(src)

    def test_generator_shipped_to_workers_flagged(self):
        src = """
            from repro.utils.rng import as_generator
            def run(items, seed):
                return pool.map(worker, [(x, as_generator(seed)) for x in items])
        """
        hits = [f for f in findings_for(src) if f.rule == "parallel-safety"]
        assert hits and "integer seeds" in hits[0].message

    def test_integer_seeds_clean(self):
        src = """
            from repro.utils.rng import derive_seed
            def run(items, seed):
                return pool.map(worker, [(x, derive_seed(seed, x)) for x in items])
        """
        assert rules_hit(src) == set()

    def test_plain_map_builtin_clean(self):
        # builtins.map with a lambda never crosses a process boundary
        assert rules_hit("out = list(map(lambda x: x, items))\n") == set()

    def test_raw_process_pool_executor_flagged(self):
        src = """
            from concurrent.futures import ProcessPoolExecutor
            def run(worker, items):
                with ProcessPoolExecutor(max_workers=4) as ex:
                    return list(ex.map(worker, items))
        """
        hits = [f for f in findings_for(src) if f.rule == "parallel-safety"]
        assert hits and "execution fabric" in hits[0].message

    def test_dotted_process_pool_executor_flagged(self):
        src = """
            import concurrent.futures
            pool = concurrent.futures.ProcessPoolExecutor()
        """
        assert "parallel-safety" in rules_hit(src)

    def test_raw_multiprocessing_pool_flagged(self):
        src = """
            import multiprocessing as mp
            def run(worker, items):
                with mp.Pool(4) as pool:
                    return pool.map(worker, items)
        """
        assert "parallel-safety" in rules_hit(src)

    def test_bare_pool_import_flagged(self):
        src = """
            from multiprocessing import Pool
            p = Pool(2)
        """
        assert "parallel-safety" in rules_hit(src)

    def test_fabric_module_may_construct_pools(self):
        src = """
            from concurrent.futures import ProcessPoolExecutor
            executor = ProcessPoolExecutor(max_workers=2)
        """
        assert rules_hit(src, path="src/repro/utils/parallel.py") == set()

    def test_unrelated_pool_name_clean(self):
        # An object pool that is not multiprocessing's is fine.
        src = """
            from mylib.objects import Pool
            p = Pool(2)
        """
        assert rules_hit(src) == set()


class TestMutableState:
    def test_mutable_default_list_flagged(self):
        assert "mutable-state" in rules_hit("def f(x=[]):\n    return x\n")

    def test_mutable_default_dict_call_flagged(self):
        assert "mutable-state" in rules_hit("def f(x=dict()):\n    return x\n")

    def test_mutable_default_kwonly_flagged(self):
        assert "mutable-state" in rules_hit("def f(*, x={}):\n    return x\n")

    def test_none_default_clean(self):
        assert rules_hit("def f(x=None):\n    return x\n") == set()

    def test_tuple_default_clean(self):
        assert rules_hit("def f(x=()):\n    return x\n") == set()

    def test_param_mutation_in_hot_path_flagged(self):
        src = """
            def scatter(buf, idx, val):
                buf[idx] = val
        """
        assert "mutable-state" in rules_hit(src, path="src/repro/ce/kernel.py")

    def test_param_mutation_outside_hot_path_clean(self):
        src = """
            def scatter(buf, idx, val):
                buf[idx] = val
        """
        assert rules_hit(src, path="src/repro/stats/foo.py") == set()

    def test_inplace_docstring_contract_allows_mutation(self):
        src = '''
            def scatter(buf, idx, val):
                """In-place: writes val at idx."""
                buf[idx] = val
        '''
        assert rules_hit(src, path="src/repro/ce/kernel.py") == set()

    def test_out_param_convention_allows_mutation(self):
        src = """
            def scatter(idx, val, cost_out):
                cost_out[idx] = val
        """
        assert rules_hit(src, path="src/repro/ce/kernel.py") == set()

    def test_local_array_mutation_clean(self):
        src = """
            import numpy as np
            def build(n):
                buf = np.zeros(n)
                buf[0] = 1.0
                return buf
        """
        assert rules_hit(src, path="src/repro/ce/kernel.py") == set()

    def test_nested_helper_mutation_exempt(self):
        src = """
            def outer(n):
                def fill(buf):
                    buf[0] = 1
                data = [0]
                fill(data)
                return data
        """
        assert rules_hit(src, path="src/repro/ce/kernel.py") == set()


class TestKernelDiscipline:
    def test_numba_import_flagged(self):
        assert "kernel-discipline" in rules_hit("import numba\n")

    def test_numba_from_import_flagged(self):
        assert "kernel-discipline" in rules_hit("from numba import njit\n")

    def test_njit_decoration_flagged(self):
        src = """
            from numba import njit

            @njit(cache=True)
            def hot(x):
                return x + 1
        """
        findings = [f for f in findings_for(src) if f.rule == "kernel-discipline"]
        assert len(findings) == 2  # the import and the decoration

    def test_numba_attribute_decorator_flagged(self):
        src = """
            import numba

            @numba.njit
            def hot(x):
                return x + 1
        """
        findings = [f for f in findings_for(src) if f.rule == "kernel-discipline"]
        assert len(findings) == 2

    def test_ctypes_cdll_flagged(self):
        src = """
            import ctypes
            lib = ctypes.CDLL("libfoo.so")
        """
        assert "kernel-discipline" in rules_hit(src)

    def test_kernels_package_exempt(self):
        src = """
            from numba import njit
            import ctypes

            @njit(cache=True)
            def hot(x):
                return x + 1

            lib = ctypes.CDLL("libfoo.so")
        """
        assert rules_hit(src, path="src/repro/kernels/impl_cext.py") == set()

    def test_plain_ctypes_import_clean(self):
        # importing ctypes for struct layout is fine; only CDLL loads count
        src = """
            import ctypes
            n = ctypes.sizeof(ctypes.c_double)
        """
        assert "kernel-discipline" not in rules_hit(src)

    def test_cffi_import_flagged(self):
        assert "kernel-discipline" in rules_hit("import cffi\n")
        assert "kernel-discipline" in rules_hit("from cffi import FFI\n")

    def test_cython_and_cppyy_imports_flagged(self):
        assert "kernel-discipline" in rules_hit("from Cython.Build import cythonize\n")
        assert "kernel-discipline" in rules_hit("import pyximport\n")
        assert "kernel-discipline" in rules_hit("import cppyy\n")

    def test_windll_and_pydll_loads_flagged(self):
        src = """
            import ctypes
            a = ctypes.WinDLL("foo.dll")
            b = ctypes.PyDLL("bar.so")
            c = ctypes.cdll.LoadLibrary("baz.so")
        """
        findings = [f for f in findings_for(src) if f.rule == "kernel-discipline"]
        assert len(findings) == 3

    def test_numpy_ctypeslib_load_flagged(self):
        src = """
            import numpy
            lib = numpy.ctypeslib.load_library("kernels", ".")
        """
        assert "kernel-discipline" in rules_hit(src)

    def test_ffi_imports_exempt_in_kernels_package(self):
        src = """
            import cffi
            import cppyy
            from Cython.Build import cythonize
        """
        assert rules_hit(src, path="src/repro/kernels/impl_cffi.py") == set()


class TestEngineBasics:
    def test_syntax_error_reported_as_parse_error(self):
        findings = findings_for("def broken(:\n")
        assert [f.rule for f in findings] == ["parse-error"]

    def test_select_restricts_rules(self):
        src = """
            import random
            x = y == 0.5
        """
        assert rules_hit(src, select=["float-equality"]) == {"float-equality"}

    def test_unknown_rule_id_rejected(self):
        import pytest

        with pytest.raises(ValueError, match="unknown rule"):
            findings_for("x = 1\n", select=["no-such-rule"])

    def test_findings_sorted_and_located(self):
        src = """
            import random
            import time
            t = time.time()
        """
        findings = findings_for(src)
        assert findings == sorted(findings)
        assert all(f.path == LIB and f.line >= 1 for f in findings)


class TestRunDiscipline:
    BENCH = "benchmarks/bench_toy.py"
    EXP = "src/repro/experiments/toy.py"

    def test_json_dump_flagged_in_benchmarks(self):
        src = """
            import json
            def save(report, fh):
                json.dump(report, fh)
        """
        assert "run-discipline" in rules_hit(src, path=self.BENCH)

    def test_json_dumps_flagged_in_experiments(self):
        src = """
            import json
            def save(report):
                return json.dumps(report)
        """
        assert "run-discipline" in rules_hit(src, path=self.EXP)

    def test_open_for_write_flagged(self):
        src = """
            def save(path, text):
                with open(path, "w") as fh:
                    fh.write(text)
        """
        assert "run-discipline" in rules_hit(src, path=self.BENCH)

    def test_write_text_flagged(self):
        src = """
            from pathlib import Path
            def save(path, text):
                Path(path).write_text(text)
        """
        assert "run-discipline" in rules_hit(src, path=self.BENCH)

    def test_read_paths_stay_clean(self):
        src = """
            import json
            from pathlib import Path
            def load(path):
                with open(path) as fh:
                    return json.load(fh)
            def load2(path):
                return json.loads(Path(path).read_text())
        """
        assert "run-discipline" not in rules_hit(src, path=self.BENCH)

    def test_library_code_is_out_of_scope(self):
        # The run-store itself (and any non-experiment library layer) must
        # write files; the rule scopes to result-producing entry points.
        src = """
            import json
            def save(report, fh):
                json.dump(report, fh)
        """
        assert "run-discipline" not in rules_hit(src, path=LIB)

    def test_computed_mode_stays_quiet(self):
        src = """
            def save(path, mode):
                with open(path, mode) as fh:
                    fh.write("x")
        """
        assert "run-discipline" not in rules_hit(src, path=self.BENCH)
