"""Problem packing: layout and dtypes."""

from __future__ import annotations

import numpy as np

from repro.kernels import build_pack

from tests.kernels.conftest import make_problem


class TestBuildPack:
    def test_fields_and_dtypes(self):
        problem = make_problem(12, 777)
        pack = build_pack(problem)
        assert pack.n_tasks == problem.n_tasks
        assert pack.n_resources == problem.n_resources
        for arr, dtype in (
            (pack.task_weights, np.float64),
            (pack.proc_weights, np.float64),
            (pack.comm, np.float64),
            (pack.edge_vol, np.float64),
            (pack.eu, np.int64),
            (pack.ev, np.int64),
        ):
            assert arr.dtype == dtype
            assert arr.flags["C_CONTIGUOUS"]

    def test_comm_flat_is_row_major_view(self):
        pack = build_pack(make_problem(8, 5))
        n_r = pack.n_resources
        for s in range(n_r):
            for b in range(n_r):
                assert pack.comm_flat[s * n_r + b] == pack.comm[s, b]
