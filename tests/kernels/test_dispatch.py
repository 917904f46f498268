"""Backend selection: env resolution, overrides, and graceful degradation."""

from __future__ import annotations

import numpy as np
import pytest

from repro import kernels
from repro.exceptions import ConfigurationError

from tests.kernels.conftest import AVAILABLE, make_problem, random_batch


@pytest.fixture
def clean_dispatch():
    """Fresh memo tables before and after, so fakes cannot leak."""
    kernels.reset_kernel_state()
    yield
    kernels.reset_kernel_state()


def _break_cext(monkeypatch, tmp_path):
    # A bogus compiler plus an empty cache directory: no .so can be found
    # or built, so the cext load must fail cleanly.
    monkeypatch.setenv("REPRO_CC", str(tmp_path / "no-such-cc"))
    monkeypatch.setenv("REPRO_KERNEL_CACHE", str(tmp_path / "cache"))


class TestResolution:
    def test_numpy_always_available(self):
        assert "numpy" in AVAILABLE

    def test_env_selects_numpy(self, clean_dispatch, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL", "numpy")
        backend = kernels.get_backend()
        assert backend.name == "numpy" and not backend.compiled

    def test_unknown_choice_rejected(self, clean_dispatch, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL", "fortran")
        with pytest.raises(ConfigurationError, match="unknown kernel backend"):
            kernels.get_backend()

    def test_removed_numba_choice_rejected(self, clean_dispatch, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL", "numba")
        with pytest.raises(ConfigurationError, match="unknown kernel backend"):
            kernels.get_backend()

    def test_explicit_unavailable_backend_raises(self, clean_dispatch, monkeypatch, tmp_path):
        _break_cext(monkeypatch, tmp_path)
        monkeypatch.setenv("REPRO_KERNEL", "cext")
        with pytest.raises(ConfigurationError, match="no-such-cc"):
            kernels.get_backend()

    def test_load_error_reports_reason(self, clean_dispatch, monkeypatch, tmp_path):
        _break_cext(monkeypatch, tmp_path)
        assert kernels.available_backends()["cext"] is False
        assert "no-such-cc" in kernels.load_error("cext")


class TestGracefulDegradation:
    def test_auto_falls_back_to_numpy(self, clean_dispatch, monkeypatch, tmp_path):
        # No working C compiler: auto must silently give numpy (degraded
        # speed, identical numbers), never raise.
        _break_cext(monkeypatch, tmp_path)
        monkeypatch.setenv("REPRO_KERNEL", "auto")
        backend = kernels.get_backend()
        assert backend.name == "numpy"
        problem = make_problem(6, 1)
        from repro.mapping import CostModel

        model = CostModel(problem)
        assert model.kernel_name == "numpy"
        X = random_batch(problem, 8, 2)
        assert np.isfinite(model.evaluate_batch(X)).all()

    def test_auto_skips_broken_cext(self, clean_dispatch, monkeypatch, tmp_path):
        _break_cext(monkeypatch, tmp_path)
        availability = kernels.available_backends()
        assert availability["cext"] is False
        assert availability["numpy"] is True


class TestOverrides:
    @pytest.mark.parametrize("name", AVAILABLE)
    def test_set_backend_pins_and_reverts(self, clean_dispatch, name):
        pinned = kernels.set_backend(name)
        try:
            assert pinned.name == name
            assert kernels.get_backend() is pinned
        finally:
            kernels.set_backend(None)

    def test_use_backend_restores_previous(self, clean_dispatch):
        outer = kernels.set_backend("numpy")
        try:
            with kernels.use_backend(AVAILABLE[-1]):
                pass
            assert kernels.get_backend() is outer
        finally:
            kernels.set_backend(None)

    def test_cost_model_resolves_at_construction(self, clean_dispatch):
        # A live model keeps its backend even if the override changes.
        from repro.mapping import CostModel

        problem = make_problem(6, 4)
        with kernels.use_backend("numpy"):
            model = CostModel(problem)
        assert model.kernel_name == "numpy"


@pytest.mark.skipif("cext" not in AVAILABLE, reason="needs a C compiler")
class TestBuildCache:
    def test_flags_are_part_of_the_cache_key(self, monkeypatch, tmp_path):
        # Same source, two flag tuples: two objects, never a stale reuse.
        from repro.kernels import impl_cext

        monkeypatch.setenv("REPRO_KERNEL_CACHE", str(tmp_path))
        first = impl_cext._shared_object()
        monkeypatch.setattr(impl_cext, "_CFLAGS", (*impl_cext._CFLAGS, "-DREPRO_FLAG_PROBE"))
        second = impl_cext._shared_object()
        assert first != second
        assert first.exists() and second.exists()

    def test_compiler_is_part_of_the_cache_key(self):
        from repro.kernels import impl_cext

        source, flags = b"int x;", impl_cext._CFLAGS
        assert impl_cext._build_digest(source, flags, "/usr/bin/cc-a") != (
            impl_cext._build_digest(source, flags, "/usr/bin/cc-b")
        )
