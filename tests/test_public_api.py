"""Public API surface tests: the top-level package contract.

Downstream users import from ``repro`` directly; these tests pin that
surface (the README quickstart, `__all__` integrity, docstring presence on
every public item) so refactors cannot silently break it.
"""

from __future__ import annotations

import importlib
import inspect

import pytest

import repro


class TestTopLevelSurface:
    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), f"repro.__all__ lists missing name {name!r}"

    def test_version_string(self):
        parts = repro.__version__.split(".")
        assert len(parts) == 3 and all(p.isdigit() for p in parts)

    def test_readme_quickstart_executes(self):
        """The exact quickstart from the README / package docstring."""
        from repro import MappingProblem, MatchMapper, generate_paper_pair

        pair = generate_paper_pair(8, 42)
        problem = MappingProblem(pair.tig, pair.resources, require_square=True)
        result = MatchMapper().map(problem, 42)
        assert result.execution_time > 0

    def test_public_callables_documented(self):
        undocumented = [
            name
            for name in repro.__all__
            if name != "__version__"
            and callable(getattr(repro, name))
            and not (getattr(repro, name).__doc__ or "").strip()
        ]
        assert not undocumented, f"undocumented public API: {undocumented}"


SUBPACKAGES = [
    "repro.graphs",
    "repro.overset",
    "repro.mapping",
    "repro.ce",
    "repro.core",
    "repro.baselines",
    "repro.stats",
    "repro.experiments",
    "repro.runtime",
    "repro.islands",
    "repro.utils",
]


@pytest.mark.parametrize("pkg_name", SUBPACKAGES)
class TestSubpackageSurfaces:
    def test_all_resolves(self, pkg_name):
        pkg = importlib.import_module(pkg_name)
        assert hasattr(pkg, "__all__"), f"{pkg_name} has no __all__"
        for name in pkg.__all__:
            assert hasattr(pkg, name), f"{pkg_name}.__all__ lists missing {name!r}"

    def test_module_docstring(self, pkg_name):
        pkg = importlib.import_module(pkg_name)
        assert (pkg.__doc__ or "").strip(), f"{pkg_name} lacks a module docstring"

    def test_public_classes_documented(self, pkg_name):
        pkg = importlib.import_module(pkg_name)
        undocumented = []
        for name in getattr(pkg, "__all__", []):
            obj = getattr(pkg, name)
            if inspect.isclass(obj) and not (obj.__doc__ or "").strip():
                undocumented.append(f"{pkg_name}.{name}")
        assert not undocumented, f"undocumented classes: {undocumented}"


class TestExceptionHierarchy:
    def test_all_derive_from_repro_error(self):
        from repro import exceptions

        for name in exceptions.__dict__:
            obj = getattr(exceptions, name)
            if inspect.isclass(obj) and issubclass(obj, Exception) and obj.__module__ == "repro.exceptions":
                if obj is not exceptions.ReproError:
                    assert issubclass(obj, exceptions.ReproError), name

    def test_value_error_compat(self):
        from repro import ConfigurationError, ValidationError

        assert issubclass(ValidationError, ValueError)
        assert issubclass(ConfigurationError, ValueError)
