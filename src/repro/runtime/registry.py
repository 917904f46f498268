"""The solver registry: heuristics as named, parameterized entries.

A solver is a **name** (``"match"``, ``"fastmap-ga"``)
plus a **params dict** forwarded to the mapper's constructor, in one flat
namespace. :class:`SolverSpec` packages the pair as a picklable value
object: it is how the experiments runner and the service name a
heuristic, and how their cells cross process-pool boundaries.

Built-in solvers register lazily on first lookup
(:func:`ensure_default_solvers`) — the registry must not import
``repro.baselines`` at module scope because ``baselines.base`` imports
``repro.runtime``. Third-party heuristics join with
:func:`register_solver` and immediately work everywhere a name does:
``create_mapper``, the experiments runner, checkpoints, and the CLI.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable

from repro.exceptions import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.baselines.base import Mapper

__all__ = ["SolverSpec", "register_solver", "create_mapper", "solver_names"]

#: name -> factory taking keyword params and returning a fresh Mapper.
_REGISTRY: dict[str, Callable[..., "Mapper"]] = {}
_defaults_registered = False


def register_solver(
    name: str, factory: Callable[..., "Mapper"], *, overwrite: bool = False
) -> None:
    """Register ``factory`` under ``name`` (lowercase, stable across runs).

    ``factory(**params)`` must return a fresh, independent mapper each
    call. Registering an existing name raises unless ``overwrite=True``.
    """
    if not name or name != name.lower():
        raise ConfigurationError(f"solver names must be non-empty lowercase, got {name!r}")
    if not overwrite and name in _REGISTRY:
        raise ConfigurationError(f"solver {name!r} is already registered")
    _REGISTRY[name] = factory


def create_mapper(name: str, params: dict[str, Any] | None = None) -> "Mapper":
    """Build a fresh mapper for registry entry ``name`` with ``params``."""
    ensure_default_solvers()
    try:
        factory = _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise ConfigurationError(
            f"unknown solver {name!r}; registered solvers: {known}"
        ) from None
    return factory(**(params or {}))


def solver_names() -> list[str]:
    """Sorted names of every registered solver."""
    ensure_default_solvers()
    return sorted(_REGISTRY)


@dataclass(frozen=True)
class SolverSpec:
    """A picklable ``(name, params)`` handle for one solver configuration.

    ``params`` is stored as a sorted tuple of pairs so specs hash, compare
    and pickle by value — they are dict keys in the experiments runner and
    travel to process-pool workers.
    """

    name: str
    params: tuple[tuple[str, Any], ...] = field(default=())

    @classmethod
    def of(cls, name: str, params: dict[str, Any] | None = None) -> "SolverSpec":
        """Build a spec from a params dict (canonicalized by key order)."""
        return cls(name, tuple(sorted((params or {}).items())))

    def params_dict(self) -> dict[str, Any]:
        """The params as a plain dict (constructor keyword arguments)."""
        return dict(self.params)

    def build(self) -> "Mapper":
        """Instantiate a fresh mapper for this spec."""
        return create_mapper(self.name, self.params_dict())

    def __str__(self) -> str:
        inner = ", ".join(f"{k}={v!r}" for k, v in self.params)
        return f"{self.name}({inner})"


# -- built-in solvers --------------------------------------------------------


def _make_match(**params: Any) -> "Mapper":
    from repro.core.config import MatchConfig
    from repro.core.match import MatchMapper

    return MatchMapper(MatchConfig(**params))


def _make_fastmap_ga(**params: Any) -> "Mapper":
    from repro.baselines.ga import FastMapGA, GAConfig

    return FastMapGA(GAConfig(**params))


def ensure_default_solvers() -> None:
    """Register the built-in heuristics (idempotent, lazily invoked)."""
    global _defaults_registered
    if _defaults_registered:
        return
    _defaults_registered = True
    for name, factory in (
        ("match", _make_match),
        ("fastmap-ga", _make_fastmap_ga),
    ):
        register_solver(name, factory, overwrite=True)
