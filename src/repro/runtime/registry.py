"""The solver table: heuristics as named, parameterized entries.

A solver is a **name** (``"match"``, ``"fastmap-ga"``) plus a **params
dict** forwarded to the constructor of the mapper's config, in one flat
namespace. The names form a closed table; :class:`SolverSpec` packages
the pair as a picklable value object: it is how the experiments runner,
checkpoints, the CLI and the service name a heuristic, and how their
cells cross process-pool boundaries.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable

from repro.exceptions import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.baselines.base import Mapper

__all__ = ["SolverSpec", "create_mapper", "solver_names"]


def _solver_table() -> dict[str, tuple[Callable[[Any], "Mapper"], Callable[..., Any]]]:
    """``name -> (mapper class, config class)`` for every solver.

    Imported on call because ``repro.baselines`` imports ``repro.runtime``.
    """
    from repro.baselines.ga import FastMapGA, GAConfig
    from repro.core.config import MatchConfig
    from repro.core.match import MatchMapper

    return {"match": (MatchMapper, MatchConfig), "fastmap-ga": (FastMapGA, GAConfig)}


def create_mapper(name: str, params: dict[str, Any] | None = None) -> "Mapper":
    """Build a fresh mapper for solver ``name`` with config ``params``."""
    table = _solver_table()
    try:
        mapper_class, config_class = table[name]
    except KeyError:
        known = ", ".join(sorted(table))
        raise ConfigurationError(
            f"unknown solver {name!r}; registered solvers: {known}"
        ) from None
    return mapper_class(config_class(**(params or {})))


def solver_names() -> list[str]:
    """Sorted names of every solver."""
    return sorted(_solver_table())


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
