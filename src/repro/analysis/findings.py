"""Finding value objects produced by the determinism linter.

A :class:`Finding` pinpoints one violation of the reproducibility contract
(see ``DESIGN.md`` § Determinism contract): rule id, location, message and
the offending source line. Findings are ordered by location so reports are
stable across runs and platforms — the linter itself must be deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["Finding"]


@dataclass(frozen=True, order=True)
class Finding:
    """One linter violation at a specific source location."""

    path: str
    line: int
    col: int
    rule: str
    message: str
    snippet: str = field(default="", compare=False)
    #: Call chain from the analysis root to the violating function, for
    #: interprocedural (flow) findings; empty for per-file findings.
    trace: tuple[str, ...] = field(default=(), compare=False)

    def __post_init__(self) -> None:
        if self.line < 1:
            raise ValueError(f"line numbers are 1-based, got {self.line}")

    def location(self) -> str:
        """``path:line:col`` string for reports."""
        return f"{self.path}:{self.line}:{self.col}"

    def to_dict(self) -> dict[str, object]:
        """JSON-ready representation (used by ``--format json``)."""
        payload: dict[str, object] = {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "snippet": self.snippet,
        }
        if self.trace:
            payload["trace"] = list(self.trace)
        return payload
