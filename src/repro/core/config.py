"""MaTCH configuration (Fig. 5 / §5.2 defaults).

The paper's settings: sample size ``N = 2·|V_r|²`` (one row of rationale:
the matrix has ``|V_r|²`` entries and each needs samples of that order),
focus parameter ``0.01 ≤ ρ ≤ 0.1``, smoothing ``ζ = 0.3``, stopping window
``c = 5`` (Eq. (12)).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.ce.optimizer import CEConfig
from repro.exceptions import ConfigurationError
from repro.utils.validation import check_in_range

__all__ = ["MatchConfig", "paper_sample_size"]


def paper_sample_size(n_resources: int) -> int:
    """The paper's rule ``N = 2 · |V_r|²``."""
    if n_resources < 1:
        raise ConfigurationError(f"n_resources must be >= 1, got {n_resources}")
    return 2 * n_resources * n_resources


@dataclass(frozen=True)
class MatchConfig:
    """Hyper-parameters of one MaTCH run.

    Attributes
    ----------
    rho:
        Focus parameter (elite fraction). Paper: 0.01-0.1, default 0.05.
    zeta:
        Eq. (13) smoothing factor. Paper: 0.3.
    n_samples:
        Samples per iteration; ``None`` applies the paper rule ``2·n_r²``.
    stability_window:
        ``c`` of Eq. (12). Paper: 5.
    stability_tol / gamma_window / elite_mode / max_iterations:
        Practical convergence knobs forwarded to the CE engine; see
        :class:`repro.ce.optimizer.CEConfig`.
    track_matrices / matrix_snapshot_every:
        Record stochastic-matrix snapshots (Fig. 3 reproduction).
    """

    rho: float = 0.05
    zeta: float = 0.3
    n_samples: int | None = None
    stability_window: int = 5
    stability_tol: float = 1e-6
    gamma_window: int = 12
    elite_mode: str = "exact_k"
    max_iterations: int = 500
    track_matrices: bool = False
    matrix_snapshot_every: int = 1

    def __post_init__(self) -> None:
        check_in_range("rho", self.rho, 0.0, 1.0, inclusive=(False, False))
        check_in_range("zeta", self.zeta, 0.0, 1.0, inclusive=(False, True))
        if self.n_samples is not None and self.n_samples < 2:
            raise ConfigurationError(f"n_samples must be >= 2, got {self.n_samples}")

    def ce_config(self, n_resources: int) -> CEConfig:
        """Materialize the CE engine config for a problem of ``n_resources``."""
        n = self.n_samples if self.n_samples is not None else paper_sample_size(n_resources)
        return CEConfig(
            n_samples=n,
            rho=self.rho,
            zeta=self.zeta,
            stability_window=self.stability_window,
            stability_tol=self.stability_tol,
            gamma_window=self.gamma_window,
            elite_mode=self.elite_mode,
            max_iterations=self.max_iterations,
            track_matrices=self.track_matrices,
            matrix_snapshot_every=self.matrix_snapshot_every,
        )
