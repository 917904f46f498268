"""Parameter smoothing — Eq. (13) of the paper.

``P_{k+1} = ζ Q_{k+1} + (1 - ζ) P_k`` where ``Q`` is the raw elite-count
update. Smoothing slows convergence, protecting the CE method against the
premature lock-in a coarse update can cause; the paper uses ``ζ = 0.3``.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ValidationError
from repro.types import ProbabilityMatrix

__all__ = ["smooth"]


def smooth(
    previous: ProbabilityMatrix, update: ProbabilityMatrix, zeta: float
) -> ProbabilityMatrix:
    """Eq. (13): convex combination of the old matrix and the raw update.

    Both inputs must share a shape; the result is row-stochastic whenever
    both inputs are (a convex combination of stochastic matrices).
    """
    P = np.asarray(previous, dtype=np.float64)
    Q = np.asarray(update, dtype=np.float64)
    if P.shape != Q.shape:
        raise ValidationError(f"shape mismatch: previous {P.shape} vs update {Q.shape}")
    if not 0.0 < zeta <= 1.0:
        raise ValidationError(f"zeta must be in (0, 1], got {zeta}")
    return zeta * Q + (1.0 - zeta) * P

