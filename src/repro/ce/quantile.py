"""Elite selection: the sample ``(1-ρ)``-quantile step of the CE method.

For a *minimization* problem the CE method keeps the best ``ρ`` fraction of
the N sampled solutions: the threshold ``γ`` is the ``⌈ρN⌉``-th smallest
cost and the elite set is ``{k : S(X_k) ≤ γ}``.

Note (DESIGN.md §3.1): the paper's Fig. 5 pseudo-code sorts costs
*descending* and indexes ``s_{⌊ρN⌋}``, which read literally would keep
nearly all samples. We follow the de Boer et al. tutorial convention the
paper builds on, which is the only reading under which the method
converges.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ValidationError
from repro.types import CostVector
from repro.utils.validation import check_in_range

__all__ = ["elite_threshold", "elite_mask", "select_elites", "select_top_k"]


def elite_threshold(costs: CostVector, rho: float) -> float:
    """The elite cost threshold ``γ``: the ``⌈ρN⌉``-th smallest cost.

    ``rho`` is the paper's *focus parameter* (0.01 ≤ ρ ≤ 0.1 in §4); at
    least one sample is always kept.
    """
    c = np.asarray(costs, dtype=np.float64)
    if c.ndim != 1 or c.size == 0:
        raise ValidationError(f"costs must be a non-empty 1-D array, got shape {c.shape}")
    if np.any(np.isnan(c)):
        raise ValidationError("costs contain NaN")
    check_in_range("rho", rho, 0.0, 1.0, inclusive=(False, True))
    k = max(1, int(np.ceil(rho * c.size)))
    # k-th smallest via partial sort.
    return float(np.partition(c, k - 1)[k - 1])


def elite_mask(costs: CostVector, gamma: float) -> np.ndarray:
    """Boolean mask of samples at or below the threshold ``γ``."""
    c = np.asarray(costs, dtype=np.float64)
    return c <= gamma


def select_elites(costs: CostVector, rho: float) -> tuple[float, np.ndarray]:
    """Convenience: ``(γ, elite_index_array)`` for one CE iteration.

    With heavily tied costs (common once the matrix is nearly degenerate)
    the ``≤ γ`` rule may keep more than ``⌈ρN⌉`` samples; that is the
    standard CE behaviour and keeps the update well-defined under ties.
    """
    gamma = elite_threshold(costs, rho)
    idx = np.flatnonzero(elite_mask(costs, gamma))
    return gamma, idx


def select_top_k(costs: CostVector, rho: float) -> tuple[float, np.ndarray]:
    """Exact-size elite selection: the ``⌈ρN⌉`` *best* samples, ties cut.

    Returns ``(γ, elite_index_array)`` with exactly ``⌈ρN⌉`` indices.
    Cutting ties keeps the elite set from being flooded by cost-plateau
    duplicates late in a run (which stalls matrix degeneration). This is
    the reference for the exact-k selection the CE engine runs inline, one
    row-wise ``argpartition`` over every chain in
    :func:`repro.ce.multichain.ce_round`; no production path calls it.
    :func:`select_elites` offers the tie-inclusive textbook rule.
    """
    c = np.asarray(costs, dtype=np.float64)
    if c.ndim != 1 or c.size == 0:
        raise ValidationError(f"costs must be a non-empty 1-D array, got shape {c.shape}")
    if np.any(np.isnan(c)):
        raise ValidationError("costs contain NaN")
    check_in_range("rho", rho, 0.0, 1.0, inclusive=(False, True))
    k = max(1, int(np.ceil(rho * c.size)))
    idx = np.argpartition(c, k - 1)[:k]
    gamma = float(c[idx].max())
    return gamma, idx
