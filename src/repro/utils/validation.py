"""Argument-validation helpers raising :class:`~repro.exceptions.ValidationError`.

These helpers concentrate the library's precondition checks so that error
messages are uniform and the hot paths can call a single well-tested
function instead of re-implementing checks ad hoc.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.exceptions import ValidationError

__all__ = [
    "check_positive",
    "check_in_range",
    "check_probability",
    "check_probability_matrix",
    "is_row_stochastic",
    "check_permutation",
    "is_permutation",
]


def check_positive(name: str, value: float, *, strict: bool = True) -> float:
    """Validate that ``value`` is positive (``> 0``, or ``>= 0`` if not strict)."""
    if not np.isfinite(value):
        raise ValidationError(f"{name} must be finite, got {value!r}")
    if strict and value <= 0:
        raise ValidationError(f"{name} must be > 0, got {value!r}")
    if not strict and value < 0:
        raise ValidationError(f"{name} must be >= 0, got {value!r}")
    return value


def check_in_range(
    name: str,
    value: float,
    lo: float,
    hi: float,
    *,
    inclusive: tuple[bool, bool] = (True, True),
) -> float:
    """Validate ``lo <?= value <?= hi`` with configurable endpoint inclusivity."""
    lo_ok = value >= lo if inclusive[0] else value > lo
    hi_ok = value <= hi if inclusive[1] else value < hi
    if not (np.isfinite(value) and lo_ok and hi_ok):
        lo_b = "[" if inclusive[0] else "("
        hi_b = "]" if inclusive[1] else ")"
        raise ValidationError(f"{name} must be in {lo_b}{lo}, {hi}{hi_b}, got {value!r}")
    return value


def check_probability(name: str, value: float) -> float:
    """Validate that ``value`` is a probability in ``[0, 1]``."""
    return check_in_range(name, value, 0.0, 1.0)


def is_row_stochastic(matrix: np.ndarray) -> bool:
    """Whether every entry is a probability and every row sums to 1 within
    1e-9: the one rule for a CE matrix from outside the engine (a checkpoint,
    a gossip frame, a constructor argument). A NaN entry fails it."""
    in_range = np.all((matrix >= 0) & (matrix <= 1))
    return bool(in_range and np.allclose(matrix.sum(axis=1), 1.0, rtol=0, atol=1e-9))


def check_probability_matrix(matrix: Any) -> np.ndarray:
    """Validate a 2-D, non-empty row-stochastic matrix
    (:func:`is_row_stochastic`) and return it as ``float64``."""
    arr = np.asarray(matrix, dtype=np.float64)
    if arr.ndim != 2:
        raise ValidationError(f"probability matrix must be 2-D, got shape {arr.shape}")
    if arr.size == 0:
        raise ValidationError("probability matrix must be non-empty")
    if not is_row_stochastic(arr):
        raise ValidationError(
            "probability matrix needs entries in [0, 1] (no NaN, no negative) and rows that sum to 1"
        )
    return arr


def is_permutation(x: Any, n: int | None = None) -> bool:
    """True iff ``x`` is a permutation of ``0..len(x)-1`` (and of length ``n``)."""
    arr = np.asarray(x)
    if arr.ndim != 1:
        return False
    if n is not None and arr.shape[0] != n:
        return False
    m = arr.shape[0]
    if m == 0:
        return n in (None, 0)
    if not np.issubdtype(arr.dtype, np.integer):
        if not np.all(arr == np.floor(arr)):
            return False
        arr = arr.astype(np.int64)
    if arr.min() != 0 or arr.max() != m - 1:
        return False
    seen = np.zeros(m, dtype=bool)
    seen[arr] = True
    return bool(seen.all())


def check_permutation(name: str, x: Any, n: int | None = None) -> np.ndarray:
    """Validate that ``x`` is a permutation vector; return it as ``int64``."""
    if not is_permutation(x, n):
        raise ValidationError(
            f"{name} must be a permutation of 0..{(n or len(np.atleast_1d(x))) - 1}, got {x!r}"
        )
    return np.asarray(x, dtype=np.int64)
