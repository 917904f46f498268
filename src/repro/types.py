"""Shared type aliases used across the :mod:`repro` library.

The library passes around a small set of recurring shapes:

* an *assignment vector* — an integer array ``x`` of length ``n_tasks``
  where ``x[t]`` is the resource index task ``t`` is mapped to;
* a *batch* of assignment vectors — an ``(N, n_tasks)`` integer array;
* a *stochastic matrix* — an ``(n_tasks, n_resources)`` float array whose
  rows sum to one;
* a *cost vector* — float array of per-sample objective values.

Centralising the aliases keeps signatures short and greppable.
"""

from __future__ import annotations

from typing import Any, Callable, Union

import numpy as np
import numpy.typing as npt

#: Integer assignment vector of shape ``(n_tasks,)``.
AssignmentVector = npt.NDArray[np.int64]

#: Batch of assignment vectors, shape ``(N, n_tasks)``.
AssignmentBatch = npt.NDArray[np.int64]

#: Row-stochastic probability matrix, shape ``(n_tasks, n_resources)``.
ProbabilityMatrix = npt.NDArray[np.float64]

#: Objective values for a batch of samples, shape ``(N,)``.
CostVector = npt.NDArray[np.float64]

#: Anything acceptable as a seed for :func:`numpy.random.default_rng`.
SeedLike = Union[None, int, np.random.SeedSequence, np.random.Generator]

#: A scalar objective function over a single assignment vector.
ObjectiveFn = Callable[[AssignmentVector], float]

#: A vectorized objective over a batch, returning one cost per row.
BatchObjectiveFn = Callable[[AssignmentBatch], CostVector]


def as_assignment(x: Any) -> AssignmentVector:
    """Coerce ``x`` to a 1-D ``int64`` assignment vector (copying if needed)."""
    arr = np.asarray(x, dtype=np.int64)
    if arr.ndim != 1:
        raise ValueError(f"assignment must be 1-D, got shape {arr.shape}")
    return arr


def as_assignment_batch(x: Any) -> AssignmentBatch:
    """Coerce ``x`` to a 2-D ``int64`` batch; a single vector becomes one row."""
    arr = np.asarray(x, dtype=np.int64)
    if arr.ndim == 1:
        arr = arr[np.newaxis, :]
    if arr.ndim != 2:
        raise ValueError(f"assignment batch must be 2-D, got shape {arr.shape}")
    return arr
