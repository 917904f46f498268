"""GenPerm — sampling valid one-to-one mappings from the stochastic matrix.

Fig. 4 of the paper: visit the tasks in a fresh random order; allocate each
task a resource drawn from its row of ``P`` restricted to the resources not
taken yet (zero the chosen column, renormalize the remaining rows). The
result is always a valid one-to-one mapping, i.e. a permutation when
``|V_t| = |V_r|``, while remaining faithful to the row distributions.

:func:`sample_permutations` runs the procedure for a whole batch of ``N``
samples through the process-active kernel backend
(:mod:`repro.kernels`): the masked roulette-wheel position loop §5.2
describes — batched row gathers, masked cumulative sums and inverse-CDF
draws — executes as compiled C when available and as the vectorized
numpy reference otherwise, both backends bit-identical. The
uniforms are pre-drawn *outside* the kernel (one block for the task
orders, one for the roulette draws), so the RNG stream position never
depends on the backend.

:func:`sample_permutations_stacked` lifts the same position loop to a
whole *stack* of stochastic matrices at once — ``R`` independent CE chains
advance through one flattened ``(R·N, n_res)`` view with per-chain row
gathers. Chain ``r`` of the stacked call is bit-identical to a standalone
:func:`sample_permutations` call fed the same uniforms. Every CE round
samples through the stacked form (:func:`repro.ce.multichain.ce_round`;
one chain is ``R = 1``); the single-matrix form remains the reference
the tests hold it to.
"""

from __future__ import annotations

import numpy as np

from repro import kernels
from repro.exceptions import ValidationError
from repro.types import AssignmentBatch, ProbabilityMatrix, SeedLike
from repro.utils.rng import as_generator

__all__ = [
    "sample_permutations",
    "sample_permutations_stacked",
    "genperm_exact_probabilities",
]


def _check_matrix(P: ProbabilityMatrix) -> np.ndarray:
    arr = np.asarray(P, dtype=np.float64)
    if arr.ndim != 2:
        raise ValidationError(f"P must be 2-D, got shape {arr.shape}")
    if arr.shape[0] > arr.shape[1]:
        raise ValidationError(
            f"one-to-one sampling needs n_tasks <= n_resources, got shape {arr.shape}"
        )
    if np.any(arr < 0):
        raise ValidationError("P has negative entries")
    return arr


def sample_permutations(
    P: ProbabilityMatrix,
    n_samples: int,
    rng: SeedLike = None,
    *,
    task_orders: np.ndarray | None = None,
) -> AssignmentBatch:
    """Batched GenPerm (Fig. 4): ``n_samples`` valid one-to-one mappings.

    Parameters
    ----------
    P:
        ``(n_tasks, n_resources)`` non-negative matrix (rows need not be
        exactly normalized; the masked renormalization handles it).
    n_samples:
        Batch size ``N``.
    rng:
        Seed or generator.
    task_orders:
        Optional ``(n_samples, n_tasks)`` permutation rows fixing the task
        visit order per sample (used by tests); default fresh random
        orders, one per sample, as in Fig. 4 step 1.

    Returns
    -------
    ``(n_samples, n_tasks)`` batch; each row has distinct resource values.

    Notes
    -----
    When the remaining (masked) row mass of a task vanishes — routine once
    ``P`` is nearly degenerate and the preferred resource is taken — the
    draw falls back to uniform over the unused resources, which matches
    the limit behaviour of renormalizing an all-zero row and keeps every
    sample valid.
    """
    arr = _check_matrix(P)
    if n_samples < 1:
        raise ValidationError(f"n_samples must be >= 1, got {n_samples}")
    n_tasks, n_res = arr.shape
    gen = as_generator(rng)

    if task_orders is None:
        # argsort of uniforms = independent uniform random permutations.
        task_orders = np.argsort(gen.random((n_samples, n_tasks)), axis=1)
    else:
        task_orders = np.asarray(task_orders, dtype=np.int64)
        if task_orders.shape != (n_samples, n_tasks):
            raise ValidationError(
                f"task_orders must have shape ({n_samples}, {n_tasks}), "
                f"got {task_orders.shape}"
            )

    # Drawing all position uniforms up front is stream-equivalent to the
    # per-position draws of the original loop (numpy fills C-contiguous
    # output row by row from the same bit stream).
    rand_pos = gen.random((n_tasks, n_samples))
    backend = kernels.get_backend()
    return backend.genperm(arr, None, task_orders, rand_pos, n_res)


def sample_permutations_stacked(
    P_stack: np.ndarray,
    rand_orders: np.ndarray,
    rand_pos: np.ndarray,
) -> np.ndarray:
    """Multi-chain GenPerm: one position loop over ``R`` stacked matrices.

    Parameters
    ----------
    P_stack:
        ``(R, n_tasks, n_res)`` stack of non-negative matrices, one per
        chain.
    rand_orders:
        ``(R, N, n_tasks)`` uniforms; per chain, ``argsort`` of each row
        fixes that sample's task visit order (Fig. 4 step 1).
    rand_pos:
        ``(R, n_tasks, N)`` uniforms driving the roulette draws; chain
        ``r``'s block must come from chain ``r``'s own generator for
        seed-for-seed equivalence with one-chain runs.

    Returns
    -------
    ``(R, N, n_tasks)`` batch; slice ``r`` is bit-identical to
    ``sample_permutations(P_stack[r], N, gen_r)`` when ``rand_orders[r]``
    and ``rand_pos[r]`` are ``gen_r.random((N, n_tasks))`` followed by
    ``gen_r.random((n_tasks, N))``.
    """
    P_stack = np.asarray(P_stack, dtype=np.float64)
    if P_stack.ndim != 3:
        raise ValidationError(f"P_stack must be 3-D, got shape {P_stack.shape}")
    R, n_tasks, n_res = P_stack.shape
    if n_tasks > n_res:
        raise ValidationError(
            f"one-to-one sampling needs n_tasks <= n_resources, got {P_stack.shape}"
        )
    if rand_orders.shape[0] != R or rand_orders.shape[2] != n_tasks:
        raise ValidationError(
            f"rand_orders must have shape ({R}, N, {n_tasks}), got {rand_orders.shape}"
        )
    N = rand_orders.shape[1]
    if rand_pos.shape != (R, n_tasks, N):
        raise ValidationError(
            f"rand_pos must have shape ({R}, {n_tasks}, {N}), got {rand_pos.shape}"
        )
    task_orders = np.argsort(rand_orders, axis=2).reshape(R * N, n_tasks)
    dist_offsets = np.repeat(np.arange(R, dtype=np.int64) * n_tasks, N)
    pos_u = rand_pos.transpose(1, 0, 2).reshape(n_tasks, R * N)
    P_rows = np.ascontiguousarray(P_stack.reshape(R * n_tasks, n_res))
    backend = kernels.get_backend()
    X = backend.genperm(P_rows, dist_offsets, task_orders, pos_u, n_res)
    return X.reshape(R, N, n_tasks)


def genperm_exact_probabilities(
    P: ProbabilityMatrix, *, max_n: int = 8
) -> dict[tuple[int, ...], float]:
    """Exact GenPerm output distribution for small square matrices.

    Enumerates every task visit order (Fig. 4 draws one uniformly) and,
    within each order, every branch of the masked roulette draws —
    including the uniform-over-unused fallback for exhausted rows — and
    accumulates each resulting permutation's probability. The values sum
    to one exactly (up to float error).

    Exponential in ``n`` (``n! × n!`` branches in the worst case), so
    guarded by ``max_n``; this is a *verification oracle* for the sampler,
    used by the test suite to statistically validate
    :func:`sample_permutations`, not a production path.
    """
    from itertools import permutations as _perms

    arr = _check_matrix(P)
    n_tasks, n_res = arr.shape
    if n_tasks != n_res:
        raise ValidationError("exact enumeration supports square matrices only")
    n = n_tasks
    if n > max_n:
        raise ValidationError(f"exact enumeration limited to n <= {max_n}, got {n}")

    out: dict[tuple[int, ...], float] = {}
    orders = list(_perms(range(n)))
    order_p = 1.0 / len(orders)

    def walk(order: tuple[int, ...], pos: int, used: int,
             assignment: list[int], prob: float) -> None:
        if pos == n:
            key = tuple(assignment)
            out[key] = out.get(key, 0.0) + prob
            return
        task = order[pos]
        row = arr[task]
        free = [j for j in range(n) if not (used >> j) & 1]
        mass = float(sum(row[j] for j in free))
        for j in free:
            p_j = (row[j] / mass) if mass > 0 else 1.0 / len(free)
            if p_j <= 0:
                continue
            assignment[task] = j
            walk(order, pos + 1, used | (1 << j), assignment, prob * p_j)
        assignment[task] = -1

    for order in orders:
        walk(order, 0, 0, [-1] * n, order_p)
    return out
