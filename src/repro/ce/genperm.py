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
depends on the backend. The kernel takes them raw: a sample's visit
order is the stable argsort of its order uniforms, ties in index order.

:func:`sample_permutations_stacked` lifts the same position loop to a
whole *stack* of stochastic matrices at once — ``R`` independent CE chains
advance through one flattened ``(R·N, n_res)`` view with per-chain row
gathers. Every CE round samples through the stacked form
(:func:`repro.ce.multichain.ce_round`); :func:`sample_permutations` is
its one-chain call (``R = 1``) that draws its own uniforms.
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
    P: ProbabilityMatrix, n_samples: int, rng: SeedLike = None
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
        Seed or generator. It draws ``(N, n_tasks)`` order uniforms, then
        ``(n_tasks, N)`` roulette uniforms: one chain of
        :func:`sample_permutations_stacked`.

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
    n_tasks = arr.shape[0]
    gen = as_generator(rng)
    rand_orders = gen.random((1, n_samples, n_tasks))
    rand_pos = gen.random((1, n_tasks, n_samples))
    return sample_permutations_stacked(arr[np.newaxis], rand_orders, rand_pos)[0]


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
        ``(R, N, n_tasks)`` uniforms; the stable argsort of each row (ties
        in index order) fixes that sample's task visit order (Fig. 4
        step 1).
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

    The three arrays go to the backend as drawn: each kernel sorts the
    visit orders and finds every sample's chain itself.
    """
    P_stack = np.asarray(P_stack, dtype=np.float64)
    if P_stack.ndim != 3:
        raise ValidationError(f"P_stack must be 3-D, got shape {P_stack.shape}")
    R, n_tasks, n_res = P_stack.shape
    if n_tasks > n_res:
        raise ValidationError(
            f"one-to-one sampling needs n_tasks <= n_resources, got {P_stack.shape}"
        )
    if rand_orders.ndim != 3 or rand_orders.shape[0] != R or rand_orders.shape[2] != n_tasks:
        raise ValidationError(
            f"rand_orders must have shape ({R}, N, {n_tasks}), got {rand_orders.shape}"
        )
    N = rand_orders.shape[1]
    if rand_pos.shape != (R, n_tasks, N):
        raise ValidationError(
            f"rand_pos must have shape ({R}, {n_tasks}, {N}), got {rand_pos.shape}"
        )
    return kernels.get_backend().genperm(P_stack, rand_orders, rand_pos)


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
