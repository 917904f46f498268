"""Genetic operators of FastMap-GA (§5.1, Fig. 6) — vectorized.

The paper's GA uses *permutation encoding*: a chromosome is a bijective
assignment between TIG nodes and resource nodes. We store it as the
assignment vector ``x[t] = resource of task t`` (the transpose of the
paper's "indexed by resource" drawing — the operators are equivalent under
relabelling and this orientation feeds the cost model directly).

Operators, all batched over a ``(pop, n)`` population array:

* :func:`roulette_select` — fitness-proportional parent choice on
  ``Ψ = K / Exec`` (§5.1);
* :func:`single_point_crossover` — Fig. 6(a): the child takes the first
  half of parent 1; second-half genes come from parent 2, and any gene that
  would duplicate is replaced *in order* by an unused gene from parent 2's
  first half (the paper's repair rule, which provably restores a
  permutation — see the counting argument in the function docstring);
* :func:`swap_mutation` — Fig. 6(b): each gene mutates with probability
  ``p_m`` by exchanging its value with a uniformly random position (the
  only duplicate-free single-gene mutation on permutations).
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ValidationError
from repro.types import SeedLike
from repro.utils.rng import as_generator

__all__ = ["roulette_select", "single_point_crossover", "swap_mutation", "fitness"]


def fitness(costs: np.ndarray, *, k_const: float | None = None) -> np.ndarray:
    """§5.1 fitness ``Ψ = K / Exec`` (higher is better).

    ``K`` defaults to the mean cost so fitness values are O(1) regardless
    of problem scale; any positive constant yields identical selection
    probabilities (roulette normalizes). Costs near float64's limit
    overflow the mean's sum; those take ``K = min cost`` instead, so every
    fitness lies in ``(0, 1]`` and their sum stays finite.
    """
    c = np.asarray(costs, dtype=np.float64)
    if np.any(c <= 0):
        raise ValidationError("costs must be strictly positive for reciprocal fitness")
    if k_const is None:
        with np.errstate(over="ignore"):
            k = float(c.mean())
        if not np.isfinite(k):
            k = float(c.min())
    else:
        k = k_const
    if k <= 0:
        raise ValidationError(f"k_const must be > 0, got {k_const}")
    return k / c


def roulette_select(
    fitness_values: np.ndarray, n_pairs: int, rng: SeedLike = None
) -> tuple[np.ndarray, np.ndarray]:
    """Fitness-proportional sampling of ``n_pairs`` parent index pairs."""
    f = np.asarray(fitness_values, dtype=np.float64)
    if f.ndim != 1 or f.size == 0:
        raise ValidationError("fitness_values must be a non-empty 1-D array")
    if np.any(f < 0) or f.sum() <= 0:
        raise ValidationError("fitness values must be non-negative with positive sum")
    gen = as_generator(rng)
    probs = f / f.sum()
    picks = gen.choice(f.size, size=(n_pairs, 2), p=probs)
    return picks[:, 0], picks[:, 1]


def single_point_crossover(
    parents1: np.ndarray,
    parents2: np.ndarray,
    rng: SeedLike = None,
    *,
    p_crossover: float = 0.85,
) -> np.ndarray:
    """Fig. 6(a) crossover with duplicate repair, batched.

    With probability ``p_crossover`` each child is built as::

        child[:h]  = parent1[:h]                  (h = n // 2)
        child[h:]  = parent2[h:], where duplicated genes are replaced,
                     in order, by parent2[:h] genes unused so far

    otherwise the child is a copy of parent 1.

    Why the repair pool always suffices: let ``S = set(parent1[:h])``
    (``|S| = h``) and ``d`` = number of parent2 second-half genes in ``S``.
    Since parent2's halves partition all ``n`` genes,
    ``|parent2[:h] ∩ S| = h - d``, so exactly ``d`` first-half genes of
    parent2 are outside ``S`` — one replacement per duplicate, and (halves
    being disjoint) none collides with a kept second-half gene.
    """
    P1 = np.asarray(parents1, dtype=np.int64)
    P2 = np.asarray(parents2, dtype=np.int64)
    if P1.shape != P2.shape or P1.ndim != 2:
        raise ValidationError(f"parent arrays must share a 2-D shape, got {P1.shape}, {P2.shape}")
    if not 0.0 <= p_crossover <= 1.0:
        raise ValidationError(f"p_crossover must be in [0, 1], got {p_crossover}")
    gen = as_generator(rng)
    M, n = P1.shape
    h = n // 2
    if h == 0:  # 1-gene chromosomes: crossover is a no-op
        return P1.copy()

    children = P1.copy()
    do_cross = gen.random(M) < p_crossover
    if not do_cross.any():
        return children
    idx = np.flatnonzero(do_cross)
    A1 = P1[idx]
    A2 = P2[idx]
    m = idx.size
    rows = np.arange(m)[:, np.newaxis]

    used = np.zeros((m, n), dtype=bool)  # genes present in child's first half
    used[rows, A1[:, :h]] = True

    second = A2[:, h:]  # (m, n-h) candidate genes
    dup = used[rows, second]  # duplicates to repair

    pool_src = A2[:, :h]
    pool_ok = ~used[rows, pool_src]  # parent2 first-half genes not yet used
    # Compact each row's pool to the left so pool_compact[r, j] is the
    # j-th available replacement gene (in parent2 order).
    pool_rank = np.cumsum(pool_ok, axis=1) - 1
    pool_compact = np.zeros((m, h), dtype=np.int64)
    r_idx, c_idx = np.nonzero(pool_ok)
    pool_compact[r_idx, pool_rank[r_idx, c_idx]] = pool_src[r_idx, c_idx]

    dup_rank = np.cumsum(dup, axis=1) - 1  # j-th duplicate gets pool_compact[:, j]
    repaired = np.where(dup, pool_compact[rows[:, 0][:, np.newaxis], np.clip(dup_rank, 0, h - 1)], second)

    out = np.concatenate([A1[:, :h], repaired], axis=1)
    children[idx] = out
    return children


def swap_mutation(
    population: np.ndarray,
    rng: SeedLike = None,
    *,
    p_mutation: float = 0.07,
) -> np.ndarray:
    """Fig. 6(b) mutation: each gene swaps with a random position w.p. ``p_m``.

    Swaps are applied sequentially in (row, position) order, so multiple
    mutations in one chromosome compose (each sees the previous swaps'
    state), exactly as a gene-by-gene scan would behave.
    """
    pop = np.asarray(population, dtype=np.int64).copy()
    if pop.ndim != 2:
        raise ValidationError(f"population must be 2-D, got shape {pop.shape}")
    if not 0.0 <= p_mutation <= 1.0:
        raise ValidationError(f"p_mutation must be in [0, 1], got {p_mutation}")
    gen = as_generator(rng)
    M, n = pop.shape
    if n < 2 or p_mutation == 0.0:  # repro: noqa[float-equality] -- exact-zero sentinel: p_m=0.0 means mutation disabled
        return pop
    mask = gen.random((M, n)) < p_mutation
    rows, cols = np.nonzero(mask)
    partners = gen.integers(0, n, size=rows.size)
    for r, i, j in zip(rows, cols, partners):
        pop[r, i], pop[r, j] = pop[r, j], pop[r, i]
    return pop
