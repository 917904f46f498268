"""Exact duplicate-row collapsing of an integer batch.

:func:`collapse_duplicate_rows` finds the unique rows of an integer
assignment batch and the inverse map that reinflates per-unique values
back to the full batch. No solver calls it any more: CE scores every
sampled row, because under the compiled kernels scoring a row is cheaper
than the lookups that would skip it (DESIGN.md §6). The module stays
because the repository benchmark's traced run wraps
``repro.utils.dedup.collapse_duplicate_rows`` by name; its ``ce.dedup``
layer now reads 0.

When the row alphabet fits in 63 bits (``n_cols · log2(n_symbols) ≤ 63``)
each row is packed into a single int64 key by Horner's rule and deduped
with a 1-D :func:`numpy.unique` — roughly an order of magnitude faster
than ``np.unique(X, axis=0)``. Wider alphabets split the row into a few
int64 *words* (:func:`pack_rows_words`) and dedup with one stable
:func:`numpy.lexsort` over the word columns; both paths return the
unique rows in numeric-lexicographic row order. The void-view
``np.unique(X, axis=0)`` fallback was retired: at ``n = 50`` its
byte-comparison argsort dominated the whole CE iteration.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["pack_rows", "pack_rows_words", "collapse_duplicate_rows"]


def pack_rows(X: np.ndarray, n_symbols: int) -> np.ndarray | None:
    """Horner-pack each row of ``X`` into one int64 key, or None.

    Keys are collision-free and ordered lexicographically when
    ``n_cols · log2(n_symbols) ≤ 63``; returns None when the alphabet
    overflows int64 (callers must fall back to row-wise comparison).
    """
    n_cols = X.shape[1]
    if n_symbols < 2 or n_cols * math.log2(n_symbols) > 63:
        return None
    key = X[:, 0].astype(np.int64, copy=True)
    for c in range(1, n_cols):
        key *= n_symbols
        key += X[:, c]
    return key


def pack_rows_words(X: np.ndarray, n_symbols: int) -> np.ndarray:
    """Horner-pack each row of ``X`` into as few int64 words as fit.

    Splits the columns into contiguous chunks of ``d`` symbols where ``d``
    is the largest count with ``n_symbols**d`` still inside int64, and
    packs each chunk exactly like :func:`pack_rows`. The resulting
    ``(N, n_words)`` key matrix is collision-free, and comparing key rows
    lexicographically equals comparing the original rows lexicographically
    (each word is an order-preserving encoding of its column chunk).
    """
    n_cols = X.shape[1]
    if n_symbols < 2:
        raise ValueError(f"alphabet must have >= 2 symbols, got {n_symbols}")
    cap = (1 << 63) - 1
    digits = 1
    while n_symbols ** (digits + 1) <= cap:
        digits += 1
    n_words = -(-n_cols // digits)
    keys = np.empty((X.shape[0], n_words), dtype=np.int64)
    for word in range(n_words):
        lo = word * digits
        hi = min(lo + digits, n_cols)
        key = X[:, lo].astype(np.int64, copy=True)
        for c in range(lo + 1, hi):
            key *= n_symbols
            key += X[:, c]
        keys[:, word] = key
    return keys


def collapse_duplicate_rows(
    X: np.ndarray, n_symbols: int
) -> tuple[np.ndarray, np.ndarray]:
    """Collapse duplicate rows of an integer batch.

    Parameters
    ----------
    X:
        ``(N, n_cols)`` integer batch with entries in ``[0, n_symbols)``.
    n_symbols:
        Alphabet size (number of resources); bounds the per-entry values
        and decides whether the packed-key fast path is applicable.

    Returns
    -------
    ``(unique_rows, inverse)`` where ``unique_rows`` is ``(U, n_cols)``
    and ``inverse`` is ``(N,)`` with ``unique_rows[inverse] == X``
    row-for-row; the unique rows come out in lexicographic row order.
    ``U == N`` when all rows are distinct.
    """
    key = pack_rows(X, n_symbols)
    if key is not None:
        _, first, inverse = np.unique(key, return_index=True, return_inverse=True)
        return X[first], inverse
    N = X.shape[0]
    if N == 0:
        return X.copy(), np.empty(0, dtype=np.int64)
    keys = pack_rows_words(X, n_symbols)
    # lexsort's last key is primary, so feed the word columns reversed;
    # the sort is stable, making order[flag] the first occurrence of each
    # distinct row just as np.unique's stable path would pick.
    order = np.lexsort(tuple(keys[:, w] for w in range(keys.shape[1] - 1, -1, -1)))
    sorted_keys = keys[order]
    flag = np.empty(N, dtype=bool)
    flag[0] = True
    np.any(sorted_keys[1:] != sorted_keys[:-1], axis=1, out=flag[1:])
    inverse = np.empty(N, dtype=np.int64)
    inverse[order] = np.cumsum(flag) - 1
    return X[order[flag]], inverse
