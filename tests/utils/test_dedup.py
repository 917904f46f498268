"""Tests for duplicate-row collapsing (kept as a traced benchmark layer)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.utils.dedup import collapse_duplicate_rows, pack_rows


class TestPackRows:
    def test_horner_keys_by_hand(self):
        X = np.array([[1, 2, 0], [0, 0, 3]])
        key = pack_rows(X, 4)
        assert key is not None
        assert key.tolist() == [1 * 16 + 2 * 4 + 0, 3]

    def test_bijective_on_random_batch(self):
        gen = np.random.default_rng(5)
        X = gen.integers(0, 7, size=(500, 9))
        key = pack_rows(X, 7)
        assert key is not None
        # Distinct rows <-> distinct keys.
        n_unique_rows = np.unique(X, axis=0).shape[0]
        assert np.unique(key).shape[0] == n_unique_rows

    def test_keys_sort_lexicographically(self):
        gen = np.random.default_rng(6)
        X = gen.integers(0, 5, size=(200, 8))
        key = pack_rows(X, 5)
        order = np.argsort(key, kind="stable")
        lex = np.lexsort(X.T[::-1])
        assert np.array_equal(np.sort(key), key[lex])
        assert np.array_equal(X[order], X[lex])

    def test_overflow_returns_none(self):
        X = np.zeros((3, 50), dtype=np.int64)
        assert pack_rows(X, 50) is None  # 50 * log2(50) >> 63 bits

    def test_tiny_alphabet_returns_none(self):
        assert pack_rows(np.zeros((2, 4), dtype=np.int64), 1) is None


class TestCollapseDuplicateRows:
    @pytest.mark.parametrize("n_symbols", [6, 70])
    def test_inverse_reconstructs_batch(self, n_symbols):
        # n_symbols=70 with 12 columns overflows int64 and exercises the
        # unique-along-axis fallback; both paths must obey the contract.
        gen = np.random.default_rng(11)
        X = gen.integers(0, n_symbols, size=(300, 12))
        X = np.vstack([X, X[:40]])  # guaranteed duplicates
        unique_rows, inverse = collapse_duplicate_rows(X, n_symbols)
        assert np.array_equal(unique_rows[inverse], X)
        assert unique_rows.shape[0] == np.unique(X, axis=0).shape[0]
        # The representatives themselves are distinct.
        assert np.unique(unique_rows, axis=0).shape[0] == unique_rows.shape[0]

    def test_all_rows_identical(self):
        X = np.tile(np.array([[2, 0, 1]]), (50, 1))
        unique_rows, inverse = collapse_duplicate_rows(X, 3)
        assert unique_rows.shape[0] == 1
        assert np.array_equal(unique_rows[inverse], X)

    def test_all_rows_distinct(self):
        X = np.arange(12).reshape(4, 3)
        unique_rows, inverse = collapse_duplicate_rows(X, 12)
        assert unique_rows.shape[0] == 4
        assert np.array_equal(unique_rows[inverse], X)
