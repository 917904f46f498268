"""The canonical result cache (``repro.runstore.cache``)."""

from __future__ import annotations

from repro.runstore import ResultCache, cache_key


def key(i: int) -> str:
    return cache_key("d" * 64, "match", {"max_iterations": 100}, i)


class TestCacheKey:
    def test_param_order_is_canonical(self):
        a = cache_key("d" * 64, "match", {"a": 1, "b": 2}, 5)
        b = cache_key("d" * 64, "match", {"b": 2, "a": 1}, 5)
        assert a == b

    def test_components_all_matter(self):
        base = cache_key("d" * 64, "match", {"a": 1}, 5)
        assert cache_key("e" * 64, "match", {"a": 1}, 5) != base
        assert cache_key("d" * 64, "other", {"a": 1}, 5) != base
        assert cache_key("d" * 64, "match", {"a": 2}, 5) != base
        assert cache_key("d" * 64, "match", {"a": 1}, 6) != base
        capped = cache_key("d" * 64, "match", {"a": 1}, 5, max_evaluations=50)
        assert capped != base
        assert cache_key("d" * 64, "match", {"a": 1}, 5, max_evaluations=51) != capped

    def test_kernel_backend_excluded_by_construction(self):
        # The key is a pure function of (problem, solver, params, seed);
        # backends are bit-identical so one entry serves them all.
        assert len(key(1)) == 64


class TestResultCache:
    def test_hit_returns_stored_payload(self):
        cache = ResultCache(capacity=4)
        cache.put(key(1), {"execution_time": 42.0})
        assert cache.get(key(1)) == {"execution_time": 42.0}
        assert cache.stats()["hits"] == 1

    def test_miss_counted(self):
        cache = ResultCache(capacity=4)
        assert cache.get(key(9)) is None
        assert cache.stats()["misses"] == 1

    def test_lru_eviction_order(self):
        cache = ResultCache(capacity=2)
        cache.put(key(1), {"v": 1})
        cache.put(key(2), {"v": 2})
        assert cache.get(key(1)) == {"v": 1}  # refresh 1: now 2 is LRU
        cache.put(key(3), {"v": 3})  # evicts 2
        assert cache.keys_lru_order == [key(1), key(3)]
        assert cache.get(key(2)) is None
        assert cache.get(key(1)) == {"v": 1}
        assert cache.stats()["evictions"] == 1

    def test_persistence_survives_process_restart(self, tmp_path):
        first = ResultCache(capacity=4, persist_dir=tmp_path)
        first.put(key(1), {"execution_time": 42.0})
        # A fresh cache (new process) reloads from disk on demand.
        second = ResultCache(capacity=4, persist_dir=tmp_path)
        assert second.get(key(1)) == {"execution_time": 42.0}
        assert second.stats()["disk_hits"] == 1

    def test_eviction_keeps_disk_copy(self, tmp_path):
        cache = ResultCache(capacity=1, persist_dir=tmp_path)
        cache.put(key(1), {"v": 1})
        cache.put(key(2), {"v": 2})  # evicts 1 from memory only
        assert cache.get(key(1)) == {"v": 1}
        assert cache.stats()["disk_hits"] == 1


class TestDiskTierReadmission:
    """Disk reloads are disk hits, not memory hits, and re-enter the LRU
    under the same capacity bound as any put (the re-admission bugfix)."""

    def test_disk_reload_is_not_a_memory_hit(self, tmp_path):
        cache = ResultCache(capacity=1, persist_dir=tmp_path)
        cache.put(key(1), {"v": 1})
        cache.put(key(2), {"v": 2})  # evicts 1 from memory, disk copy stays
        assert cache.get(key(1)) == {"v": 1}
        stats = cache.stats()
        assert stats["disk_hits"] == 1
        assert stats["hits"] == 0  # the memory-hit counter must not move
        assert stats["misses"] == 0

    def test_reload_readmits_under_capacity(self, tmp_path):
        cache = ResultCache(capacity=2, persist_dir=tmp_path)
        cache.put(key(1), {"v": 1})
        cache.put(key(2), {"v": 2})
        cache.put(key(3), {"v": 3})  # evicts 1 (LRU)
        assert cache.keys_lru_order == [key(2), key(3)]
        assert cache.get(key(1)) == {"v": 1}  # disk reload, re-admitted
        # Re-admission honoured capacity: 2 (now LRU) was evicted for 1.
        assert cache.keys_lru_order == [key(3), key(1)]
        assert len(cache) == 2
        assert cache.stats()["evictions"] == 2
        # The reloaded entry now serves from memory.
        assert cache.get(key(1)) == {"v": 1}
        assert cache.stats()["hits"] == 1
        assert cache.stats()["disk_hits"] == 1

    def test_eviction_reload_eviction_order_is_stable(self, tmp_path):
        """Regression: reload -> evict -> reload again must cycle through
        the disk tier indefinitely without corrupting LRU order."""
        cache = ResultCache(capacity=2, persist_dir=tmp_path)
        for i in (1, 2, 3):
            cache.put(key(i), {"v": i})
        for i in (1, 2, 3, 1, 2, 3):
            assert cache.get(key(i)) == {"v": i}
        stats = cache.stats()
        assert stats["hits"] + stats["disk_hits"] == 6
        assert stats["misses"] == 0
        assert len(cache) == 2
