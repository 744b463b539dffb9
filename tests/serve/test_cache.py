"""Tests for the thread-safe LRU estimate cache."""

from __future__ import annotations

import threading

from repro import obs
from repro.serve import EstimateCache, EstimationService
from repro.sql.parser import fingerprint_sql


class TestLookupStore:
    def test_miss_then_hit(self):
        cache = EstimateCache(max_size=4)
        assert cache.lookup("k1") is None
        cache.store("k1", 42.0)
        assert cache.lookup("k1") == 42.0
        assert cache.stats()["hits"] == 1
        assert cache.stats()["misses"] == 1

    def test_lru_eviction_order(self):
        cache = EstimateCache(max_size=2)
        cache.store("a", 1.0)
        cache.store("b", 2.0)
        assert cache.lookup("a") == 1.0  # refresh a; b is now LRU
        cache.store("c", 3.0)            # evicts b
        assert cache.lookup("b") is None
        assert cache.lookup("a") == 1.0
        assert cache.lookup("c") == 3.0
        assert cache.stats()["evictions"] == 1
        assert len(cache) == 2

    def test_store_refreshes_existing_key(self):
        cache = EstimateCache(max_size=2)
        cache.store("a", 1.0)
        cache.store("b", 2.0)
        cache.store("a", 10.0)  # refresh, not insert
        cache.store("c", 3.0)   # evicts b (a was refreshed)
        assert cache.lookup("a") == 10.0
        assert cache.lookup("b") is None

    def test_clear_keeps_counters(self):
        cache = EstimateCache(max_size=4)
        cache.store("a", 1.0)
        cache.lookup("a")
        cache.clear()
        assert len(cache) == 0
        assert cache.lookup("a") is None
        assert cache.stats()["hits"] == 1
        assert cache.stats()["misses"] == 1


class TestDisabledCache:
    def test_zero_capacity_disables_everything(self):
        cache = EstimateCache(max_size=0)
        assert not cache.enabled
        cache.store("a", 1.0)
        assert cache.lookup("a") is None
        assert len(cache) == 0
        stats = cache.stats()
        assert stats["hits"] == 0 and stats["misses"] == 0


class TestGlobalCounters:
    def test_hits_and_misses_mirrored_to_registry(self):
        obs.reset()
        cache = EstimateCache(max_size=2)
        cache.lookup("a")
        cache.store("a", 1.0)
        cache.lookup("a")
        cache.store("b", 1.0)
        cache.store("c", 1.0)  # evicts
        snapshot = obs.get_registry().snapshot()
        assert snapshot["serve.cache.misses"]["value"] == 1
        assert snapshot["serve.cache.hits"]["value"] == 1
        assert snapshot["serve.cache.evictions"]["value"] == 1


class TestCacheKey:
    def test_key_is_fingerprint_plus_literals(self, serve_estimator,
                                              conjunctive_workload):
        sql = conjunctive_workload.queries[0].to_sql()
        service = EstimationService(serve_estimator, cache_size=8)
        try:
            [estimate] = service.estimate_many_sql([sql])
            assert len(service.cache) == 1
            assert service.cache.lookup(fingerprint_sql(sql)) == estimate
        finally:
            service.close()

    def test_distinct_queries_distinct_keys(self, serve_estimator,
                                            conjunctive_workload):
        texts = [q.to_sql() for q in conjunctive_workload.queries[:50]]
        keys = {fingerprint_sql(sql) for sql in texts}
        assert len(keys) == len(set(texts))
        service = EstimationService(serve_estimator, cache_size=64)
        try:
            service.estimate_many_sql(texts)
            assert len(service.cache) == len(set(texts))
        finally:
            service.close()


class TestThreadSafety:
    def test_concurrent_mixed_operations(self):
        cache = EstimateCache(max_size=32)

        def worker(base: int) -> None:
            for i in range(300):
                key = f"k{(base + i) % 64}"
                if cache.lookup(key) is None:
                    cache.store(key, float(i))

        threads = [threading.Thread(target=worker, args=(t * 7,))
                   for t in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(cache) <= 32
        stats = cache.stats()
        assert stats["hits"] + stats["misses"] == 8 * 300


class TestLookupMany:
    """One locked pass per call, with per-key counter meaning."""

    def test_matches_sequential_lookups(self):
        keys = ["a", "b", "a", "z", "c", "z"]
        batched, sequential = EstimateCache(max_size=3), EstimateCache(
            max_size=3)
        for cache in (batched, sequential):
            cache.store_many([("a", 1.0), ("b", 2.0), ("c", 3.0)])
        assert batched.lookup_many(keys) == [
            sequential.lookup(key) for key in keys]
        assert batched.stats() == sequential.stats()
        # Recency moved the same way: "b" is now the LRU entry.
        for cache in (batched, sequential):
            cache.store("d", 4.0)
        assert batched.lookup_many(["b", "a", "c", "d"]) == [
            None, 1.0, 3.0, 4.0]
        assert sequential.stats()["evictions"] == 1
        assert batched.stats()["evictions"] == 1

    def test_repeats_hit_counts_a_missing_keys_repeats_as_hits(self):
        cache = EstimateCache(max_size=8)
        cache.store("a", 1.0)
        values = cache.lookup_many(["x", "a", "x", "y", "x", "a"],
                                   repeats_hit=True)
        assert values == [None, 1.0, None, None, None, 1.0]
        stats = cache.stats()
        assert (stats["hits"], stats["misses"]) == (4, 2)

    def test_store_many_evicts_like_sequential_stores(self):
        pairs = [("a", 1.0), ("b", 2.0), ("a", 3.0), ("c", 4.0),
                 ("d", 5.0), ("a", 6.0)]
        batched, sequential = EstimateCache(max_size=2), EstimateCache(
            max_size=2)
        batched.store_many(pairs)
        for key, value in pairs:
            sequential.store(key, value)
        assert batched.stats() == sequential.stats()
        assert batched.lookup_many(["a", "b", "c", "d"]) == \
            sequential.lookup_many(["a", "b", "c", "d"]) == \
            [6.0, None, None, 5.0]

    def test_registry_moves_once_per_call(self, monkeypatch):
        obs.reset()
        cache = EstimateCache(max_size=4)
        cache.store("a", 1.0)
        registry = obs.get_registry()
        resolved: list[str] = []
        original = registry.counter

        def counting(name, *args, **kwargs):
            resolved.append(name)
            return original(name, *args, **kwargs)

        monkeypatch.setattr(registry, "counter", counting)
        cache.lookup_many(["a", "b", "a", "c", "b"])
        assert sorted(resolved) == ["serve.cache.hits", "serve.cache.misses"]
        snapshot = registry.snapshot()
        assert snapshot["serve.cache.hits"]["value"] == 2
        assert snapshot["serve.cache.misses"]["value"] == 3

    def test_disabled_cache_returns_misses_and_counts_nothing(self):
        cache = EstimateCache(max_size=0)
        cache.store_many([("a", 1.0)])
        assert cache.lookup_many(["a", "a"], repeats_hit=True) == [None,
                                                                   None]
        assert cache.stats()["hits"] == cache.stats()["misses"] == 0
