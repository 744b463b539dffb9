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
