"""Unit and property tests for the capacity-bounded cache."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cdn.cache import Cache
from repro.cdn.policies import LruPolicy, make_policy
from repro.errors import CachePolicyError


def lru_cache(capacity: int = 100, ttl: float | None = None) -> Cache:
    return Cache(capacity_bytes=capacity, policy=LruPolicy(), default_ttl=ttl)


class TestBasicOperations:
    def test_capacity_must_be_positive(self):
        with pytest.raises(CachePolicyError):
            Cache(capacity_bytes=0, policy=LruPolicy())

    def test_miss_then_hit(self):
        cache = lru_cache()
        assert cache.lookup("a", now=0.0) is None
        cache.insert("a", 10, now=0.0)
        entry = cache.lookup("a", now=1.0)
        assert entry is not None
        assert entry.size == 10

    def test_stats_identity(self):
        cache = lru_cache()
        cache.lookup("a", 0.0)
        cache.insert("a", 10, 0.0)
        cache.lookup("a", 1.0)
        cache.lookup("b", 2.0)
        assert cache.stats.hits + cache.stats.misses == cache.stats.lookups
        assert cache.stats.hits == 1
        assert cache.stats.misses == 2

    def test_negative_size_rejected(self):
        with pytest.raises(CachePolicyError):
            lru_cache().insert("a", -1, 0.0)

    def test_oversized_entry_not_admitted(self):
        cache = lru_cache(capacity=100)
        assert not cache.insert("big", 101, 0.0)
        assert cache.stats.uncacheable == 1
        assert "big" not in cache

    def test_exact_capacity_entry_admitted(self):
        cache = lru_cache(capacity=100)
        assert cache.insert("exact", 100, 0.0)
        assert cache.used_bytes == 100

    def test_reinsert_updates_size(self):
        cache = lru_cache(capacity=100)
        cache.insert("a", 30, 0.0)
        cache.insert("a", 50, 1.0)
        assert cache.used_bytes == 50
        assert len(cache) == 1

    def test_invalidate(self):
        cache = lru_cache()
        cache.insert("a", 10, 0.0)
        assert cache.invalidate("a")
        assert not cache.invalidate("a")
        assert "a" not in cache

    def test_peek_does_not_count(self):
        cache = lru_cache()
        cache.insert("a", 10, 0.0)
        cache.peek("a")
        assert cache.stats.lookups == 0


class TestEviction:
    def test_lru_evicts_least_recent(self):
        cache = lru_cache(capacity=30)
        cache.insert("a", 10, 0.0)
        cache.insert("b", 10, 1.0)
        cache.insert("c", 10, 2.0)
        cache.lookup("a", 3.0)  # refresh a
        cache.insert("d", 10, 4.0)  # evicts b (least recently used)
        assert "a" in cache
        assert "b" not in cache
        assert cache.stats.evictions == 1

    def test_capacity_never_exceeded(self):
        cache = lru_cache(capacity=55)
        for i in range(50):
            cache.insert(f"k{i}", 10, float(i))
            assert cache.used_bytes <= 55

    def test_apply_pressure_frees_bytes(self):
        cache = lru_cache(capacity=100)
        for i in range(10):
            cache.insert(f"k{i}", 10, float(i))
        freed = cache.apply_pressure(35)
        assert freed >= 35
        assert cache.used_bytes <= 65

    def test_apply_pressure_on_empty(self):
        assert lru_cache().apply_pressure(100) == 0


class TestTtl:
    def test_fresh_entry_hits(self):
        cache = lru_cache(ttl=100.0)
        cache.insert("a", 10, 0.0)
        assert cache.lookup("a", 99.0) is not None

    def test_stale_entry_misses_and_is_dropped(self):
        cache = lru_cache(ttl=100.0)
        cache.insert("a", 10, 0.0)
        assert cache.lookup("a", 100.0) is None
        assert cache.stats.expirations == 1
        assert "a" not in cache

    def test_per_entry_ttl_overrides_default(self):
        cache = lru_cache(ttl=100.0)
        cache.insert("a", 10, 0.0, ttl=10.0)
        assert cache.lookup("a", 50.0) is None

    def test_stale_revalidation_refreshes_on_version_match(self):
        cache = lru_cache()
        cache.insert("a", 10, 0.0, ttl=100.0, version=7)
        entry = cache.lookup("a", 150.0, revalidate_version=7)
        assert entry is not None
        assert cache.stats.revalidations == 1
        # Freshness window restarted:
        assert cache.lookup("a", 200.0, revalidate_version=7) is not None

    def test_revalidation_restarts_validated_age(self):
        # Regression: a 304-revalidated entry restarted its freshness
        # window but kept the original ``stored_at`` as its only age
        # anchor, so content-age analyses (Fig. 7) over-reported the age
        # of revalidated entries.
        cache = lru_cache()
        cache.insert("a", 10, 0.0, ttl=100.0, version=7)
        entry = cache.peek("a")
        assert entry.revalidated_at is None
        assert entry.validated_age(60.0) == 60.0
        entry = cache.lookup("a", 150.0, revalidate_version=7)
        # The origin just vouched for the bytes: validated age restarts,
        # while stored_at keeps recording the original insert time.
        assert entry.revalidated_at == 150.0
        assert entry.stored_at == 0.0
        assert entry.validated_age(150.0) == 0.0
        assert entry.validated_age(180.0) == 30.0
        # A second revalidation moves the anchor again.
        cache.lookup("a", 300.0, revalidate_version=7)
        assert entry.validated_age(310.0) == 10.0
        assert cache.stats.revalidations == 2

    def test_stale_revalidation_drops_on_version_mismatch(self):
        cache = lru_cache()
        cache.insert("a", 10, 0.0, ttl=100.0, version=7)
        assert cache.lookup("a", 150.0, revalidate_version=8) is None
        assert "a" not in cache

    def test_fresh_entry_ignores_revalidate_version(self):
        cache = lru_cache()
        cache.insert("a", 10, 0.0, ttl=100.0, version=7)
        assert cache.lookup("a", 50.0, revalidate_version=99) is not None


@settings(max_examples=60, deadline=None)
@given(
    policy_name=st.sampled_from(["lru", "fifo", "lfu", "slru", "gdsf"]),
    operations=st.lists(
        st.tuples(
            st.sampled_from(["insert", "lookup", "revalidate", "pressure", "invalidate"]),
            st.integers(min_value=0, max_value=20),   # key id
            st.integers(min_value=1, max_value=100),  # size; bytes to free for "pressure"
            st.sampled_from([None, 2.0, 5.0]),        # insert TTL, so lookups run past it
        ),
        max_size=120,
    ),
)
def test_cache_invariants_hold_under_any_workload(policy_name, operations):
    """Property: for every policy and operation sequence (inserts with and
    without a TTL, lookups and revalidating lookups before and past it,
    background pressure and invalidation),

    * used bytes never exceed capacity and equal the stored entries' sizes,
    * hits + misses == lookups,
    * pressure frees its budget or empties the cache,
    * tracked-key count matches the entry map.
    """
    cache = Cache(capacity_bytes=100, policy=make_policy(policy_name))
    now = 0.0
    for op, key_id, size, ttl in operations:
        now += 1.0
        key = f"k{key_id}"
        if op == "insert":
            cache.insert(key, size, now, ttl=ttl, version=key_id % 3)
        elif op == "lookup":
            cache.lookup(key, now)
        elif op == "revalidate":
            cache.lookup(key, now, revalidate_version=size % 3)
        elif op == "pressure":
            used = cache.used_bytes
            freed = cache.apply_pressure(size)
            assert freed == used - cache.used_bytes
            assert freed >= size or len(cache) == 0
        else:
            cache.invalidate(key)
        assert cache.used_bytes <= 100
        assert cache.used_bytes == sum(cache.peek(k).size for k in cache.keys())
        assert cache.stats.hits + cache.stats.misses == cache.stats.lookups
        assert len(cache.policy) == len(cache)
