"""Behavioural tests for each cache replacement policy."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cdn.cache import Cache
from repro.cdn.policies import (
    FifoPolicy,
    GdsfPolicy,
    LfuPolicy,
    LruPolicy,
    SlruPolicy,
    make_policy,
    policy_names,
)
from repro.errors import CachePolicyError


class TestFactory:
    def test_all_registered_names_construct(self):
        for name in policy_names():
            policy = make_policy(name)
            assert policy.name == name

    def test_case_insensitive(self):
        assert make_policy("LRU").name == "lru"

    def test_unknown_rejected(self):
        with pytest.raises(CachePolicyError):
            make_policy("belady")


class TestLru:
    def test_victim_is_least_recently_used(self):
        policy = LruPolicy()
        policy.on_insert("a", 1, 0.0)
        policy.on_insert("b", 1, 1.0)
        policy.on_hit("a", 2.0)
        assert policy.victim() == "b"


class TestFifo:
    def test_hits_do_not_refresh(self):
        policy = FifoPolicy()
        policy.on_insert("a", 1, 0.0)
        policy.on_insert("b", 1, 1.0)
        policy.on_hit("a", 2.0)
        assert policy.victim() == "a"


class TestLfu:
    def test_victim_is_least_frequent(self):
        policy = LfuPolicy()
        for key in ("a", "b"):
            policy.on_insert(key, 1, 0.0)
        policy.on_hit("a", 1.0)
        policy.on_hit("a", 2.0)
        policy.on_hit("b", 3.0)
        assert policy.victim() == "b"

    def test_tie_breaks_by_recency(self):
        policy = LfuPolicy()
        policy.on_insert("a", 1, 0.0)
        policy.on_insert("b", 1, 1.0)
        assert policy.victim() == "a"  # same count, older touch

    def test_empty_victim_rejected(self):
        with pytest.raises(CachePolicyError):
            LfuPolicy().victim()

    def test_lazy_heap_handles_eviction(self):
        policy = LfuPolicy()
        policy.on_insert("a", 1, 0.0)
        policy.on_insert("b", 1, 1.0)
        policy.on_hit("a", 2.0)
        policy.on_evict("b")
        assert policy.victim() == "a"


class TestSlru:
    def test_protected_fraction_bounds(self):
        with pytest.raises(CachePolicyError):
            SlruPolicy(protected_fraction=0.0)

    def test_one_hit_wonder_evicted_before_proven_key(self):
        policy = SlruPolicy()
        policy.on_insert("proven", 1, 0.0)
        policy.on_hit("proven", 1.0)       # promoted to protected
        policy.on_insert("wonder", 1, 2.0)  # probation
        assert policy.victim() == "wonder"

    def test_falls_back_to_protected_when_probation_empty(self):
        policy = SlruPolicy()
        policy.on_insert("a", 1, 0.0)
        policy.on_hit("a", 1.0)
        assert policy.victim() == "a"

    def test_protected_overflow_demotes(self):
        policy = SlruPolicy(protected_fraction=0.5)
        for i, key in enumerate(("a", "b", "c", "d")):
            policy.on_insert(key, 1, float(i))
        policy.on_hit("a", 10.0)
        policy.on_hit("b", 11.0)
        policy.on_hit("c", 12.0)  # protected limit 2 -> a demoted
        # All keys still tracked.
        assert len(policy) == 4


class TestGdsf:
    def test_prefers_evicting_large_cold_objects(self):
        policy = GdsfPolicy()
        policy.on_insert("small", 10, 0.0)
        policy.on_insert("large", 10_000, 1.0)
        assert policy.victim() == "large"

    def test_frequency_rescues_large_objects(self):
        policy = GdsfPolicy()
        policy.on_insert("small", 10, 0.0)
        policy.on_insert("large", 20, 1.0)
        for t in range(2, 12):
            policy.on_hit("large", float(t))
        assert policy.victim() == "small"

    def test_floor_ages_resident_entries(self):
        cache = Cache(capacity_bytes=100, policy=GdsfPolicy())
        # Fill with one old popular entry and churn many cold ones through.
        cache.insert("old", 50, 0.0)
        cache.lookup("old", 1.0)
        for i in range(30):
            cache.insert(f"cold{i}", 40, float(i + 2))
        # The floor has risen past the old entry's static priority, so churn
        # eventually displaces even the once-popular key.
        assert cache.used_bytes <= 100

    def test_empty_victim_rejected(self):
        with pytest.raises(CachePolicyError):
            GdsfPolicy().victim()


class _GdsfReference:
    """Brute-force GDSF: priorities from the documented formula, linear-scan victim."""

    def __init__(self) -> None:
        self.priority: dict[str, float] = {}
        self.frequency: dict[str, int] = {}
        self.size: dict[str, int] = {}
        self.floor = 0.0

    def insert(self, key: str, size: int) -> None:
        self.frequency[key] = 1
        self.size[key] = size
        self.priority[key] = self.floor + 1 / max(1, size)

    def hit(self, key: str) -> None:
        self.frequency[key] += 1
        self.priority[key] = self.floor + self.frequency[key] / max(1, self.size[key])

    def evict(self, key: str) -> None:
        if key in self.priority:
            self.floor = max(self.floor, self.priority.pop(key))
            del self.frequency[key], self.size[key]

    def victim(self) -> str:
        return min(self.priority, key=lambda key: (self.priority[key], key))


class _RecordingGdsf(GdsfPolicy):
    """The real policy, remembering every victim it picks."""

    def __init__(self) -> None:
        super().__init__()
        self.victims: list[str] = []

    def victim(self) -> str:
        key = super().victim()
        self.victims.append(key)
        return key


class _ReferenceCache:
    """``Cache``'s insert/lookup/apply_pressure/invalidate over the reference policy."""

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self.sizes: dict[str, int] = {}
        self.used = 0
        self.gdsf = _GdsfReference()
        self.victims: list[str] = []

    def _remove(self, key: str) -> None:
        self.used -= self.sizes.pop(key)
        self.gdsf.evict(key)

    def _evict_one(self) -> int:
        key = self.gdsf.victim()
        self.victims.append(key)
        size = self.sizes[key]
        self._remove(key)
        return size

    def insert(self, key: str, size: int) -> None:
        if size > self.capacity:
            return
        if key in self.sizes:
            self._remove(key)
        while self.used + size > self.capacity and self.sizes:
            self._evict_one()
        self.sizes[key] = size
        self.used += size
        self.gdsf.insert(key, size)

    def lookup(self, key: str) -> None:
        if key in self.sizes:
            self.gdsf.hit(key)

    def apply_pressure(self, nbytes: int) -> None:
        freed = 0
        while freed < nbytes and self.sizes:
            freed += self._evict_one()

    def invalidate(self, key: str) -> None:
        if key in self.sizes:
            self._remove(key)


_KEYS = st.sampled_from([f"k{i}" for i in range(8)])
# Small sizes with repeats (and 0, scored as 1) make equal priorities
# common, so the key tie-break is exercised too.
_SIZES = st.integers(min_value=0, max_value=60)
_POLICY_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("insert"), _KEYS, _SIZES),
        st.tuples(st.just("hit"), _KEYS, st.just(0)),
        st.tuples(st.just("evict"), _KEYS, st.just(0)),
        st.tuples(st.just("evict_victim"), st.just(""), st.just(0)),
    ),
    max_size=80,
)
_CACHE_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("insert"), _KEYS, _SIZES),
        st.tuples(st.just("lookup"), _KEYS, st.just(0)),
        st.tuples(st.just("pressure"), st.just(""), st.integers(min_value=0, max_value=120)),
        st.tuples(st.just("invalidate"), _KEYS, st.just(0)),
    ),
    max_size=80,
)


class TestGdsfMatchesReference:
    """The lazy heap picks exactly the brute-force victim after any history."""

    @settings(max_examples=300)
    @given(ops=_POLICY_OPS)
    def test_policy_sequences(self, ops):
        policy = GdsfPolicy()
        reference = _GdsfReference()
        for op, key, size in ops:
            if op == "insert":
                policy.on_insert(key, size, 0.0)
                reference.insert(key, size)
            elif op == "hit" and key in reference.priority:
                policy.on_hit(key, 0.0)
                reference.hit(key)
            elif op == "evict":
                policy.on_evict(key)
                reference.evict(key)
            elif op == "evict_victim" and reference.priority:
                victim = policy.victim()
                assert victim == reference.victim()
                policy.on_evict(victim)
                reference.evict(victim)
            assert len(policy) == len(reference.priority)
            if reference.priority:
                assert policy.victim() == reference.victim()
        assert policy._priority == reference.priority
        assert policy._floor == reference.floor

    @settings(max_examples=300)
    @given(ops=_CACHE_OPS)
    def test_cache_sequences(self, ops):
        policy = _RecordingGdsf()
        cache = Cache(capacity_bytes=100, policy=policy)
        reference = _ReferenceCache(capacity=100)
        for op, key, amount in ops:
            if op == "insert":
                cache.insert(key, amount, 0.0)
                reference.insert(key, amount)
            elif op == "lookup":
                cache.lookup(key, 0.0)
                reference.lookup(key)
            elif op == "pressure":
                cache.apply_pressure(amount)
                reference.apply_pressure(amount)
            else:
                cache.invalidate(key)
                reference.invalidate(key)
            assert policy.victims == reference.victims
            assert sorted(cache.keys()) == sorted(reference.sizes)
            assert cache.used_bytes == reference.used
        assert policy._priority == reference.gdsf.priority

    def test_hits_do_not_grow_the_heap(self):
        policy = GdsfPolicy()
        policy.on_insert("a", 10, 0.0)
        policy.on_insert("b", 10, 0.0)
        for _ in range(100):
            policy.on_hit("a", 0.0)
        assert len(policy._heap) == 2
        assert policy.victim() == "b"
