"""Tests for video chunking."""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cdn.cache import Cache
from repro.cdn.chunking import ChunkRef, Chunker
from repro.cdn.geo import DataCenter
from repro.cdn.http import ClientIntent
from repro.cdn.origin import OriginServer
from repro.cdn.policies import GdsfPolicy, make_policy, policy_names
from repro.cdn.server import TREND_TTL_SECONDS, EdgeResult, EdgeServer
from repro.errors import CdnError
from repro.types import CacheStatus, Continent, ContentCategory, TrendClass
from repro.workload.catalog import ContentObject


def make_object(category: ContentCategory, size: int) -> ContentObject:
    ext = "mp4" if category is ContentCategory.VIDEO else "jpg"
    return ContentObject(
        object_id=f"{category.value}-{size}",
        site="V-1",
        category=category,
        extension=ext,
        size_bytes=size,
        birth_time=0.0,
        trend=TrendClass.DIURNAL,
        popularity_weight=1.0,
    )


class TestChunker:
    def test_positive_chunk_size_required(self):
        with pytest.raises(CdnError):
            Chunker(chunk_bytes=0)

    def test_images_never_chunked(self):
        chunker = Chunker(chunk_bytes=1000)
        obj = make_object(ContentCategory.IMAGE, 50_000)
        assert not chunker.is_chunked(obj)
        assert chunker.chunk_count(obj) == 1

    def test_small_video_unchunked(self):
        chunker = Chunker(chunk_bytes=2_000_000)
        obj = make_object(ContentCategory.VIDEO, 1_500_000)
        assert not chunker.is_chunked(obj)

    def test_chunk_count_rounds_up(self):
        chunker = Chunker(chunk_bytes=1000)
        obj = make_object(ContentCategory.VIDEO, 2500)
        assert chunker.chunk_count(obj) == 3

    def test_chunk_sizes_sum_to_object(self):
        chunker = Chunker(chunk_bytes=1000)
        obj = make_object(ContentCategory.VIDEO, 2500)
        sizes = [chunker.chunk_size(obj, i) for i in range(3)]
        assert sizes == [1000, 1000, 500]

    def test_chunk_index_out_of_range(self):
        chunker = Chunker(chunk_bytes=1000)
        obj = make_object(ContentCategory.VIDEO, 2500)
        with pytest.raises(CdnError):
            chunker.chunk_size(obj, 3)

    def test_all_chunks_cover_object(self):
        chunker = Chunker(chunk_bytes=1000)
        obj = make_object(ContentCategory.VIDEO, 5_300)
        chunks = chunker.all_chunks(obj)
        assert sum(c.size for c in chunks) == 5_300
        assert [c.index for c in chunks] == list(range(6))

    def test_chunk_keys_unique_and_derived(self):
        chunker = Chunker(chunk_bytes=1000)
        obj = make_object(ContentCategory.VIDEO, 3000)
        keys = [c.key for c in chunker.all_chunks(obj)]
        assert len(set(keys)) == 3
        assert all(key.startswith(obj.object_id) for key in keys)

    def test_range_maps_to_covering_chunks(self):
        chunker = Chunker(chunk_bytes=1000)
        obj = make_object(ContentCategory.VIDEO, 10_000)
        chunks = chunker.chunks_for_range(obj, start=1500, length=2000)
        assert [c.index for c in chunks] == [1, 2, 3]

    def test_range_single_byte(self):
        chunker = Chunker(chunk_bytes=1000)
        obj = make_object(ContentCategory.VIDEO, 10_000)
        chunks = chunker.chunks_for_range(obj, start=999, length=1)
        assert [c.index for c in chunks] == [0]

    def test_range_clamped_to_object_end(self):
        chunker = Chunker(chunk_bytes=1000)
        obj = make_object(ContentCategory.VIDEO, 2_500)
        chunks = chunker.chunks_for_range(obj, start=2_000, length=99_999)
        assert [c.index for c in chunks] == [2]

    def test_objects_sharing_an_id_get_their_own_plans(self):
        """One id may name different objects (the same URL in two seeds'
        catalogs); each is planned from its own size and category."""
        chunker = Chunker(chunk_bytes=1000)
        short = make_object(ContentCategory.VIDEO, 2_500)
        long = dataclasses.replace(short, size_bytes=7_200)
        assert [c.size for c in chunker.all_chunks(short)] == [1000, 1000, 500]
        assert [c.size for c in chunker.all_chunks(long)] == [1000] * 7 + [200]
        assert [c.index for c in chunker.chunks_for_range(long, start=6_000, length=2_000)] == [6, 7]
        assert [c.size for c in chunker.all_chunks(short)] == [1000, 1000, 500]
        image = dataclasses.replace(short, category=ContentCategory.IMAGE, extension="jpg")
        assert chunker.all_chunks(image) == (ChunkRef(key=short.object_id, index=0, size=2_500),)

    def test_invalid_ranges_rejected(self):
        chunker = Chunker(chunk_bytes=1000)
        obj = make_object(ContentCategory.VIDEO, 2_500)
        with pytest.raises(CdnError):
            chunker.chunks_for_range(obj, start=-1, length=10)
        with pytest.raises(CdnError):
            chunker.chunks_for_range(obj, start=2_500, length=10)
        with pytest.raises(CdnError):
            chunker.chunks_for_range(obj, start=0, length=0)

    def test_unchunked_range_returns_whole_object(self):
        chunker = Chunker(chunk_bytes=1_000_000)
        obj = make_object(ContentCategory.IMAGE, 300)
        chunks = chunker.chunks_for_range(obj, 100, 50)
        assert len(chunks) == 1
        assert chunks[0].key == obj.object_id
        assert chunks[0].size == 300


def _reference_chunks(chunker: Chunker, obj: ContentObject, start: int, length: int) -> tuple[ChunkRef, ...]:
    """``chunks_for_range`` by its per-index definition, one ``chunk_size`` per chunk."""
    length = min(length, obj.size_bytes - start)
    if not chunker.is_chunked(obj):
        return (ChunkRef(key=obj.object_id, index=0, size=chunker.chunk_size(obj, 0)),)
    first = start // chunker.chunk_bytes
    last = (start + length - 1) // chunker.chunk_bytes
    return tuple(
        ChunkRef(key=f"{obj.object_id}#c{index}", index=index, size=chunker.chunk_size(obj, index))
        for index in range(first, last + 1)
    )


@st.composite
def _ranges(draw):
    chunk_bytes = draw(st.integers(min_value=1, max_value=5_000))
    category = draw(st.sampled_from(list(ContentCategory)))
    size = draw(st.integers(min_value=1, max_value=40 * chunk_bytes))
    count = -(-size // chunk_bytes)
    start = draw(
        st.one_of(
            st.integers(min_value=0, max_value=size - 1),
            # Starts inside the object's last chunk.
            st.integers(min_value=(count - 1) * chunk_bytes, max_value=size - 1),
        )
    )
    length = draw(
        st.one_of(
            st.integers(min_value=1, max_value=2 * size),
            # Ends exactly at the object's end.
            st.just(size - start),
        )
    )
    return Chunker(chunk_bytes), make_object(category, size), start, length


class TestChunksForRangeMatchesDefinition:
    @settings(max_examples=400)
    @given(case=_ranges())
    def test_random_ranges(self, case):
        chunker, obj, start, length = case
        assert chunker.chunks_for_range(obj, start, length) == _reference_chunks(chunker, obj, start, length)

    @pytest.mark.parametrize("size", [2_000, 2_001, 2_999, 3_000, 3_001])
    def test_edges_of_the_last_chunk(self, size):
        chunker = Chunker(chunk_bytes=1_000)
        obj = make_object(ContentCategory.VIDEO, size)
        last_start = (chunker.chunk_count(obj) - 1) * 1_000
        for start in (0, last_start - 1, last_start, size - 1):
            for length in (1, size - start, size):
                assert chunker.chunks_for_range(obj, start, length) == _reference_chunks(
                    chunker, obj, start, length
                )

    def test_all_chunks_matches_definition(self):
        chunker = Chunker(chunk_bytes=1_000)
        for size in (1, 999, 1_000, 1_001, 5_300, 6_000):
            obj = make_object(ContentCategory.VIDEO, size)
            assert chunker.all_chunks(obj) == _reference_chunks(chunker, obj, 0, size)


class _ReferenceCache(Cache):
    """``Cache.lookup`` by its definition: an entry is fresh until its TTL runs out."""

    def lookup(self, key, now, revalidate_version=None):
        self.stats.lookups += 1
        entry = self._entries.get(key)
        fresh = entry is not None and (entry.expires_at is None or now < entry.expires_at)
        if entry is not None and not fresh:
            if revalidate_version is not None and entry.version == revalidate_version:
                entry.expires_at = now + entry.ttl if entry.ttl is not None else None
                entry.revalidated_at = now
                self.stats.revalidations += 1
            else:
                self._remove(key)
                self.stats.expirations += 1
                entry = None
        if entry is None:
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        entry.hits += 1
        self.policy.on_hit(key, now)
        self.stats.bytes_served_from_cache += entry.size
        return entry


class _ReferenceGdsf(GdsfPolicy):
    """GDSF whose hits re-score through ``_score``."""

    def on_hit(self, key, now):
        self._frequency[key] += 1
        self._priority[key] = self._score(key)


def _reference_policy(name):
    return _ReferenceGdsf() if name == "gdsf" else make_policy(name)


class _ReferenceEdge:
    """``EdgeServer.serve`` chunk by chunk from ``_reference_chunks``, one origin fetch per miss."""

    def __init__(self, small_cache, large_cache, origin, chunker):
        self.small_cache = small_cache
        self.large_cache = large_cache
        self.origin = origin
        self.chunker = chunker

    def serve(self, obj, intent, now, cacheable):
        if intent.kind == "range" and intent.range_valid:
            start, length = intent.range_start, intent.range_length
        else:
            start, length = 0, obj.size_bytes
        length = max(1, min(length, obj.size_bytes - start))
        chunks = _reference_chunks(self.chunker, obj, start, length)
        ttl = TREND_TTL_SECONDS[obj.trend]
        version = self.origin.current_version(obj, now)
        hits = bytes_from_cache = bytes_from_origin = 0
        for chunk in chunks:
            small = chunk.size <= self.chunker.chunk_bytes // 2
            cache = self.small_cache if small else self.large_cache
            if cache.lookup(chunk.key, now, revalidate_version=version) is not None:
                hits += 1
                bytes_from_cache += chunk.size
                continue
            cache.stats.bytes_fetched_from_origin += chunk.size
            bytes_from_origin += chunk.size
            self.origin.fetch(obj, chunk.size, now)
            if cacheable:
                cache.insert(chunk.key, chunk.size, now, ttl=ttl, version=version)
        return EdgeResult(
            cache_status=CacheStatus.HIT if hits == len(chunks) else CacheStatus.MISS,
            chunks_touched=len(chunks),
            chunks_hit=hits,
            bytes_from_cache=bytes_from_cache,
            bytes_from_origin=bytes_from_origin,
            first_chunk_index=chunks[0].index,
        )


def _edge_pair(policy, split, chunk_bytes):
    """An ``EdgeServer`` and a reference edge with equal, empty state."""

    def caches(cache_type, make):
        capacity = 12 * chunk_bytes
        if not split:
            cache = cache_type(capacity_bytes=capacity, policy=make(policy))
            return cache, cache
        small = cache_type(capacity_bytes=3 * chunk_bytes, policy=make(policy))
        return small, cache_type(capacity_bytes=capacity, policy=make(policy))

    def origin():
        return OriginServer(mutation_rate_per_day=3.0, seed=11)

    chunker = Chunker(chunk_bytes)
    small, large = caches(Cache, make_policy)
    edge = EdgeServer(DataCenter("dc", Continent.EUROPE, 12 * chunk_bytes), small, large, origin(), chunker)
    ref_small, ref_large = caches(_ReferenceCache, _reference_policy)
    return edge, _ReferenceEdge(ref_small, ref_large, origin(), Chunker(chunk_bytes))


@st.composite
def _edge_steps(draw, chunk_bytes):
    """Objects of 1 byte to 25 chunks, and (object, intent, now, cacheable) steps over them."""
    half = chunk_bytes // 2  # the largest small-tier entry
    tier_edges = st.sampled_from([1, half, half + 1, chunk_bytes, chunk_bytes + 1, 3 * chunk_bytes + half, 25 * chunk_bytes])
    objects = []
    for index in range(draw(st.integers(min_value=1, max_value=6))):
        category = draw(st.sampled_from([ContentCategory.VIDEO, ContentCategory.VIDEO, ContentCategory.IMAGE]))
        objects.append(
            ContentObject(
                object_id=f"o{index}",
                site="V-1",
                category=category,
                extension="mp4" if category is ContentCategory.VIDEO else "jpg",
                size_bytes=draw(st.one_of(st.integers(min_value=1, max_value=25 * chunk_bytes), tier_edges)),
                birth_time=draw(st.sampled_from([0.0, 0.0, 5_000.0])),
                trend=draw(st.sampled_from(list(TrendClass))),
                popularity_weight=1.0,
            )
        )
    steps = []
    now = 0.0
    for _ in range(draw(st.integers(min_value=1, max_value=40))):
        obj = draw(st.sampled_from(objects))
        kind = draw(st.sampled_from(["full", "conditional", "range", "range"]))
        start = draw(st.integers(min_value=0, max_value=obj.size_bytes - 1))
        length = draw(st.integers(min_value=1, max_value=2 * obj.size_bytes))
        intent = ClientIntent(kind=kind, range_start=start, range_length=length, range_valid=draw(st.booleans()))
        # Steps of a whole TTL land exactly on an entry's expiry.
        now += draw(st.sampled_from([0.0, 1.0, 600.0, 3_600.0, 21_600.0, 30_000.0, 86_400.0]))
        steps.append((obj, intent, now, draw(st.booleans())))
    return steps


class TestEdgeMatchesReferenceEdge:
    """The edge's plan slices, lean hit path and inline GDSF score against the per-chunk definition."""

    @pytest.mark.parametrize("chunk_bytes", [1_000, 4_096])
    @pytest.mark.parametrize("split", [True, False], ids=["split", "unified"])
    @pytest.mark.parametrize("policy", policy_names())
    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data())
    def test_same_steps_same_state(self, policy, split, chunk_bytes, data):
        edge, reference = _edge_pair(policy, split, chunk_bytes)
        for obj, intent, now, cacheable in data.draw(_edge_steps(chunk_bytes)):
            assert edge.serve(obj, intent, now, cacheable=cacheable) == reference.serve(obj, intent, now, cacheable)
            for tier, ref_tier in ((edge.small_cache, reference.small_cache), (edge.large_cache, reference.large_cache)):
                assert tier.stats == ref_tier.stats
                assert set(tier.keys()) == set(ref_tier.keys())
            assert (edge.origin.fetches, edge.origin.bytes_served) == (
                reference.origin.fetches,
                reference.origin.bytes_served,
            )
