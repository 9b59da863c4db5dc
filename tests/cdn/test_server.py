"""Tests for the edge server (cache + origin + HTTP glue)."""

from __future__ import annotations

import pytest

from repro.cdn.cache import Cache
from repro.cdn.chunking import Chunker
from repro.cdn.geo import DataCenter
from repro.cdn.http import ClientIntent
from repro.cdn.origin import OriginServer
from repro.cdn.policies import LruPolicy
from repro.cdn.server import TREND_TTL_SECONDS, EdgeServer
from repro.stats.sampling import make_rng
from repro.types import CacheStatus, Continent, ContentCategory, TrendClass
from repro.workload.catalog import ContentObject


def make_object(size=5_000_000, category=ContentCategory.VIDEO, trend=TrendClass.DIURNAL) -> ContentObject:
    ext = "mp4" if category is ContentCategory.VIDEO else "jpg"
    return ContentObject(
        object_id="obj-1",
        site="V-1",
        category=category,
        extension=ext,
        size_bytes=size,
        birth_time=0.0,
        trend=trend,
        popularity_weight=1.0,
    )


def make_edge(capacity=100_000_000, chunk_bytes=1_000_000, split=False, trend_ttl=True):
    dc = DataCenter("dc-test", Continent.EUROPE, capacity)
    origin = OriginServer(mutation_rate_per_day=0.0, rng=make_rng(0))
    chunker = Chunker(chunk_bytes)
    if split:
        small = Cache(capacity_bytes=capacity // 10, policy=LruPolicy())
        large = Cache(capacity_bytes=capacity, policy=LruPolicy())
    else:
        small = large = Cache(capacity_bytes=capacity, policy=LruPolicy())
    return EdgeServer(dc, small, large, origin, chunker, trend_aware_ttl=trend_ttl)


class TestServe:
    def test_first_request_misses_then_hits(self):
        edge = make_edge()
        obj = make_object()
        first = edge.serve(obj, ClientIntent(kind="full"), now=0.0)
        assert first.cache_status is CacheStatus.MISS
        assert first.bytes_from_origin == obj.size_bytes
        second = edge.serve(obj, ClientIntent(kind="full"), now=1.0)
        assert second.cache_status is CacheStatus.HIT
        assert second.bytes_from_cache == obj.size_bytes
        assert second.bytes_from_origin == 0

    def test_chunked_video_touches_expected_chunks(self):
        edge = make_edge(chunk_bytes=1_000_000)
        obj = make_object(size=5_000_000)
        result = edge.serve(obj, ClientIntent(kind="full"), now=0.0)
        assert result.chunks_touched == 5

    def test_range_request_touches_subset(self):
        edge = make_edge(chunk_bytes=1_000_000)
        obj = make_object(size=5_000_000)
        edge.serve(obj, ClientIntent(kind="full"), now=0.0)
        intent = ClientIntent(kind="range", range_start=1_500_000, range_length=1_000_000)
        result = edge.serve(obj, intent, now=1.0)
        assert result.chunks_touched == 2
        assert result.cache_status is CacheStatus.HIT
        assert result.first_chunk_index == 1

    def test_partial_chunk_hit_is_request_miss(self):
        edge = make_edge(chunk_bytes=1_000_000)
        obj = make_object(size=5_000_000)
        # Cache only chunks 0-1 via a range request...
        edge.serve(obj, ClientIntent(kind="range", range_start=0, range_length=2_000_000), now=0.0)
        # ...then ask for chunks 1-2: chunk 2 is cold -> request-level MISS.
        result = edge.serve(obj, ClientIntent(kind="range", range_start=1_000_000, range_length=2_000_000), now=1.0)
        assert result.chunks_hit == 1
        assert result.cache_status is CacheStatus.MISS

    def test_uncacheable_publisher_never_stores(self):
        edge = make_edge()
        obj = make_object()
        edge.serve(obj, ClientIntent(kind="full"), now=0.0, cacheable=False)
        result = edge.serve(obj, ClientIntent(kind="full"), now=1.0, cacheable=False)
        assert result.cache_status is CacheStatus.MISS

    def test_trend_ttl_applied(self):
        edge = make_edge()
        obj = make_object(trend=TrendClass.SHORT_LIVED)
        edge.serve(obj, ClientIntent(kind="full"), now=0.0)
        key = f"{obj.object_id}#c0"
        entry = edge.large_cache.peek(key)
        assert entry.expires_at == pytest.approx(TREND_TTL_SECONDS[TrendClass.SHORT_LIVED])

    def test_objects_sharing_an_id_get_their_own_ttls(self):
        """One id may name objects of different trends (the same URL in
        two seeds' catalogs); each is cached with its own trend's TTL."""
        edge = make_edge()
        key = "obj-1#c0"
        for trend in (TrendClass.SHORT_LIVED, TrendClass.DIURNAL, TrendClass.SHORT_LIVED):
            edge.large_cache.invalidate(key)
            edge.serve(make_object(trend=trend), ClientIntent(kind="full"), now=0.0)
            assert edge.large_cache.peek(key).expires_at == pytest.approx(TREND_TTL_SECONDS[trend])

    def test_ttl_disabled(self):
        edge = make_edge(trend_ttl=False)
        obj = make_object()
        edge.serve(obj, ClientIntent(kind="full"), now=0.0)
        entry = edge.large_cache.peek(f"{obj.object_id}#c0")
        assert entry.expires_at is None

    def test_stale_entries_revalidate_without_origin_bytes(self):
        edge = make_edge()
        obj = make_object(trend=TrendClass.SHORT_LIVED)  # 1h TTL
        edge.serve(obj, ClientIntent(kind="full"), now=0.0)
        origin_bytes_before = edge.origin.bytes_served
        result = edge.serve(obj, ClientIntent(kind="full"), now=7200.0)
        # Version unchanged (mutation rate 0) -> revalidation, still a HIT.
        assert result.cache_status is CacheStatus.HIT
        assert edge.origin.bytes_served == origin_bytes_before


class TestSplitTiers:
    def test_small_objects_go_to_small_cache(self):
        edge = make_edge(split=True, chunk_bytes=1_000_000)
        obj = make_object(size=100_000, category=ContentCategory.IMAGE)
        edge.serve(obj, ClientIntent(kind="full"), now=0.0)
        assert edge.small_cache.peek(obj.object_id) is not None
        assert edge.large_cache.peek(obj.object_id) is None

    def test_video_chunks_go_to_large_cache(self):
        edge = make_edge(split=True, chunk_bytes=1_000_000)
        obj = make_object(size=5_000_000)
        edge.serve(obj, ClientIntent(kind="full"), now=0.0)
        assert edge.large_cache.peek(f"{obj.object_id}#c0") is not None
        assert len(edge.small_cache) == 0

    def test_is_split_flags(self):
        assert make_edge(split=True).is_split
        assert not make_edge(split=False).is_split

    def test_caches_listing(self):
        assert len(make_edge(split=True).caches()) == 2
        assert len(make_edge(split=False).caches()) == 1
