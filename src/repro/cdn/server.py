"""The edge server: cache + origin + HTTP glue at one data center.

An :class:`EdgeServer` answers one request at a time.  It consults the
edge cache chunk-by-chunk (videos are chunked; see
:mod:`repro.cdn.chunking`), fills misses from the origin, applies TTL
revalidation, and reports the request-level cache status the paper logs:
a request is a **HIT** when *every* chunk it touched was served from
cache, otherwise a **MISS** (the conservative convention CDN logs use).
"""

from __future__ import annotations

from typing import NamedTuple

from repro.cdn.cache import Cache
from repro.cdn.chunking import Chunker
from repro.cdn.geo import DataCenter
from repro.cdn.http import ClientIntent
from repro.cdn.origin import OriginServer
from repro.types import CacheStatus, TrendClass
from repro.workload.catalog import ContentObject

#: TTLs by trend class, implementing the paper's Section IV-B suggestion:
#: revalidate short-lived objects hourly, long-lived/diurnal daily.
TREND_TTL_SECONDS = {
    TrendClass.DIURNAL: 86_400.0,
    TrendClass.LONG_LIVED: 86_400.0,
    TrendClass.SHORT_LIVED: 3_600.0,
    TrendClass.FLASH_CROWD: 3_600.0,
    TrendClass.OUTLIER: 21_600.0,
}


class EdgeResult(NamedTuple):
    """Outcome of serving one request at the edge (a tuple: one is built
    per served request)."""

    cache_status: CacheStatus
    chunks_touched: int
    chunks_hit: int
    bytes_from_cache: int
    bytes_from_origin: int
    first_chunk_index: int


class EdgeServer:
    """One data center's cache front-end.

    The edge runs up to two caching tiers, following the paper's Section V
    implication ("ISPs/CDNs can employ separate caching platforms to
    optimally serve small and large sized objects"): a small-object tier
    for images and other sub-chunk objects, and a large-object tier for
    video chunks.  Pass the same :class:`Cache` for both to model a single
    unified cache (the ablation baseline).
    """

    def __init__(
        self,
        datacenter: DataCenter,
        small_cache: Cache,
        large_cache: Cache,
        origin: OriginServer,
        chunker: Chunker | None = None,
        trend_aware_ttl: bool = True,
    ):
        self.datacenter = datacenter
        self.small_cache = small_cache
        self.large_cache = large_cache
        self.origin = origin
        self.chunker = chunker or Chunker()
        self.trend_aware_ttl = trend_aware_ttl
        #: Each object's trend TTL, looked up once per object (beside the
        #: chunker's per-object plan) instead of on every request:
        #: object_id -> (trend, TTL), reused only for an object of that
        #: trend, since one id may name different objects in two catalogs.
        self._ttls: dict[str, tuple[TrendClass, float]] = {}

    @property
    def is_split(self) -> bool:
        return self.small_cache is not self.large_cache

    def cache_for(self, size: int) -> Cache:
        """The tier responsible for entries of ``size`` bytes."""
        if size <= self.chunker.chunk_bytes // 2:
            return self.small_cache
        return self.large_cache

    def caches(self) -> list[Cache]:
        """The distinct cache tiers of this edge (1 when unified)."""
        if self.is_split:
            return [self.small_cache, self.large_cache]
        return [self.large_cache]

    def _ttl_for(self, obj: ContentObject) -> float | None:
        if not self.trend_aware_ttl:
            return None
        trend = obj.trend
        entry = self._ttls.get(obj.object_id)
        if entry is not None and entry[0] is trend:
            return entry[1]
        ttl = TREND_TTL_SECONDS[trend]
        self._ttls[obj.object_id] = (trend, ttl)
        return ttl

    def serve(
        self,
        obj: ContentObject,
        intent: ClientIntent,
        now: float,
        cacheable: bool = True,
        version: int | None = None,
    ) -> EdgeResult:
        """Serve the byte span ``intent`` addresses, updating the cache.

        ``cacheable=False`` (per-publisher configuration; the paper notes
        CDNs customise cache configuration per publisher, and S-1 has the
        smallest cached share) serves through the edge without storing.
        ``version`` is the object's origin version at ``now`` when the
        caller has already looked it up (the simulator's serve loop has);
        None looks it up here.
        """
        if intent.kind == "range" and intent.range_valid:
            start, length = intent.range_start, intent.range_length
        else:
            start, length = 0, obj.size_bytes
        length = max(1, min(length, obj.size_bytes - start))
        chunker = self.chunker
        chunks = chunker.chunks_for_range(obj, start, length)

        hits = 0
        bytes_from_cache = 0
        bytes_from_origin = 0
        ttl = self._ttl_for(obj)
        if version is None:
            version = self.origin.current_version(obj, now)
        small_limit = chunker.chunk_bytes // 2  # cache_for's tier split
        small_cache, large_cache = self.small_cache, self.large_cache
        for chunk in chunks:
            size = chunk.size
            cache = small_cache if size <= small_limit else large_cache
            if cache.lookup(chunk.key, now, version) is not None:
                hits += 1
                bytes_from_cache += size
                continue
            cache.stats.bytes_fetched_from_origin += size
            bytes_from_origin += size
            if cacheable:
                cache.insert(chunk.key, size, now, ttl, version)
        if hits < len(chunks):
            # One origin fetch per missed chunk; the version is the one
            # already looked up above.
            self.origin.count_fetches(obj, len(chunks) - hits, bytes_from_origin, now)
        status = CacheStatus.HIT if hits == len(chunks) else CacheStatus.MISS
        return EdgeResult(
            cache_status=status,
            chunks_touched=len(chunks),
            chunks_hit=hits,
            bytes_from_cache=bytes_from_cache,
            bytes_from_origin=bytes_from_origin,
            first_chunk_index=chunks[0].index,
        )
