"""The CDN simulator: workload requests in, HTTP log records out.

For each workload request — a row of a
:class:`~repro.workload.generator.RequestBlock` — the simulator

1. routes the user to their data center (:mod:`repro.cdn.routing`);
2. consults the user's browser cache — a fresh private copy turns the
   request into a conditional GET (:mod:`repro.cdn.browser`), answered 304
   when the origin version is unchanged;
3. otherwise decides the HTTP intent (full / Range / beacon) via the
   client model (:mod:`repro.cdn.http`);
4. applies access control (403/416 paths) and serves the bytes through the
   edge cache chunk-by-chunk (:mod:`repro.cdn.server`);
5. logs one row — timestamp, publisher, hashed URL, file type, size, user
   agent, anonymised user id, cache status, status code, bytes served and
   data center, exactly the schema the paper's dataset has (Section III).
   The shard hands back only the values it decides per request
   (timestamp, hit flag, status code, bytes served, chunk index); the run
   loop keeps them as columns beside the row's user index, object index
   and shard position, and each batch takes the strings, which are fixed
   per object, user or shard, from per-table code arrays in numpy
   (:class:`_TableColumns`, :func:`~repro.trace.batch.seal_columns`).

Sharding and determinism
------------------------
A user routes to exactly one data center and owns their own browser
cache, so the simulation state factors into independent *shards*, one per
``(data center, cache partition)``.  Every stochastic draw comes from a
counter-based stream keyed on the request (or object) itself rather than
from one sequential generator, so a request's outcome is independent of
execution order.  :meth:`CdnSimulator.run_batches` exploits both
properties: with ``workers > 1`` the
request stream is *streamed* through persistent shard workers: the parent
drains the workload generator block by block, splits each block's
columns by shard, and feeds per-shard bounded dispatch windows
(``queue_depth`` requests in flight per shard, backpressure otherwise),
while an incremental frontier merge
emits :class:`~repro.trace.batch.RecordBatch` blocks as soon as every
shard's ``request_id`` frontier has passed the merge head.  Generation
overlaps simulation, peak resident requests are O(queue_depth × shards)
instead of O(stream), and the output is still bit-identical to the
sequential order — with a :class:`SimStats` record proving where the
time went.
"""

from __future__ import annotations

import multiprocessing
import os
import queue as queue_lib
import time
import zlib
from collections import OrderedDict, deque
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator

import numpy as np

from repro.errors import PlanError, SimulationError

from repro.cdn.browser import BrowserCache
from repro.cdn.cache import Cache, CacheStats
from repro.cdn.chunking import Chunker
from repro.cdn.geo import DataCenter, Topology, default_datacenters, latency_ms
from repro.cdn.http import FULL_INTENT, ClientModel, decide_response
from repro.cdn.metrics import SimulationMetrics
from repro.cdn.origin import OriginServer
from repro.cdn.playback import PlaybackModel
from repro.cdn.policies import make_policy
from repro.cdn.proxy import IspProxyLayer
from repro.cdn.replication import PushReplicator, PushStats
from repro.cdn.routing import Router, user_partition
from repro.cdn.server import EdgeServer
from repro.stats.sampling import CounterStreams, counter_rng
from repro.trace.anonymize import Anonymizer
from repro.trace.batch import ALL_COLUMNS, DEFAULT_BATCH_SIZE, RecordBatch, StringColumn, seal_columns
from repro.types import CacheStatus, Continent, ContentCategory
from repro.workload.catalog import ContentObject
from repro.workload.generator import RequestBlock, RequestTables
from repro.workload.population import User
from repro.workload.profiles import SiteProfile

#: Default per-shard dispatch window: enough to keep a worker busy while
#: the parent generates the next block, small enough that peak resident
#: requests stay O(queue_depth × shards) rather than the whole stream.
DEFAULT_QUEUE_DEPTH = 8192

#: Fault-injection hooks for the failure-path tests: a worker raises (or
#: SIGKILLs itself) when it is about to serve the named request id.
_FAIL_RID_ENV = "REPRO_SIM_FAIL_REQUEST_ID"
_KILL_RID_ENV = "REPRO_SIM_KILL_REQUEST_ID"

#: Default per-data-center edge cache size relative to the total catalog.
#: Large enough for popular content, small enough that the long tail churns
#: — the regime in which the paper's 80-90% aggregate hit ratios and the
#: popularity/hit-ratio correlation both appear.
DEFAULT_CACHE_CATALOG_FRACTION = 0.5

#: Floor on the default edge cache capacity, so tiny test catalogs still
#: get a cache with realistic churn behaviour.
MIN_CACHE_CAPACITY_BYTES = 200_000_000

#: Share of each edge's capacity given to the small-object tier when
#: ``split_small_object_cache`` is on.
SMALL_CACHE_FRACTION = 0.15

#: Continent hosting the publishers' origin servers (the miss penalty).
ORIGIN_CONTINENT = Continent.NORTH_AMERICA


def sized_simulation_config(catalogs: Iterable, seed: int) -> "SimulationConfig":
    """The default :class:`SimulationConfig` for generated workloads.

    Each data center's edge cache is sized to
    :data:`DEFAULT_CACHE_CATALOG_FRACTION` of the total catalog bytes
    (with the :data:`MIN_CACHE_CAPACITY_BYTES` floor), and the simulation
    seed is offset from the workload seed so the two subsystems never
    share a random stream.
    """
    catalog_bytes = sum(catalog.total_bytes() for catalog in catalogs)
    capacity = max(MIN_CACHE_CAPACITY_BYTES, int(DEFAULT_CACHE_CATALOG_FRACTION * catalog_bytes))
    return SimulationConfig(seed=seed + 1, cache_capacity_bytes=capacity)


@dataclass
class SimulationConfig:
    """Tunables of a simulation run."""

    #: Edge cache replacement policy name (see :mod:`repro.cdn.policies`).
    #: GDSF by default: size-aware eviction keeps the small-object (image)
    #: tier resident under churn from large videos, which is the regime the
    #: paper observes (image hit ratios above video; Section V suggests the
    #: CDN treats small and large objects differently).
    cache_policy: str = "gdsf"
    #: Edge cache capacity per data center, bytes.
    cache_capacity_bytes: int = 40_000_000_000
    #: Video chunk size, bytes.
    chunk_bytes: int = 2_000_000
    #: Trend-class-aware TTL revalidation at the edge (paper §IV-B idea).
    trend_aware_ttl: bool = True
    #: Whether browsers cache video at all (players usually bypass).
    browser_caches_video: bool = False
    #: Probability a fresh browser-cache copy is served locally with *no*
    #: CDN request at all (heuristic freshness).  The remainder issues a
    #: conditional GET, producing the paper's (rare) 304s.
    browser_local_serve_prob: float = 0.75
    #: Run separate small-object and large-object caching tiers per edge
    #: (the paper's Section V suggestion).  False = one unified cache.
    split_small_object_cache: bool = True
    #: Warm the edge caches with popular pre-existing objects before the
    #: trace starts (a real CDN's caches are never cold on day one).
    warm_caches: bool = True
    #: Fraction of each edge cache pre-filled during warm-up.
    warm_fill_fraction: float = 0.8
    #: Background churn: fraction of each edge cache's capacity evicted per
    #: day by *other publishers'* traffic (the CDN serves dozens of sites we
    #: do not simulate).  Under the size-aware default policy this pressure
    #: lands mostly on large cold video chunks, reproducing the paper's
    #: image-over-video hit-ratio ordering.  0 disables churn.
    background_churn_per_day: float = 0.35
    #: Optional ISP proxy-cache layer between users and the CDN (paper
    #: Section V).  Requests the proxy satisfies never reach the CDN and
    #: produce no log records.
    isp_proxies: bool = False
    #: Streaming playback mode: each video viewing produces one 206 log
    #: record per downloaded segment (sequential + seeks + abandonment)
    #: instead of one record per viewing.  Off by default — the paper's
    #: log granularity is per request, and the figure calibrations assume
    #: it; enable for the streaming-cache ablation.
    playback_mode: bool = False
    #: Master seed for the simulator's own randomness.
    seed: int = 7
    #: Independent cache partitions per data center.  Users are
    #: consistent-hashed onto partitions (the way CDN PoPs spread clients
    #: across cache nodes), each owning ``1/shards_per_dc`` of the DC's
    #: capacity.  Values above 1 change the simulated cache behaviour
    #: (deliberately — it *is* a different CDN design) but apply
    #: identically to the sequential and parallel execution paths, and
    #: raise the available parallelism beyond the number of DCs.
    shards_per_dc: int = 1
    #: Cap on concurrently tracked per-user browser caches per shard; the
    #: least recently active browser is evicted past it (counted in
    #: ``SimulationMetrics.evicted_browsers``).  None = unbounded.
    max_tracked_browsers: int | None = None
    #: Per-site cache admission probability multiplier; defaults to each
    #: profile's ``cache_priority`` when profiles are supplied.
    cache_priority: dict[str, float] = field(default_factory=dict)


@dataclass(frozen=True, slots=True)
class ShardStats:
    """What one simulation shard did during a :meth:`~CdnSimulator.run_batches` call."""

    shard_id: str
    #: Requests queued to (and served by) the shard.
    queue_depth: int
    #: Log records the shard emitted.
    records: int
    #: Time spent serving the shard's queue (its own process's clock when
    #: parallel; accumulated dispatch time when sequential).
    wall_seconds: float
    #: High-water mark of requests in flight to the shard's worker at any
    #: one moment (bounded by ``queue_depth`` in the streaming dispatcher;
    #: 0 on the sequential path, which never queues).
    queue_peak: int = 0


@dataclass(frozen=True, slots=True)
class SimStats:
    """Execution statistics of one :meth:`~CdnSimulator.run_batches` call.

    The simulate-stage sibling of ``DtwStats`` / ``IngestStats``: how many
    workers ran, end-to-end wall time, per-shard busy time and queue
    depth, and the resulting throughput.
    """

    workers: int
    requests: int
    records: int
    wall_seconds: float
    shards: tuple[ShardStats, ...]
    #: Time spent inside the request source (the workload generator) while
    #: draining it — the cost the streaming dispatcher overlaps with
    #: simulation.
    generate_seconds: float = 0.0
    #: Fraction of ``generate_seconds`` spent while at least one dispatched
    #: request was in flight to a worker (0.0 on the sequential path, where
    #: generation and serving strictly alternate).
    overlap_fraction: float = 0.0
    #: High-water mark of requests resident in the dispatcher at once
    #: (staged block plus all in-flight dispatch windows) — the memory
    #: bound the bounded queues buy, compared against the stream length.
    peak_resident_requests: int = 0
    #: Spill activity of the frontier merge under a memory budget (all
    #: zero when nothing spilt): segments written, payload bytes out/in,
    #: and time spent on spill I/O.
    spill_files: int = 0
    bytes_spilled: int = 0
    bytes_restored: int = 0
    spill_seconds: float = 0.0

    @property
    def records_per_sec(self) -> float:
        if self.wall_seconds <= 0:
            return 0.0
        return self.records / self.wall_seconds

    @property
    def ideal_speedup(self) -> float:
        """Parallelism available in the shard split, independent of cores.

        Total shard busy time divided by the busiest shard: the speedup a
        machine with enough cores could extract from this queue balance.
        """
        busy = [s.wall_seconds for s in self.shards if s.wall_seconds > 0]
        if not busy:
            return 1.0
        return sum(busy) / max(busy)


class SimulatorShard:
    """All mutable simulation state of one ``(data center, partition)``.

    A shard owns its edge server (and caches), its users' browser caches,
    its churn clock, an origin replica, an optional ISP-proxy layer and an
    optional replica of the push plan.  Nothing is shared with other
    shards, so a shard can be pickled into a worker process, serve its
    request queue there, and be shipped back whole — leaving exactly the
    state an in-process sequential run would have produced.
    """

    def __init__(
        self,
        dc: DataCenter,
        partition: int,
        config: SimulationConfig,
        cache_priority: dict[str, float],
    ):
        self.dc = dc
        self.partition = partition
        self.config = config
        self.cache_priority = cache_priority
        self.shard_id = f"{dc.dc_id}/{partition}"
        capacity = max(1, dc.cache_capacity_bytes // max(1, config.shards_per_dc))
        chunker = Chunker(config.chunk_bytes)
        if config.split_small_object_cache:
            small_capacity = max(1, int(SMALL_CACHE_FRACTION * capacity))
            large_capacity = max(1, capacity - small_capacity)
            small_cache = Cache(capacity_bytes=small_capacity, policy=make_policy(config.cache_policy))
            large_cache = Cache(capacity_bytes=large_capacity, policy=make_policy(config.cache_policy))
        else:
            small_cache = large_cache = Cache(
                capacity_bytes=capacity, policy=make_policy(config.cache_policy)
            )
        # Origin replicas agree on every object's version because the
        # mutation schedules are keyed on (seed, object_id), not on query
        # order; each shard's replica counts only its own fetches.
        self.origin = OriginServer(seed=config.seed + 1)
        self.edge = EdgeServer(
            dc, small_cache, large_cache, self.origin, chunker,
            trend_aware_ttl=config.trend_aware_ttl,
        )
        self.client_model = ClientModel()
        self._request_streams = CounterStreams(config.seed, "request")
        self.metrics = SimulationMetrics()
        self.browsers: OrderedDict[str, BrowserCache] = OrderedDict()
        self.churn_clock = 0.0
        self.replicator: PushReplicator | None = None
        self.proxies: IspProxyLayer | None = None
        if config.isp_proxies:
            self.proxies = IspProxyLayer()
        self.playback: PlaybackModel | None = None
        if config.playback_mode:
            self.playback = PlaybackModel(segment_bytes=config.chunk_bytes)
        # First-byte latency terms, added per request in a fixed order:
        # the user <-> edge round trip per user continent (indexed by
        # ``Continent.code``), and the edge <-> origin round trip.
        self._user_rtt = [2 * latency_ms(continent, dc.continent) for continent in Continent]
        self._origin_rtt = 2 * latency_ms(dc.continent, ORIGIN_CONTINENT)

    # -- serving -------------------------------------------------------------
    #
    # A served row is the tuple ``(timestamp, hit, status_code,
    # bytes_served, chunk_index)``: the values the CDN decides per request.
    # The rest of a log row is fixed by its object, its user and the
    # shard, and the run loop adds it per batch (:class:`_TableColumns`).

    def process(self, user: User, obj: ContentObject, now: float, request_id: int) -> list[tuple]:
        """Serve ``user``'s request ``request_id`` for ``obj`` at ``now``,
        returning the rows it logged (0..n)."""
        if self.playback is not None and self.playback.is_streamable(obj):
            return self.serve_viewing(user, obj, now, request_id)
        row = self.serve(user, obj, now, request_id)
        return [row] if row is not None else []

    def _request_rng(self, request_id: int) -> np.random.Generator:
        """The request's private random stream — pure function of the id.

        It is ``counter_rng(seed, "request", request_id)``, served by
        re-keying the shard's one shared stream, so it stays valid only
        until the next request's ``_request_rng`` call: every draw for a
        request is made before the shard moves on.
        """
        return self._request_streams.at(request_id)

    def _browser_for(self, user: User, now: float) -> BrowserCache:
        browser = self.browsers.get(user.user_id)
        if browser is None:
            browser = BrowserCache(incognito=user.incognito)
            self.browsers[user.user_id] = browser
            cap = self.config.max_tracked_browsers
            if cap is not None and len(self.browsers) > cap:
                self.browsers.popitem(last=False)
                self.metrics.evicted_browsers += 1
        else:
            self.browsers.move_to_end(user.user_id)
        browser.observe_request_time(now)
        return browser

    def serve(self, user: User, obj: ContentObject, now: float, request_id: int) -> tuple | None:
        """Serve ``user``'s request ``request_id`` for ``obj`` at ``now``
        end-to-end, returning its served row; None when served from the
        browser.

        A fresh local copy is served without contacting the CDN with
        probability ``browser_local_serve_prob`` — those accesses are
        invisible to CDN logs, which is the mechanism behind the paper's
        incognito/304 discussion (Section V).
        """
        edge = self.edge
        rng = self._request_rng(request_id)
        self._apply_background_churn(now)
        if self.replicator is not None:
            self.replicator.advance(now, (edge,))

        browser = self._browser_for(user, now)

        cached = browser.get(obj.object_id)
        if cached is not None and rng.random() < self.config.browser_local_serve_prob:
            return None  # served locally; the CDN never sees this access

        if self.proxies is not None and self.proxies.serve_locally(user.continent, obj, now):
            return None  # satisfied by the ISP proxy; invisible to CDN logs
        cached_version = cached.version if cached is not None else None
        intent = self.client_model.intent(obj, cached_version, rng)

        allowed = self.origin.is_published(obj, now) and self.origin.check_access(rng)
        current_version = self.origin.current_version(obj, now) if allowed else 0
        decision = decide_response(intent, obj, allowed, current_version)

        # First-byte latency model: user <-> edge round trip; on an edge
        # miss the edge must first fetch from the origin continent.
        latency = self._user_rtt[user.continent.code]

        cache_status = CacheStatus.MISS
        chunk_index = -1
        bytes_from_origin = 0
        if decision.status_code in (200, 206):
            cacheable = rng.random() < self.cache_priority.get(obj.site, 1.0)
            # 200/206 means access was allowed, so ``current_version`` is
            # the origin's version at ``now``: the edge need not look it up.
            result = edge.serve(obj, intent, now, cacheable=cacheable, version=current_version)
            cache_status = result.cache_status
            chunk_index = result.first_chunk_index
            bytes_from_origin = result.bytes_from_origin
            if cache_status is CacheStatus.MISS:
                latency += self._origin_rtt
            self._maybe_browser_store(browser, obj, current_version, now)
            if self.proxies is not None:
                self.proxies.admit(user.continent, obj, now)
        elif decision.status_code == 304:
            # Revalidation is answered from edge metadata; treat as a HIT
            # when the edge still holds the (first chunk of the) object.
            first = edge.chunker.all_chunks(obj)[0]
            holder = edge.cache_for(first.size)
            cache_status = CacheStatus.HIT if holder.peek(first.key) is not None else CacheStatus.MISS

        if decision.status_code == 200 and cached is not None and cached.version != current_version:
            # Conditional request that missed: browser updates its copy.
            self._maybe_browser_store(browser, obj, current_version, now, force=True)

        self.metrics.record(
            site=obj.site,
            cache_status=cache_status,
            status_code=decision.status_code,
            bytes_served=decision.bytes_served,
            bytes_from_origin=bytes_from_origin,
            latency_ms=latency,
        )
        return (now, cache_status is CacheStatus.HIT, decision.status_code, decision.bytes_served, chunk_index)

    def serve_viewing(self, user: User, obj: ContentObject, now: float, request_id: int) -> list[tuple]:
        """Serve ``user``'s viewing ``request_id`` of video ``obj``, started
        at ``now``, as a stream of segment requests.

        Only used in playback mode: the viewing is expanded into
        sequential/seeking segment downloads with abandonment, each served
        through the edge as an independent 206 request and logged
        separately.  The whole viewing is served before this returns —
        its draws come from the request's stream, which the next request
        re-keys — and its served rows, each at its segment's time, come
        back as one list.
        """
        edge = self.edge
        rng = self._request_rng(request_id)
        self._browser_for(user, now)
        user_rtt = self._user_rtt[user.continent.code]

        allowed = self.origin.is_published(obj, now) and self.origin.check_access(rng)
        if not allowed:
            decision = decide_response(FULL_INTENT, obj, False, 0)
            self.metrics.record(
                site=obj.site, cache_status=CacheStatus.MISS,
                status_code=decision.status_code, bytes_served=0, bytes_from_origin=0,
                latency_ms=user_rtt,
            )
            return [(now, False, decision.status_code, decision.bytes_served, -1)]

        assert self.playback is not None
        rows = []
        start = now
        for segment in self.playback.viewing(obj, rng):
            now = start + segment.offset_seconds
            self._apply_background_churn(now)
            if self.replicator is not None:
                self.replicator.advance(now, (edge,))
            version = self.origin.current_version(obj, now)
            decision = decide_response(segment.intent, obj, True, version)
            cacheable = rng.random() < self.cache_priority.get(obj.site, 1.0)
            result = edge.serve(obj, segment.intent, now, cacheable=cacheable, version=version)
            latency = user_rtt
            if result.cache_status is CacheStatus.MISS:
                latency += self._origin_rtt
            self.metrics.record(
                site=obj.site, cache_status=result.cache_status,
                status_code=decision.status_code, bytes_served=decision.bytes_served,
                bytes_from_origin=result.bytes_from_origin, latency_ms=latency,
            )
            rows.append((
                now, result.cache_status is CacheStatus.HIT, decision.status_code,
                decision.bytes_served, result.first_chunk_index,
            ))
        return rows

    def _apply_background_churn(self, now: float) -> None:
        """Evict bytes on behalf of unsimulated publishers' traffic."""
        if self.config.background_churn_per_day <= 0:
            return
        last = self.churn_clock
        if now <= last:
            return
        elapsed_days = (now - last) / 86_400.0
        # The shared large-object pool takes the pressure from other
        # publishers' (unsimulated) traffic; the small-object tier is
        # engineered to keep its working set resident.
        budget = int(self.config.background_churn_per_day * elapsed_days * self.edge.large_cache.capacity_bytes)
        if budget > 0:
            self.edge.large_cache.apply_pressure(budget)
            self.churn_clock = now

    def _maybe_browser_store(
        self,
        browser: BrowserCache,
        obj,
        version: int,
        now: float,
        force: bool = False,
    ) -> None:
        if obj.category is ContentCategory.VIDEO and not self.config.browser_caches_video and not force:
            return
        browser.put(obj.object_id, obj.size_bytes, version, now)


def _first_appearance_codes(values: Iterable[str]) -> tuple[np.ndarray, list[str]]:
    """int32 codes over the distinct ``values``, numbered in first-appearance order."""
    index: dict[str, int] = {}
    codes = [index.setdefault(value, len(index)) for value in values]
    return np.asarray(codes, dtype=np.int32), list(index)


class _TableColumns:
    """What a log row takes from its user and its object, by table index.

    Built once per :class:`RequestTables` (every block of one stream
    shares them), by the sequential loop and by each shard worker.  It
    holds each user's routing keys (continent code and cache partition)
    and each object's size, and codes the strings a row takes from them:
    each object's site, extension and URL, and each user's user agent and
    id, as int32 codes over the table's distinct values.  :meth:`seal`
    turns rows served over the table into a batch; the anonymised URL and
    user tokens behind the codes are computed the first time a batch logs
    them.
    """

    def __init__(self, tables: RequestTables, config: SimulationConfig):
        users, objects = tables.users, tables.objects
        self.tables = tables
        self.continent_codes = [user.continent.code for user in users]
        self.partitions = [user_partition(user.user_id, config.shards_per_dc) for user in users]
        self.object_size = np.fromiter((obj.size_bytes for obj in objects), dtype=np.int64, count=len(objects))
        self._site, self._sites = _first_appearance_codes(obj.site for obj in objects)
        self._extension, self._extensions = _first_appearance_codes(obj.extension for obj in objects)
        self._url, self._object_ids = _first_appearance_codes(obj.object_id for obj in objects)
        self._user_agent, self._user_agents = _first_appearance_codes(user.user_agent for user in users)
        self._user, self._user_ids = _first_appearance_codes(user.user_id for user in users)
        self._anonymizer = Anonymizer(salt=f"repro-{config.seed}")
        self._url_tokens: list[str | None] = [None] * len(self._object_ids)
        self._user_tokens: list[str | None] = [None] * len(self._user_ids)

    def seal(self, values: list, keys: list[int], datacenters: tuple[np.ndarray, list[str]]) -> RecordBatch:
        """One batch of rows served over this table.

        ``values`` holds each row's served row, five values a row, and
        ``keys`` its user index, object index and shard position, three a
        row; ``datacenters`` codes each shard position's data center.
        """
        users = np.asarray(keys[0::3], dtype=np.intp)
        objects = np.asarray(keys[1::3], dtype=np.intp)
        urls = self._url[objects]
        user_ids = self._user[users]
        anonymizer = self._anonymizer
        dc_codes, dc_values = datacenters
        return seal_columns(
            timestamp=np.asarray(values[0::5], dtype=np.float64),
            object_size=self.object_size[objects],
            bytes_served=np.asarray(values[3::5], dtype=np.int64),
            status_code=np.asarray(values[2::5], dtype=np.int64),
            chunk_index=np.asarray(values[4::5], dtype=np.int64),
            hit=np.asarray(values[1::5], dtype=np.bool_),
            strings={
                "site": StringColumn(self._site[objects], self._sites),
                "object_id": StringColumn(urls, _tokens(urls, self._url_tokens, self._object_ids, anonymizer.url)),
                "extension": StringColumn(self._extension[objects], self._extensions),
                "user_id": StringColumn(
                    user_ids, _tokens(user_ids, self._user_tokens, self._user_ids, anonymizer.user)
                ),
                "user_agent": StringColumn(self._user_agent[users], self._user_agents),
                "datacenter": StringColumn(dc_codes[np.asarray(keys[2::3], dtype=np.intp)], dc_values),
            },
        )


def _tokens(codes: np.ndarray, tokens: list, raw: list[str], anonymize: Callable[[str], str]) -> list:
    """``tokens``, with the token of every value ``codes`` use filled in."""
    for code in np.unique(codes).tolist():
        if tokens[code] is None:
            tokens[code] = anonymize(raw[code])
    return tokens


def _serve_shard_queue(
    worker_id: int,
    shards: dict[int, SimulatorShard],
    tables: RequestTables | None,
    datacenters: tuple[np.ndarray, list[str]],
    in_queue,
    out_queue,
) -> None:
    """Persistent worker-process loop: serve dispatched pieces until EOF.

    The worker owns a fixed subset of shards, keyed by shard position,
    and starts with the :class:`RequestTables` of the stream's first
    block.  Messages on ``in_queue`` are ``(position, seq, timestamps,
    user_index, object_index, request_ids)`` pieces of block columns —
    FIFO per shard, so serving them in arrival order is exactly the
    sequential computation; other :class:`RequestTables`, when a later
    block indexes into different ones; or ``None`` to finish.  Each served piece is
    acknowledged on ``out_queue`` as a :class:`RecordBatch` plus the
    per-row ``request_id`` array the parent's frontier merge needs; at
    EOF the worker ships every shard it mutated back whole, so the parent
    can adopt exactly the state a sequential run would have left.
    Batches are sealed as the sequential loop seals them
    (:meth:`_TableColumns.seal`), with ``datacenters`` the parent's codes.
    """
    fail_rid = int(os.environ.get(_FAIL_RID_ENV, "-1") or "-1")
    kill_rid = int(os.environ.get(_KILL_RID_ENV, "-1") or "-1")
    busy = {position: 0.0 for position in shards}
    touched: set[int] = set()
    columns: _TableColumns | None = None
    while True:
        message = in_queue.get()
        if message is None:
            break
        if isinstance(message, RequestTables):
            tables = message
            continue
        position, seq, timestamps, user_index, object_index, request_ids = message
        shard = shards[position]
        if columns is None or columns.tables is not tables:
            columns = _TableColumns(tables, shard.config)
        users, objects = tables.users, tables.objects
        start = time.perf_counter()
        values: list = []
        keys: list[int] = []
        rids: list[int] = []
        try:
            for now, user, obj, request_id in zip(
                timestamps.tolist(), user_index.tolist(), object_index.tolist(), request_ids.tolist()
            ):
                if request_id == kill_rid:
                    os.kill(os.getpid(), 9)  # injected hard crash (tests)
                if request_id == fail_rid:
                    raise RuntimeError(f"injected worker failure at request {fail_rid}")
                served = shard.process(users[user], objects[obj], now, request_id)
                for row in served:
                    values.extend(row)
                    keys.extend((user, obj, position))
                rids.extend([request_id] * len(served))
            batch = columns.seal(values, keys, datacenters) if keys else None
        except Exception as exc:
            out_queue.put(("error", worker_id, position, f"{type(exc).__name__}: {exc}"))
            return
        busy[position] += time.perf_counter() - start
        touched.add(position)
        out_queue.put(
            ("result", worker_id, position, seq, batch, np.asarray(rids, dtype=np.int64), len(request_ids))
        )
    out_queue.put(("done", worker_id, {position: shards[position] for position in touched}, busy))


class _ShardChannel:
    """Parent-side dispatch window of one shard: bounded in-flight requests.

    ``pending`` tracks the dispatched-but-unacknowledged chunks in FIFO
    order; its head is the shard's *frontier* — the largest request id the
    shard is known to be complete through.  The dispatcher refuses to push
    past ``queue_depth`` in-flight requests, which is both the
    backpressure bound and what keeps the frontier (and therefore the
    merge head) advancing.
    """

    __slots__ = ("key", "worker_id", "pending", "inflight", "dispatched", "records", "queue_peak", "next_seq")

    def __init__(self, key: tuple[str, int], worker_id: int):
        self.key = key
        self.worker_id = worker_id
        self.pending: deque[tuple[int, int, int]] = deque()  # (seq, first_rid, count)
        self.inflight = 0
        self.dispatched = 0
        self.records = 0
        self.queue_peak = 0
        self.next_seq = 0

    def frontier(self, produced_through: int) -> int:
        """Largest id such that no record with id ≤ it can still arrive.

        With chunks pending, that is one before the oldest pending chunk's
        first id (FIFO acknowledgement means everything earlier is in).
        With nothing pending, any future dispatch can only carry ids the
        producer has not stamped yet, so the produced-through id bounds it.
        """
        if self.pending:
            return self.pending[0][1] - 1
        return produced_through

    def dispatch(self, first_rid: int, count: int) -> int:
        seq = self.next_seq
        self.next_seq += 1
        self.pending.append((seq, first_rid, count))
        self.inflight += count
        self.dispatched += count
        if self.inflight > self.queue_peak:
            self.queue_peak = self.inflight
        return seq

    def ack(self, seq: int, count: int) -> None:
        if not self.pending or self.pending[0][0] != seq:
            raise SimulationError(
                f"shard {self.key} acknowledged chunk {seq} out of FIFO order"
            )
        self.pending.popleft()
        self.inflight -= count


class _MergeBlock:
    """One acked result block inside the frontier merge, resident or spilled.

    Resident: ``rids`` (int64 request ids, non-decreasing) plus the
    columnar ``batch``.  Spilled: ``segment`` names the on-disk columnar
    copy and only ``first_rid``/``rows`` stay in memory.  ``cursor`` is
    the next row to emit (always 0 while spilled: only unconsumed blocks
    are evictable).
    """

    __slots__ = ("rids", "batch", "cursor", "nbytes", "segment", "first_rid", "rows")

    def __init__(self, rids: np.ndarray, batch: RecordBatch):
        self.rids = rids
        self.batch = batch
        self.cursor = 0
        self.segment = None
        self.first_rid = int(rids[0])
        self.rows = int(rids.size)
        self.nbytes = rids.nbytes + batch.resident_nbytes


class _FrontierMerger:
    """Incremental k-way merge of per-shard ``(request_id, row)`` blocks.

    Each shard's stream arrives in non-decreasing request-id order and the
    per-shard id sets are disjoint, so emitting every buffered row with an
    id ≤ the *bound* (the id through which every shard's stream is known
    complete, see :meth:`_ShardChannel.frontier`) in stable id order
    reproduces the sequential emission order exactly, including a playback
    request's contiguous multi-row run (equal ids all come from one shard,
    already in order).

    Buffering is columnar: each acked worker batch is kept as one
    :class:`_MergeBlock` (ids + columns), and :meth:`emit` returns its
    rows as one batch.  With a spill handle attached
    (:meth:`attach_spill`), buffered blocks past the memory budget are
    evicted to disk segments — largest first, never a shard's head block
    (the one the merge may be midway through) — and restored when they
    become the head, so the emitted rows are bit-identical at any budget.
    """

    def __init__(self, keys: Iterable[tuple[str, int]]):
        self._buffers: dict[tuple[str, int], deque[_MergeBlock]] = {
            key: deque() for key in keys
        }
        self.buffered = 0
        self._handle = None
        self._resident_bytes = 0

    def attach_spill(self, pool) -> None:
        """Register as an evictable spill-pool participant."""
        self._handle = pool.register(
            "frontier-merge",
            evictable_bytes=self.evictable_bytes,
            spill=self.spill_blocks,
        )

    def push(self, key: tuple[str, int], rids: np.ndarray, batch: RecordBatch) -> None:
        rids = np.ascontiguousarray(rids, dtype=np.int64)
        block = _MergeBlock(rids, batch)
        self._buffers[key].append(block)
        self.buffered += block.rows
        self._resident_bytes += block.nbytes
        if self._handle is not None:
            self._handle.set_level(self._resident_bytes)

    # -- spilling -------------------------------------------------------------

    def _evictable(self) -> Iterator[_MergeBlock]:
        # Head blocks (index 0) are never evicted: the merge may be midway
        # through one, and a freshly restored head must not thrash back out.
        for buffer in self._buffers.values():
            for index in range(1, len(buffer)):
                block = buffer[index]
                if block.segment is None:
                    yield block

    def evictable_bytes(self) -> int:
        return sum(block.nbytes for block in self._evictable())

    def spill_blocks(self) -> int:
        """Evict the largest non-head resident block; returns bytes freed."""
        best: _MergeBlock | None = None
        for block in self._evictable():
            if best is None or block.nbytes > best.nbytes:
                best = block
        if best is None or self._handle is None:
            return 0
        columns: dict[str, object] = {"request_id": best.rids}
        for name in ALL_COLUMNS:
            columns[name] = getattr(best.batch, name)
        best.segment = self._handle.write_run([columns])
        freed = best.nbytes
        best.rids = None  # type: ignore[assignment]
        best.batch = None  # type: ignore[assignment]
        best.nbytes = 0
        self._resident_bytes -= freed
        self._handle.set_level(self._resident_bytes)
        return freed

    def _restore(self, block: _MergeBlock) -> None:
        [columns] = self._handle.read_run(block.segment)
        rids = columns.pop("request_id")
        block.rids = rids
        block.batch = RecordBatch(**columns)
        block.segment = None
        block.nbytes = rids.nbytes + block.batch.resident_nbytes
        self._resident_bytes += block.nbytes
        # Re-charging may evict other (non-head) blocks to make room.
        self._handle.set_level(self._resident_bytes)

    # -- emission -------------------------------------------------------------

    def emit(self, bound: int) -> RecordBatch:
        """Every buffered row with id ≤ ``bound``, in global id order."""
        parts: list[RecordBatch] = []
        part_rids: list[np.ndarray] = []
        for buffer in self._buffers.values():
            while buffer:
                block = buffer[0]
                if block.segment is not None:
                    if block.first_rid > bound:
                        break
                    self._restore(block)
                stop = int(np.searchsorted(block.rids, bound, side="right"))
                if stop > block.cursor:
                    parts.append(block.batch.rows(block.cursor, stop))
                    part_rids.append(block.rids[block.cursor : stop])
                    self.buffered -= stop - block.cursor
                    block.cursor = stop
                if block.cursor < block.rows:
                    break
                buffer.popleft()
                self._resident_bytes -= block.nbytes
        if not parts:
            return RecordBatch.empty()
        # Stable: equal ids come from one shard, in that shard's order.
        order = np.argsort(np.concatenate(part_rids), kind="stable")
        return RecordBatch.concat(parts).take(order)


class _TimedIterator:
    """Times how long the underlying source takes to produce each item.

    ``busy_probe`` reports whether simulation work was in flight while an
    item was being produced; the overlapped share of the generation time
    is the serialisation the streaming dispatcher removed.
    """

    def __init__(self, iterable: Iterable, busy_probe: Callable[[], bool] | None = None):
        self._iterator = iter(iterable)
        self._busy_probe = busy_probe
        self.seconds = 0.0
        self.overlapped_seconds = 0.0

    def __iter__(self) -> "_TimedIterator":
        return self

    def __next__(self):
        start = time.perf_counter()
        try:
            return next(self._iterator)
        finally:
            elapsed = time.perf_counter() - start
            self.seconds += elapsed
            if self._busy_probe is not None and self._busy_probe():
                self.overlapped_seconds += elapsed

    @property
    def overlap_fraction(self) -> float:
        if self.seconds <= 0:
            return 0.0
        return self.overlapped_seconds / self.seconds


class CdnSimulator:
    """Simulate a CDN serving a stream of workload requests.

    Parameters
    ----------
    profiles:
        Site profiles (used for per-site cache priority); optional.
    topology:
        Data centers; defaults to one per continent.
    config:
        Simulation tunables.
    """

    def __init__(
        self,
        profiles: Iterable[SiteProfile] | None = None,
        topology: Topology | None = None,
        config: SimulationConfig | None = None,
    ):
        self.config = config or SimulationConfig()
        if self.config.shards_per_dc < 1:
            raise ValueError(f"shards_per_dc must be >= 1, got {self.config.shards_per_dc}")
        self.topology = topology or default_datacenters(self.config.cache_capacity_bytes)
        self.router = Router(self.topology)
        self._cache_priority = dict(self.config.cache_priority)
        if profiles is not None:
            for profile in profiles:
                self._cache_priority.setdefault(profile.name, profile.cache_priority)
        self._shards: dict[tuple[str, int], SimulatorShard] = {}
        for dc in self.topology:
            for partition in range(self.config.shards_per_dc):
                self._shards[(dc.dc_id, partition)] = SimulatorShard(
                    dc, partition, self.config, self._cache_priority
                )
        #: Each shard position's data center, coded over the distinct ids.
        self._datacenters = _first_appearance_codes(shard.dc.dc_id for shard in self._shards.values())
        #: The :class:`_TableColumns` of the latest request tables.
        self._columns: _TableColumns | None = None
        #: Statistics of the latest :meth:`run_batches` call.
        self.sim_stats: SimStats | None = None

    # -- aggregate views over the shards -------------------------------------

    @property
    def edges(self) -> dict[str, EdgeServer]:
        """Edge servers by id (``dc_id`` alone when one partition per DC)."""
        if self.config.shards_per_dc == 1:
            return {dc_id: shard.edge for (dc_id, _), shard in self._shards.items()}
        return {shard.shard_id: shard.edge for shard in self._shards.values()}

    @property
    def metrics(self) -> SimulationMetrics:
        """Per-site counters merged over all shards (fixed shard order)."""
        merged = SimulationMetrics()
        for shard in self._shards.values():
            merged.merge(shard.metrics)
        return merged

    @property
    def origin(self) -> "OriginLedger":
        """Aggregate origin-side counters over every shard's replica."""
        ledger = OriginLedger()
        for shard in self._shards.values():
            ledger.fetches += shard.origin.fetches
            ledger.bytes_served += shard.origin.bytes_served
        return ledger

    @property
    def proxies(self) -> IspProxyLayer | None:
        """Merged ISP-proxy counters, or None when proxies are disabled."""
        if not self.config.isp_proxies:
            return None
        merged = IspProxyLayer()
        for shard in self._shards.values():
            if shard.proxies is not None:
                merged.merge(shard.proxies)
        return merged

    @property
    def push_stats(self) -> PushStats | None:
        """Replication statistics, or None when push is disabled."""
        replicas = [s.replicator for s in self._shards.values() if s.replicator is not None]
        if not replicas:
            return None
        merged = PushStats()
        for replica in replicas:
            merged.merge(replica.stats)
        return merged

    def cache_stats(self) -> CacheStats:
        """All edge-cache counters folded into one (fixed shard order)."""
        merged = CacheStats()
        for shard in self._shards.values():
            for cache in shard.edge.caches():
                merged.merge(cache.stats)
        return merged

    @property
    def playback(self) -> PlaybackModel | None:
        return next(iter(self._shards.values())).playback

    # -- public API ----------------------------------------------------------

    def run_batches(
        self,
        blocks: Iterable[RequestBlock],
        batch_size: int = DEFAULT_BATCH_SIZE,
        workers: int | None = None,
        queue_depth: int | None = None,
        spill_pool=None,
    ) -> Iterator[RecordBatch]:
        """Serve request blocks and yield columnar :class:`RecordBatch` blocks.

        ``blocks`` is a stream of :class:`~repro.workload.generator.RequestBlock`
        slices, as :meth:`~repro.workload.generator.WorkloadGenerator.merged_request_batches`
        yields them; each row is served by looking its user and object up
        by index and handing them to the shard the router picks
        (:meth:`SimulatorShard.process`), so the emitted records do not
        depend on the block boundaries.  The router is read
        at every request of the sequential path, so a
        :meth:`~repro.cdn.routing.Router.mark_down` between two pulls takes
        effect at the next request.  This is the production path into
        :meth:`repro.core.dataset.TraceDataset.from_batches`.

        ``workers`` above 1 (default 1) runs the streaming dispatcher: the
        blocks are drained incrementally and their columns, split by
        shard, fed to persistent per-shard worker processes through
        bounded dispatch windows of ``queue_depth`` requests each
        (default ``DEFAULT_QUEUE_DEPTH``), so workload generation overlaps
        simulation and peak resident requests stay O(queue_depth × shards)
        instead of the whole stream.  Routing there is decided when a
        block is dispatched.  An incremental frontier merge re-emits the
        per-shard record streams in global ``request_id`` order — the
        output is bit-identical to the sequential path for any worker
        count, block size, batch size and queue depth, and the merged
        metrics match exactly.

        Exhaustion contract: the returned iterator is lazy.
        :attr:`sim_stats` is reset to ``None`` up front and populated only
        when the iterator is exhausted; abandoning a partially-consumed
        iterator leaves it ``None`` (never a previous run's statistics)
        and, on the parallel path, tears the worker processes down without
        adopting any shard state.  If a worker raises or dies the iterator
        raises :class:`~repro.errors.SimulationError` naming the failing
        shard, and the simulator's shards are left exactly as before the
        call, so a retry starts from a consistent state.

        ``spill_pool`` (a :class:`repro.spill.SpillPool`) lets the
        parallel path's frontier merge evict buffered result blocks to
        disk past the pool's memory budget and stream them back in
        frontier order; the output stays bit-identical at any budget.
        The sequential path buffers nothing, so the pool is unused there.
        """
        workers = 1 if workers is None else max(1, workers)
        batch_size = max(1, batch_size)
        if queue_depth is None:
            queue_depth = DEFAULT_QUEUE_DEPTH
        if queue_depth < 1:
            raise ValueError(f"queue_depth must be >= 1, got {queue_depth}")
        self.sim_stats = None
        if workers > 1:
            return self._run_batches_parallel(
                blocks, batch_size, workers, queue_depth, spill_pool
            )
        return self._run_batches_sequential(blocks, batch_size)

    def warm(self, catalogs: Iterable) -> int:
        """Pre-fill every edge cache with popular pre-existing objects.

        Small objects (at most one chunk) are inserted first regardless of
        popularity — the small-object tier the paper's Section V suggests,
        cheap to keep resident — then larger objects follow in descending
        popularity until the configured fill fraction is reached.  Only
        pre-existing objects (alive at t=0) participate, subject to each
        site's cache priority.  The admission draw is keyed on the object
        (not drawn from a shared stream), so every edge warms with the
        same objects regardless of topology size or iteration order.
        Returns the number of cache entries created.  Models the
        steady-state cache a real CDN has when a one-week observation
        window opens.
        """
        objects = [
            obj
            for catalog in catalogs
            for obj in catalog
            if obj.is_preexisting
        ]
        objects.sort(key=lambda o: (o.size_bytes > self.config.chunk_bytes, -o.popularity_weight))
        # One admission decision per object, hoisted out of the edge loop.
        admitted = []
        for obj in objects:
            priority = self._cache_priority.get(obj.site, 1.0)
            if priority < 1.0:
                draw = counter_rng(
                    self.config.seed, "warm", zlib.crc32(obj.object_id.encode("utf-8"))
                ).random()
                if draw >= priority:
                    continue
            admitted.append(obj)
        inserted = 0
        for shard in self._shards.values():
            edge = shard.edge
            budgets = {id(cache): int(self.config.warm_fill_fraction * cache.capacity_bytes) for cache in edge.caches()}
            for obj in admitted:
                if all(cache.used_bytes >= budgets[id(cache)] for cache in edge.caches()):
                    break
                chunks = edge.chunker.all_chunks(obj)
                # Whole-object admission: the object's entire chunk
                # footprint must fit the remaining budgets, or none of it
                # goes in — a half-warmed multi-chunk object would start
                # the trace with the mixed hit/miss streams the per-object
                # admission draw exists to prevent.
                footprint: dict[int, int] = {}
                for chunk in chunks:
                    cache_id = id(edge.cache_for(chunk.size))
                    footprint[cache_id] = footprint.get(cache_id, 0) + chunk.size
                if any(
                    cache.used_bytes + footprint.get(id(cache), 0) > budgets[id(cache)]
                    for cache in edge.caches()
                ):
                    continue
                ttl = edge._ttl_for(obj)
                for chunk in chunks:
                    cache = edge.cache_for(chunk.size)
                    # Version 1 matches the origin's initial version, so the
                    # warm entries revalidate cleanly until content mutates.
                    if cache.insert(chunk.key, chunk.size, 0.0, ttl=ttl, version=1):
                        inserted += 1
        return inserted

    def enable_push(self, catalogs: Iterable) -> int:
        """Turn on push-based replication of popular injected objects.

        Builds the :class:`~repro.cdn.replication.PushReplicator` plan over
        ``catalogs`` (paper Section V: push popular diurnal/long-lived
        objects to locations close to end-users) and gives every shard a
        replica with its own cursor.  Returns the number of planned pushes.
        """
        plan = PushReplicator()
        planned = plan.build_plan(catalogs)
        for shard in self._shards.values():
            shard.replicator = plan.fork()
        return planned

    # -- internals -----------------------------------------------------------

    def _table_columns(self, tables: RequestTables) -> _TableColumns:
        """The :class:`_TableColumns` of ``tables``, kept for the latest tables.

        A user with continent code ``code`` and cache partition
        ``partition`` is served by the shard at position
        ``router.route_positions[code] * shards_per_dc + partition`` of
        ``_shards``, which lists each data center's partitions in
        topology order.
        """
        if self._columns is None or self._columns.tables is not tables:
            self._columns = _TableColumns(tables, self.config)
        return self._columns

    def _seal_runs(self, runs: list[tuple[_TableColumns, list, list[int]]]) -> RecordBatch:
        """One batch from its runs of rows, one run per request table."""
        return RecordBatch.concat(
            [columns.seal(values, keys, self._datacenters) for columns, values, keys in runs if keys]
        )

    def _run_batches_sequential(
        self, blocks: Iterable[RequestBlock], batch_size: int
    ) -> Iterator[RecordBatch]:
        start = time.perf_counter()
        source = _TimedIterator(blocks)
        shards = list(self._shards.values())
        # Per-shard bookkeeping, by shard position.
        queued = [0] * len(shards)
        emitted = [0] * len(shards)
        busy = [0.0] * len(shards)
        partitions_per_dc = self.config.shards_per_dc
        clock = time.perf_counter
        peak_resident = 0
        # The batch in the making, in one run per request table: each
        # run's served rows flattened, five values a row, beside each row's
        # user index, object index and shard position, three a row.
        runs: list[tuple[_TableColumns, list, list[int]]] = []
        values: list = []
        keys: list[int] = []
        held = 0
        for block in source:
            if not len(block):
                continue
            if len(block) > peak_resident:
                peak_resident = len(block)
            users, objects = block.tables.users, block.tables.objects
            columns = self._table_columns(block.tables)
            if not runs or runs[-1][0] is not columns:
                values, keys = [], []
                runs.append((columns, values, keys))
            codes, partitions = columns.continent_codes, columns.partitions
            # Refilled in place by every mark_down/mark_up, so each
            # request below reads the routing table as it is then.
            routes = self.router.route_positions
            for now, user, obj, request_id in zip(
                block.timestamps.tolist(),
                block.user_index.tolist(),
                block.object_index.tolist(),
                block.request_id.tolist(),
            ):
                position = routes[codes[user]] * partitions_per_dc + partitions[user]
                tick = clock()
                served = shards[position].process(users[user], objects[obj], now, request_id)
                busy[position] += clock() - tick
                queued[position] += 1
                emitted[position] += len(served)
                # Cut at exactly batch_size rows: a playback request's
                # rows may straddle two batches.
                for row in served:
                    values.extend(row)
                    keys.extend((user, obj, position))
                    held += 1
                    if held == batch_size:
                        yield self._seal_runs(runs)
                        values, keys = [], []
                        runs = [(columns, values, keys)]
                        held = 0
        if held:
            yield self._seal_runs(runs)
        self.sim_stats = self._build_stats(
            workers=1,
            wall_seconds=time.perf_counter() - start,
            queued=queued,
            emitted=emitted,
            busy=busy,
            generate_seconds=source.seconds,
            overlap_fraction=0.0,
            peak_resident_requests=peak_resident,
        )

    def _run_batches_parallel(
        self,
        blocks: Iterable[RequestBlock],
        batch_size: int,
        workers: int,
        queue_depth: int,
        spill_pool=None,
    ) -> Iterator[RecordBatch]:
        """Streaming producer/consumer dispatch over persistent shard workers.

        The parent drains the blocks one by one, splits each block's
        columns by shard position with numpy, and dispatches column
        pieces of at most ``queue_depth`` requests into each shard's
        bounded window — blocking (and meanwhile draining worker results)
        when a window is full.  The workers start at the first block and
        get its request tables as a process argument (a later block with
        other tables sends them once, as a message).
        Worker acknowledgements advance the per-shard frontiers; the
        frontier merge emits every row whose id all shards have passed,
        cut into ``batch_size`` batches.  Mutated shards are adopted back
        only after every worker finished cleanly, so a failure leaves the
        simulator exactly as before the call.
        """
        start = time.perf_counter()
        keys = list(self._shards)
        positions = range(len(keys))
        n_workers = min(workers, len(keys))
        context = multiprocessing.get_context()
        in_queues = [context.Queue() for _ in range(n_workers)]
        out_queue = context.Queue()
        channels = [_ShardChannel(keys[position], position % n_workers) for position in positions]
        processes = []

        def start_workers(tables: RequestTables | None) -> None:
            """Start the workers, handing each its shards and ``tables``
            as process arguments (inherited, not pickled, under fork)."""
            for worker_id in range(n_workers):
                owned = {
                    position: self._shards[keys[position]]
                    for position in positions
                    if channels[position].worker_id == worker_id
                }
                process = context.Process(
                    target=_serve_shard_queue,
                    args=(worker_id, owned, tables, self._datacenters, in_queues[worker_id], out_queue),
                    daemon=True,
                )
                processes.append(process)
                process.start()

        merger = _FrontierMerger(positions)
        if spill_pool is not None:
            merger.attach_spill(spill_pool)
        carry: list[RecordBatch] = []  # merged rows not yet cut into a batch
        total_inflight = 0
        produced_through = -1
        peak_resident = 0
        done_workers: set[int] = set()
        adopted: dict[int, SimulatorShard] = {}
        worker_busy = [0.0] * len(keys)
        sent_tables: RequestTables | None = None
        partitions_per_dc = self.config.shards_per_dc
        # Acked-but-unemittable records are bounded too: when a slow shard
        # holds the frontier back this far, production stalls until it acks.
        buffer_cap = 4 * queue_depth * len(keys)

        def bound() -> int:
            head = produced_through
            for channel in channels:
                frontier = channel.frontier(produced_through)
                if frontier < head:
                    head = frontier
            return head

        def handle(message) -> None:
            nonlocal total_inflight
            kind = message[0]
            if kind == "result":
                _, _, position, seq, batch, rids, count = message
                channel = channels[position]
                channel.ack(seq, count)
                total_inflight -= count
                if batch is not None:
                    channel.records += len(batch)
                    merger.push(position, rids, batch)
            elif kind == "done":
                _, worker_id, shards, busy = message
                done_workers.add(worker_id)
                adopted.update(shards)
                for position, seconds in busy.items():
                    worker_busy[position] = seconds
            else:  # "error"
                _, worker_id, position, text = message
                raise SimulationError(
                    f"simulation worker {worker_id} failed serving shard "
                    f"{self._shards[keys[position]].shard_id}: {text}; no shard state was "
                    "adopted — the simulator is unchanged and a retry is safe"
                )

        def drain(block: bool) -> None:
            """Handle queued worker messages; when ``block``, wait for one."""
            handled = False
            while True:
                try:
                    if block and not handled:
                        message = out_queue.get(timeout=0.05)
                    else:
                        message = out_queue.get_nowait()
                except queue_lib.Empty:
                    if not block or handled:
                        return
                    dead = [
                        worker_id
                        for worker_id in range(n_workers)
                        if worker_id not in done_workers and not processes[worker_id].is_alive()
                    ]
                    if not dead:
                        continue
                    # A worker died without reporting; give its last
                    # messages one grace period to surface, then fail
                    # without adopting anything.
                    try:
                        message = out_queue.get(timeout=0.5)
                    except queue_lib.Empty:
                        shard_ids = ", ".join(
                            self._shards[keys[position]].shard_id
                            for position in positions
                            if channels[position].worker_id in dead
                        )
                        raise SimulationError(
                            f"simulation worker(s) {dead} died serving shard(s) "
                            f"[{shard_ids}]; no shard state was adopted — the "
                            "simulator is unchanged and a retry is safe"
                        ) from None
                handle(message)
                handled = True

        def emit_ready(final: bool = False) -> Iterator[RecordBatch]:
            """Cut the merged rows into ``batch_size`` batches (the short
            tail too when ``final``).  Each batch is compacted, so its
            dictionaries are first-appearance ordered over its own rows."""
            merged = merger.emit(bound())
            if len(merged):
                carry.append(merged)
            held = sum(len(batch) for batch in carry)
            cut = held if final else held - held % batch_size
            if not cut:
                return
            rows = RecordBatch.concat(carry)
            for start in range(0, cut, batch_size):
                yield rows.rows(start, min(start + batch_size, cut)).compact()
            # Compacted, the remainder does not drag every value the
            # concatenated dictionaries ever held into the next cut.
            carry[:] = [rows.rows(cut, held).compact()] if cut < held else []

        try:
            source = _TimedIterator(blocks, busy_probe=lambda: total_inflight > 0)
            for block in source:
                if not len(block):
                    continue
                if total_inflight + len(block) > peak_resident:
                    peak_resident = total_inflight + len(block)
                if block.tables is not sent_tables:
                    sent_tables = block.tables
                    if processes:
                        for in_queue in in_queues:
                            in_queue.put(sent_tables)
                    else:
                        start_workers(sent_tables)
                    columns = self._table_columns(sent_tables)
                    codes = np.asarray(columns.continent_codes)
                    partitions = np.asarray(columns.partitions)
                users = block.user_index
                routes = np.asarray(self.router.route_positions)
                shard_of = routes[codes[users]] * partitions_per_dc + partitions[users]
                # Each shard's rows in block order: a stable sort by shard.
                order = np.argsort(shard_of, kind="stable")
                counts = np.bincount(shard_of, minlength=len(keys))
                ends = np.cumsum(counts).tolist()
                for position in np.flatnonzero(counts).tolist():
                    channel = channels[position]
                    shard_rows = order[ends[position] - int(counts[position]) : ends[position]]
                    for offset in range(0, len(shard_rows), queue_depth):
                        piece = shard_rows[offset : offset + queue_depth]
                        while channel.inflight + len(piece) > queue_depth:
                            drain(block=True)
                            yield from emit_ready()
                        request_ids = block.request_id[piece]
                        seq = channel.dispatch(int(request_ids[0]), len(piece))
                        total_inflight += len(piece)
                        in_queues[channel.worker_id].put((
                            position, seq, block.timestamps[piece], users[piece],
                            block.object_index[piece], request_ids,
                        ))
                # Only now is every id in the block dispatched: an
                # idle shard's frontier may advance this far, no further
                # — mid-block it would overstate what the shard has seen.
                produced_through = int(block.request_id[-1])
                drain(block=False)
                yield from emit_ready()
                while merger.buffered > buffer_cap and total_inflight > 0:
                    drain(block=True)
                    yield from emit_ready()
            if not processes:
                start_workers(None)  # an empty stream: the workers just finish
            while total_inflight > 0:
                drain(block=True)
                yield from emit_ready()
            for in_queue in in_queues:
                in_queue.put(None)
            while len(done_workers) < n_workers:
                drain(block=True)
            # Every worker finished cleanly: adopt the mutated shards, so
            # caches/browsers/metrics match a sequential run exactly.
            for position, shard in adopted.items():
                self._shards[keys[position]] = shard
            yield from emit_ready(final=True)
            for process in processes:
                process.join(timeout=5)
            self.sim_stats = self._build_stats(
                workers=n_workers,
                wall_seconds=time.perf_counter() - start,
                queued=[channel.dispatched for channel in channels],
                emitted=[channel.records for channel in channels],
                busy=worker_busy,
                queue_peaks=[channel.queue_peak for channel in channels],
                generate_seconds=source.seconds,
                overlap_fraction=source.overlap_fraction,
                peak_resident_requests=peak_resident,
                spill=None if merger._handle is None else merger._handle.stats,
            )
        finally:
            for in_queue in in_queues:
                in_queue.cancel_join_thread()
                in_queue.close()
            out_queue.cancel_join_thread()
            out_queue.close()
            for process in processes:
                if process.is_alive():
                    process.terminate()
            for process in processes:
                process.join(timeout=2)

    def _build_stats(
        self,
        workers: int,
        wall_seconds: float,
        queued: list[int],
        emitted: list[int],
        busy: list[float],
        queue_peaks: list[int] | None = None,
        generate_seconds: float = 0.0,
        overlap_fraction: float = 0.0,
        peak_resident_requests: int = 0,
        spill=None,
    ) -> SimStats:
        """The run's :class:`SimStats`; per-shard figures are by shard position."""
        shards = tuple(
            ShardStats(
                shard_id=shard.shard_id,
                queue_depth=queued[position],
                records=emitted[position],
                wall_seconds=busy[position],
                queue_peak=0 if queue_peaks is None else queue_peaks[position],
            )
            for position, shard in enumerate(self._shards.values())
        )
        return SimStats(
            workers=workers,
            requests=sum(queued),
            records=sum(emitted),
            wall_seconds=wall_seconds,
            shards=shards,
            generate_seconds=generate_seconds,
            overlap_fraction=overlap_fraction,
            peak_resident_requests=peak_resident_requests,
            spill_files=0 if spill is None else spill.spill_files,
            bytes_spilled=0 if spill is None else spill.bytes_spilled,
            bytes_restored=0 if spill is None else spill.bytes_restored,
            spill_seconds=0.0 if spill is None else spill.spill_seconds,
        )


class SimulateStage:
    """Dataflow transform: request blocks → simulated trace batches.

    The plan adapter for :class:`CdnSimulator`.  ``connect`` builds the
    simulator (sizing each edge cache from the upstream workload catalogs
    via :func:`sized_simulation_config` unless a ``sim_config`` pins one),
    warms the caches, and returns the streaming
    :meth:`~CdnSimulator.run_batches` iterator with the run's worker
    count, queue depth and batch size threaded in from the
    :class:`~repro.dataflow.config.RunConfig`.  Cache sizing and warm-up
    happen during ``connect`` and are attributed to this stage's wall
    time; the emitted trace is bit-identical for any worker count or
    queue depth.
    """

    name = "simulate"

    def __init__(self, sim_config: SimulationConfig | None = None, workload_source=None):
        self.sim_config = sim_config
        self._workload_source = workload_source
        self.simulator: CdnSimulator | None = None
        self._spill_pool = None

    def use_spill(self, pool) -> None:
        """Adopt the plan's shared spill pool (called before connect)."""
        self._spill_pool = pool

    def connect(self, upstream, config):
        if upstream is None:
            raise PlanError("simulate needs an upstream request stream; add .generate() first")
        workloads = getattr(self._workload_source, "workloads", None)
        sim_config = self.sim_config
        if sim_config is None:
            if not workloads:
                raise PlanError(
                    "simulate needs an explicit SimulationConfig when the request "
                    "source carries no workload catalogs to size the caches from"
                )
            sim_config = sized_simulation_config(
                (w.catalog for w in workloads.values()), config.seed
            )
        simulator = CdnSimulator(
            profiles=getattr(self._workload_source, "profiles", None), config=sim_config
        )
        if sim_config.warm_caches and workloads:
            simulator.warm(w.catalog for w in workloads.values())
        self.simulator = simulator
        return simulator.run_batches(
            upstream,
            batch_size=config.batch_size,
            workers=config.sim_workers,
            queue_depth=config.sim_queue_depth,
            spill_pool=self._spill_pool,
        )

    def finish(self, stats, result) -> None:
        result.simulator = self.simulator
        sim_stats = self.simulator.sim_stats if self.simulator is not None else None
        result.sim_stats = sim_stats
        if sim_stats is not None and sim_stats.peak_resident_requests > stats.peak_resident_rows:
            # The dispatcher's in-flight high-water mark is the honest
            # resident figure for this stage, not the emitted batch size.
            stats.peak_resident_rows = sim_stats.peak_resident_requests
        if sim_stats is not None:
            stats.spill_files = sim_stats.spill_files
            stats.bytes_spilled = sim_stats.bytes_spilled
            stats.bytes_restored = sim_stats.bytes_restored
            stats.spill_seconds = sim_stats.spill_seconds


@dataclass
class OriginLedger:
    """Origin-side totals summed over every shard's origin replica."""

    fetches: int = 0
    bytes_served: int = 0
