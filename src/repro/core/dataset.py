"""Trace datasets: indexed views over a stream of log records.

:class:`TraceDataset` ingests a trace once and builds everything the
analyses read: per-object aggregates (:class:`ObjectStats` — request
count, unique users, byte volume, hourly series, hit counts), per-user
request timelines, per-site row extents, and the Fig. 3 hourly and
Fig. 16 response-code tables (:attr:`TraceDataset.scan_aggregates`).
Every analysis is a function of these; none rescans the rows.

Ingest is **streaming**: :meth:`from_batches` folds each incoming batch
into the mergeable partials of :mod:`repro.core.accumulate` and never
needs more than the current batch plus the aggregates resident —
``keep_store=False`` drops each batch after folding it, so a trace many
times larger than memory ingests in O(batch + aggregates).  With
``keep_store=True`` (the default) the batches are additionally retained
and concatenated into the row store behind ``records``, ``store()`` and
``site_records``.

:class:`DatasetBuilder` is the one ingest; every constructor feeds it
batches.  The equivalence suites pin it field for field to a scalar
record-at-a-time reference that lives with the tests.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field
from itertools import islice
from pathlib import Path

import numpy as np

from repro.core.accumulate import (
    IngestStats,
    ScanTables,
    SiteExtent,
    StreamingAggregates,
    UserTimelines,
)
from repro.errors import (
    AnalysisError,
    EmptyDatasetError,
    PlanError,
    StorelessDatasetError,
)
from repro.spill import MemoryBudget, SpillPool
from repro.stats.timeseries import HourlyTimeSeries
from repro.trace.batch import (
    CATEGORIES,
    DEFAULT_BATCH_SIZE,
    RecordBatch,
    iter_record_batches,
)
from repro.trace.reader import TraceReader
from repro.trace.record import LogRecord
from repro.types import ContentCategory, HOUR_SECONDS


@dataclass
class ObjectStats:
    """Aggregates for one object within one trace."""

    object_id: str
    site: str
    category: ContentCategory
    extension: str
    size_bytes: int
    requests: int = 0
    hits: int = 0
    misses: int = 0
    bytes_requested: int = 0
    first_seen: float = float("inf")
    last_seen: float = float("-inf")
    user_counts: dict[str, int] = field(default_factory=dict)
    hourly: dict[int, int] = field(default_factory=dict)

    @property
    def unique_users(self) -> int:
        return len(self.user_counts)

    @property
    def requests_per_user(self) -> float:
        """Mean requests per unique user (Fig. 13's above-diagonal signal)."""
        if not self.user_counts:
            return 0.0
        return self.requests / len(self.user_counts)

    @property
    def max_requests_by_one_user(self) -> int:
        """Largest request count any single user gave this object.

        Fig. 14's addiction metric: an object "requested more than 10 times
        by a user" has ``max_requests_by_one_user > 10``.
        """
        if not self.user_counts:
            return 0
        return max(self.user_counts.values())

    @property
    def hit_ratio(self) -> float:
        """Cache hit ratio over cacheable accesses (0 when none)."""
        total = self.hits + self.misses
        if total == 0:
            return 0.0
        return self.hits / total

    def hourly_series(self, hours: int) -> HourlyTimeSeries:
        """Dense hourly request-count series for this object.

        ``hours`` must cover every hour the object was requested in —
        size it from :attr:`TraceDataset.duration_hours`.  An out-of-range
        hour raises :class:`~repro.errors.AnalysisError` instead of
        silently piling its mass into the edge bucket.
        """
        series = HourlyTimeSeries(hours)
        for hour, count in self.hourly.items():
            if not 0 <= hour < hours:
                raise AnalysisError(
                    f"object {self.object_id!r} has requests in hour {hour}, outside the "
                    f"{hours}-hour series; size the series from the dataset's duration_hours"
                )
            series.values[hour] += count
        return series


class TraceDataset:
    """All analyses' view of one trace.

    Build with :meth:`from_batches` (columnar streaming fold, the
    production path), :meth:`from_records` (any iterable of records,
    chunked into batches), or :meth:`from_file` (a trace written by
    :class:`~repro.trace.writer.TraceWriter`); ``TraceDataset()`` is the
    empty dataset.  Pass ``keep_store=False`` to drop the rows after
    folding each batch: every index, table and figure analysis is the
    same, only the row-level accessors (``records``, ``store``,
    ``site_records``) become unavailable.
    """

    def __init__(self) -> None:
        self._store: RecordBatch | None = None
        #: The store's record view, built on first access to ``records``.
        self._records: list[LogRecord] | None = None
        self._length = 0
        # ``object_stats`` is materialised on first access from
        # ``_deferred`` (the accumulators' finalised group-by tables).
        self._object_stats_map: dict[str, ObjectStats] | None = None
        self._deferred: dict[str, object] | None = None
        self._sites: set[str] = set()
        self._site_rows_map: dict[str, np.ndarray] | None = None
        self._site_extents: dict[str, SiteExtent] = {}
        self._timelines = UserTimelines()
        #: The Fig. 3 hourly and Fig. 16 response-code tables, built at
        #: ingest (empty for an empty dataset).
        self.scan_aggregates = ScanTables()
        #: What the ingest cost; ``None`` for the empty dataset.
        self.ingest_stats: IngestStats | None = None
        self.duration_seconds: float = 0.0

    # -- lazily materialised index views ---------------------------------------

    @property
    def object_stats(self) -> dict[str, ObjectStats]:
        """Per-object aggregates keyed by object id, insertion-ordered by
        first appearance in the trace."""
        if self._object_stats_map is None:
            self._object_stats_map = self._materialize_object_stats() if self._deferred else {}
            self._deferred = None
        return self._object_stats_map

    @property
    def _site_rows(self) -> dict[str, np.ndarray]:
        if self._site_rows_map is None:
            self._site_rows_map = self._materialize_site_rows()
        return self._site_rows_map

    # -- construction ---------------------------------------------------------

    @classmethod
    def from_records(
        cls,
        records: Iterable[LogRecord],
        batch_size: int = DEFAULT_BATCH_SIZE,
        keep_store: bool = True,
    ) -> "TraceDataset":
        """Build from a record iterable (test-scale API): the records are
        chunked into batches and folded like any batch stream."""
        return cls.from_batches(iter_record_batches(records, batch_size), keep_store)

    @classmethod
    def from_batches(
        cls,
        batches: Iterable[RecordBatch],
        keep_store: bool = True,
        memory_budget: int | None = None,
        spill_dir: str | None = None,
    ) -> "TraceDataset":
        """Build from a stream of columnar batches (the production path).

        Each batch is folded into the mergeable accumulators of
        :mod:`repro.core.accumulate` and, when ``keep_store=False``,
        dropped immediately afterwards — peak memory is then bounded by
        one batch plus the aggregates, independent of trace length.  The
        cost is recorded on :attr:`ingest_stats`.

        ``memory_budget`` caps the resident-byte estimate (``None``: no
        cap): past it, the timeline timestamp packs spill to disk segments
        under ``spill_dir`` (default: a tempdir) and finalize merges them
        back — the resulting dataset is bit-identical at any budget.
        """
        pool = None
        if memory_budget is not None:
            pool = SpillPool(MemoryBudget(memory_budget), spill_dir=spill_dir)
        try:
            builder = DatasetBuilder(keep_store=keep_store, dataset_cls=cls, spill_pool=pool)
            for batch in batches:
                builder.add(batch)
            return builder.finish()
        finally:
            if pool is not None:
                pool.close()

    @classmethod
    def from_file(
        cls,
        path: str | Path,
        batch_size: int = DEFAULT_BATCH_SIZE,
        keep_store: bool = True,
        memory_budget: int | None = None,
        spill_dir: str | None = None,
        **reader_kwargs: object,
    ) -> "TraceDataset":
        """Stream a trace file into a dataset.

        With ``keep_store=False`` the file never occupies more than one
        batch of row memory; :attr:`ingest_stats` reports the fold
        (batches, rows, peak resident estimate).  ``memory_budget``/
        ``spill_dir`` enable disk spilling (see :meth:`from_batches`).
        """
        reader = TraceReader(path, **reader_kwargs)  # type: ignore[arg-type]
        return cls.from_batches(
            reader.iter_batches(batch_size=batch_size),
            keep_store=keep_store,
            memory_budget=memory_budget,
            spill_dir=spill_dir,
        )

    # -- lazy materialisation of the python-object views -----------------------

    def _materialize_object_stats(self) -> dict[str, ObjectStats]:
        d = self._deferred
        assert d is not None
        # Global object codes are first-appearance positions: the i-th
        # entry of every per-object list belongs to object code i.
        by_code = [
            ObjectStats(name, site, CATEGORIES[category], extension, size, *aggregates)
            for name, site, category, extension, size, *aggregates in zip(
                d["obj_names"],  # type: ignore[arg-type]
                d["shell_sites"],
                d["shell_categories"],
                d["shell_extensions"],
                d["shell_sizes"],
                # requests, hits, misses, bytes_requested, first_seen, last_seen
                d["requests"],
                d["hits"],
                d["misses"],
                d["bytes_requested"],
                d["first_seen"],
                d["last_seen"],
            )
        ]
        if "pair_names" in d:
            # Each object's (user, count) and (hour, count) entries form one
            # contiguous run; a shared zip iterator plus islice builds every
            # dict in a single linear pass without slice copies.
            pairs = zip(d["pair_names"], d["pair_counts"])  # type: ignore[arg-type]
            for code, length in zip(d["pair_seg_codes"], d["pair_seg_lengths"]):  # type: ignore[arg-type]
                by_code[code].user_counts = dict(islice(pairs, length))
            hours = zip(d["hour_bins"], d["hour_counts"])  # type: ignore[arg-type]
            for code, length in zip(d["hour_seg_codes"], d["hour_seg_lengths"]):  # type: ignore[arg-type]
                by_code[code].hourly = dict(islice(hours, length))
        return {stats.object_id: stats for stats in by_code}

    def _materialize_site_rows(self) -> dict[str, np.ndarray]:
        store = self.store()
        site_codes = store.site.codes
        mapping: dict[str, np.ndarray] = {}
        # Sites are few, so one boolean scan per site beats a full argsort
        # of the row axis.  Code order is first-appearance order (the
        # dictionary invariant).
        for code, site in enumerate(store.site.values):
            rows = np.flatnonzero(site_codes == code)
            if rows.size:
                mapping[site] = rows
        return mapping

    # -- accessors -------------------------------------------------------------

    @property
    def has_store(self) -> bool:
        """Whether row-level access (``records``/``store``/``site_records``)
        is available — false only for ``keep_store=False`` datasets."""
        return self._store is not None

    @property
    def records(self) -> list[LogRecord]:
        """The trace as a record list: the store's record view, built on
        first access (test-scale convenience; analyses use the indices)."""
        if self._records is None:
            self._records = self.store().to_records()
        return self._records

    def store(self) -> RecordBatch:
        """The trace as one columnar :class:`RecordBatch`.

        Raises :class:`~repro.errors.StorelessDatasetError` for
        ``keep_store=False`` datasets — the rows were dropped at ingest.
        """
        if self._store is None:
            if self._length:
                raise StorelessDatasetError(
                    "row store unavailable: dataset was built with keep_store=False; "
                    "rebuild with keep_store=True for row-level access"
                )
            self._store = RecordBatch.empty()
        return self._store

    def __len__(self) -> int:
        return self._length

    @property
    def sites(self) -> list[str]:
        """Sites present in the trace, sorted."""
        return sorted(self._sites)

    @property
    def duration_hours(self) -> int:
        """Trace hours up to and including the last record's hour (1 when
        the trace is empty)."""
        return int(self.duration_seconds // HOUR_SECONDS) + 1

    def require_nonempty(self) -> None:
        if self._length == 0:
            raise EmptyDatasetError("trace contains no records")

    def site_records(self, site: str) -> list[LogRecord]:
        """The site's records, materialised from the store by the per-site
        row index."""
        rows = self._site_rows.get(site)
        if rows is None:
            return []
        return self.store().take(rows).to_records()

    def site_extents(self) -> dict[str, SiteExtent]:
        """Per-site row extents (first row, last row, row count), in
        first-appearance order.  Available on every dataset, including
        ``keep_store=False`` ones."""
        return self._site_extents

    def user_timelines(self) -> UserTimelines:
        """Columnar per-user timelines (sorted timestamps + segment bounds
        + per-user site/agent shells), in first-appearance order: the one
        user index, which the session, IAT and device analyses and the
        per-user accessors below read."""
        return self._timelines

    def objects_of(
        self,
        site: str | None = None,
        category: ContentCategory | None = None,
        requested_only: bool = True,
    ) -> list[ObjectStats]:
        """Object aggregates filtered by site/category.

        ``requested_only`` drops objects that never had a successful
        content access (they appear only through 403/416 records).
        """
        result = []
        for stats in self.object_stats.values():
            if site is not None and stats.site != site:
                continue
            if category is not None and stats.category is not category:
                continue
            if requested_only and stats.requests == 0:
                continue
            result.append(stats)
        return result

    def users_of(self, site: str | None = None) -> list[str]:
        """User ids in first-appearance order, optionally restricted to one
        site."""
        timelines = self._timelines
        if site is None:
            return list(timelines.names)
        return [user for user, user_site in zip(timelines.names, timelines.sites) if user_site == site]

    def user_timestamps(self, user_id: str) -> list[float]:
        """A user's request timestamps, ascending."""
        index = self._timelines.index_of(user_id)
        return [] if index is None else self._timelines.timeline(index).tolist()

    def user_site_of(self, user_id: str) -> str:
        """The site a user belongs to (the site of their first request;
        an empty string for unknown users)."""
        index = self._timelines.index_of(user_id)
        return "" if index is None else self._timelines.sites[index]

    def user_agent_of(self, user_id: str) -> str:
        index = self._timelines.index_of(user_id)
        return "" if index is None else self._timelines.agents[index]

    def top_objects(
        self,
        site: str,
        category: ContentCategory,
        limit: int,
        min_requests: int = 2,
    ) -> list[ObjectStats]:
        """The ``limit`` most-requested objects of (site, category).

        Objects below ``min_requests`` are excluded — a one-request series
        has no shape to cluster.
        """
        candidates = [
            stats
            for stats in self.objects_of(site, category)
            if stats.requests >= min_requests
        ]
        candidates.sort(key=lambda s: (-s.requests, s.object_id))
        return candidates[:limit]

    def sample_objects(
        self,
        site: str,
        category: ContentCategory,
        limit: int,
        min_requests: int = 2,
        seed: int = 0,
    ) -> list[ObjectStats]:
        """A seeded uniform sample of qualifying objects of (site, category).

        Unlike :meth:`top_objects` this does not bias towards popular
        (hence long-lived/diurnal) objects, so trend-cluster shares stay
        representative of the whole requested catalog.
        """
        candidates = [
            stats
            for stats in self.objects_of(site, category)
            if stats.requests >= min_requests
        ]
        candidates.sort(key=lambda s: s.object_id)
        if len(candidates) <= limit:
            return candidates
        rng = np.random.default_rng(seed)
        chosen = rng.choice(len(candidates), size=limit, replace=False)
        return [candidates[int(i)] for i in sorted(chosen)]


class DatasetBuilder:
    """Incremental, push-style construction of a :class:`TraceDataset`.

    The core of :meth:`TraceDataset.from_batches`, inverted: ``add`` folds
    one batch into the streaming accumulators, ``finish`` seals the
    dataset.  The dataflow ingest stage drives it batch-by-batch from the
    plan's single drain loop; ``from_batches`` drives it from its own
    loop — both paths share this one implementation, which is what keeps
    them pinned together by the equivalence suites.
    """

    def __init__(
        self,
        keep_store: bool = True,
        dataset_cls: type | None = None,
        spill_pool: SpillPool | None = None,
    ):
        self.keep_store = keep_store
        self._dataset_cls = dataset_cls or TraceDataset
        self._aggregates = StreamingAggregates(spill_pool=spill_pool)
        self._stats = IngestStats(keep_store=keep_store)
        self._kept: list[RecordBatch] = []
        self._store_bytes = 0
        self._last_batch_rows = 0
        # Accounting-only handle: the ingest's whole resident estimate is
        # charged here (which includes the timeline packs, so the
        # timelines' eviction-only handle carries no level of its own —
        # every byte is charged exactly once).
        self._spill_handle = None
        if spill_pool is not None:
            self._spill_handle = spill_pool.register("ingest")

    @property
    def kept_batches(self) -> list[RecordBatch]:
        """The retained batches (empty in ``keep_store=False`` mode)."""
        return self._kept

    def _resident_estimate(self, batch: RecordBatch) -> int:
        """Resident bytes right now: aggregates plus the store or the
        in-flight batch, *including* the string intern tables — budget
        decisions and peak-resident telemetry use this one number."""
        if self.keep_store:
            return self._aggregates.nbytes_estimate() + self._store_bytes
        return self._aggregates.nbytes_estimate() + batch.resident_nbytes

    def add(self, batch: RecordBatch) -> None:
        """Fold one batch into the accumulators (kept when configured)."""
        if not len(batch):
            return
        aggregates = self._aggregates
        stats = self._stats
        aggregates.update(batch)
        if self.keep_store:
            self._kept.append(batch)
            self._store_bytes += batch.resident_nbytes
        resident = self._resident_estimate(batch)
        if self._spill_handle is not None:
            # Charging may evict the timeline packs; re-measure so the
            # recorded series reflects what actually stayed resident.
            self._spill_handle.set_level(resident)
            resident = self._resident_estimate(batch)
            self._spill_handle.set_level(resident)
        self._last_batch_rows = len(batch)
        stats.resident_series.append(resident)
        if resident > stats.peak_resident_bytes:
            stats.peak_resident_bytes = resident
        resident_rows = self.resident_rows()
        if resident_rows > stats.peak_resident_rows:
            stats.peak_resident_rows = resident_rows

    def resident_rows(self) -> int:
        """Rows currently held: the whole retained store when keeping it,
        otherwise just the batch being folded."""
        if self.keep_store:
            return self._aggregates.rows
        return self._last_batch_rows

    def finish(self) -> "TraceDataset":
        """Seal the accumulators into a ready-to-analyse dataset."""
        dataset = self._dataset_cls()
        aggregates = self._aggregates
        stats = self._stats
        stats.batches = aggregates.batches
        stats.rows = aggregates.rows
        stats.aggregate_bytes = aggregates.nbytes_estimate()
        stats.store_bytes = self._store_bytes
        dataset.ingest_stats = stats
        dataset._length = aggregates.rows
        if self.keep_store:
            dataset._store = RecordBatch.concat(self._kept)
        dataset.scan_aggregates = aggregates.finalize_scan_tables()
        if aggregates.rows:
            dataset.duration_seconds = aggregates.max_timestamp
            dataset._sites = set(aggregates.sites.values)
            dataset._site_extents = aggregates.extents.finalize(aggregates.sites.values)
            dataset._deferred = aggregates.finalize_deferred()
            dataset._timelines = aggregates.finalize_timelines()
        # After finalize: the timeline merge has restored any spilled
        # runs, so the handle's counters are complete.
        timeline_handle = aggregates.timelines._spill_handle
        if timeline_handle is not None:
            spill = timeline_handle.stats
            stats.spill_files = spill.spill_files
            stats.bytes_spilled = spill.bytes_spilled
            stats.bytes_restored = spill.bytes_restored
            stats.spill_seconds = spill.spill_seconds
        if self._spill_handle is not None:
            self._spill_handle.release()
        return dataset


class IngestStage:
    """Dataflow sink: fold the batch stream into a :class:`TraceDataset`.

    Pass-through like every stage: each batch is folded and re-yielded.
    In ``keep_store=False`` mode nothing but the aggregates outlives the
    fold, so peak memory stays one batch plus the aggregates.
    """

    name = "ingest"

    def __init__(self) -> None:
        self.dataset: TraceDataset | None = None
        self._builder: DatasetBuilder | None = None
        self._spill_pool = None

    def use_spill(self, pool) -> None:
        """Adopt the plan's shared spill pool (called before connect)."""
        self._spill_pool = pool

    def connect(self, upstream, config):
        if upstream is None:
            raise PlanError("ingest needs an upstream batch stream")
        self._builder = DatasetBuilder(keep_store=config.keep_store, spill_pool=self._spill_pool)
        return self._fold(upstream)

    def _fold(self, upstream):
        builder = self._builder
        assert builder is not None
        for batch in upstream:
            builder.add(batch)
            yield batch
        self.dataset = builder.finish()

    def resident_rows(self) -> int:
        return self._builder.resident_rows() if self._builder is not None else 0

    def finish(self, stats, result) -> None:
        result.dataset = self.dataset
        if self._builder is not None and self._builder.keep_store:
            result.batches = self._builder.kept_batches
        if self.dataset is not None and self.dataset.ingest_stats is not None:
            ingest = self.dataset.ingest_stats
            stats.spill_files = ingest.spill_files
            stats.bytes_spilled = ingest.bytes_spilled
            stats.bytes_restored = ingest.bytes_restored
            stats.spill_seconds = ingest.spill_seconds
