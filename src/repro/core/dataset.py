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

Two engines build the same indices and tables:

* ``engine="batch"`` (default) — the streaming accumulator fold above.
  This is the production path.
* ``engine="record"`` — the original record-at-a-time loop, kept as the
  reference implementation; it counts with plain dicts, independently of
  the accumulators.  The equivalence tests pin the batch engine to it
  field-for-field, and the ingest benchmark measures the speedup against
  it.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field
from itertools import islice
from pathlib import Path

import numpy as np

from repro.core.accumulate import (
    DC_OFFSET_HOURS,
    IngestStats,
    ScanTables,
    SiteExtent,
    StreamingAggregates,
    UserTimelines,
    hourly_key,
    response_key,
)
from repro.errors import (
    AnalysisError,
    ConfigError,
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
from repro.types import CacheStatus, ContentCategory, HOUR_SECONDS

#: Status codes that represent an actual content access (the per-object
#: popularity and hit-ratio analyses exclude errors and beacons).
CONTENT_STATUS_CODES = frozenset({200, 206, 304})


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
    production path), :meth:`from_records` (any iterable of records), or
    :meth:`from_file` (a trace written by
    :class:`~repro.trace.writer.TraceWriter`).  Pass ``keep_store=False``
    to drop the rows after folding each batch: every index, table and
    figure analysis is the same, only the row-level accessors
    (``records``, ``store``, ``site_records``) become unavailable.
    """

    def __init__(self) -> None:
        self._records: list[LogRecord] | None = None
        self._store: RecordBatch | None = None
        self._length = 0
        # Python-object views of the indices.  The scalar engine fills
        # these eagerly; the columnar engine leaves them ``None`` and
        # materialises them on first access from ``_deferred`` (the
        # accumulators' finalised group-by tables).
        self._object_stats_map: dict[str, ObjectStats] | None = {}
        self._user_times_map: dict[str, list[float]] | None = {}
        self._user_site_map: dict[str, str] | None = {}
        self._user_agent_map: dict[str, str] | None = {}
        self._deferred: dict[str, object] | None = None
        self._sites: set[str] = set()
        self._site_rows_map: dict[str, list[int] | np.ndarray] | None = {}
        self._site_extents: dict[str, SiteExtent] | None = None
        self._timelines: UserTimelines | None = None
        #: The Fig. 3 hourly and Fig. 16 response-code tables, built at
        #: ingest by every engine (empty for a hand-built dataset).
        self.scan_aggregates = ScanTables()
        #: What the last streaming ingest cost; ``None`` for the scalar
        #: engine and hand-built datasets.
        self.ingest_stats: IngestStats | None = None
        self.duration_seconds: float = 0.0

    # -- lazily materialised index views ---------------------------------------

    @property
    def object_stats(self) -> dict[str, ObjectStats]:
        """Per-object aggregates keyed by object id, insertion-ordered by
        first appearance in the trace."""
        if self._object_stats_map is None:
            self._materialize_object_stats()
        return self._object_stats_map  # type: ignore[return-value]

    @property
    def _user_times(self) -> dict[str, list[float]]:
        if self._user_times_map is None:
            self._materialize_user_index()
        return self._user_times_map  # type: ignore[return-value]

    @property
    def _user_site(self) -> dict[str, str]:
        if self._user_site_map is None:
            self._materialize_user_index()
        return self._user_site_map  # type: ignore[return-value]

    @property
    def _user_agent(self) -> dict[str, str]:
        if self._user_agent_map is None:
            self._materialize_user_index()
        return self._user_agent_map  # type: ignore[return-value]

    @property
    def _site_rows(self) -> dict[str, list[int] | np.ndarray]:
        if self._site_rows_map is None:
            self._materialize_site_rows()
        return self._site_rows_map  # type: ignore[return-value]

    # -- construction ---------------------------------------------------------

    @classmethod
    def from_records(
        cls,
        records: Iterable[LogRecord],
        engine: str = "batch",
        batch_size: int = DEFAULT_BATCH_SIZE,
        keep_store: bool = True,
    ) -> "TraceDataset":
        """Build from a record iterable (materialised; test-scale API).

        ``engine="batch"`` chunks the records into columnar batches and
        runs the streaming accumulator ingest; ``engine="record"`` runs
        the scalar reference loop.  Both produce identical indices.
        """
        records = records if isinstance(records, list) else list(records)
        if engine == "batch":
            dataset = cls.from_batches(iter_record_batches(records, batch_size), keep_store=keep_store)
            if keep_store:
                dataset._records = records
            return dataset
        if engine != "record":
            raise ConfigError(f"unknown ingest engine {engine!r}; expected 'batch' or 'record'")
        dataset = cls()
        dataset._records = records
        dataset._length = len(records)
        hourly: dict[tuple[str, int, int], list[int]] = {}
        responses: dict[tuple[str, int, int], int] = {}
        for row, record in enumerate(records):
            dataset._ingest(row, record, hourly, responses)
        dataset._finalize(hourly, responses)
        return dataset

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

    # -- scalar reference engine ----------------------------------------------

    def _ingest(
        self,
        row: int,
        record: LogRecord,
        hourly: dict[tuple[str, int, int], list[int]],
        responses: dict[tuple[str, int, int], int],
    ) -> None:
        self._sites.add(record.site)
        self._site_rows.setdefault(record.site, []).append(row)  # type: ignore[union-attr]
        self.duration_seconds = max(self.duration_seconds, record.timestamp)
        hour = int(record.timestamp // HOUR_SECONDS)

        # Fig. 3: (site, serving data center's UTC offset, UTC hour) cells.
        cell = hourly.setdefault((record.site, DC_OFFSET_HOURS.get(record.datacenter, 0), hour), [0, 0])
        cell[0] += 1
        cell[1] += record.bytes_served
        # Fig. 16: (site, category, status) counts.
        code_key = (record.site, CATEGORIES.index(record.category), record.status_code)
        responses[code_key] = responses.get(code_key, 0) + 1

        stats = self.object_stats.get(record.object_id)
        if stats is None:
            stats = ObjectStats(
                object_id=record.object_id,
                site=record.site,
                category=record.category,
                extension=record.extension,
                size_bytes=record.object_size,
            )
            self.object_stats[record.object_id] = stats
        if record.status_code in CONTENT_STATUS_CODES:
            stats.requests += 1
            stats.bytes_requested += record.object_size
            stats.user_counts[record.user_id] = stats.user_counts.get(record.user_id, 0) + 1
            stats.first_seen = min(stats.first_seen, record.timestamp)
            stats.last_seen = max(stats.last_seen, record.timestamp)
            stats.hourly[hour] = stats.hourly.get(hour, 0) + 1
            if record.status_code in (200, 206):
                if record.cache_status is CacheStatus.HIT:
                    stats.hits += 1
                else:
                    stats.misses += 1

        # Per-user timeline (all statuses: a 403 is still user activity).
        key = record.user_id
        self._user_times.setdefault(key, []).append(record.timestamp)
        self._user_site.setdefault(key, record.site)
        self._user_agent.setdefault(key, record.user_agent)

    def _finalize(
        self,
        hourly: dict[tuple[str, int, int], list[int]],
        responses: dict[tuple[str, int, int], int],
    ) -> None:
        for times in self._user_times.values():
            times.sort()
        # Encode both tables in the accumulators' key layout, sites coded
        # in first-appearance order, keys ascending.
        site_values = list(self._site_rows)
        site_code = {site: code for code, site in enumerate(site_values)}
        hourly_rows = sorted(
            (hourly_key(site_code[site], offset, hour), count, nbytes)
            for (site, offset, hour), (count, nbytes) in hourly.items()
        )
        response_rows = sorted(
            (response_key(site_code[site], category, status), count)
            for (site, category, status), count in responses.items()
        )
        hourly_keys, hourly_counts, hourly_bytes = np.array(hourly_rows, dtype=np.int64).reshape(-1, 3).T
        response_keys, response_counts = np.array(response_rows, dtype=np.int64).reshape(-1, 2).T
        self.scan_aggregates = ScanTables(
            site_values=site_values,
            hourly_keys=hourly_keys,
            hourly_counts=hourly_counts,
            hourly_bytes=hourly_bytes,
            response_keys=response_keys,
            response_counts=response_counts,
        )

    # -- lazy materialisation of the python-object views -----------------------

    def _materialize_object_stats(self) -> None:
        d = self._deferred
        assert d is not None
        n_obj: int = d["n_obj"]  # type: ignore[assignment]
        requests = d["requests"]
        hits = d["hits"]
        misses = d["misses"]
        bytes_requested = d["bytes_requested"]
        first_seen = d["first_seen"]
        last_seen = d["last_seen"]
        stats_by_code: list[ObjectStats | None] = [None] * n_obj
        mapping: dict[str, ObjectStats] = {}
        for position, code in enumerate(d["obj_order"]):  # type: ignore[arg-type]
            stats = ObjectStats(
                object_id=d["obj_names"][position],  # type: ignore[index]
                site=d["shell_sites"][position],  # type: ignore[index]
                category=CATEGORIES[d["shell_categories"][position]],  # type: ignore[index]
                extension=d["shell_extensions"][position],  # type: ignore[index]
                size_bytes=d["shell_sizes"][position],  # type: ignore[index]
                requests=requests[code],  # type: ignore[index]
                hits=hits[code],  # type: ignore[index]
                misses=misses[code],  # type: ignore[index]
                bytes_requested=bytes_requested[code],  # type: ignore[index]
                first_seen=first_seen[code],  # type: ignore[index]
                last_seen=last_seen[code],  # type: ignore[index]
            )
            stats_by_code[code] = stats
            mapping[stats.object_id] = stats
        if "pair_names" in d:
            # Each object's (user, count) and (hour, count) entries form one
            # contiguous run; a shared zip iterator plus islice builds every
            # dict in a single linear pass without slice copies.
            pairs = zip(d["pair_names"], d["pair_counts"])  # type: ignore[arg-type]
            for code, length in zip(d["pair_seg_codes"], d["pair_seg_lengths"]):  # type: ignore[arg-type]
                stats_by_code[code].user_counts = dict(islice(pairs, length))  # type: ignore[union-attr]
            hours = zip(d["hour_bins"], d["hour_counts"])  # type: ignore[arg-type]
            for code, length in zip(d["hour_seg_codes"], d["hour_seg_lengths"]):  # type: ignore[arg-type]
                stats_by_code[code].hourly = dict(islice(hours, length))  # type: ignore[union-attr]
        self._object_stats_map = mapping
        self._release_deferred()

    def _materialize_user_index(self) -> None:
        d = self._deferred
        assert d is not None
        names = d["user_names"]
        sorted_ts = np.asarray(d["sorted_ts"], dtype=np.float64).tolist()
        starts = np.asarray(d["user_starts"], dtype=np.int64).tolist()
        stops = np.asarray(d["user_stops"], dtype=np.int64).tolist()
        self._user_times_map = dict(
            zip(
                names,  # type: ignore[arg-type]
                (sorted_ts[start:stop] for start, stop in zip(starts, stops)),
            )
        )
        self._user_site_map = dict(zip(names, d["user_sites"]))  # type: ignore[arg-type]
        self._user_agent_map = dict(zip(names, d["user_agents"]))  # type: ignore[arg-type]
        self._release_deferred()

    def _release_deferred(self) -> None:
        if self._object_stats_map is not None and self._user_times_map is not None:
            self._deferred = None

    def _materialize_site_rows(self) -> None:
        if not self._length:
            self._site_rows_map = {}
            return
        if not self.has_store:
            raise StorelessDatasetError(
                "per-site row index unavailable: dataset was built with keep_store=False; "
                "rebuild with keep_store=True for row-level access"
            )
        store = self.store()
        site_codes = store.site.codes
        mapping: dict[str, list[int] | np.ndarray] = {}
        # Sites are few, so one boolean scan per site beats a full argsort
        # of the row axis.  Code order is first-appearance order (the
        # dictionary invariant), matching scalar insertion order.
        for code, site in enumerate(store.site.values):
            rows = np.flatnonzero(site_codes == code)
            if rows.size:
                mapping[site] = rows
        self._site_rows_map = mapping

    # -- accessors -------------------------------------------------------------

    @property
    def has_store(self) -> bool:
        """Whether row-level access (``records``/``store``/``site_records``)
        is available — false only for ``keep_store=False`` datasets."""
        return self._store is not None or self._records is not None

    @property
    def records(self) -> list[LogRecord]:
        """The trace as a record list, materialised lazily for batch-built
        datasets (test-scale convenience; analyses use the store)."""
        if self._records is None:
            if self._store is None:
                if self._length:
                    raise StorelessDatasetError(
                        "records unavailable: dataset was built with keep_store=False"
                    )
                self._records = []
            else:
                self._records = self._store.to_records()
        return self._records

    def store(self) -> RecordBatch:
        """The trace as one columnar :class:`RecordBatch`.

        Built lazily (and cached) for record-built datasets.  Raises
        :class:`~repro.errors.AnalysisError` for ``keep_store=False``
        datasets — the rows were dropped at ingest.
        """
        if self._store is None:
            if self._records is None and self._length:
                raise StorelessDatasetError(
                    "row store unavailable: dataset was built with keep_store=False; "
                    "rebuild with keep_store=True for row-level access"
                )
            self._store = RecordBatch.from_records(self._records or [])
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
        """The site's records, served from the per-site row index."""
        rows = self._site_rows.get(site)
        if rows is None:
            return []
        row_list = rows.tolist() if isinstance(rows, np.ndarray) else rows
        if self._records is None and self._store is not None:
            # Columnar store: materialise just this site's rows.
            return self._store.take(np.asarray(row_list, dtype=np.intp)).to_records()
        records = self.records
        return [records[row] for row in row_list]

    def site_extents(self) -> dict[str, SiteExtent]:
        """Per-site row extents (first row, last row, row count), in
        first-appearance order.  Available on every engine, including
        ``keep_store=False`` datasets."""
        if self._site_extents is None:
            self._site_extents = {
                site: SiteExtent(first_row=int(rows[0]), last_row=int(rows[-1]), rows=len(rows))
                for site, rows in self._site_rows.items()
            }
        return self._site_extents

    def user_timelines(self) -> UserTimelines:
        """Columnar per-user timelines (sorted timestamps + segment bounds
        + per-user site/agent shells), in first-appearance order.  The
        session, IAT and device analyses run off this instead of the
        python-object user dicts."""
        if self._timelines is None:
            d = self._deferred
            if d is not None:
                self._timelines = UserTimelines(
                    names=list(d["user_names"]),  # type: ignore[arg-type]
                    sites=list(d["user_sites"]),  # type: ignore[arg-type]
                    agents=list(d["user_agents"]),  # type: ignore[arg-type]
                    sorted_ts=np.asarray(d["sorted_ts"], dtype=np.float64),
                    starts=np.asarray(d["user_starts"], dtype=np.int64),
                    stops=np.asarray(d["user_stops"], dtype=np.int64),
                )
            else:
                names = list(self._user_times)
                parts = [self._user_times[name] for name in names]
                counts = np.array([len(part) for part in parts], dtype=np.int64)
                sorted_ts = (
                    np.concatenate([np.asarray(part, dtype=np.float64) for part in parts])
                    if parts
                    else np.empty(0, dtype=np.float64)
                )
                stops = np.cumsum(counts)
                self._timelines = UserTimelines(
                    names=names,
                    sites=[self._user_site[name] for name in names],
                    agents=[self._user_agent[name] for name in names],
                    sorted_ts=sorted_ts,
                    starts=stops - counts,
                    stops=stops,
                )
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
        """User ids, optionally restricted to one site."""
        if site is None:
            return list(self._user_times)
        return [user for user, user_site in self._user_site.items() if user_site == site]

    def user_timestamps(self, user_id: str) -> list[float]:
        """A user's request timestamps, ascending."""
        return self._user_times.get(user_id, [])

    def user_site_of(self, user_id: str) -> str:
        """The site a user belongs to (the site of their first request;
        an empty string for unknown users)."""
        return self._user_site.get(user_id, "")

    def user_agent_of(self, user_id: str) -> str:
        return self._user_agent.get(user_id, "")

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
    them pinned together by the engine-equivalence suites.
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
        dataset._site_rows_map = None
        if self.keep_store:
            dataset._store = RecordBatch.concat(self._kept)
        dataset.scan_aggregates = aggregates.finalize_scan_tables()
        if aggregates.rows:
            dataset.duration_seconds = aggregates.max_timestamp
            dataset._sites = set(aggregates.sites.values)
            dataset._site_extents = aggregates.extents.finalize(aggregates.sites.values)
            dataset._deferred = aggregates.finalize_deferred()
            dataset._object_stats_map = None
            dataset._user_times_map = None
            dataset._user_site_map = None
            dataset._user_agent_map = None
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
