"""Scalar reference ingest: the equivalence suites' oracle.

:func:`scalar_dataset` builds a :class:`~repro.core.dataset.TraceDataset`
record by record, counting every index and both figure tables with plain
dicts.  It calls neither ``DatasetBuilder`` nor the streaming
accumulators; from :mod:`repro.core.accumulate` it takes only the two
table key layouts (``hourly_key``, ``response_key``), the data-center
offsets and the plain containers a dataset holds.  The batch, eager and
streaming builds must match it field for field
(``test_batch_equivalence.py``, ``test_streaming_equivalence.py``), and
``benchmarks/bench_ingest_throughput.py`` times the batch ingest against
its counting loop, :func:`scalar_counts`.
"""

from __future__ import annotations

from collections.abc import Iterable
from typing import NamedTuple

import numpy as np

from repro.core.accumulate import (
    DC_OFFSET_HOURS,
    ScanTables,
    SiteExtent,
    UserTimelines,
    hourly_key,
    response_key,
)
from repro.core.dataset import ObjectStats, TraceDataset
from repro.trace.batch import CATEGORIES, RecordBatch
from repro.trace.record import LogRecord
from repro.types import CacheStatus, HOUR_SECONDS

#: Status codes that represent an actual content access (the per-object
#: popularity and hit-ratio analyses exclude errors and beacons).
CONTENT_STATUS_CODES = frozenset({200, 206, 304})


class ScalarCounts(NamedTuple):
    """Every index and both figure tables of a trace, counted with plain
    dicts (each user's timestamps sorted)."""

    object_stats: dict[str, ObjectStats]
    user_times: dict[str, list[float]]
    user_site: dict[str, str]
    user_agent: dict[str, str]
    site_rows: dict[str, list[int]]
    duration: float
    scan_tables: ScanTables


def scalar_dataset(records: Iterable[LogRecord], store: RecordBatch | None = None) -> TraceDataset:
    """The dataset of ``records``, counted one record at a time.

    Its ``records`` are the input records themselves, so row-level
    comparisons do not read back through the batch codecs.  ``store`` is
    the same rows as one batch when the caller already holds them;
    otherwise it is built from ``records``.
    """
    records = list(records)
    counts = scalar_counts(records)
    dataset = TraceDataset()
    dataset._length = len(records)
    dataset._records = records
    dataset._store = RecordBatch.from_records(records) if store is None else store
    dataset._sites = set(counts.site_rows)
    dataset.duration_seconds = counts.duration
    dataset._object_stats_map = counts.object_stats
    dataset._site_rows_map = {site: np.asarray(rows, dtype=np.intp) for site, rows in counts.site_rows.items()}
    dataset._site_extents = {
        site: SiteExtent(first_row=rows[0], last_row=rows[-1], rows=len(rows))
        for site, rows in counts.site_rows.items()
    }
    dataset._timelines = _timelines(counts.user_times, counts.user_site, counts.user_agent)
    dataset.scan_aggregates = counts.scan_tables
    return dataset


def scalar_counts(records: list[LogRecord]) -> ScalarCounts:
    """The scalar loop alone: one pass over ``records``, then each user's
    timestamps sorted and both tables encoded."""
    object_stats: dict[str, ObjectStats] = {}
    user_times: dict[str, list[float]] = {}
    user_site: dict[str, str] = {}
    user_agent: dict[str, str] = {}
    site_rows: dict[str, list[int]] = {}
    hourly: dict[tuple[str, int, int], list[int]] = {}
    responses: dict[tuple[str, int, int], int] = {}
    duration = 0.0
    for row, record in enumerate(records):
        site_rows.setdefault(record.site, []).append(row)
        duration = max(duration, record.timestamp)
        hour = int(record.timestamp // HOUR_SECONDS)

        # Fig. 3: (site, serving data center's UTC offset, UTC hour) cells.
        cell = hourly.setdefault((record.site, DC_OFFSET_HOURS.get(record.datacenter, 0), hour), [0, 0])
        cell[0] += 1
        cell[1] += record.bytes_served
        # Fig. 16: (site, category, status) counts.
        code_key = (record.site, CATEGORIES.index(record.category), record.status_code)
        responses[code_key] = responses.get(code_key, 0) + 1

        stats = object_stats.get(record.object_id)
        if stats is None:
            stats = ObjectStats(
                object_id=record.object_id,
                site=record.site,
                category=record.category,
                extension=record.extension,
                size_bytes=record.object_size,
            )
            object_stats[record.object_id] = stats
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
        user_times.setdefault(key, []).append(record.timestamp)
        user_site.setdefault(key, record.site)
        user_agent.setdefault(key, record.user_agent)

    for times in user_times.values():
        times.sort()
    scan_tables = _scan_tables(list(site_rows), hourly, responses)
    return ScalarCounts(object_stats, user_times, user_site, user_agent, site_rows, duration, scan_tables)


def _timelines(
    user_times: dict[str, list[float]], user_site: dict[str, str], user_agent: dict[str, str]
) -> UserTimelines:
    names = list(user_times)
    parts = [user_times[name] for name in names]
    counts = np.array([len(part) for part in parts], dtype=np.int64)
    stops = np.cumsum(counts)
    return UserTimelines(
        names=names,
        sites=[user_site[name] for name in names],
        agents=[user_agent[name] for name in names],
        sorted_ts=np.array([time for part in parts for time in part], dtype=np.float64),
        starts=stops - counts,
        stops=stops,
    )


def _scan_tables(
    site_values: list[str],
    hourly: dict[tuple[str, int, int], list[int]],
    responses: dict[tuple[str, int, int], int],
) -> ScanTables:
    """Both tables in the accumulators' key layout: sites coded in
    first-appearance order, keys ascending."""
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
    return ScanTables(
        site_values=site_values,
        hourly_keys=hourly_keys,
        hourly_counts=hourly_counts,
        hourly_bytes=hourly_bytes,
        response_keys=response_keys,
        response_counts=response_counts,
    )
