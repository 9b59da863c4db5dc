"""Aggregate analyses (paper Section IV-A; Figures 1-4).

* :func:`content_composition`   — Fig. 1: objects per category per site.
* :func:`traffic_composition`   — Fig. 2: request counts and byte volume
  per category per site.
* :func:`hourly_volume`         — Fig. 3: normalised hourly traffic volume
  in users' local time.
* :func:`device_composition`    — Fig. 4: visitor share per device type,
  parsed from user agents.

Each analysis is an :class:`~repro.core.passes.AnalysisPass`
(:class:`HourlyVolumePass` scans the store's columns; the others consume
the dataset's prebuilt indices in ``finish``), with the module functions
kept as single-pass convenience wrappers.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.accumulate import HourlyAccumulator, decode_hourly_keys
from repro.core.dataset import TraceDataset
from repro.core.passes import run_passes
from repro.stats.timeseries import HourlyTimeSeries, diurnality_index
from repro.trace.batch import RecordBatch
from repro.trace.useragent import parse_user_agent
from repro.types import ContentCategory, DeviceType
from repro.workload.catalog import ContentCatalog


@dataclass
class CompositionRow:
    """Per-(site, category) counts for Figs. 1 and 2."""

    site: str
    category: ContentCategory
    objects: int = 0
    requests: int = 0
    bytes_requested: int = 0

    def share_of(self, total: int, attribute: str) -> float:
        value = getattr(self, attribute)
        return value / total if total else 0.0


@dataclass
class CompositionResult:
    """All rows of a composition analysis, with per-site totals."""

    rows: list[CompositionRow] = field(default_factory=list)

    def row(self, site: str, category: ContentCategory) -> CompositionRow:
        for r in self.rows:
            if r.site == site and r.category is category:
                return r
        raise KeyError((site, category))

    def sites(self) -> list[str]:
        return sorted({r.site for r in self.rows})

    def site_total(self, site: str, attribute: str) -> int:
        return sum(getattr(r, attribute) for r in self.rows if r.site == site)

    def share(self, site: str, category: ContentCategory, attribute: str) -> float:
        total = self.site_total(site, attribute)
        return self.row(site, category).share_of(total, attribute)


class ContentCompositionPass:
    """Fig. 1 as an index-level :class:`~repro.core.passes.AnalysisPass`.

    Consumes catalogs (when available) or the dataset's object index in
    ``finish``; ``process`` is a no-op, so the pass rides a shared scan
    for free.
    """

    name = "content_composition"
    supports_storeless = True

    def __init__(self, catalogs: dict[str, ContentCatalog] | None = None):
        self.catalogs = catalogs
        self._dataset: TraceDataset | None = None

    def begin(self, dataset: TraceDataset) -> None:
        self._dataset = dataset

    def process(self, chunk: RecordBatch) -> None:
        pass

    def finish(self) -> CompositionResult:
        assert self._dataset is not None
        result = CompositionResult()
        index: dict[tuple[str, ContentCategory], CompositionRow] = {}

        def row_for(site: str, category: ContentCategory) -> CompositionRow:
            key = (site, category)
            if key not in index:
                index[key] = CompositionRow(site=site, category=category)
                result.rows.append(index[key])
            return index[key]

        if self.catalogs is not None:
            for site, catalog in self.catalogs.items():
                for category, count in catalog.category_counts().items():
                    row_for(site, category).objects += count
        else:
            for stats in self._dataset.object_stats.values():
                row_for(stats.site, stats.category).objects += 1
        # Ensure all three categories exist for every site (zero rows included).
        for site in {r.site for r in result.rows}:
            for category in ContentCategory:
                row_for(site, category)
        result.rows.sort(key=lambda r: (r.site, r.category.value))
        return result


def content_composition(
    dataset: TraceDataset,
    catalogs: dict[str, ContentCatalog] | None = None,
) -> CompositionResult:
    """Fig. 1: how many objects per category each site stores.

    The paper counts objects on the CDN servers.  When the generating
    ``catalogs`` are available (simulation pipeline) they give the exact
    stored inventory; otherwise distinct objects observed in the trace are
    the standard log-side estimate.
    """
    analysis = ContentCompositionPass(catalogs)
    analysis.begin(dataset)
    return analysis.finish()


class TrafficCompositionPass:
    """Fig. 2 as an index-level pass over the per-object aggregates."""

    name = "traffic_composition"
    supports_storeless = True

    def __init__(self) -> None:
        self._dataset: TraceDataset | None = None

    def begin(self, dataset: TraceDataset) -> None:
        self._dataset = dataset

    def process(self, chunk: RecordBatch) -> None:
        pass

    def finish(self) -> CompositionResult:
        assert self._dataset is not None
        result = CompositionResult()
        index: dict[tuple[str, ContentCategory], CompositionRow] = {}
        for stats in self._dataset.object_stats.values():
            key = (stats.site, stats.category)
            row = index.get(key)
            if row is None:
                row = CompositionRow(site=stats.site, category=stats.category)
                index[key] = row
                result.rows.append(row)
            row.objects += 1
            row.requests += stats.requests
            row.bytes_requested += stats.bytes_requested
        for site in {r.site for r in result.rows}:
            for category in ContentCategory:
                if (site, category) not in index:
                    row = CompositionRow(site=site, category=category)
                    index[(site, category)] = row
                    result.rows.append(row)
        result.rows.sort(key=lambda r: (r.site, r.category.value))
        return result


def traffic_composition(dataset: TraceDataset) -> CompositionResult:
    """Fig. 2: request count (a) and requested bytes (b) per category.

    Request size follows the paper's definition — the total size of the
    objects requested — so a video requested twice counts its full size
    twice even if only a range was transferred.
    """
    analysis = TrafficCompositionPass()
    analysis.begin(dataset)
    return analysis.finish()


@dataclass
class HourlyVolumeResult:
    """Fig. 3: per-site normalised hourly volume in local time."""

    series: dict[str, HourlyTimeSeries]

    def percentage_series(self, site: str) -> HourlyTimeSeries:
        """The site's series as percent of its weekly volume."""
        normalized = self.series[site].normalized()
        return HourlyTimeSeries(normalized.hours, normalized.values * 100.0)

    def peak_hour(self, site: str) -> int:
        """Local hour of day with the site's highest average volume."""
        return self.series[site].peak_hour_of_day()

    def diurnality(self, site: str) -> float:
        """Peak-to-mean ratio of the site's 24-hour profile."""
        return diurnality_index(self.series[site].fold_daily())


class HourlyVolumePass:
    """Fig. 3 as a columnar scan pass.

    Accumulates the integer ``(site, UTC offset, UTC hour)`` table of
    :class:`~repro.core.accumulate.HourlyAccumulator` — the local-time
    shift and the wheel modulo are applied to *whole hours* in ``finish``,
    so the table (and hence the figure) is independent of how the rows
    were chunked or batched.  Datasets built with ``keep_store=False``
    carry the same table from ingest; the pass adopts it and skips the
    scan entirely.
    """

    name = "hourly_volume"
    supports_storeless = True

    def __init__(self, local_time: bool = True, by_bytes: bool = False):
        self.local_time = local_time
        self.by_bytes = by_bytes
        self._hours = 1
        self._site_values: list[str] = []
        self._accumulator: HourlyAccumulator | None = None
        self._tables: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None

    def begin(self, dataset: TraceDataset) -> None:
        self._hours = dataset.duration_hours
        self._site_values = dataset.site_values if len(dataset) else []
        aggregates = dataset.scan_aggregates
        if aggregates is not None:
            self._tables = (aggregates.hourly_keys, aggregates.hourly_counts, aggregates.hourly_bytes)
            self._accumulator = None
        else:
            self._tables = None
            self._accumulator = HourlyAccumulator()

    def process(self, chunk: RecordBatch) -> None:
        if self._accumulator is not None:
            self._accumulator.update(chunk, chunk.site.codes.astype(np.int64))

    def finish(self) -> HourlyVolumeResult:
        if self._tables is not None:
            keys, counts, byte_sums = self._tables
        else:
            assert self._accumulator is not None
            keys, counts, byte_sums = self._accumulator.finalize()
        n_sites = len(self._site_values)
        volume = np.zeros((n_sites, self._hours))
        site_rows = np.zeros(n_sites, dtype=np.int64)
        if keys.size:
            site, offset, utc_hour = decode_hourly_keys(keys)
            if self.local_time:
                bins = (utc_hour + offset) % self._hours
            else:
                bins = np.clip(utc_hour, 0, self._hours - 1)
            weights = byte_sums if self.by_bytes else counts
            np.add.at(volume, (site, bins), weights.astype(np.float64))
            site_rows[:] = np.bincount(site, weights=counts, minlength=n_sites)[:n_sites].astype(np.int64)
        # Dictionary code order is first-appearance order, so the series
        # dict iterates exactly like the scalar implementation's.
        series = {
            site: HourlyTimeSeries(self._hours, volume[code])
            for code, site in enumerate(self._site_values)
            if site_rows[code]
        }
        return HourlyVolumeResult(series=series)


def hourly_volume(dataset: TraceDataset, local_time: bool = True, by_bytes: bool = False) -> HourlyVolumeResult:
    """Fig. 3: hourly traffic volume time series per site.

    ``local_time=True`` converts each record's timestamp into the
    requesting user's local timezone before binning — the paper's method.
    The user's timezone is recovered from the serving data center (the
    router serves users from their own continent).  ``by_bytes`` switches
    the volume metric from request count to bytes served.
    """
    analysis = HourlyVolumePass(local_time=local_time, by_bytes=by_bytes)
    return run_passes(dataset, [analysis])[analysis.name]


@dataclass
class DeviceCompositionResult:
    """Fig. 4: per-site visitor counts per device type."""

    counts: dict[str, dict[DeviceType, int]]

    def share(self, site: str, device: DeviceType) -> float:
        site_counts = self.counts[site]
        total = sum(site_counts.values())
        return site_counts.get(device, 0) / total if total else 0.0

    def mobile_share(self, site: str) -> float:
        """Fraction of visitors on smartphones + misc devices."""
        return sum(self.share(site, device) for device in DeviceType if device.is_mobile)


class DeviceCompositionPass:
    """Fig. 4 as an index-level pass over the columnar user timelines.

    Consumes :meth:`~repro.core.dataset.TraceDataset.user_timelines`
    (first-appearance order, available on every engine including
    ``keep_store=False``) instead of the python-object user dicts.
    User-agent strings repeat heavily across users, so the parse result is
    memoised per distinct string.
    """

    name = "device_composition"
    supports_storeless = True

    def __init__(self) -> None:
        self._dataset: TraceDataset | None = None

    def begin(self, dataset: TraceDataset) -> None:
        self._dataset = dataset

    def process(self, chunk: RecordBatch) -> None:
        pass

    def finish(self) -> DeviceCompositionResult:
        assert self._dataset is not None
        timelines = self._dataset.user_timelines()
        counts: dict[str, dict[DeviceType, int]] = {}
        device_of: dict[str, DeviceType] = {}
        for site, agent in zip(timelines.sites, timelines.agents):
            device = device_of.get(agent)
            if device is None:
                device = parse_user_agent(agent).device
                device_of[agent] = device
            site_counts = counts.setdefault(site, {device_type: 0 for device_type in DeviceType})
            site_counts[device] += 1
        return DeviceCompositionResult(counts=counts)


def device_composition(dataset: TraceDataset) -> DeviceCompositionResult:
    """Fig. 4: the device mix of each site's *visitors* (unique users).

    Devices are recovered by parsing each user's User-Agent header, the
    paper's method (Section III).
    """
    analysis = DeviceCompositionPass()
    analysis.begin(dataset)
    return analysis.finish()
