"""Aggregate analyses (paper Section IV-A; Figures 1-4).

* :func:`content_composition`   — Fig. 1: objects per category per site.
* :func:`traffic_composition`   — Fig. 2: request counts and byte volume
  per category per site.
* :func:`hourly_volume`         — Fig. 3: normalised hourly traffic volume
  in users' local time.
* :func:`device_composition`    — Fig. 4: visitor share per device type,
  parsed from user agents.

Each analysis is a function of the dataset's ingest-built indices: the
object index (Figs. 1-2), the Fig. 3 hourly table and the user timelines
(Fig. 4).  None of them reads the rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.accumulate import decode_hourly_keys
from repro.core.dataset import TraceDataset
from repro.stats.timeseries import HourlyTimeSeries, diurnality_index
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
    result = CompositionResult()
    index: dict[tuple[str, ContentCategory], CompositionRow] = {}

    def row_for(site: str, category: ContentCategory) -> CompositionRow:
        key = (site, category)
        if key not in index:
            index[key] = CompositionRow(site=site, category=category)
            result.rows.append(index[key])
        return index[key]

    if catalogs is not None:
        for site, catalog in catalogs.items():
            for category, count in catalog.category_counts().items():
                row_for(site, category).objects += count
    else:
        for stats in dataset.object_stats.values():
            row_for(stats.site, stats.category).objects += 1
    # Ensure all three categories exist for every site (zero rows included).
    for site in {r.site for r in result.rows}:
        for category in ContentCategory:
            row_for(site, category)
    result.rows.sort(key=lambda r: (r.site, r.category.value))
    return result


def traffic_composition(dataset: TraceDataset) -> CompositionResult:
    """Fig. 2: request count (a) and requested bytes (b) per category.

    Request size follows the paper's definition — the total size of the
    objects requested — so a video requested twice counts its full size
    twice even if only a range was transferred.
    """
    result = CompositionResult()
    index: dict[tuple[str, ContentCategory], CompositionRow] = {}
    for stats in dataset.object_stats.values():
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


def hourly_volume(dataset: TraceDataset, local_time: bool = True, by_bytes: bool = False) -> HourlyVolumeResult:
    """Fig. 3: hourly traffic volume time series per site.

    ``local_time=True`` converts each record's timestamp into the
    requesting user's local timezone before binning — the paper's method.
    The user's timezone is recovered from the serving data center (the
    router serves users from their own continent).  ``by_bytes`` switches
    the volume metric from request count to bytes served.

    Reads the ingest-built ``(site, UTC offset, UTC hour)`` table
    (:attr:`TraceDataset.scan_aggregates`): the local-time shift and the
    wheel modulo are applied to *whole hours* here, so the figure is
    independent of how the rows were batched.
    """
    tables = dataset.scan_aggregates
    hours = dataset.duration_hours
    n_sites = len(tables.site_values)
    volume = np.zeros((n_sites, hours))
    site_rows = np.zeros(n_sites, dtype=np.int64)
    if tables.hourly_keys.size:
        site, offset, utc_hour = decode_hourly_keys(tables.hourly_keys)
        if local_time:
            bins = (utc_hour + offset) % hours
        else:
            bins = np.clip(utc_hour, 0, hours - 1)
        weights = tables.hourly_bytes if by_bytes else tables.hourly_counts
        np.add.at(volume, (site, bins), weights.astype(np.float64))
        site_rows[:] = np.bincount(site, weights=tables.hourly_counts, minlength=n_sites)[:n_sites].astype(np.int64)
    # Site codes are first-appearance order, so the series dict iterates
    # exactly like the scalar implementation's.
    series = {
        site: HourlyTimeSeries(hours, volume[code])
        for code, site in enumerate(tables.site_values)
        if site_rows[code]
    }
    return HourlyVolumeResult(series=series)


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


def device_composition(dataset: TraceDataset) -> DeviceCompositionResult:
    """Fig. 4: the device mix of each site's *visitors* (unique users).

    Devices are recovered by parsing each user's User-Agent header, the
    paper's method (Section III).  Reads the columnar
    :meth:`~repro.core.dataset.TraceDataset.user_timelines` (first-appearance
    order) instead of the python-object user dicts; user-agent strings
    repeat heavily across users, so the parse is memoised per string.
    """
    timelines = dataset.user_timelines()
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
