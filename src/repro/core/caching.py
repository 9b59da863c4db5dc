"""Caching-implication analyses (paper Section V; Figures 15-16).

* :func:`hit_ratio_analysis`     — Fig. 15: per-object cache hit-ratio CDFs
  (image vs video), the popularity-vs-hit-ratio correlation, and overall
  per-site hit ratios.
* :func:`response_code_analysis` — Fig. 16: HTTP response-code counts per
  site and category, including the 304 share that the paper ties to
  incognito browsing.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from repro.core.accumulate import decode_response_keys
from repro.core.dataset import TraceDataset
from repro.stats.correlation import pearson, spearman
from repro.stats.ecdf import EmpiricalCDF
from repro.trace.batch import CATEGORIES
from repro.types import ContentCategory


@dataclass
class HitRatioResult:
    """Fig. 15 for one category."""

    category: ContentCategory
    #: Per-site CDF of per-object hit ratios.
    cdfs: dict[str, EmpiricalCDF]
    #: Per-site correlation between object popularity and hit ratio.
    popularity_correlation: dict[str, float]
    #: Per-site request-weighted overall hit ratio.
    overall_hit_ratio: dict[str, float]
    #: Per-site fraction of objects ever cached (hit at least once).
    cached_fraction: dict[str, float]

    def mean_object_hit_ratio(self, site: str) -> float:
        return self.cdfs[site].mean


def hit_ratio_analysis(
    dataset: TraceDataset,
    category: ContentCategory,
    correlation: str = "spearman",
) -> HitRatioResult:
    """Fig. 15: cache performance per object and site.

    Per-object hit ratio counts only cacheable content responses (200/206).
    The paper's observations this reproduces: image objects cache better
    than video (chunked video misses on cold chunks), popular objects have
    hit ratios correlating above 0.9 with popularity, and request-weighted
    overall hit ratios land in the 80-90% band.
    """
    corr_fn = spearman if correlation == "spearman" else pearson
    cdfs: dict[str, EmpiricalCDF] = {}
    correlations: dict[str, float] = {}
    overall: dict[str, float] = {}
    cached_fraction: dict[str, float] = {}
    for site in dataset.sites:
        objects = [
            stats for stats in dataset.objects_of(site, category) if stats.hits + stats.misses > 0
        ]
        if not objects:
            continue
        ratios = [stats.hit_ratio for stats in objects]
        popularity = [stats.requests for stats in objects]
        cdfs[site] = EmpiricalCDF(ratios)
        if len(objects) >= 2:
            correlations[site] = corr_fn(popularity, ratios)
        else:
            correlations[site] = float("nan")
        hits = sum(stats.hits for stats in objects)
        lookups = sum(stats.hits + stats.misses for stats in objects)
        overall[site] = hits / lookups if lookups else 0.0
        cached_fraction[site] = float(np.mean([stats.hits > 0 for stats in objects]))
    return HitRatioResult(
        category=category,
        cdfs=cdfs,
        popularity_correlation=correlations,
        overall_hit_ratio=overall,
        cached_fraction=cached_fraction,
    )


@dataclass
class ResponseCodeResult:
    """Fig. 16: response-code counts, split by site and category."""

    #: ``counts[site][category][status_code]`` -> request count.
    counts: dict[str, dict[ContentCategory, Counter]]

    def site_total(self, site: str) -> Counter:
        total: Counter = Counter()
        for category_counts in self.counts[site].values():
            total.update(category_counts)
        return total

    def code_share(self, site: str, status_code: int) -> float:
        totals = self.site_total(site)
        grand_total = sum(totals.values())
        return totals.get(status_code, 0) / grand_total if grand_total else 0.0

    def category_counts(self, category: ContentCategory) -> dict[str, Counter]:
        """Per-site counters restricted to one category (a Fig. 16 panel)."""
        return {
            site: per_site.get(category, Counter())
            for site, per_site in self.counts.items()
        }

    def observed_codes(self) -> list[int]:
        codes: set[int] = set()
        for per_site in self.counts.values():
            for counter in per_site.values():
                codes.update(counter)
        return sorted(codes)


def response_code_analysis(dataset: TraceDataset) -> ResponseCodeResult:
    """Fig. 16: tabulate HTTP response codes per site and category.

    Decodes the ingest-built ``(site, category, status)`` count table
    (:attr:`TraceDataset.scan_aggregates`) into nested per-site,
    per-category counters.  Keys are ascending, so sites, categories and
    codes iterate in key order.
    """
    tables = dataset.scan_aggregates
    counts: dict[str, dict[ContentCategory, Counter]] = {}
    site_codes, category_codes, statuses = decode_response_keys(tables.response_keys)
    for site_code, category_code, status, count in zip(
        site_codes.tolist(), category_codes.tolist(), statuses.tolist(), tables.response_counts.tolist()
    ):
        per_site = counts.setdefault(tables.site_values[site_code], {})
        counter = per_site.setdefault(CATEGORIES[category_code], Counter())
        counter[status] = count
    return ResponseCodeResult(counts=counts)
