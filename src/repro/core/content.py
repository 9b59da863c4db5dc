"""Content-dynamics analyses (paper Section IV-B; Figures 5-7).

* :func:`size_cdf`                — Fig. 5: content size CDFs per category.
* :func:`popularity_distribution` — Fig. 6: per-object request-count CDFs.
* :func:`content_age_survival`    — Fig. 7: fraction of objects still
  requested at each age (content injection / aging).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.dataset import TraceDataset
from repro.errors import EmptyDatasetError
from repro.stats.ecdf import EmpiricalCDF
from repro.stats.zipf import fit_zipf_mle
from repro.types import ContentCategory, DAY_SECONDS


@dataclass
class SizeCdfResult:
    """Fig. 5: per-site size CDFs for one category."""

    category: ContentCategory
    cdfs: dict[str, EmpiricalCDF]

    def median_bytes(self, site: str) -> float:
        return self.cdfs[site].median

    def fraction_above(self, site: str, size_bytes: float) -> float:
        return self.cdfs[site].fraction_above(size_bytes)


def size_cdf(dataset: TraceDataset, category: ContentCategory) -> SizeCdfResult:
    """Fig. 5: CDFs of distinct-object sizes, per site.

    Sizes are per *object*, not per request — the paper plots content size
    distributions of the objects themselves.
    """
    cdfs: dict[str, EmpiricalCDF] = {}
    for site in dataset.sites:
        sizes = [stats.size_bytes for stats in dataset.objects_of(site, category)]
        if sizes:
            cdfs[site] = EmpiricalCDF(sizes)
    return SizeCdfResult(category=category, cdfs=cdfs)


@dataclass
class PopularityResult:
    """Fig. 6: per-site request-count CDFs for one category."""

    category: ContentCategory
    cdfs: dict[str, EmpiricalCDF]
    zipf_exponents: dict[str, float]

    def tail_index(self, site: str) -> float:
        """Fitted Zipf exponent of the site's popularity distribution."""
        return self.zipf_exponents[site]

    def skewness_ratio(self, site: str, head_fraction: float = 0.1) -> float:
        """Share of requests going to the top ``head_fraction`` of objects.

        A value far above ``head_fraction`` confirms the long tail the
        paper observes (a small fraction of objects is very popular).
        """
        sample = np.sort(self.cdfs[site].sample)[::-1]
        head = max(1, int(round(head_fraction * sample.size)))
        total = sample.sum()
        return float(sample[:head].sum() / total) if total else 0.0


def popularity_distribution(dataset: TraceDataset, category: ContentCategory) -> PopularityResult:
    """Fig. 6: distribution of requests per object, per site."""
    cdfs: dict[str, EmpiricalCDF] = {}
    exponents: dict[str, float] = {}
    for site in dataset.sites:
        counts = [stats.requests for stats in dataset.objects_of(site, category)]
        if not counts:
            continue
        cdfs[site] = EmpiricalCDF(counts)
        if len(counts) >= 2 and sum(c > 0 for c in counts) >= 2:
            exponents[site] = fit_zipf_mle(counts)
        else:
            exponents[site] = float("nan")
    return PopularityResult(category=category, cdfs=cdfs, zipf_exponents=exponents)


@dataclass
class AgeSurvivalResult:
    """Fig. 7: fraction of objects requested at each age, per site."""

    #: ``fractions[site][d-1]`` = fraction of the site's objects requested
    #: on day ``d`` of their life (day 1 = injection day).
    fractions: dict[str, list[float]]
    max_age_days: int

    def fraction_at_age(self, site: str, age_days: int) -> float:
        return self.fractions[site][age_days - 1]


def content_age_survival(dataset: TraceDataset, max_age_days: int = 7) -> AgeSurvivalResult:
    """Fig. 7: content injection and aging.

    Each object's injection time is its first request (the log-side
    estimate of injection; the paper's Fig. 7 uses the same convention —
    its day-1 fraction is 1).  For each age ``d`` (in days), the fraction
    of objects with at least one request during day ``d`` of their life is
    reported.  Objects injected too late for an age to fit inside the trace
    are excluded from that age's denominator.
    """
    fractions: dict[str, list[float]] = {}
    trace_end_hours = dataset.duration_hours
    for site in dataset.sites:
        objects = dataset.objects_of(site)
        if not objects:
            continue
        requested = np.zeros(max_age_days)
        observable = np.zeros(max_age_days)
        for stats in objects:
            active_hours = sorted(stats.hourly)
            birth_hour = active_hours[0]
            request_days = {(hour - birth_hour) // 24 for hour in active_hours}
            # Day d of life (1-based age) covers hours [birth + 24(d-1), birth + 24d).
            for age_index in range(max_age_days):
                if birth_hour + 24 * age_index >= trace_end_hours:
                    break  # this age window starts past the trace end
                observable[age_index] += 1
                if age_index in request_days:
                    requested[age_index] += 1
        with np.errstate(invalid="ignore", divide="ignore"):
            ratio = np.where(observable > 0, requested / np.maximum(observable, 1), 0.0)
        fractions[site] = [float(x) for x in ratio]
    if not fractions:
        raise EmptyDatasetError("content_age_survival: no requested objects in trace")
    return AgeSurvivalResult(fractions=fractions, max_age_days=max_age_days)
