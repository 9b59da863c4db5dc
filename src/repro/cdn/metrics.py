"""Per-site accounting collected during simulation.

The simulator can answer Fig. 15/16-style questions directly (without
re-reading the emitted trace); the analysis pipeline computes the same
quantities from the logs, and the integration tests cross-check the two.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from repro.types import CacheStatus


@dataclass
class SiteMetrics:
    """Counters for one site."""

    requests: int = 0
    hits: int = 0
    bytes_served: int = 0
    bytes_from_origin: int = 0
    latency_ms_total: float = 0.0
    status_codes: Counter = field(default_factory=Counter)

    @property
    def hit_ratio(self) -> float:
        if self.requests == 0:
            return 0.0
        return self.hits / self.requests

    @property
    def mean_latency_ms(self) -> float:
        """Mean user-perceived first-byte latency over the site's requests."""
        if self.requests == 0:
            return 0.0
        return self.latency_ms_total / self.requests

    def merge(self, other: "SiteMetrics") -> "SiteMetrics":
        """Fold another site's counters into this one (commutative sums)."""
        self.requests += other.requests
        self.hits += other.hits
        self.bytes_served += other.bytes_served
        self.bytes_from_origin += other.bytes_from_origin
        self.latency_ms_total += other.latency_ms_total
        self.status_codes.update(other.status_codes)
        return self


@dataclass
class SimulationMetrics:
    """Aggregated counters for a whole simulation run."""

    sites: dict[str, SiteMetrics] = field(default_factory=dict)
    #: Browser caches dropped by the ``max_tracked_browsers`` LRU cap.
    evicted_browsers: int = 0

    def record(
        self,
        site: str,
        cache_status: CacheStatus,
        status_code: int,
        bytes_served: int,
        bytes_from_origin: int,
        latency_ms: float = 0.0,
    ) -> None:
        metrics = self.sites.get(site)
        if metrics is None:
            metrics = self.sites[site] = SiteMetrics()
        metrics.requests += 1
        if cache_status is CacheStatus.HIT:
            metrics.hits += 1
        metrics.bytes_served += bytes_served
        metrics.bytes_from_origin += bytes_from_origin
        metrics.latency_ms_total += latency_ms
        metrics.status_codes[status_code] += 1

    @property
    def total_requests(self) -> int:
        return sum(m.requests for m in self.sites.values())

    @property
    def overall_hit_ratio(self) -> float:
        total = self.total_requests
        if total == 0:
            return 0.0
        return sum(m.hits for m in self.sites.values()) / total

    @property
    def overall_mean_latency_ms(self) -> float:
        total = self.total_requests
        if total == 0:
            return 0.0
        return sum(m.latency_ms_total for m in self.sites.values()) / total

    def status_code_totals(self) -> Counter:
        totals: Counter = Counter()
        for metrics in self.sites.values():
            totals.update(metrics.status_codes)
        return totals

    def merge(self, other: "SimulationMetrics") -> "SimulationMetrics":
        """Fold another run's (or shard's) metrics into this one.

        Every counter is a plain sum, so merging per-shard metrics in a
        fixed shard order reproduces a sequential run's aggregates exactly
        — including the float latency totals, because the sequential path
        accumulates per shard and merges in the same order.
        """
        for site, metrics in other.sites.items():
            self.sites.setdefault(site, SiteMetrics()).merge(metrics)
        self.evicted_browsers += other.evicted_browsers
        return self
