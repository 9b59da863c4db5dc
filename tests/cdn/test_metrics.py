"""Tests for simulation metrics, including latency accounting."""

from __future__ import annotations

import pytest

from repro.cdn.metrics import SimulationMetrics, SiteMetrics
from repro.types import CacheStatus


class TestSiteMetrics:
    def test_empty_defaults(self):
        metrics = SiteMetrics()
        assert metrics.hit_ratio == 0.0
        assert metrics.mean_latency_ms == 0.0


class TestSimulationMetrics:
    def test_record_accumulates(self):
        metrics = SimulationMetrics()
        metrics.record("V-1", CacheStatus.HIT, 200, 1000, 0, latency_ms=10.0)
        metrics.record("V-1", CacheStatus.MISS, 200, 1000, 1000, latency_ms=300.0)
        metrics.record("P-1", CacheStatus.HIT, 304, 0, 0, latency_ms=10.0)
        site = metrics.sites["V-1"]
        assert site.requests == 2
        assert site.hits == 1
        assert site.hit_ratio == pytest.approx(0.5)
        assert site.bytes_from_origin == 1000
        assert site.mean_latency_ms == pytest.approx(155.0)
        assert metrics.total_requests == 3
        assert metrics.overall_hit_ratio == pytest.approx(2 / 3)
        assert metrics.overall_mean_latency_ms == pytest.approx((10 + 300 + 10) / 3)

    def test_status_code_totals(self):
        metrics = SimulationMetrics()
        metrics.record("V-1", CacheStatus.HIT, 200, 1, 0)
        metrics.record("P-1", CacheStatus.HIT, 200, 1, 0)
        metrics.record("P-1", CacheStatus.MISS, 403, 0, 0)
        totals = metrics.status_code_totals()
        assert totals[200] == 2
        assert totals[403] == 1

    def test_empty_overall(self):
        metrics = SimulationMetrics()
        assert metrics.overall_hit_ratio == 0.0
        assert metrics.overall_mean_latency_ms == 0.0


class TestSimulatedLatency:
    def test_misses_cost_more_than_hits(self):
        """Edge misses pay the origin round trip on top of the edge RTT."""
        from repro.cdn.simulator import CdnSimulator, SimulationConfig
        from repro.workload.generator import WorkloadGenerator
        from repro.workload.profiles import profile_v1
        from repro.workload.scale import ScaleConfig

        generator = WorkloadGenerator(profiles=(profile_v1(),), scale=ScaleConfig.tiny(), seed=41)
        workload = generator.generate_site(profile_v1())

        # Cold, tiny cache -> mostly misses; warm, huge cache -> mostly hits.
        cold = CdnSimulator(
            profiles=(profile_v1(),),
            config=SimulationConfig(seed=42, warm_caches=False, cache_capacity_bytes=10_000_000),
        )
        warm = CdnSimulator(
            profiles=(profile_v1(),),
            config=SimulationConfig(seed=42, cache_capacity_bytes=10**12, background_churn_per_day=0.0),
        )
        warm.warm([workload.catalog])
        sample = next(generator.merged_request_batches({"V-1": workload}, batch_size=4000))
        for simulator in (cold, warm):
            for _ in simulator.run_batches([sample]):
                pass
        assert cold.metrics.overall_hit_ratio < warm.metrics.overall_hit_ratio
        assert cold.metrics.overall_mean_latency_ms > warm.metrics.overall_mean_latency_ms
