"""End-to-end invariants that must hold for *any* seed.

The figure calibrations are asserted on fixed seeds elsewhere; these
tests sweep seeds and check the properties that must never break —
conservation laws, schema validity, ordering, determinism.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cdn.simulator import CdnSimulator, SimulationConfig
from repro.types import CacheStatus, OBSERVED_STATUS_CODES
from repro.workload.generator import WorkloadGenerator
from repro.workload.profiles import profile_v2
from repro.workload.scale import ScaleConfig

SEEDS = (0, 1, 99, 12345)


@pytest.fixture(scope="module", params=SEEDS)
def site_run(request):
    seed = request.param
    generator = WorkloadGenerator(profiles=(profile_v2(),), scale=ScaleConfig.tiny(), seed=seed)
    workload = generator.generate_site(profile_v2())
    simulator = CdnSimulator(profiles=(profile_v2(),), config=SimulationConfig(seed=seed + 1))
    simulator.warm([workload.catalog])
    stream = generator.merged_request_batches({"V-2": workload})
    records = [record for batch in simulator.run_batches(stream) for record in batch.iter_records()]
    return workload, simulator, records


class TestWorkloadInvariants:
    def test_every_request_after_object_birth(self, site_run):
        workload, _, _ = site_run
        births = np.array([obj.birth_time for obj in workload.catalog.objects])
        assert (workload.timestamps >= births[workload.object_index] - 1e-6).all()

    def test_requests_time_ordered(self, site_run):
        workload, _, _ = site_run
        times = workload.timestamps.tolist()
        assert times == sorted(times)

    def test_requests_within_week(self, site_run):
        workload, _, _ = site_run
        duration = ScaleConfig.tiny().duration_seconds
        assert ((workload.timestamps >= 0) & (workload.timestamps < duration)).all()


class TestSimulationInvariants:
    def test_status_codes_valid(self, site_run):
        _, _, records = site_run
        assert {r.status_code for r in records} <= set(OBSERVED_STATUS_CODES)

    def test_bytes_served_never_exceed_object_size(self, site_run):
        _, _, records = site_run
        for record in records:
            assert record.bytes_served <= record.object_size

    def test_hits_plus_misses_equal_lookups_in_every_cache(self, site_run):
        _, simulator, _ = site_run
        for edge in simulator.edges.values():
            for cache in edge.caches():
                stats = cache.stats
                assert stats.hits + stats.misses == stats.lookups
                assert cache.used_bytes <= cache.capacity_bytes

    def test_metrics_agree_with_records(self, site_run):
        _, simulator, records = site_run
        assert simulator.metrics.total_requests == len(records)
        hits = sum(r.cache_status is CacheStatus.HIT for r in records)
        assert sum(m.hits for m in simulator.metrics.sites.values()) == hits

    def test_origin_bytes_conservation(self, site_run):
        """Bytes fetched from the origin by edges equal origin's ledger."""
        _, simulator, _ = site_run
        edge_fetched = sum(
            cache.stats.bytes_fetched_from_origin
            for edge in simulator.edges.values()
            for cache in edge.caches()
        )
        assert edge_fetched == simulator.origin.bytes_served
