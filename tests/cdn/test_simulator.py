"""Tests for the end-to-end CDN simulator."""

from __future__ import annotations

import pytest

from repro.cdn.geo import DataCenter
from repro.cdn.http import ClientIntent
from repro.cdn.simulator import CdnSimulator, SimulationConfig, SimulatorShard
from repro.types import CacheStatus, Continent, ContentCategory, DeviceType, OBSERVED_STATUS_CODES, TrendClass
from repro.workload.catalog import ContentObject
from repro.workload.generator import WorkloadGenerator
from repro.workload.population import User
from repro.workload.profiles import profile_v2
from repro.workload.scale import ScaleConfig


@pytest.fixture(scope="module")
def v2_run():
    """One simulated site: (workload, simulator, records)."""
    generator = WorkloadGenerator(profiles=(profile_v2(),), scale=ScaleConfig.tiny(), seed=5)
    workload = generator.generate_site(profile_v2())
    simulator = CdnSimulator(profiles=(profile_v2(),), config=SimulationConfig(seed=6))
    simulator.warm([workload.catalog])
    stream = generator.merged_request_batches({"V-2": workload})
    records = [record for batch in simulator.run_batches(stream) for record in batch.iter_records()]
    return workload, simulator, records


class TestSimulatorOutput:
    def test_emits_records_for_most_requests(self, v2_run):
        workload, _, records = v2_run
        # Some requests are served purely from browser caches (no record).
        assert 0.5 * workload.request_count <= len(records) <= workload.request_count

    def test_records_time_ordered(self, v2_run):
        _, _, records = v2_run
        times = [r.timestamp for r in records]
        assert times == sorted(times)

    def test_status_codes_within_paper_set(self, v2_run):
        _, _, records = v2_run
        assert {r.status_code for r in records} <= set(OBSERVED_STATUS_CODES)

    def test_200_dominates(self, v2_run):
        _, _, records = v2_run
        share_200 = sum(r.status_code == 200 for r in records) / len(records)
        assert share_200 > 0.5

    def test_user_ids_anonymized(self, v2_run):
        workload, _, records = v2_run
        raw_ids = {u.user_id for u in workload.population}
        for record in records[:300]:
            assert record.user_id not in raw_ids
            assert record.user_id.startswith("u")

    def test_object_ids_anonymized_but_stable(self, v2_run):
        workload, _, records = v2_run
        raw_ids = {o.object_id for o in workload.catalog}
        seen: dict[str, str] = {}
        for record in records[:500]:
            assert record.object_id not in raw_ids
            # same extension+size combination maps consistently
        tokens = {r.object_id for r in records}
        assert len(tokens) <= len(workload.catalog)

    def test_bytes_served_zero_for_bodyless_codes(self, v2_run):
        _, _, records = v2_run
        for record in records:
            if record.status_code in (204, 304, 403, 416):
                assert record.bytes_served == 0

    def test_206_only_for_video(self, v2_run):
        _, _, records = v2_run
        for record in records:
            if record.status_code == 206:
                assert record.category is ContentCategory.VIDEO

    def test_metrics_match_records(self, v2_run):
        _, simulator, records = v2_run
        assert simulator.metrics.total_requests == len(records)
        hit_records = sum(r.cache_status is CacheStatus.HIT for r in records)
        hits_metric = sum(m.hits for m in simulator.metrics.sites.values())
        assert hits_metric == hit_records

    def test_datacenters_used_match_topology(self, v2_run):
        _, simulator, records = v2_run
        dc_ids = {r.datacenter for r in records}
        assert dc_ids <= set(simulator.edges)
        assert len(dc_ids) >= 2  # users span continents


class TestWarm:
    def test_warm_inserts_entries(self):
        generator = WorkloadGenerator(profiles=(profile_v2(),), scale=ScaleConfig.tiny(), seed=5)
        workload = generator.generate_site(profile_v2())
        simulator = CdnSimulator(profiles=(profile_v2(),), config=SimulationConfig(seed=6))
        inserted = simulator.warm([workload.catalog])
        assert inserted > 0
        for edge in simulator.edges.values():
            assert sum(len(c) for c in edge.caches()) > 0

    def test_warm_respects_fill_fraction(self):
        generator = WorkloadGenerator(profiles=(profile_v2(),), scale=ScaleConfig.tiny(), seed=5)
        workload = generator.generate_site(profile_v2())
        config = SimulationConfig(seed=6, warm_fill_fraction=0.5, cache_capacity_bytes=10**9)
        simulator = CdnSimulator(profiles=(profile_v2(),), config=config)
        simulator.warm([workload.catalog])
        for edge in simulator.edges.values():
            for cache in edge.caches():
                assert cache.used_bytes <= 0.5 * cache.capacity_bytes + 10**8

    def test_warm_admits_chunked_objects_atomically(self):
        """An object straddling the warm budget must be skipped whole —
        a half-warmed multi-chunk video would start the trace with the
        mixed hit/miss stream the per-object admission draw prevents."""
        from repro.types import TrendClass
        from repro.workload.catalog import ContentObject

        def obj(object_id, category, extension, size, weight):
            return ContentObject(
                object_id=object_id,
                site="V-2",
                category=category,
                extension=extension,
                size_bytes=size,
                birth_time=0.0,
                trend=TrendClass.LONG_LIVED,
                popularity_weight=weight,
            )

        image = obj("img", ContentCategory.IMAGE, "jpg", 20_000, 9.0)
        video1 = obj("vid1", ContentCategory.VIDEO, "mp4", 10_000_000, 5.0)  # 5 chunks
        video2 = obj("vid2", ContentCategory.VIDEO, "mp4", 10_000_000, 1.0)  # 5 chunks
        # Budget 0.8 × 20 MB = 16 MB: image + video1 fit (≈10.02 MB),
        # video2's 10 MB footprint would straddle the boundary.
        config = SimulationConfig(
            seed=6, cache_capacity_bytes=20_000_000, split_small_object_cache=False
        )
        simulator = CdnSimulator(profiles=(profile_v2(),), config=config)
        simulator.warm([[image, video1, video2]])
        for edge in simulator.edges.values():
            (cache,) = edge.caches()
            keys = set(cache.keys())
            assert "img" in keys or "img#c0" in keys
            assert {f"vid1#c{i}" for i in range(5)} <= keys
            # Not one chunk of the straddling object was admitted.
            assert not any(key.startswith("vid2") for key in keys)


class TestRevalidationCacheStatus:
    """A conditional request answered 304 logs HIT while the edge holds the
    object's first chunk, and MISS once that chunk is gone."""

    @pytest.mark.parametrize(
        "category, extension, size, first_key",
        [
            (ContentCategory.IMAGE, "jpg", 40_000, "img"),
            (ContentCategory.VIDEO, "mp4", 9_000_000, "vid#c0"),  # 5 chunks of 2 MB
        ],
        ids=["image", "video"],
    )
    def test_304_logs_hit_until_first_chunk_evicted(self, category, extension, size, first_key):
        obj = ContentObject(
            object_id=first_key.split("#")[0], site="V-2", category=category, extension=extension,
            size_bytes=size, birth_time=0.0, trend=TrendClass.DIURNAL, popularity_weight=1.0,
        )
        user = User(
            user_id="u1", site="V-2", device=DeviceType.DESKTOP, continent=Continent.EUROPE,
            user_agent="UA", incognito=False, activity_weight=1.0, addiction_propensity=0.0,
        )
        config = SimulationConfig(
            seed=6, cache_capacity_bytes=100_000_000, browser_local_serve_prob=0.0,
            browser_caches_video=True, background_churn_per_day=0.0,
        )
        shard = SimulatorShard(DataCenter("dc", Continent.EUROPE, config.cache_capacity_bytes), 0, config, {})
        # Every request passes access control and the content never
        # changes, so a browser-cached copy is always answered 304.
        shard.origin.forbidden_rate = 0.0
        shard.origin.mutation_rate_per_day = 0.0
        shard.edge.serve(obj, ClientIntent(kind="full"), now=0.0)
        # A served row is (timestamp, hit, status_code, bytes_served, chunk_index).
        _, _, first_status, _, _ = shard.serve(user, obj, 10.0, 0)  # fills the browser cache
        assert first_status in (200, 206)

        _, held_hit, held_status, _, _ = shard.serve(user, obj, 20.0, 1)
        assert held_status == 304
        assert held_hit is True  # logged HIT

        holder = shard.edge.small_cache if category is ContentCategory.IMAGE else shard.edge.large_cache
        assert holder.invalidate(first_key)
        if category is ContentCategory.VIDEO:
            assert "vid#c1" in holder  # later chunks stay; only the first decides
        _, evicted_hit, evicted_status, _, _ = shard.serve(user, obj, 30.0, 2)
        assert evicted_status == 304
        assert evicted_hit is False  # logged MISS


class TestConfigVariants:
    def _run(self, config: SimulationConfig) -> list:
        generator = WorkloadGenerator(profiles=(profile_v2(),), scale=ScaleConfig.tiny(), seed=5)
        workload = generator.generate_site(profile_v2())
        simulator = CdnSimulator(profiles=(profile_v2(),), config=config)
        head = next(generator.merged_request_batches({"V-2": workload}, batch_size=3000))
        return [record for batch in simulator.run_batches([head]) for record in batch.iter_records()]

    def test_unified_cache_mode(self):
        records = self._run(SimulationConfig(seed=1, split_small_object_cache=False))
        assert records

    def test_all_policies_run(self):
        for policy in ("lru", "fifo", "lfu", "slru", "gdsf"):
            records = self._run(SimulationConfig(seed=1, cache_policy=policy))
            assert records

    def test_zero_churn(self):
        records = self._run(SimulationConfig(seed=1, background_churn_per_day=0.0))
        assert records

    def test_incognito_effect_on_304(self):
        """With local serving disabled, non-incognito users revalidate more."""
        config_reval = SimulationConfig(seed=2, browser_local_serve_prob=0.0)
        records = self._run(config_reval)
        conditional = sum(r.status_code == 304 for r in records)
        config_local = SimulationConfig(seed=2, browser_local_serve_prob=1.0)
        records_local = self._run(config_local)
        conditional_local = sum(r.status_code == 304 for r in records_local)
        assert conditional > conditional_local

    def test_determinism(self):
        a = self._run(SimulationConfig(seed=3))
        b = self._run(SimulationConfig(seed=3))
        assert a == b
