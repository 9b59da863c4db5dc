"""Tests for push-based replication."""

from __future__ import annotations

import pytest

from repro.cdn.cache import Cache
from repro.cdn.chunking import Chunker
from repro.cdn.geo import DataCenter
from repro.cdn.origin import OriginServer
from repro.cdn.policies import LruPolicy
from repro.cdn.replication import PUSHABLE_TRENDS, PushReplicator
from repro.cdn.server import EdgeServer
from repro.stats.sampling import make_rng
from repro.types import Continent, ContentCategory, TrendClass
from repro.workload.catalog import ContentCatalog, ContentObject


def make_object(idx: int, trend: TrendClass, weight: float, birth: float, size: int = 500_000) -> ContentObject:
    return ContentObject(
        object_id=f"obj-{idx}",
        site="V-1",
        category=ContentCategory.VIDEO if size > 100_000 else ContentCategory.IMAGE,
        extension="mp4",
        size_bytes=size,
        birth_time=birth,
        trend=trend,
        popularity_weight=weight,
    )


def make_edges(count: int = 2) -> list[EdgeServer]:
    origin = OriginServer(mutation_rate_per_day=0.0, rng=make_rng(0))
    chunker = Chunker(1_000_000)
    edges = []
    for i in range(count):
        cache = Cache(capacity_bytes=10**9, policy=LruPolicy())
        dc = DataCenter(f"dc-{i}", Continent.EUROPE, 10**9)
        edges.append(EdgeServer(dc, cache, cache, origin, chunker))
    return edges


class TestPlan:
    def test_quantile_bounds(self):
        with pytest.raises(ValueError):
            PushReplicator(popularity_quantile=1.0)

    def test_plan_selects_popular_pushable_injected(self):
        objects = [
            make_object(0, TrendClass.DIURNAL, weight=1.0, birth=100.0),      # pushable
            make_object(1, TrendClass.DIURNAL, weight=0.001, birth=100.0),    # unpopular
            make_object(2, TrendClass.SHORT_LIVED, weight=1.0, birth=100.0),  # wrong trend
            make_object(3, TrendClass.LONG_LIVED, weight=1.0, birth=0.0),     # pre-existing
            make_object(4, TrendClass.LONG_LIVED, weight=1.0, birth=500.0),   # pushable
        ]
        replicator = PushReplicator(popularity_quantile=0.5)
        planned = replicator.build_plan([ContentCatalog("V-1", objects)])
        assert planned == 2
        assert replicator.pending == 2

    def test_plan_is_time_ordered(self):
        objects = [
            make_object(i, TrendClass.DIURNAL, weight=1.0, birth=float(1000 - i))
            for i in range(5)
        ]
        replicator = PushReplicator(popularity_quantile=0.0)
        replicator.build_plan([ContentCatalog("V-1", objects)])
        births = [birth for birth, _ in replicator._plan]
        assert births == sorted(births)

    def test_pushable_trends_are_the_papers(self):
        assert PUSHABLE_TRENDS == {TrendClass.DIURNAL, TrendClass.LONG_LIVED}


class TestAdvance:
    def test_pushes_execute_when_clock_passes_birth(self):
        obj = make_object(0, TrendClass.DIURNAL, weight=1.0, birth=100.0, size=2_500_000)
        replicator = PushReplicator(popularity_quantile=0.0)
        replicator.build_plan([ContentCatalog("V-1", [obj])])
        edges = make_edges(2)

        assert replicator.advance(50.0, edges) == 0
        assert replicator.pending == 1
        assert replicator.advance(100.0, edges) == 1
        assert replicator.pending == 0
        # Chunks installed on every edge.
        for edge in edges:
            assert edge.large_cache.peek("obj-0#c0") is not None
        assert replicator.stats.objects_pushed == 1
        assert replicator.stats.chunks_pushed == 2 * 3  # 3 chunks x 2 edges
        assert replicator.stats.bytes_pushed == 2 * 2_500_000

    def test_advance_is_idempotent_past_plan_end(self):
        obj = make_object(0, TrendClass.DIURNAL, weight=1.0, birth=10.0)
        replicator = PushReplicator(popularity_quantile=0.0)
        replicator.build_plan([ContentCatalog("V-1", [obj])])
        edges = make_edges(1)
        assert replicator.advance(1e9, edges) == 1
        assert replicator.advance(2e9, edges) == 0

    def test_pushed_object_hits_on_first_request(self):
        from repro.cdn.http import ClientIntent
        from repro.types import CacheStatus

        obj = make_object(0, TrendClass.DIURNAL, weight=1.0, birth=100.0)
        replicator = PushReplicator(popularity_quantile=0.0)
        replicator.build_plan([ContentCatalog("V-1", [obj])])
        edges = make_edges(1)
        replicator.advance(100.0, edges)
        result = edges[0].serve(obj, ClientIntent(kind="full"), now=150.0)
        assert result.cache_status is CacheStatus.HIT


class TestSimulatorIntegration:
    def test_enable_push_improves_injected_object_hits(self):
        from repro.cdn.simulator import CdnSimulator, SimulationConfig
        from repro.workload.generator import WorkloadGenerator
        from repro.workload.profiles import profile_v1
        from repro.workload.scale import ScaleConfig

        generator = WorkloadGenerator(profiles=(profile_v1(),), scale=ScaleConfig.tiny(), seed=3)
        workload = generator.generate_site(profile_v1())

        def run(push: bool) -> float:
            config = SimulationConfig(seed=4, cache_capacity_bytes=20 * 10**9)
            simulator = CdnSimulator(profiles=(profile_v1(),), config=config)
            simulator.warm([workload.catalog])
            if push:
                assert simulator.enable_push([workload.catalog]) > 0
            for _ in simulator.run_batches(generator.merged_request_batches({"V-1": workload})):
                pass
            return simulator.metrics.overall_hit_ratio

        assert run(push=True) >= run(push=False)
