"""Tests for the ISP proxy-cache layer and router failure injection."""

from __future__ import annotations

import pytest

from repro.cdn.proxy import IspProxyLayer, ProxyConfig
from repro.cdn.routing import Router
from repro.cdn.geo import DataCenter, Topology, default_datacenters
from repro.errors import CdnError, RoutingError
from repro.types import Continent, ContentCategory, DeviceType, TrendClass
from repro.workload.catalog import ContentObject
from repro.workload.population import User


def make_object(category=ContentCategory.IMAGE, size=100_000, object_id="img-1") -> ContentObject:
    ext = "jpg" if category is ContentCategory.IMAGE else "mp4"
    return ContentObject(
        object_id=object_id,
        site="P-1",
        category=category,
        extension=ext,
        size_bytes=size,
        birth_time=0.0,
        trend=TrendClass.DIURNAL,
        popularity_weight=1.0,
    )


def make_user(continent=Continent.EUROPE) -> User:
    return User(
        user_id="u1", site="P-1", device=DeviceType.DESKTOP, continent=continent,
        user_agent="UA", incognito=True, activity_weight=1.0, addiction_propensity=0.9,
    )


class TestIspProxyLayer:
    def test_capacity_validated(self):
        with pytest.raises(CdnError):
            IspProxyLayer(ProxyConfig(capacity_bytes=0))

    def test_one_cache_per_continent(self):
        layer = IspProxyLayer()
        assert set(layer.caches) == set(Continent)

    def test_miss_then_hit_after_admit(self):
        layer = IspProxyLayer()
        obj = make_object()
        assert not layer.serve_locally(Continent.EUROPE, obj, now=0.0)
        assert layer.admit(Continent.EUROPE, obj, now=0.0)
        assert layer.serve_locally(Continent.EUROPE, obj, now=1.0)

    def test_continents_isolated(self):
        layer = IspProxyLayer()
        obj = make_object()
        layer.admit(Continent.EUROPE, obj, now=0.0)
        assert not layer.serve_locally(Continent.ASIA, obj, now=1.0)

    def test_video_not_cached_by_default(self):
        layer = IspProxyLayer()
        video = make_object(ContentCategory.VIDEO, size=5_000_000, object_id="vid")
        assert not layer.cacheable(video)
        assert not layer.admit(Continent.EUROPE, video, now=0.0)

    def test_video_cacheable_when_enabled(self):
        layer = IspProxyLayer(ProxyConfig(cache_video=True, max_object_bytes=10_000_000))
        video = make_object(ContentCategory.VIDEO, size=5_000_000, object_id="vid")
        assert layer.cacheable(video)

    def test_oversized_objects_bypass(self):
        layer = IspProxyLayer(ProxyConfig(max_object_bytes=1_000))
        big = make_object(size=2_000)
        assert not layer.cacheable(big)

    def test_ttl_expiry(self):
        layer = IspProxyLayer(ProxyConfig(ttl_seconds=100.0))
        obj = make_object()
        layer.admit(Continent.EUROPE, obj, now=0.0)
        assert not layer.serve_locally(Continent.EUROPE, obj, now=200.0)

    def test_hit_ratio_accounting(self):
        layer = IspProxyLayer()
        obj = make_object()
        layer.serve_locally(Continent.EUROPE, obj, 0.0)   # miss
        layer.admit(Continent.EUROPE, obj, 0.0)
        layer.serve_locally(Continent.EUROPE, obj, 1.0)   # hit
        assert layer.total_lookups == 2
        assert layer.total_hits == 1
        assert layer.hit_ratio == pytest.approx(0.5)


class TestProxySimulatorIntegration:
    def test_proxy_absorbs_repeat_image_requests(self):
        from repro.cdn.simulator import CdnSimulator, SimulationConfig
        from repro.workload.generator import WorkloadGenerator
        from repro.workload.profiles import profile_p1
        from repro.workload.scale import ScaleConfig

        generator = WorkloadGenerator(profiles=(profile_p1(),), scale=ScaleConfig.tiny(), seed=9)
        workload = generator.generate_site(profile_p1())

        def run(proxies: bool) -> int:
            simulator = CdnSimulator(
                profiles=(profile_p1(),),
                config=SimulationConfig(seed=10, isp_proxies=proxies),
            )
            stream = generator.merged_request_batches({"P-1": workload})
            return sum(len(batch) for batch in simulator.run_batches(stream))

        with_proxy = run(True)
        without_proxy = run(False)
        # The proxy serves part of the repeat traffic locally, so fewer
        # requests reach the CDN (and its logs).
        assert with_proxy < without_proxy


class TestRouterFailover:
    def test_mark_down_reroutes(self):
        router = Router(default_datacenters())
        user = make_user(Continent.EUROPE)
        assert router.route(user).continent is Continent.EUROPE
        router.mark_down("dc-europe")
        rerouted = router.route(user)
        assert rerouted.continent is not Continent.EUROPE
        assert "dc-europe" in router.down

    def test_mark_up_restores(self):
        router = Router(default_datacenters())
        router.mark_down("dc-europe")
        router.mark_up("dc-europe")
        assert router.route(make_user(Continent.EUROPE)).continent is Continent.EUROPE
        assert not router.down

    def test_unknown_dc_rejected(self):
        router = Router(default_datacenters())
        with pytest.raises(RoutingError):
            router.mark_down("dc-mars")

    def test_last_dc_cannot_fail(self):
        topology = Topology((DataCenter("only", Continent.EUROPE, 100),))
        router = Router(topology)
        with pytest.raises(RoutingError):
            router.mark_down("only")

    def test_failover_prefers_nearest_healthy(self):
        router = Router(default_datacenters())
        router.mark_down("dc-europe")
        # Europe's nearest healthy DC is North America (90ms) not Asia (160ms).
        assert router.route(make_user(Continent.EUROPE)).dc_id == "dc-north_america"

    def test_simulator_continues_through_failure(self):
        """One run, with ``dc-europe`` marked down between the stream's two
        halves: its users are served there before the mark and failed
        over after it."""
        from repro.cdn.simulator import CdnSimulator, SimulationConfig
        from repro.workload.generator import WorkloadGenerator
        from repro.workload.profiles import profile_v1
        from repro.workload.scale import ScaleConfig

        generator = WorkloadGenerator(profiles=(profile_v1(),), scale=ScaleConfig.tiny(), seed=9)
        workload = generator.generate_site(profile_v1())
        simulator = CdnSimulator(profiles=(profile_v1(),), config=SimulationConfig(seed=10))
        stream = next(generator.merged_request_batches({"V-1": workload}, batch_size=workload.request_count))
        half = len(stream) // 2
        marked = False

        def halves():
            nonlocal marked
            yield stream.rows(0, half)
            simulator.router.mark_down("dc-europe")
            marked = True
            yield stream.rows(half, len(stream))

        before, after = set(), set()
        # One-row batches come out as each request is served, so every
        # batch lands on the side of the mark its request was served on.
        for batch in simulator.run_batches(halves(), batch_size=1):
            (after if marked else before).update(batch.datacenter.tolist())
        assert "dc-europe" in before
        assert "dc-north_america" in after
        assert "dc-europe" not in after

    def test_run_batches_follows_router_at_every_request(self):
        """A ``mark_down`` between two pulls of ``run_batches`` takes effect
        at the next request, even in the middle of a request block: the
        whole run equals a replay over one-row blocks, where the mark at
        the same request falls between two block pulls."""
        from repro.cdn.simulator import CdnSimulator, SimulationConfig
        from repro.types import DAY_SECONDS
        from repro.workload.generator import WorkloadGenerator
        from repro.workload.profiles import profile_p1, profile_v1
        from repro.workload.scale import ScaleConfig

        block_rows = 8192
        mark_after = 3 * DAY_SECONDS
        profiles = (profile_v1(), profile_p1())
        generator = WorkloadGenerator(profiles=profiles, scale=ScaleConfig.tiny(), seed=9)
        workloads = generator.generate_all()

        def simulator() -> CdnSimulator:
            return CdnSimulator(profiles=profiles, config=SimulationConfig(seed=10))

        batched = simulator()
        rows, marked_rows = [], None
        for batch in batched.run_batches(
            generator.merged_request_batches(workloads, batch_size=block_rows), batch_size=1
        ):
            rows.extend(batch.iter_records())
            if marked_rows is None and rows[-1].timestamp > mark_after:
                batched.router.mark_down("dc-europe")
                marked_rows = len(rows)
        assert marked_rows is not None

        replay = simulator()
        pulled = []

        def one_row_blocks():
            for block in generator.merged_request_batches(workloads, batch_size=1):
                pulled.append(block)
                yield block

        expected, marked_at, failed_over = [], None, set()
        # A one-row batch comes out while its request's block is the last
        # one pulled, and the mark made then holds from the next pull on.
        for batch in replay.run_batches(one_row_blocks(), batch_size=1):
            [record] = batch.iter_records()
            block = pulled[-1]
            expected.append(record)
            user = block.tables.users[block.user_index[0]]
            if marked_at is not None and user.continent is Continent.EUROPE:
                failed_over.add(record.datacenter)
            if marked_at is None and record.timestamp > mark_after:
                replay.router.mark_down("dc-europe")
                marked_at = int(block.request_id[0])
        # The mark fell inside a block, and European users' later rows
        # name the fail-over data center.
        assert (marked_at + 1) % block_rows != 0
        assert failed_over == {"dc-north_america"}
        assert "dc-europe" in {r.datacenter for r in rows[:marked_rows]}
        assert "dc-europe" not in {r.datacenter for r in rows[marked_rows:]}
        assert rows == expected
