"""Tests for CDN geography and request routing."""

from __future__ import annotations

import pytest

from repro.cdn.geo import DataCenter, Topology, default_datacenters, latency_ms
from repro.cdn.routing import Router
from repro.errors import ConfigError
from repro.types import Continent
from repro.workload.population import User
from repro.types import DeviceType


def make_user(continent: Continent) -> User:
    return User(
        user_id="u1",
        site="V-1",
        device=DeviceType.DESKTOP,
        continent=continent,
        user_agent="UA",
        incognito=False,
        activity_weight=1.0,
        addiction_propensity=0.0,
    )


class TestGeo:
    def test_latency_symmetric(self):
        for a in Continent:
            for b in Continent:
                assert latency_ms(a, b) == latency_ms(b, a)

    def test_same_continent_lowest_latency(self):
        for a in Continent:
            for b in Continent:
                if a is not b:
                    assert latency_ms(a, a) < latency_ms(a, b)

    def test_datacenter_capacity_validated(self):
        with pytest.raises(ConfigError):
            DataCenter(dc_id="x", continent=Continent.EUROPE, cache_capacity_bytes=0)

    def test_topology_requires_datacenters(self):
        with pytest.raises(ConfigError):
            Topology(())

    def test_topology_rejects_duplicate_ids(self):
        dc = DataCenter("dup", Continent.EUROPE, 100)
        with pytest.raises(ConfigError):
            Topology((dc, DataCenter("dup", Continent.ASIA, 100)))

    def test_default_topology_one_per_continent(self):
        topology = default_datacenters()
        assert len(topology) == 4
        assert {dc.continent for dc in topology} == set(Continent)


class TestRouter:
    def test_users_routed_to_own_continent(self):
        router = Router(default_datacenters())
        for continent in Continent:
            dc = router.route(make_user(continent))
            assert dc.continent is continent

    def test_fallback_to_nearest_when_continent_missing(self):
        topology = Topology((DataCenter("dc-eu", Continent.EUROPE, 100),))
        router = Router(topology)
        # Everyone is served by the only data center.
        for continent in Continent:
            assert router.route(make_user(continent)).dc_id == "dc-eu"

    def test_nearest_selection_uses_latency(self):
        topology = Topology(
            (
                DataCenter("dc-na", Continent.NORTH_AMERICA, 100),
                DataCenter("dc-asia", Continent.ASIA, 100),
            )
        )
        router = Router(topology)
        # South America is closer to North America (120ms) than Asia (280ms).
        assert router.route(make_user(Continent.SOUTH_AMERICA)).dc_id == "dc-na"

    def test_deterministic_tie_break(self):
        topology = Topology(
            (
                DataCenter("dc-b", Continent.EUROPE, 100),
                DataCenter("dc-a", Continent.EUROPE, 100),
            )
        )
        router = Router(topology)
        assert router.route(make_user(Continent.EUROPE)).dc_id == "dc-a"
