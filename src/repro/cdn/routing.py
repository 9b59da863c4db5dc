"""Request routing: which data center serves which user.

"A user's request for content is redirected to the closest data center via
DNS redirection, anycast, or other CDN-specific methods" (paper Section
III).  We abstract those mechanisms into a latency-minimising map from the
user's continent to a data center; ties break deterministically by id.
"""

from __future__ import annotations

import zlib

from repro.cdn.geo import DataCenter, Topology, latency_ms
from repro.errors import RoutingError
from repro.types import Continent
from repro.workload.population import User


def user_partition(user_id: str, partitions: int) -> int:
    """Stable cache-partition index of a user within their data center.

    CRC32-based (not the per-process-salted ``hash``) so the mapping is
    identical across worker processes and runs — the simulator shards a
    data center's users into ``partitions`` independent cache partitions
    the way CDN PoPs consistent-hash clients across cache nodes.
    """
    if partitions <= 1:
        return 0
    return zlib.crc32(user_id.encode("utf-8")) % partitions


class Router:
    """Route users to the lowest-latency *healthy* data center.

    Supports failure injection: :meth:`mark_down` removes a data center
    from the routing table (its users fail over to the next-nearest
    healthy location, as DNS-based redirection does on health-check
    failure), and :meth:`mark_up` restores it.
    """

    def __init__(self, topology: Topology):
        if len(topology) == 0:
            raise RoutingError("router needs a non-empty topology")
        self.topology = topology
        self._down: set[str] = set()
        #: Topology position of each continent's serving data center,
        #: indexed by :attr:`~repro.types.Continent.code`.  :meth:`_rebuild`
        #: refills it in place, so a reference held across requests sees
        #: every :meth:`mark_down` and :meth:`mark_up` at the next lookup.
        self.route_positions: list[int] = []
        self._rebuild()

    def _rebuild(self) -> None:
        healthy = [dc for dc in self.topology if dc.dc_id not in self._down]
        if not healthy:
            raise RoutingError("no healthy data center remains")
        routes = [
            min(healthy, key=lambda dc: (latency_ms(continent, dc.continent), dc.dc_id))
            for continent in Continent
        ]
        positions = {dc.dc_id: index for index, dc in enumerate(self.topology)}
        self.route_positions[:] = [positions[dc.dc_id] for dc in routes]

    def mark_down(self, dc_id: str) -> None:
        """Take a data center out of rotation (failure injection)."""
        if dc_id not in {dc.dc_id for dc in self.topology}:
            raise RoutingError(f"unknown data center {dc_id!r}")
        self._down.add(dc_id)
        self._rebuild()

    def mark_up(self, dc_id: str) -> None:
        """Restore a previously failed data center."""
        self._down.discard(dc_id)
        self._rebuild()

    @property
    def down(self) -> frozenset[str]:
        """Identifiers of data centers currently out of rotation."""
        return frozenset(self._down)

    def route(self, user: User) -> DataCenter:
        """The data center serving ``user``."""
        return self.topology.datacenters[self.route_positions[user.continent.code]]
