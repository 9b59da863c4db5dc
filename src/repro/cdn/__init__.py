"""CDN substrate: a request-driven simulator of a commercial CDN.

The paper observes its traffic at the edge servers of a commercial CDN
(Section III): users are redirected to the closest of several
geographically distributed data centers, each edge keeps a cache, video is
chunked ("the CDN treats video chunks as separate objects for the sake of
caching"), and every response carries a cache status (HIT/MISS) and an
HTTP status code (200/204/206/304/403/416 observed).

This subpackage implements that machinery: data-center geography and
routing, pluggable cache-replacement policies with TTL revalidation, video
chunking, an origin server with validators and access control, a per-user
browser cache with incognito disposal, and the simulator that turns
workload request blocks (:class:`~repro.workload.generator.RequestBlock`)
into columnar log batches (:class:`~repro.trace.batch.RecordBatch`).
"""

from repro.cdn.cache import CacheEntry, CacheStats, EvictionPolicy
from repro.cdn.geo import DataCenter, default_datacenters
from repro.cdn.policies import FifoPolicy, GdsfPolicy, LfuPolicy, LruPolicy, SlruPolicy, make_policy
from repro.cdn.replication import PushReplicator
from repro.cdn.routing import Router
from repro.cdn.server import EdgeServer
from repro.cdn.simulator import CdnSimulator, SimulationConfig

__all__ = [
    "CacheEntry",
    "CacheStats",
    "CdnSimulator",
    "DataCenter",
    "EdgeServer",
    "EvictionPolicy",
    "FifoPolicy",
    "GdsfPolicy",
    "LfuPolicy",
    "LruPolicy",
    "PushReplicator",
    "Router",
    "SimulationConfig",
    "SlruPolicy",
    "default_datacenters",
    "make_policy",
]
