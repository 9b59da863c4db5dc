"""The publisher origin server behind the CDN.

Edge misses are filled from the origin.  The origin also owns the
behaviours that produce the paper's non-200 response codes (Fig. 16):

* access control / hotlink protection → **403 Forbidden** for a small,
  per-site fraction of requests;
* out-of-range Range requests → **416 Range Not Satisfiable**;
* validators (modelled as a last-modified version counter) → the edge and
  browser can revalidate, producing **304 Not Modified**;
* objects not yet published (before their injection time) → 403 as well.
"""

from __future__ import annotations

import bisect
import zlib
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from repro.stats.sampling import CounterStreams, make_rng
from repro.workload.catalog import ContentObject

#: Mutation gaps drawn when a schedule is first queried.  At the default
#: rate (one event per 50 days) a week-long trace rarely needs a second
#: event; a query past the last drawn event redraws twice as many.
FIRST_MUTATION_GAPS = 4


@dataclass(frozen=True, slots=True)
class OriginResponse:
    """Origin's answer to an edge fetch."""

    allowed: bool
    version: int
    bytes_fetched: int


class OriginServer:
    """Authoritative store for every site's catalog.

    Parameters
    ----------
    forbidden_rate:
        Probability an arbitrary request trips access control (expired
        signed URL, hotlinking, geo block) — the paper's 403s.
    mutation_rate_per_day:
        Expected per-object probability of content being re-encoded or
        replaced per day, which bumps the version and invalidates
        conditional requests.
    seed:
        Keys the per-object mutation schedules.  Two origins built with
        the same seed agree on every object's version at every instant,
        regardless of which objects they were asked about first — the
        property that lets each simulation shard carry its own origin.
    """

    def __init__(
        self,
        forbidden_rate: float = 0.015,
        mutation_rate_per_day: float = 0.02,
        rng: np.random.Generator | int | None = None,
        seed: int = 0,
    ):
        if not 0.0 <= forbidden_rate < 1.0:
            raise ValueError(f"forbidden_rate must be in [0, 1), got {forbidden_rate}")
        if mutation_rate_per_day < 0:
            raise ValueError("mutation_rate_per_day must be non-negative")
        self.forbidden_rate = forbidden_rate
        self.mutation_rate_per_day = mutation_rate_per_day
        self.seed = seed
        self._rng = make_rng(rng)
        #: Every object's ``counter_rng(seed, "origin-mutation", crc32(id))``
        #: stream, served by re-keying one bit generator.
        self._mutation_streams = CounterStreams(seed, "origin-mutation")
        #: Per-object mutation event times, extended lazily as the clock
        #: advances: object_id -> (start, sorted absolute event times).
        #: The last stored time always lies beyond the latest query, so
        #: earlier entries are final.
        self._schedules: dict[str, tuple[float, list[float]]] = {}
        self.fetches = 0
        self.bytes_served = 0

    def current_version(self, obj: ContentObject, now: float) -> int:
        """Object version at time ``now`` (Poisson mutation process).

        The mutation events of each object form a fixed schedule drawn
        from a counter-based stream keyed on ``(seed, object_id)`` — a
        pure function of the object, not of query order.  The version is
        simply one plus the number of events at or before ``now``, so it
        is monotone in ``now`` and identical across origin replicas.  The
        key is the id alone by design: objects that share an id (the same
        URL in two catalogs) share one schedule, as one URL at a real
        origin has one modification history.
        """
        if self.mutation_rate_per_day <= 0:
            return 1
        start = max(obj.birth_time, 0.0)
        if now <= start:
            return 1
        times = self._mutation_times(obj.object_id, start, now)
        return 1 + bisect.bisect_right(times, now)

    def _mutation_times(self, object_id: str, start: float, now: float) -> list[float]:
        """Mutation event times for ``object_id`` covering up to ``now``.

        The events are ``start`` plus the running sum of the stream's
        exponential gaps, added left to right.  One id keeps the start of
        its first query.  A query past the last event re-keys the stream
        and redraws a longer block, whose first gaps are the ones already
        used, so the earlier events do not move.
        """
        schedule = self._schedules.get(object_id)
        if schedule is None:
            count = FIRST_MUTATION_GAPS
        else:
            start, times = schedule
            if times[-1] > now:
                return times
            count = 2 * len(times)
        mean_gap = 86_400.0 / self.mutation_rate_per_day
        index = zlib.crc32(object_id.encode("utf-8"))
        while True:
            gaps = self._mutation_streams.at(index).exponential(mean_gap, size=count)
            times = list(accumulate(gaps.tolist(), initial=start))[1:]
            if times[-1] > now:
                break
            count *= 2
        self._schedules[object_id] = (start, times)
        return times

    def is_published(self, obj: ContentObject, now: float) -> bool:
        return now >= obj.birth_time

    def check_access(self, rng: np.random.Generator | None = None) -> bool:
        """Whether an individual request passes access control."""
        generator = rng if rng is not None else self._rng
        return generator.random() >= self.forbidden_rate

    def fetch(self, obj: ContentObject, size: int, now: float) -> OriginResponse:
        """Serve ``size`` bytes of ``obj`` to an edge server."""
        if not self.is_published(obj, now):
            return OriginResponse(allowed=False, version=0, bytes_fetched=0)
        self.fetches += 1
        self.bytes_served += size
        return OriginResponse(allowed=True, version=self.current_version(obj, now), bytes_fetched=size)

    def count_fetches(self, obj: ContentObject, count: int, size: int, now: float) -> None:
        """Account ``count`` fetches of ``obj`` totalling ``size`` bytes.

        The counters move exactly as ``count`` :meth:`fetch` calls would
        move them; the edge, which already knows the current version,
        skips building the responses.
        """
        if self.is_published(obj, now):
            self.fetches += count
            self.bytes_served += size
