"""Cache replacement policies.

The paper cannot see inside the CDN's proprietary caching algorithms; it
only observes HIT/MISS outcomes.  We provide the standard policy family so
the cache-performance figures (Fig. 15) can be reproduced and ablated:

* :class:`LruPolicy`  — least recently used (the default).
* :class:`LfuPolicy`  — least frequently used with recency tie-break.
* :class:`FifoPolicy` — first in, first out.
* :class:`SlruPolicy` — segmented LRU (probation + protected), robust to
  one-hit wonders, which adult traffic has many of (long-tailed popularity).
* :class:`GdsfPolicy` — Greedy-Dual-Size-Frequency; size-aware, matching the
  paper's suggestion to treat small and large objects differently.
"""

from __future__ import annotations

import heapq
from collections import OrderedDict

from repro.errors import CachePolicyError
from repro.cdn.cache import EvictionPolicy


class LruPolicy(EvictionPolicy):
    """Evict the least recently used key."""

    name = "lru"

    def __init__(self) -> None:
        self._order: OrderedDict[str, None] = OrderedDict()

    def on_insert(self, key: str, size: int, now: float) -> None:
        self._order[key] = None
        self._order.move_to_end(key)

    def on_hit(self, key: str, now: float) -> None:
        self._order.move_to_end(key)

    def on_evict(self, key: str) -> None:
        self._order.pop(key, None)

    def victim(self) -> str:
        return next(iter(self._order))

    def __len__(self) -> int:
        return len(self._order)


class FifoPolicy(EvictionPolicy):
    """Evict the oldest-inserted key; hits do not refresh position."""

    name = "fifo"

    def __init__(self) -> None:
        self._order: OrderedDict[str, None] = OrderedDict()

    def on_insert(self, key: str, size: int, now: float) -> None:
        if key in self._order:
            self._order.pop(key)
        self._order[key] = None

    def on_hit(self, key: str, now: float) -> None:
        pass

    def on_evict(self, key: str) -> None:
        self._order.pop(key, None)

    def victim(self) -> str:
        return next(iter(self._order))

    def __len__(self) -> int:
        return len(self._order)


class LfuPolicy(EvictionPolicy):
    """Evict the least frequently used key (ties: least recent).

    Implemented with a lazy heap: stale heap entries are skipped when the
    key's current (count, time) no longer matches.
    """

    name = "lfu"

    def __init__(self) -> None:
        self._counts: dict[str, int] = {}
        self._last_touch: dict[str, float] = {}
        self._heap: list[tuple[int, float, str]] = []

    def _push(self, key: str) -> None:
        heapq.heappush(self._heap, (self._counts[key], self._last_touch[key], key))

    def on_insert(self, key: str, size: int, now: float) -> None:
        self._counts[key] = 1
        self._last_touch[key] = now
        self._push(key)

    def on_hit(self, key: str, now: float) -> None:
        self._counts[key] += 1
        self._last_touch[key] = now
        self._push(key)

    def on_evict(self, key: str) -> None:
        self._counts.pop(key, None)
        self._last_touch.pop(key, None)

    def victim(self) -> str:
        while self._heap:
            count, touched, key = self._heap[0]
            current = self._counts.get(key)
            if current is None or (count, touched) != (current, self._last_touch[key]):
                heapq.heappop(self._heap)
                continue
            return key
        raise CachePolicyError("victim() called on an empty LFU policy")

    def __len__(self) -> int:
        return len(self._counts)


class SlruPolicy(EvictionPolicy):
    """Segmented LRU: new keys enter probation; a hit promotes to protected.

    Eviction prefers the probation segment, so one-hit wonders never push
    proven-popular objects out.  The protected segment is bounded to
    ``protected_fraction`` of tracked keys; overflow demotes back to the
    probation segment's MRU end.
    """

    name = "slru"

    def __init__(self, protected_fraction: float = 0.8):
        if not 0.0 < protected_fraction < 1.0:
            raise CachePolicyError(f"protected_fraction must be in (0, 1), got {protected_fraction}")
        self.protected_fraction = protected_fraction
        self._probation: OrderedDict[str, None] = OrderedDict()
        self._protected: OrderedDict[str, None] = OrderedDict()

    def on_insert(self, key: str, size: int, now: float) -> None:
        self._protected.pop(key, None)
        self._probation[key] = None
        self._probation.move_to_end(key)

    def on_hit(self, key: str, now: float) -> None:
        if key in self._probation:
            self._probation.pop(key)
            self._protected[key] = None
        self._protected.move_to_end(key)
        limit = max(1, int(self.protected_fraction * len(self)))
        while len(self._protected) > limit:
            demoted, _ = self._protected.popitem(last=False)
            self._probation[demoted] = None
            self._probation.move_to_end(demoted)

    def on_evict(self, key: str) -> None:
        self._probation.pop(key, None)
        self._protected.pop(key, None)

    def victim(self) -> str:
        if self._probation:
            return next(iter(self._probation))
        return next(iter(self._protected))

    def __len__(self) -> int:
        return len(self._probation) + len(self._protected)


class GdsfPolicy(EvictionPolicy):
    """Greedy-Dual-Size-Frequency (Cherkasova): size-aware utility eviction.

    Each key gets priority ``L + frequency / size``; the evicted key's
    priority becomes the new floor ``L``.  Small, frequently used objects
    (thumbnails) survive; huge cold videos go first — the behaviour the
    paper's small/large-object caching discussion wants.

    The victim is the live key with the smallest ``(priority, key)``.  The
    heap holds, for every live key, at least one ``(p, key)`` entry with
    ``p`` at most the key's stored priority; entries of evicted keys may
    linger.  A key's priority only rises while it is live, so a hit just
    stores the new priority and leaves the key's entry lagging behind it.
    :meth:`victim` drops entries of evicted keys and re-files a lagging top
    entry at its key's stored priority until the top entry is current —
    the smallest ``(priority, key)`` overall, because every other live key
    has an entry at or below its own priority.
    """

    name = "gdsf"

    def __init__(self) -> None:
        self._priority: dict[str, float] = {}
        self._frequency: dict[str, int] = {}
        self._size: dict[str, int] = {}
        self._floor = 0.0
        self._heap: list[tuple[float, str]] = []

    def _score(self, key: str) -> float:
        return self._floor + self._frequency[key] / self._size[key]

    def on_insert(self, key: str, size: int, now: float) -> None:
        self._frequency[key] = 1
        # Stored as ``max(1, size)``, the divisor every score uses.
        self._size[key] = size if size > 1 else 1
        priority = self._priority[key] = self._score(key)
        heapq.heappush(self._heap, (priority, key))

    def on_hit(self, key: str, now: float) -> None:
        # ``_score`` inline: hits are the hot path.
        frequency = self._frequency[key] = self._frequency[key] + 1
        self._priority[key] = self._floor + frequency / self._size[key]

    def on_evict(self, key: str) -> None:
        priority = self._priority.pop(key, None)
        if priority is not None and priority > self._floor:
            self._floor = priority
        self._frequency.pop(key, None)
        self._size.pop(key, None)

    def victim(self) -> str:
        heap = self._heap
        while heap:
            priority, key = heap[0]
            current = self._priority.get(key)
            if current is None:
                heapq.heappop(heap)
            elif priority != current:
                heapq.heapreplace(heap, (current, key))
            else:
                return key
        raise CachePolicyError("victim() called on an empty GDSF policy")

    def __len__(self) -> int:
        return len(self._priority)


_POLICY_FACTORIES = {
    "lru": LruPolicy,
    "fifo": FifoPolicy,
    "lfu": LfuPolicy,
    "slru": SlruPolicy,
    "gdsf": GdsfPolicy,
}


def make_policy(name: str) -> EvictionPolicy:
    """Instantiate a policy by name (``lru``, ``fifo``, ``lfu``, ``slru``, ``gdsf``)."""
    try:
        factory = _POLICY_FACTORIES[name.lower()]
    except KeyError:
        raise CachePolicyError(f"unknown cache policy {name!r}; expected one of {sorted(_POLICY_FACTORIES)}") from None
    return factory()


def policy_names() -> tuple[str, ...]:
    """All registered policy names."""
    return tuple(sorted(_POLICY_FACTORIES))
