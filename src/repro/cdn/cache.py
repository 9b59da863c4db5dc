"""Cache interfaces and shared bookkeeping.

An edge cache stores byte-sized entries under string keys, evicts under a
pluggable replacement policy, and optionally expires entries under a TTL
(the revalidation knob the paper's Section IV-B implications discuss:
re-validate diurnal objects daily, short-lived objects hourly).

Invariants enforced here and relied on by the property tests:

* the sum of stored entry sizes never exceeds capacity;
* ``stats.hits + stats.misses == stats.lookups``;
* an entry larger than the whole cache is never admitted (it is served
  but not stored, counted in ``stats.uncacheable``).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field

from repro.errors import CachePolicyError


@dataclass(slots=True)
class CacheEntry:
    """One cached object (or video chunk)."""

    key: str
    size: int
    stored_at: float
    expires_at: float | None = None
    ttl: float | None = None
    version: int = 0
    hits: int = 0
    #: When a 304 revalidation last confirmed the content current at the
    #: origin; ``None`` until the first revalidation.  ``stored_at`` stays
    #: the original insert time.
    revalidated_at: float | None = None

    def validated_age(self, now: float) -> float:
        """Seconds since the content was last confirmed current at the origin.

        The content-age clock the Fig. 7 style analyses need: it restarts
        on a 304 revalidation (the origin just vouched for the bytes),
        whereas ``now - stored_at`` keeps growing and over-reports the age
        of revalidated entries.
        """
        reference = self.stored_at if self.revalidated_at is None else self.revalidated_at
        return now - reference


@dataclass(slots=True)
class CacheStats:
    """Counters accumulated by a cache over its lifetime."""

    lookups: int = 0
    hits: int = 0
    misses: int = 0
    insertions: int = 0
    evictions: int = 0
    expirations: int = 0
    revalidations: int = 0
    uncacheable: int = 0
    bytes_served_from_cache: int = 0
    bytes_fetched_from_origin: int = 0

    @property
    def hit_ratio(self) -> float:
        if self.lookups == 0:
            return 0.0
        return self.hits / self.lookups

    def merge(self, other: "CacheStats") -> "CacheStats":
        """Fold another cache's counters into this one (all plain sums)."""
        self.lookups += other.lookups
        self.hits += other.hits
        self.misses += other.misses
        self.insertions += other.insertions
        self.evictions += other.evictions
        self.expirations += other.expirations
        self.revalidations += other.revalidations
        self.uncacheable += other.uncacheable
        self.bytes_served_from_cache += other.bytes_served_from_cache
        self.bytes_fetched_from_origin += other.bytes_fetched_from_origin
        return self


class EvictionPolicy(abc.ABC):
    """Replacement policy: tracks key metadata and picks eviction victims.

    The cache calls :meth:`on_insert`, :meth:`on_hit` and :meth:`on_evict`
    to keep the policy's view in sync, and :meth:`victim` to pick the next
    key to evict.  Policies never store sizes; the cache owns the byte
    accounting.
    """

    name: str = "abstract"

    @abc.abstractmethod
    def on_insert(self, key: str, size: int, now: float) -> None:
        """A new key was stored."""

    @abc.abstractmethod
    def on_hit(self, key: str, now: float) -> None:
        """An existing key was served."""

    @abc.abstractmethod
    def on_evict(self, key: str) -> None:
        """A key was removed (eviction or expiry)."""

    @abc.abstractmethod
    def victim(self) -> str:
        """The key to evict next.  Only called when non-empty."""

    @abc.abstractmethod
    def __len__(self) -> int:
        """Number of tracked keys."""


@dataclass
class Cache:
    """Capacity-bounded cache with a pluggable eviction policy and TTLs.

    Parameters
    ----------
    capacity_bytes:
        Total byte budget.
    policy:
        Replacement policy instance (owned by this cache).
    default_ttl:
        Seconds before an entry goes stale, or ``None`` for no expiry.
        Per-entry TTLs can be supplied at insert time.
    """

    capacity_bytes: int
    policy: EvictionPolicy
    default_ttl: float | None = None
    stats: CacheStats = field(default_factory=CacheStats)

    def __post_init__(self) -> None:
        if self.capacity_bytes <= 0:
            raise CachePolicyError(f"cache capacity must be positive, got {self.capacity_bytes}")
        self._entries: dict[str, CacheEntry] = {}
        self._used = 0

    # -- queries ------------------------------------------------------------

    @property
    def used_bytes(self) -> int:
        return self._used

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: str) -> bool:
        return key in self._entries

    def peek(self, key: str) -> CacheEntry | None:
        """Entry for ``key`` without touching stats or recency."""
        return self._entries.get(key)

    def keys(self) -> list[str]:
        """Snapshot of the stored keys (no stats or recency effects)."""
        return list(self._entries)

    # -- operations ----------------------------------------------------------

    def lookup(self, key: str, now: float, revalidate_version: int | None = None) -> CacheEntry | None:
        """Look up ``key``; counts a hit or a miss.

        A stale entry (TTL expired) is *revalidated* when the caller
        supplies the origin's current ``revalidate_version``: if the stored
        version still matches, the entry's freshness window restarts and
        the access counts as a hit (an If-Modified-Since to the origin that
        came back 304 — the content never left the edge).  A stale entry
        whose content changed (or with no revalidation info) is dropped and
        counts as a miss.
        """
        stats = self.stats
        stats.lookups += 1
        entry = self._entries.get(key)
        if entry is None:
            stats.misses += 1
            return None
        expires_at = entry.expires_at
        if expires_at is not None and now >= expires_at:  # stale: its TTL has run out
            if revalidate_version is not None and entry.version == revalidate_version:
                entry.expires_at = now + entry.ttl if entry.ttl is not None else None
                entry.revalidated_at = now
                stats.revalidations += 1
            else:
                self._remove(key)
                stats.expirations += 1
                stats.misses += 1
                return None
        stats.hits += 1
        entry.hits += 1
        self.policy.on_hit(key, now)
        stats.bytes_served_from_cache += entry.size
        return entry

    def insert(self, key: str, size: int, now: float, ttl: float | None = None, version: int = 0) -> bool:
        """Store ``key`` after a miss; returns False when not admitted.

        Objects larger than the entire cache are never admitted; existing
        entries are refreshed in place (size updated).
        """
        if size < 0:
            raise CachePolicyError(f"entry size must be non-negative, got {size}")
        if size > self.capacity_bytes:
            self.stats.uncacheable += 1
            return False
        entries = self._entries
        if key in entries:
            self._remove(key)
        # The policy tracks exactly the stored keys, so the entry map's
        # size stands in for ``len(self.policy)``, a Python-level call.
        while self._used + size > self.capacity_bytes and entries:
            victim = self.policy.victim()
            self._used -= entries.pop(victim).size
            self.policy.on_evict(victim)
            self.stats.evictions += 1
        effective_ttl = ttl if ttl is not None else self.default_ttl
        expires_at = now + effective_ttl if effective_ttl is not None else None
        self._entries[key] = CacheEntry(
            key=key, size=size, stored_at=now, expires_at=expires_at, ttl=effective_ttl, version=version
        )
        self._used += size
        self.policy.on_insert(key, size, now)
        self.stats.insertions += 1
        return True

    def apply_pressure(self, bytes_to_free: int) -> int:
        """Evict policy victims until at least ``bytes_to_free`` are freed.

        Models cache pressure from traffic this simulation does not see —
        a commercial CDN's edge is shared with many other publishers, so
        our publishers' entries are continuously pushed out even when their
        own traffic alone would fit.  Returns the bytes actually freed.
        """
        entries, policy, stats = self._entries, self.policy, self.stats
        freed = 0
        while freed < bytes_to_free and entries:
            victim = policy.victim()
            size = entries.pop(victim).size
            self._used -= size
            policy.on_evict(victim)
            freed += size
            stats.evictions += 1
        return freed

    def invalidate(self, key: str) -> bool:
        """Explicitly remove ``key``; True when it was present."""
        if key not in self._entries:
            return False
        self._remove(key)
        return True

    def _remove(self, key: str) -> None:
        entry = self._entries.pop(key)
        self._used -= entry.size
        self.policy.on_evict(key)
