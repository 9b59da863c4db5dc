"""Incremental, mergeable columnar accumulators for streaming ingest.

The paper's substrate is ~323 TB of CDN logs — far beyond what a
concatenate-everything ingest can hold.  This module provides the
per-batch partials that let :class:`~repro.core.dataset.TraceDataset`
fold a batch stream with peak memory bounded by **O(batch + aggregates)**
instead of O(trace):

* :class:`InternTable`            — trace-wide string dictionary in
  first-row-appearance order (the invariant every index's iteration
  order rests on).
* :class:`KeyCounts`              — mergeable ``int64 key -> count``
  (optionally ``-> weight sum``) partial with periodic compaction, the
  workhorse behind every combined-key group-by.
* :class:`ObjectAccumulator`      — per-object request/byte/hit
  counters via interned-key bincount, plus (object, user) and
  (object, hour) pair counts.
* :class:`UserTimelineAccumulator`— per-batch (user, timestamp) packs,
  lexsorted into per-user sorted timelines at finalize.
* :class:`SiteExtentAccumulator`  — per-site row extents.
* :class:`HourlyAccumulator` / :class:`ResponseCodeAccumulator` — the
  Fig. 3 hourly table and the Fig. 16 response-code table, which every
  dataset carries as :class:`ScanTables`.
* :class:`StreamingAggregates`    — the bundle a dataset folds batches
  into; ``finalize_deferred`` emits the structure the dataset
  materialises :class:`~repro.core.dataset.ObjectStats` from, and
  ``finalize_timelines`` the dataset's one user index
  (:class:`UserTimelines`).

Every partial is *mergeable*: folding the same rows in any batching
(including one batch of everything) yields bit-identical aggregates,
which is the property the streaming-equivalence suite pins against the
tests' scalar reference ingest.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.trace.batch import CATEGORIES, RecordBatch, StringColumn
from repro.types import Continent, HOUR_SECONDS

#: Status codes that represent an actual content access (the per-object
#: popularity and hit-ratio analyses exclude errors and beacons).
_CONTENT_CODES = (200, 206, 304)

#: Map data-center id to a whole-hour UTC offset (continent routing).
DC_OFFSET_HOURS = {f"dc-{continent.value}": continent.utc_offset_hours for continent in Continent}

#: Hourly-table key layout: ``((site * OFFSET_SLOTS + offset + OFFSET_BIAS)
#: << HOUR_BITS) | utc_hour``.  Offsets are whole hours in [-24, 24); the
#: hour field covers ~490k years of trace.
HOURLY_OFFSET_BIAS = 32
HOURLY_OFFSET_SLOTS = 64
HOURLY_HOUR_BITS = 32

#: Response-code key layout:
#: ``(site * len(CATEGORIES) + category) * STATUS_SPAN + status``.
RESPONSE_STATUS_SPAN = 1000


def hourly_key(site, offset, utc_hour):
    """Hourly-table key of ``(site code, UTC offset hours, UTC hour)``;
    takes python ints or int64 arrays."""
    return ((site * HOURLY_OFFSET_SLOTS + offset + HOURLY_OFFSET_BIAS) << HOURLY_HOUR_BITS) | utc_hour


def response_key(site, category, status):
    """Response-code key of ``(site code, category code, status code)``;
    takes python ints or int64 arrays."""
    return (site * len(CATEGORIES) + category) * RESPONSE_STATUS_SPAN + status


def segment_bounds(sorted_keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Start/stop bounds of the equal-value runs in a sorted key array."""
    bounds = np.flatnonzero(np.diff(sorted_keys)) + 1
    starts = np.concatenate(([0], bounds))
    stops = np.concatenate((bounds, [sorted_keys.size]))
    return starts, stops


class InternTable:
    """A trace-wide string dictionary in first-row-appearance order.

    Batches arrive with their own per-batch dictionaries; :meth:`remap`
    translates a batch column's local codes into global codes, interning
    values the first time a *row* uses them.  Values present in a batch's
    dictionary but absent from its rows (possible for ``filter``/``take``
    views, which share their parent's dictionary) are never interned, so
    global code order always equals the order a sequential scan of the
    rows would first have seen each value — a record-at-a-time dict's
    insertion order.
    """

    __slots__ = ("codes", "values", "_value_bytes")

    def __init__(self) -> None:
        self.codes: dict[str, int] = {}
        self.values: list[str] = []
        self._value_bytes = 0

    def __len__(self) -> int:
        return len(self.values)

    def remap(self, column: StringColumn) -> tuple[np.ndarray, np.ndarray]:
        """Map a batch column onto the global dictionary.

        Returns ``(remap, fresh_rows)``: an array translating local codes
        to global codes, and the first row of each value interned by this
        batch — ``fresh_rows[i]`` belongs to global code ``start + i``
        where ``start`` was the table size before the call — so callers
        can capture "shell" fields from each value's first row.
        """
        codes = column.codes
        n_local = len(column.values)
        remap = np.full(n_local, -1, dtype=np.int64)
        if codes.size == 0:
            return remap, np.empty(0, dtype=np.int64)
        first = np.full(n_local, codes.size, dtype=np.int64)
        np.minimum.at(first, codes, np.arange(codes.size, dtype=np.int64))
        present = np.flatnonzero(first < codes.size)
        order = present[np.argsort(first[present], kind="stable")]
        mapping = self.codes
        local_values = column.values
        order_list = order.tolist()
        present_values = [local_values[local] for local in order_list]
        start = len(mapping)
        # setdefault evaluates len(mapping) *before* the insert, so new
        # values get consecutive codes in first-row order — bulk interning
        # without a per-value branch.
        mapped = [mapping.setdefault(value, len(mapping)) for value in present_values]
        remap[order] = mapped
        if len(mapping) == start:
            return remap, np.empty(0, dtype=np.int64)
        new_values = [value for value, code in zip(present_values, mapped) if code >= start]
        self.values.extend(new_values)
        self._value_bytes += sum(map(len, new_values))
        fresh_rows = np.array(
            [row for row, code in zip(first[order].tolist(), mapped) if code >= start],
            dtype=np.int64,
        )
        return remap, fresh_rows

    def nbytes_estimate(self) -> int:
        # Rough python-side footprint: dict slot + list slot + string.
        return self._value_bytes + 120 * len(self.values)


class KeyCounts:
    """Mergeable ``int64 key -> count`` partial with periodic compaction.

    ``add`` reduces one batch's raw keys with ``np.unique`` and parks the
    (sorted keys, counts) run; once pending runs exceed
    ``compact_threshold`` distinct keys they are merged into one sorted
    run, keeping memory near O(distinct keys).  Counts (and the optional
    int64 weight sums) are integers, so the final table is independent of
    the batching — the property the equivalence suite relies on.
    """

    __slots__ = ("_runs", "_pending", "weighted", "compact_threshold")

    def __init__(self, weighted: bool = False, compact_threshold: int = 1 << 20):
        self._runs: list[tuple[np.ndarray, ...]] = []
        self._pending = 0
        self.weighted = weighted
        self.compact_threshold = compact_threshold

    def add(self, keys: np.ndarray, weights: np.ndarray | None = None) -> None:
        if keys.size == 0:
            return
        uniq, inverse, counts = np.unique(keys, return_inverse=True, return_counts=True)
        run: tuple[np.ndarray, ...]
        if self.weighted:
            sums = np.zeros(uniq.size, dtype=np.int64)
            np.add.at(sums, inverse, np.asarray(weights, dtype=np.int64))
            run = (uniq, counts.astype(np.int64), sums)
        else:
            run = (uniq, counts.astype(np.int64))
        self._runs.append(run)
        self._pending += uniq.size
        if len(self._runs) > 1 and self._pending > self.compact_threshold:
            self._compact()

    def _compact(self) -> None:
        keys = np.concatenate([run[0] for run in self._runs])
        counts = np.concatenate([run[1] for run in self._runs])
        uniq, inverse = np.unique(keys, return_inverse=True)
        summed = np.zeros(uniq.size, dtype=np.int64)
        np.add.at(summed, inverse, counts)
        if self.weighted:
            weights = np.concatenate([run[2] for run in self._runs])
            wsums = np.zeros(uniq.size, dtype=np.int64)
            np.add.at(wsums, inverse, weights)
            self._runs = [(uniq, summed, wsums)]
        else:
            self._runs = [(uniq, summed)]
        self._pending = uniq.size

    def finalize(self) -> tuple[np.ndarray, ...]:
        """The merged table: ``(keys, counts[, weight_sums])``, keys ascending."""
        if not self._runs:
            empty = np.empty(0, dtype=np.int64)
            return (empty, empty.copy(), empty.copy()) if self.weighted else (empty, empty.copy())
        if len(self._runs) > 1:
            self._compact()
        return self._runs[0]

    def nbytes_estimate(self) -> int:
        return sum(sum(part.nbytes for part in run) for run in self._runs)


def _grow(array: np.ndarray, n: int, fill) -> np.ndarray:
    """Geometric-growth reallocation so per-batch extends amortise to O(n)."""
    if array.size >= n:
        return array
    capacity = max(n, array.size * 2, 1024)
    out = np.full(capacity, fill, dtype=array.dtype)
    out[: array.size] = array
    return out


class ObjectAccumulator:
    """Per-object aggregates folded batch-by-batch.

    Scalars (requests, bytes, hits, misses, first/last seen) live in
    grown numpy arrays indexed by global object code; the (object, user)
    and (object, hour) pair counts are :class:`KeyCounts` partials keyed
    ``(object_code << 32) | low`` — the same (object, low) ascending
    order the eager combined-key ``np.unique`` produced.
    """

    def __init__(self) -> None:
        self.table = InternTable()
        self.shell_sites: list[str] = []
        self.shell_categories: list[int] = []
        self.shell_extensions: list[str] = []
        self.shell_sizes: list[int] = []
        self._requests = np.zeros(0, dtype=np.int64)
        self._hits = np.zeros(0, dtype=np.int64)
        self._misses = np.zeros(0, dtype=np.int64)
        self._bytes = np.zeros(0, dtype=np.int64)
        self._first_seen = np.empty(0, dtype=np.float64)
        self._last_seen = np.empty(0, dtype=np.float64)
        self._pairs = KeyCounts()
        self._hours = KeyCounts()
        self._content_rows = 0
        self._shell_bytes = 0

    def update(self, batch: RecordBatch, user_rows: np.ndarray) -> None:
        remap, fresh_rows = self.table.remap(batch.object_id)
        if fresh_rows.size:
            site_values = batch.site.values
            new_sites = [site_values[code] for code in batch.site.codes[fresh_rows].tolist()]
            ext_values = batch.extension.values
            new_exts = [ext_values[code] for code in batch.extension.codes[fresh_rows].tolist()]
            self.shell_sites.extend(new_sites)
            self.shell_categories.extend(batch.category[fresh_rows].tolist())
            self.shell_extensions.extend(new_exts)
            self.shell_sizes.extend(batch.object_size[fresh_rows].tolist())
            self._shell_bytes += sum(map(len, new_sites)) + sum(map(len, new_exts))
        n = len(self.table)
        self._requests = _grow(self._requests, n, 0)
        self._hits = _grow(self._hits, n, 0)
        self._misses = _grow(self._misses, n, 0)
        self._bytes = _grow(self._bytes, n, 0)
        self._first_seen = _grow(self._first_seen, n, np.inf)
        self._last_seen = _grow(self._last_seen, n, -np.inf)

        obj_rows = remap[batch.object_id.codes]
        status = batch.status_code
        content = (status == _CONTENT_CODES[0]) | (status == _CONTENT_CODES[1]) | (status == _CONTENT_CODES[2])
        c_obj = obj_rows[content]
        if c_obj.size:
            c_ts = batch.timestamp[content]
            self._content_rows += int(c_obj.size)
            self._requests[:n] += np.bincount(c_obj, minlength=n)
            np.add.at(self._bytes, c_obj, batch.object_size[content])
            cacheable = content & (status != 304)
            hit_rows = cacheable & (batch.cache_status == 1)
            self._hits[:n] += np.bincount(obj_rows[hit_rows], minlength=n)
            self._misses[:n] += np.bincount(obj_rows[cacheable & (batch.cache_status != 1)], minlength=n)
            np.minimum.at(self._first_seen, c_obj, c_ts)
            np.maximum.at(self._last_seen, c_obj, c_ts)
            self._pairs.add((c_obj << 32) | user_rows[content])
            hour = (c_ts // HOUR_SECONDS).astype(np.int64)
            self._hours.add((c_obj << 32) | hour)

    def finalize_deferred(self) -> dict[str, object]:
        """The structure the dataset materialises its object index from."""
        n = len(self.table)
        # Global codes are assigned in first-appearance order, so the code
        # axis *is* a record-at-a-time scan's insertion order.
        deferred: dict[str, object] = {
            "obj_names": list(self.table.values),
            "shell_sites": self.shell_sites,
            "shell_categories": self.shell_categories,
            "shell_extensions": self.shell_extensions,
            "shell_sizes": self.shell_sizes,
            "requests": self._requests[:n].tolist(),
            "hits": self._hits[:n].tolist(),
            "misses": self._misses[:n].tolist(),
            "bytes_requested": self._bytes[:n].tolist(),
            "first_seen": self._first_seen[:n].tolist(),
            "last_seen": self._last_seen[:n].tolist(),
        }
        if self._content_rows:
            pair_keys, pair_counts = self._pairs.finalize()
            pair_objs = pair_keys >> 32
            seg_starts, seg_stops = segment_bounds(pair_objs)
            deferred["pair_user_codes"] = (pair_keys & 0xFFFFFFFF).tolist()
            deferred["pair_counts"] = pair_counts.tolist()
            deferred["pair_seg_codes"] = pair_objs[seg_starts].tolist()
            deferred["pair_seg_lengths"] = (seg_stops - seg_starts).tolist()
            hour_keys, hour_counts = self._hours.finalize()
            hour_objs = hour_keys >> 32
            seg_starts, seg_stops = segment_bounds(hour_objs)
            deferred["hour_bins"] = (hour_keys & 0xFFFFFFFF).tolist()
            deferred["hour_counts"] = hour_counts.tolist()
            deferred["hour_seg_codes"] = hour_objs[seg_starts].tolist()
            deferred["hour_seg_lengths"] = (seg_stops - seg_starts).tolist()
        return deferred

    def nbytes_estimate(self) -> int:
        arrays = (self._requests, self._hits, self._misses, self._bytes, self._first_seen, self._last_seen)
        shells = self._shell_bytes + 64 * len(self.shell_sites) * 4
        return (
            self.table.nbytes_estimate()
            + sum(a.nbytes for a in arrays)
            + shells
            + self._pairs.nbytes_estimate()
            + self._hours.nbytes_estimate()
        )


#: Rows per block inside a spilled timeline run (int64 user + float64 ts
#: per row, so ~1 MB of payload per block at the default).
_RUN_BLOCK_ROWS = 65_536


class _RunState:
    """One run's cursor inside :func:`_merge_sorted_runs`.

    A run is an iterator of ``(users, ts)`` chunk pairs, globally sorted
    by (user, ts) across the whole run.  The state keeps the loaded
    not-yet-emitted chunks and knows how to slice off the prefix at or
    below a merge bound.
    """

    __slots__ = ("_source", "_loaded", "_exhausted")

    def __init__(self, source):
        self._source = iter(source)
        self._loaded: list[tuple[np.ndarray, np.ndarray]] = []
        self._exhausted = False

    def _load_next(self) -> bool:
        if self._exhausted:
            return False
        for users, ts in self._source:
            if users.size:
                self._loaded.append((users, ts))
                return True
        self._exhausted = True
        return False

    def ensure_loaded(self) -> bool:
        return bool(self._loaded) or self._load_next()

    def first_chunk_last_key(self) -> tuple[int, float]:
        users, ts = self._loaded[0]
        return int(users[-1]), float(ts[-1])

    def load_past(self, bound: tuple[int, float]) -> None:
        # Load until the tail key exceeds the bound: everything <= bound
        # must be resident before take_through slices it off.
        while not self._exhausted:
            users, ts = self._loaded[-1]
            if (int(users[-1]), float(ts[-1])) > bound:
                return
            self._load_next()

    def take_through(self, bound: tuple[int, float]) -> tuple[np.ndarray, np.ndarray]:
        users = np.concatenate([chunk[0] for chunk in self._loaded])
        ts = np.concatenate([chunk[1] for chunk in self._loaded])
        bound_user, bound_ts = bound
        right = int(np.searchsorted(users, bound_user, side="right"))
        left = int(np.searchsorted(users, bound_user, side="left"))
        cutoff = left + int(np.searchsorted(ts[left:right], bound_ts, side="right"))
        if cutoff < users.size:
            self._loaded = [(users[cutoff:], ts[cutoff:])]
        else:
            self._loaded = []
        return users[:cutoff], ts[:cutoff]


def _merge_sorted_runs(runs) -> "Iterator[tuple[np.ndarray, np.ndarray]]":
    """Chunked k-way merge of (user, ts)-sorted runs.

    Yields ``(users, ts)`` chunks of the merged order without holding
    more than O(runs × block) rows resident beyond what one merge round
    emits.  Each round's bound is the smallest first-loaded-chunk tail
    key across runs, so at least one whole chunk is consumed per round
    (progress), and every element ≤ the bound is loaded before slicing
    (correctness).  Equal (user, ts) keys carry identical values, so any
    stable tie order is value-identical to the one-shot global lexsort.
    """
    states = [state for state in map(_RunState, runs) if state.ensure_loaded()]
    while states:
        bound = min(state.first_chunk_last_key() for state in states)
        for state in states:
            state.load_past(bound)
        users_parts: list[np.ndarray] = []
        ts_parts: list[np.ndarray] = []
        survivors: list[_RunState] = []
        for state in states:
            users, ts = state.take_through(bound)
            if users.size:
                users_parts.append(users)
                ts_parts.append(ts)
            if state.ensure_loaded():
                survivors.append(state)
        users_cat = np.concatenate(users_parts)
        ts_cat = np.concatenate(ts_parts)
        order = np.lexsort((ts_cat, users_cat))
        yield users_cat[order], ts_cat[order]
        states = survivors


class UserTimelineAccumulator:
    """Per-user timestamp packs, merged into timelines at finalize.

    Each batch contributes one *pack* of (global user code, timestamp)
    pairs; finalize groups and sorts them in a single vectorised
    ``np.lexsort`` by (user, timestamp).  Equal timestamps are
    indistinguishable, so the result is value-identical to a per-user
    stable sort of the append-order sequence.

    With a spill handle attached (:meth:`attach_spill`), the pool may
    evict the resident packs at any point: :meth:`spill_packs` lexsorts
    them into one on-disk run, and finalize becomes an external k-way
    merge over the spilled runs plus whatever packs are still resident —
    value-identical to the in-memory path because every run is sorted by
    the same (user, ts) key and equal keys are indistinguishable.
    """

    def __init__(self) -> None:
        self.shell_sites: list[str] = []
        self.shell_agents: list[str] = []
        self._shell_bytes = 0
        # (user_codes, timestamps) per batch.
        self._packs: list[tuple[np.ndarray, np.ndarray]] = []
        self._pack_bytes = 0
        self._spill_handle = None
        self._runs: list = []  # SpillSegment per spilled sorted run

    def attach_spill(self, pool) -> None:
        """Register with a spill pool as an evictable participant.

        The handle is eviction-only: pack bytes are charged under the
        dataset builder's resident estimate (which already includes
        ``nbytes_estimate``), so charging a level here would double-count
        them.
        """
        self._spill_handle = pool.register(
            "user-timelines",
            evictable_bytes=lambda: self._pack_bytes,
            spill=self.spill_packs,
        )

    def update(self, batch: RecordBatch, user_rows: np.ndarray, fresh_rows: np.ndarray) -> None:
        if fresh_rows.size:
            site_values = batch.site.values
            new_sites = [site_values[code] for code in batch.site.codes[fresh_rows].tolist()]
            agent_values = batch.user_agent.values
            new_agents = [agent_values[code] for code in batch.user_agent.codes[fresh_rows].tolist()]
            self.shell_sites.extend(new_sites)
            self.shell_agents.extend(new_agents)
            self._shell_bytes += sum(map(len, new_sites)) + sum(map(len, new_agents))
        if not len(batch):
            return
        # Copy the timestamps so the batch's columns can be freed.
        pack = (user_rows, np.array(batch.timestamp))
        self._packs.append(pack)
        self._pack_bytes += pack[0].nbytes + pack[1].nbytes

    def spill_packs(self) -> int:
        """Evict the resident packs to one (user, ts)-sorted disk run."""
        if not self._packs or self._spill_handle is None:
            return 0
        users = np.concatenate([pack[0] for pack in self._packs])
        ts = np.concatenate([pack[1] for pack in self._packs])
        order = np.lexsort((ts, users))
        users = users[order]
        ts = ts[order]
        segment = self._spill_handle.write_run(
            {"user": users[start : start + _RUN_BLOCK_ROWS], "ts": ts[start : start + _RUN_BLOCK_ROWS]}
            for start in range(0, int(users.size), _RUN_BLOCK_ROWS)
        )
        self._runs.append(segment)
        freed = self._pack_bytes
        self._packs = []
        self._pack_bytes = 0
        return freed

    def _iter_run(self, segment) -> "Iterator[tuple[np.ndarray, np.ndarray]]":
        for block in self._spill_handle.iter_run(segment):
            yield block["user"], block["ts"]

    def finalize(self, n_users: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(sorted_ts, starts, stops)`` in global-user-code order."""
        counts = np.zeros(n_users, dtype=np.int64)
        if self._runs:
            runs = [self._iter_run(segment) for segment in self._runs]
            if self._packs:
                users = np.concatenate([pack[0] for pack in self._packs])
                ts = np.concatenate([pack[1] for pack in self._packs])
                order = np.lexsort((ts, users))
                runs.append(iter([(users[order], ts[order])]))
            ts_chunks: list[np.ndarray] = []
            for users_chunk, ts_chunk in _merge_sorted_runs(runs):
                counts[:n_users] += np.bincount(users_chunk, minlength=n_users)[:n_users]
                ts_chunks.append(ts_chunk)
            sorted_ts = np.concatenate(ts_chunks) if ts_chunks else np.empty(0, dtype=np.float64)
        elif self._packs:
            users = np.concatenate([pack[0] for pack in self._packs])
            ts = np.concatenate([pack[1] for pack in self._packs])
            sorted_ts = ts[np.lexsort((ts, users))]
            counts[: n_users] += np.bincount(users, minlength=n_users)[:n_users]
        else:
            sorted_ts = np.empty(0, dtype=np.float64)
        stops = np.cumsum(counts)
        starts = stops - counts
        self._packs = []
        self._pack_bytes = 0
        self._runs = []
        return sorted_ts, starts, stops

    def nbytes_estimate(self) -> int:
        return self._pack_bytes + self._shell_bytes + 120 * len(self.shell_sites)


@dataclass
class SiteExtent:
    """Row extent of one site within the trace."""

    first_row: int
    last_row: int
    rows: int


class SiteExtentAccumulator:
    """Per-site first/last row and row count, folded batch-by-batch."""

    def __init__(self) -> None:
        self._first = np.empty(0, dtype=np.int64)
        self._last = np.empty(0, dtype=np.int64)
        self._rows = np.zeros(0, dtype=np.int64)

    def update(self, site_rows: np.ndarray, row_offset: int, n_sites: int) -> None:
        self._first = _grow(self._first, n_sites, np.iinfo(np.int64).max)
        self._last = _grow(self._last, n_sites, -1)
        self._rows = _grow(self._rows, n_sites, 0)
        if not site_rows.size:
            return
        rows = np.arange(site_rows.size, dtype=np.int64) + row_offset
        np.minimum.at(self._first, site_rows, rows)
        np.maximum.at(self._last, site_rows, rows)
        self._rows[:n_sites] += np.bincount(site_rows, minlength=n_sites)

    def finalize(self, site_values: list[str]) -> dict[str, SiteExtent]:
        return {
            site: SiteExtent(first_row=int(self._first[code]), last_row=int(self._last[code]), rows=int(self._rows[code]))
            for code, site in enumerate(site_values)
            if self._rows[code]
        }

    def nbytes_estimate(self) -> int:
        return self._first.nbytes + self._last.nbytes + self._rows.nbytes


class HourlyAccumulator:
    """(site, UTC offset, UTC hour) request counts and byte sums.

    Timestamps are binned to *UTC* hours at fold time (the trace duration
    — hence the local-time wheel size — is only known once the stream
    ends); :func:`~repro.core.aggregate.hourly_volume` applies the
    whole-hour offset and the modulo.  Counts and byte sums are integers,
    so the table is independent of the batching.
    """

    def __init__(self) -> None:
        self._counts = KeyCounts(weighted=True)

    def update(self, batch: RecordBatch, site_rows: np.ndarray) -> None:
        if not len(batch):
            return
        offsets = np.array(
            [DC_OFFSET_HOURS.get(value, 0) for value in batch.datacenter.values], dtype=np.int64
        )[batch.datacenter.codes]
        utc_hour = (batch.timestamp // HOUR_SECONDS).astype(np.int64)
        self._counts.add(hourly_key(site_rows, offsets, utc_hour), weights=batch.bytes_served)

    def finalize(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(keys, counts, byte_sums)`` with keys ascending."""
        return self._counts.finalize()

    def nbytes_estimate(self) -> int:
        return self._counts.nbytes_estimate()


def decode_hourly_keys(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Split hourly-table keys into ``(site, offset_hours, utc_hour)``."""
    utc_hour = keys & ((1 << HOURLY_HOUR_BITS) - 1)
    packed = keys >> HOURLY_HOUR_BITS
    site, biased = np.divmod(packed, HOURLY_OFFSET_SLOTS)
    return site, biased - HOURLY_OFFSET_BIAS, utc_hour


class ResponseCodeAccumulator:
    """(site, category, status) request counts — the fig. 16 table."""

    def __init__(self) -> None:
        self._counts = KeyCounts()

    def update(self, batch: RecordBatch, site_rows: np.ndarray) -> None:
        if not len(batch):
            return
        self._counts.add(response_key(site_rows, batch.category, batch.status_code))

    def finalize(self) -> tuple[np.ndarray, np.ndarray]:
        return self._counts.finalize()

    def nbytes_estimate(self) -> int:
        return self._counts.nbytes_estimate()


def decode_response_keys(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Split response-code keys into ``(site, category, status)``."""
    site_and_category, status = np.divmod(keys, RESPONSE_STATUS_SPAN)
    site, category = np.divmod(site_and_category, len(CATEGORIES))
    return site, category, status


def _no_keys() -> np.ndarray:
    return np.empty(0, dtype=np.int64)


@dataclass
class ScanTables:
    """The Fig. 3 hourly table and the Fig. 16 response-code table.

    Built at ingest for every dataset, whether or not it keeps its rows;
    the defaults are the tables of an empty trace.
    ``site_values`` lists the sites in first-appearance order, which is
    the site-code axis of both key layouts.
    """

    site_values: list[str] = field(default_factory=list)
    hourly_keys: np.ndarray = field(default_factory=_no_keys)
    hourly_counts: np.ndarray = field(default_factory=_no_keys)
    hourly_bytes: np.ndarray = field(default_factory=_no_keys)
    response_keys: np.ndarray = field(default_factory=_no_keys)
    response_counts: np.ndarray = field(default_factory=_no_keys)


def _no_times() -> np.ndarray:
    return np.empty(0, dtype=np.float64)


@dataclass
class UserTimelines:
    """Columnar per-user timelines: every user's sorted timestamps as one
    contiguous array plus segment bounds, in first-appearance order.  The
    defaults are the timelines of an empty trace."""

    names: list[str] = field(default_factory=list)
    sites: list[str] = field(default_factory=list)
    agents: list[str] = field(default_factory=list)
    sorted_ts: np.ndarray = field(default_factory=_no_times)
    starts: np.ndarray = field(default_factory=_no_keys)
    stops: np.ndarray = field(default_factory=_no_keys)
    _positions: dict[str, int] | None = field(default=None, init=False, repr=False, compare=False)

    def __len__(self) -> int:
        return len(self.names)

    def timeline(self, index: int) -> np.ndarray:
        return self.sorted_ts[self.starts[index] : self.stops[index]]

    def index_of(self, name: str) -> int | None:
        """The position of user ``name`` (``None`` for an unknown user)."""
        if self._positions is None:
            self._positions = {user: index for index, user in enumerate(self.names)}
        return self._positions.get(name)


@dataclass
class IngestStats:
    """What one streaming ingest cost.

    ``peak_resident_bytes`` is an *estimate*: per-batch column footprint
    plus the accumulator partials (and the retained store, when kept),
    sampled after every folded batch into ``resident_series``.
    """

    batches: int = 0
    rows: int = 0
    peak_resident_bytes: int = 0
    #: High-water mark of *rows* held resident during the fold: the total
    #: retained store when ``keep_store``, otherwise just the largest
    #: single batch — the number the streaming plan's boundedness tests
    #: assert on (bytes estimates drift with dictionary width; row counts
    #: don't).
    peak_resident_rows: int = 0
    store_bytes: int = 0
    aggregate_bytes: int = 0
    keep_store: bool = True
    resident_series: list[int] = field(default_factory=list)
    #: Spill activity under a memory budget (all zero when nothing spilt):
    #: segments written, payload bytes out/in, and time spent on spill I/O.
    spill_files: int = 0
    bytes_spilled: int = 0
    bytes_restored: int = 0
    spill_seconds: float = 0.0


class StreamingAggregates:
    """Everything :meth:`TraceDataset.from_batches` folds batches into:
    the object, user, site-extent and timeline partials, and the Fig. 3 /
    Fig. 16 tables (:meth:`finalize_scan_tables`)."""

    def __init__(self, spill_pool=None):
        self.sites = InternTable()
        self.objects = ObjectAccumulator()
        self.users = InternTable()
        self.timelines = UserTimelineAccumulator()
        if spill_pool is not None:
            self.timelines.attach_spill(spill_pool)
        self.extents = SiteExtentAccumulator()
        self.hourly = HourlyAccumulator()
        self.response = ResponseCodeAccumulator()
        self.rows = 0
        self.batches = 0
        self.max_timestamp = float("-inf")

    def update(self, batch: RecordBatch) -> None:
        if not len(batch):
            return
        site_remap, _ = self.sites.remap(batch.site)
        user_remap, user_fresh = self.users.remap(batch.user_id)
        site_rows = site_remap[batch.site.codes]
        user_rows = user_remap[batch.user_id.codes]
        self.max_timestamp = max(self.max_timestamp, float(batch.timestamp.max()))
        self.objects.update(batch, user_rows)
        self.timelines.update(batch, user_rows, user_fresh)
        self.extents.update(site_rows, row_offset=self.rows, n_sites=len(self.sites))
        self.hourly.update(batch, site_rows)
        self.response.update(batch, site_rows)
        self.rows += len(batch)
        self.batches += 1

    def finalize_deferred(self) -> dict[str, object]:
        """The structure the dataset materialises its
        :class:`~repro.core.dataset.ObjectStats` from."""
        deferred = self.objects.finalize_deferred()
        if "pair_user_codes" in deferred:
            user_values = self.users.values
            deferred["pair_names"] = [user_values[code] for code in deferred.pop("pair_user_codes")]
        return deferred

    def finalize_timelines(self) -> UserTimelines:
        sorted_ts, starts, stops = self.timelines.finalize(len(self.users))
        return UserTimelines(
            names=self.users.values,
            sites=self.timelines.shell_sites,
            agents=self.timelines.shell_agents,
            sorted_ts=sorted_ts,
            starts=starts,
            stops=stops,
        )

    def finalize_scan_tables(self) -> ScanTables:
        hourly_keys, hourly_counts, hourly_bytes = self.hourly.finalize()
        response_keys, response_counts = self.response.finalize()
        return ScanTables(
            site_values=list(self.sites.values),
            hourly_keys=hourly_keys,
            hourly_counts=hourly_counts,
            hourly_bytes=hourly_bytes,
            response_keys=response_keys,
            response_counts=response_counts,
        )

    def nbytes_estimate(self) -> int:
        return (
            self.sites.nbytes_estimate()
            + self.users.nbytes_estimate()
            + self.objects.nbytes_estimate()
            + self.timelines.nbytes_estimate()
            + self.extents.nbytes_estimate()
            + self.hourly.nbytes_estimate()
            + self.response.nbytes_estimate()
        )
