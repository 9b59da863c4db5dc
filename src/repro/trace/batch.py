"""Columnar record batches: the one row representation of trace flow.

A :class:`RecordBatch` holds a fixed number of log records as column
arrays — float64 timestamps, int64 sizes/status codes, uint8 category and
cache-status codes — with the string-valued fields (site, object id,
extension, user id, user agent, datacenter) dictionary-interned as int32
codes over a per-batch value list.  Batches are what flows between the
pipeline stages (generator → simulator → writer/reader → dataset →
analysis passes): the text readers append each row's field tuple
straight into a :class:`BatchBuilder`; the simulator keeps its rows as
columns, with each string field coded over per-table value lists, and
seals them with :func:`seal_columns`; the binary reader decodes rows
straight into columns (:class:`~repro.trace.schema.BinaryDecoder`).  All
of them seal their batches with :func:`seal_batch`.  A :class:`~repro.trace.record.LogRecord`
is only a view built on demand (:func:`record_from_row`,
:meth:`RecordBatch.iter_records`) for tests and record-level consumers.

Interning codes are assigned in first-appearance order, and
:meth:`RecordBatch.concat` preserves that order across batches.  Iterating
a string column's codes in ascending numeric order therefore reproduces
the order a sequential record-at-a-time scan would have first seen each
value — the invariant the columnar :class:`~repro.core.dataset.TraceDataset`
ingest relies on to match the tests' scalar reference ingest exactly.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping
from dataclasses import dataclass

import numpy as np

from repro.errors import TraceError
from repro.trace.record import LogRecord, check_fields
from repro.types import CacheStatus, ContentCategory, category_for_extension

#: Fixed category code order; ``CATEGORIES[code]`` decodes a category column.
CATEGORIES: tuple[ContentCategory, ...] = tuple(ContentCategory)
_CATEGORY_CODE = {category: code for code, category in enumerate(CATEGORIES)}

#: Default number of rows per batch: big enough to amortise numpy call
#: overhead, small enough to stay cache- and memory-friendly.
DEFAULT_BATCH_SIZE = 65_536

#: String-valued fields, in schema order.
STRING_FIELDS = ("site", "object_id", "extension", "user_id", "user_agent", "datacenter")

#: Numeric (numpy-array) fields, in schema order.
NUMERIC_FIELDS = (
    "timestamp",
    "object_size",
    "bytes_served",
    "status_code",
    "chunk_index",
    "cache_status",
    "category",
)

#: Every batch column, numeric then string: the full trace schema.
ALL_COLUMNS = NUMERIC_FIELDS + STRING_FIELDS


@dataclass
class StringColumn:
    """A dictionary-encoded string column: int32 codes over a value list."""

    codes: np.ndarray
    values: list[str]

    def __len__(self) -> int:
        return int(self.codes.size)

    def __getitem__(self, index: int) -> str:
        return self.values[int(self.codes[index])]

    def take(self, indexer) -> "StringColumn":
        """Column restricted to ``indexer`` (slice/mask/index array); the
        value list is shared, codes keep their meaning."""
        return StringColumn(self.codes[indexer], self.values)

    def tolist(self) -> list[str]:
        values = self.values
        return [values[code] for code in self.codes.tolist()]

    def compact(self) -> "StringColumn":
        """The column re-coded over only the values it uses, numbered in
        first-appearance order — what a builder scanning its rows assigns."""
        used, first, inverse = np.unique(self.codes, return_index=True, return_inverse=True)
        order = np.argsort(first)
        rank = np.empty(used.size, dtype=np.int32)
        rank[order] = np.arange(used.size, dtype=np.int32)
        values = self.values
        return StringColumn(rank[inverse], [values[code] for code in used[order].tolist()])


def record_from_row(row: tuple) -> LogRecord:
    """The :class:`LogRecord` view of one :meth:`RecordBatch.iter_rows` tuple."""
    (timestamp, site, object_id, extension, object_size, user_id,
     user_agent, hit, status_code, bytes_served, datacenter, chunk_index) = row
    return LogRecord(
        timestamp=timestamp,
        site=site,
        object_id=object_id,
        extension=extension,
        object_size=object_size,
        user_id=user_id,
        user_agent=user_agent,
        cache_status=CacheStatus.HIT if hit else CacheStatus.MISS,
        status_code=status_code,
        bytes_served=bytes_served,
        datacenter=datacenter,
        chunk_index=chunk_index,
    )


def _row_of(record: LogRecord) -> tuple:
    """A record's fields as a :meth:`RecordBatch.iter_rows` tuple."""
    return (
        record.timestamp,
        record.site,
        record.object_id,
        record.extension,
        record.object_size,
        record.user_id,
        record.user_agent,
        record.cache_status is CacheStatus.HIT,
        record.status_code,
        record.bytes_served,
        record.datacenter,
        record.chunk_index,
    )


class BatchBuilder:
    """Accumulates rows into column buffers; :meth:`finish` seals a batch.

    Rows arrive as field values in :meth:`RecordBatch.iter_rows` order
    (:meth:`append`) or as :class:`LogRecord` objects
    (:meth:`append_record`); :meth:`finish` checks them against the
    schema ``LogRecord`` enforces per record
    (:func:`~repro.trace.record.check_fields`).
    """

    def __init__(self) -> None:
        self._timestamp: list[float] = []
        self._object_size: list[int] = []
        self._bytes_served: list[int] = []
        self._status_code: list[int] = []
        self._chunk_index: list[int] = []
        self._hit: list[bool] = []
        self._codes: dict[str, list[int]] = {name: [] for name in STRING_FIELDS}
        self._dicts: dict[str, dict[str, int]] = {name: {} for name in STRING_FIELDS}
        self._values: dict[str, list[str]] = {name: [] for name in STRING_FIELDS}

    def __len__(self) -> int:
        return len(self._timestamp)

    def _intern(self, field: str, value: str) -> int:
        mapping = self._dicts[field]
        code = mapping.get(value)
        if code is None:
            code = len(mapping)
            mapping[value] = code
            self._values[field].append(value)
        return code

    def append(
        self,
        timestamp: float,
        site: str,
        object_id: str,
        extension: str,
        object_size: int,
        user_id: str,
        user_agent: str,
        hit: bool,
        status_code: int,
        bytes_served: int,
        datacenter: str,
        chunk_index: int,
    ) -> None:
        """Store one row, fields in :meth:`RecordBatch.iter_rows` order."""
        self._timestamp.append(timestamp)
        self._object_size.append(object_size)
        self._bytes_served.append(bytes_served)
        self._status_code.append(status_code)
        self._chunk_index.append(chunk_index)
        self._hit.append(hit)
        codes = self._codes
        codes["site"].append(self._intern("site", site))
        codes["object_id"].append(self._intern("object_id", object_id))
        codes["extension"].append(self._intern("extension", extension))
        codes["user_id"].append(self._intern("user_id", user_id))
        codes["user_agent"].append(self._intern("user_agent", user_agent))
        codes["datacenter"].append(self._intern("datacenter", datacenter))

    def append_record(self, record: LogRecord) -> None:
        """Store one :class:`LogRecord`'s fields as a row."""
        self.append(*_row_of(record))

    def finish(self) -> "RecordBatch":
        """Seal the rows into a batch, rejecting any value outside the schema.

        Raises :class:`~repro.errors.TraceSchemaError` with the message
        ``LogRecord`` gives the first offending row.
        """
        try:
            timestamp = np.asarray(self._timestamp, dtype=np.float64)
            object_size = np.asarray(self._object_size, dtype=np.int64)
            bytes_served = np.asarray(self._bytes_served, dtype=np.int64)
            status_code = np.asarray(self._status_code, dtype=np.int64)
            chunk_index = np.asarray(self._chunk_index, dtype=np.int64)
        except OverflowError:
            sites, object_ids = (
                [self._values[name][code] for code in self._codes[name]] for name in ("site", "object_id")
            )
            _check_rows(
                self._timestamp, sites, object_ids, self._object_size,
                self._bytes_served, self._status_code, self._chunk_index,
            )
            raise
        strings = {
            name: StringColumn(np.asarray(self._codes[name], dtype=np.int32), self._values[name])
            for name in STRING_FIELDS
        }
        return _checked_batch(
            timestamp, object_size, bytes_served, status_code, chunk_index,
            np.asarray(self._hit, dtype=np.bool_), strings,
        )


def seal_columns(
    timestamp: np.ndarray,
    object_size: np.ndarray,
    bytes_served: np.ndarray,
    status_code: np.ndarray,
    chunk_index: np.ndarray,
    hit: np.ndarray,
    strings: Mapping[str, StringColumn],
) -> "RecordBatch":
    """Seal per-row columns into a batch, checked against the schema.

    ``strings[name]`` codes each row's string over a value list that may
    hold values no row uses (say, one per table entry, each distinct).
    Each column is compacted to the values its rows use, numbered in first
    appearance — the dictionary a :class:`BatchBuilder` appending these
    rows assigns — and the batch passes the check
    :meth:`BatchBuilder.finish` runs.
    """
    return _checked_batch(
        timestamp, object_size, bytes_served, status_code, chunk_index, hit,
        {name: strings[name].compact() for name in STRING_FIELDS},
    )


def _checked_batch(
    timestamp: np.ndarray,
    object_size: np.ndarray,
    bytes_served: np.ndarray,
    status_code: np.ndarray,
    chunk_index: np.ndarray,
    hit: np.ndarray,
    strings: dict[str, StringColumn],
) -> "RecordBatch":
    """The schema check, then :func:`seal_batch`.

    A vectorised test first; when it finds a bad value (or an empty site
    or object id among the used values ``strings`` holds), the rows are
    checked one by one, which raises the first bad row's
    :class:`~repro.errors.TraceSchemaError`.
    """
    bad = (
        ~np.isfinite(timestamp)
        | (timestamp < 0)
        | (object_size < 0)
        | (bytes_served < 0)
        | (status_code < 100)
        | (status_code > 599)
    )
    site, object_id = strings["site"], strings["object_id"]
    if bad.any() or "" in site.values or "" in object_id.values:
        _check_rows(
            timestamp.tolist(), site.tolist(), object_id.tolist(), object_size.tolist(),
            bytes_served.tolist(), status_code.tolist(), chunk_index.tolist(),
        )
    return seal_batch(
        timestamp,
        object_size,
        bytes_served,
        status_code,
        chunk_index,
        hit.astype(np.uint8),
        {name: column.codes for name, column in strings.items()},
        {name: column.values for name, column in strings.items()},
    )


def _check_rows(timestamp, site, object_id, object_size, bytes_served, status_code, chunk_index) -> None:
    """Run the schema check row by row over per-field sequences; raises at
    the first bad row."""
    for row in zip(timestamp, site, object_id, object_size, bytes_served, status_code, chunk_index):
        check_fields(*row)


def seal_batch(
    timestamp: np.ndarray,
    object_size: np.ndarray,
    bytes_served: np.ndarray,
    status_code: np.ndarray,
    chunk_index: np.ndarray,
    cache_status: np.ndarray,
    codes: dict[str, list[int] | np.ndarray],
    values: dict[str, list[str]],
) -> "RecordBatch":
    """Assemble checked columns into a batch.

    ``codes[name]`` and ``values[name]`` are a string field's
    first-appearance codes and interned values; the category column is
    derived from the extensions.  :class:`BatchBuilder`,
    :func:`seal_columns` and the binary decoder all seal their batches
    here.
    """
    columns = {
        name: StringColumn(np.asarray(codes[name], dtype=np.int32), values[name])
        for name in STRING_FIELDS
    }
    # Category is a function of the extension: derive one code per
    # interned extension value, then broadcast through the codes.
    ext_categories = np.asarray(
        [_CATEGORY_CODE[category_for_extension(value)] for value in values["extension"]],
        dtype=np.uint8,
    )
    return RecordBatch(
        timestamp=timestamp,
        object_size=object_size,
        bytes_served=bytes_served,
        status_code=status_code,
        chunk_index=chunk_index,
        cache_status=cache_status,
        category=ext_categories[columns["extension"].codes],
        **columns,
    )


class RecordBatch:
    """A fixed-size block of log records stored column-wise."""

    __slots__ = (
        "timestamp",
        "object_size",
        "bytes_served",
        "status_code",
        "chunk_index",
        "cache_status",
        "category",
        "site",
        "object_id",
        "extension",
        "user_id",
        "user_agent",
        "datacenter",
    )

    def __init__(
        self,
        timestamp: np.ndarray,
        object_size: np.ndarray,
        bytes_served: np.ndarray,
        status_code: np.ndarray,
        chunk_index: np.ndarray,
        cache_status: np.ndarray,
        category: np.ndarray,
        site: StringColumn,
        object_id: StringColumn,
        extension: StringColumn,
        user_id: StringColumn,
        user_agent: StringColumn,
        datacenter: StringColumn,
    ):
        self.timestamp = timestamp
        self.object_size = object_size
        self.bytes_served = bytes_served
        self.status_code = status_code
        self.chunk_index = chunk_index
        self.cache_status = cache_status
        self.category = category
        self.site = site
        self.object_id = object_id
        self.extension = extension
        self.user_id = user_id
        self.user_agent = user_agent
        self.datacenter = datacenter

    # -- construction ---------------------------------------------------------

    @classmethod
    def empty(cls) -> "RecordBatch":
        builder = BatchBuilder()
        return builder.finish()

    @classmethod
    def from_records(cls, records: Iterable[LogRecord]) -> "RecordBatch":
        builder = BatchBuilder()
        for record in records:
            builder.append_record(record)
        return builder.finish()

    @staticmethod
    def concat(batches: list["RecordBatch"]) -> "RecordBatch":
        """Concatenate batches, merging the string dictionaries.

        New dictionary values are appended in batch order, so the merged
        code order equals the first-appearance order of a sequential scan
        over all rows.
        """
        batches = [batch for batch in batches if len(batch)]
        if not batches:
            return RecordBatch.empty()
        if len(batches) == 1:
            return batches[0]
        string_columns: dict[str, StringColumn] = {}
        for name in STRING_FIELDS:
            first: StringColumn = getattr(batches[0], name)
            # The first batch's dictionary is adopted verbatim; later
            # batches remap their codes onto it, appending new values.
            values = list(first.values)
            merged = {value: code for code, value in enumerate(values)}
            code_parts: list[np.ndarray] = [first.codes]
            for batch in batches[1:]:
                column: StringColumn = getattr(batch, name)
                remap = np.empty(len(column.values), dtype=np.int32)
                lookup = merged.get
                for local_code, value in enumerate(column.values):
                    global_code = lookup(value)
                    if global_code is None:
                        global_code = len(values)
                        merged[value] = global_code
                        values.append(value)
                    remap[local_code] = global_code
                code_parts.append(remap[column.codes])
            string_columns[name] = StringColumn(np.concatenate(code_parts), values)
        return RecordBatch(
            timestamp=np.concatenate([b.timestamp for b in batches]),
            object_size=np.concatenate([b.object_size for b in batches]),
            bytes_served=np.concatenate([b.bytes_served for b in batches]),
            status_code=np.concatenate([b.status_code for b in batches]),
            chunk_index=np.concatenate([b.chunk_index for b in batches]),
            cache_status=np.concatenate([b.cache_status for b in batches]),
            category=np.concatenate([b.category for b in batches]),
            **string_columns,
        )

    # -- row access -----------------------------------------------------------

    def __len__(self) -> int:
        return int(self.timestamp.size)

    def rows(self, start: int, stop: int) -> "RecordBatch":
        """A zero-copy view of rows ``[start, stop)`` (dictionaries shared)."""
        return self._indexed(slice(start, stop))

    def take(self, indexer) -> "RecordBatch":
        """Rows selected by an index array (dictionaries shared)."""
        return self._indexed(indexer)

    def filter(self, mask: np.ndarray) -> "RecordBatch":
        """Rows where ``mask`` is true (dictionaries shared)."""
        return self._indexed(mask)

    def compact(self) -> "RecordBatch":
        """A standalone copy whose dictionaries hold only this batch's own
        values, in first-appearance order: the batch a builder appending
        these rows would have sealed."""
        return RecordBatch(
            **{name: getattr(self, name).copy() for name in NUMERIC_FIELDS},
            **{name: getattr(self, name).compact() for name in STRING_FIELDS},
        )

    def _indexed(self, indexer) -> "RecordBatch":
        return RecordBatch(
            timestamp=self.timestamp[indexer],
            object_size=self.object_size[indexer],
            bytes_served=self.bytes_served[indexer],
            status_code=self.status_code[indexer],
            chunk_index=self.chunk_index[indexer],
            cache_status=self.cache_status[indexer],
            category=self.category[indexer],
            site=self.site.take(indexer),
            object_id=self.object_id.take(indexer),
            extension=self.extension.take(indexer),
            user_id=self.user_id.take(indexer),
            user_agent=self.user_agent.take(indexer),
            datacenter=self.datacenter.take(indexer),
        )

    # -- record views ---------------------------------------------------------

    def record_at(self, index: int) -> LogRecord:
        return record_from_row(next(self.take([index]).iter_rows()))

    def iter_records(self) -> Iterator[LogRecord]:
        """Yield a :class:`LogRecord` view of every row, built on demand."""
        return map(record_from_row, self.iter_rows())

    def to_records(self) -> list[LogRecord]:
        return list(self.iter_records())

    def iter_rows(self) -> Iterator[tuple]:
        """Yield plain-python field tuples in schema order.

        Tuple layout: ``(timestamp, site, object_id, extension, object_size,
        user_id, user_agent, hit, status_code, bytes_served, datacenter,
        chunk_index)`` with ``hit`` a bool.  Columns are bulk-converted to
        python scalars up front, so writers serialising a batch never touch
        numpy scalar objects.
        """
        yield from zip(
            self.timestamp.tolist(),
            self.site.tolist(),
            self.object_id.tolist(),
            self.extension.tolist(),
            self.object_size.tolist(),
            self.user_id.tolist(),
            self.user_agent.tolist(),
            (self.cache_status != 0).tolist(),
            self.status_code.tolist(),
            self.bytes_served.tolist(),
            self.datacenter.tolist(),
            self.chunk_index.tolist(),
        )

    @property
    def nbytes(self) -> int:
        """Approximate memory footprint of the column arrays."""
        total = 0
        for name in NUMERIC_FIELDS:
            total += getattr(self, name).nbytes
        for name in STRING_FIELDS:
            total += getattr(self, name).codes.nbytes
        return total

    @property
    def intern_nbytes(self) -> int:
        """Approximate footprint of the string intern tables (value lists).

        ``nbytes`` deliberately counts only the column arrays (numeric
        data + string codes), because row slices share their value lists
        and would otherwise double-count them.  Resident-memory
        accounting over *whole* batches needs the value lists too — each
        interned string's UTF-8 payload is genuinely held in memory once
        per batch — so budget decisions and peak-resident telemetry add
        this on top of ``nbytes``.
        """
        total = 0
        for name in STRING_FIELDS:
            total += sum(len(value) for value in getattr(self, name).values)
        return total

    @property
    def resident_nbytes(self) -> int:
        """Full resident footprint: column arrays plus intern tables."""
        return self.nbytes + self.intern_nbytes

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RecordBatch(rows={len(self)}, sites={len(self.site.values)}, objects={len(self.object_id.values)})"


def iter_record_batches(
    records: Iterable[LogRecord], batch_size: int = DEFAULT_BATCH_SIZE
) -> Iterator[RecordBatch]:
    """Chunk a record stream into :class:`RecordBatch` blocks."""
    return iter_row_batches(map(_row_of, records), batch_size)


def iter_row_batches(rows: Iterable[tuple], batch_size: int = DEFAULT_BATCH_SIZE) -> Iterator[RecordBatch]:
    """Chunk a stream of :meth:`RecordBatch.iter_rows` tuples into batches.

    When the stream raises a :class:`~repro.errors.TraceError`, the rows
    before it are flushed as a final partial batch first.
    """
    builder = BatchBuilder()
    try:
        for row in rows:
            builder.append(*row)
            if len(builder) >= batch_size:
                yield builder.finish()
                builder = BatchBuilder()
    except TraceError:
        if len(builder):
            yield builder.finish()
        raise
    if len(builder):
        yield builder.finish()
