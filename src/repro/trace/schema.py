"""Serialisation schema shared by all trace formats.

Defines the canonical field order, the CSV/JSONL field codecs, and the
binary format: its struct layout, the writer's row encoder
(:func:`pack_values`) and the reader's decoder (:class:`BinaryDecoder`),
which turns rows straight into :class:`~repro.trace.batch.RecordBatch`
columns.  Readers and writers both import from here so the two sides
cannot drift apart.
"""

from __future__ import annotations

import math
import struct
from collections.abc import Callable
from typing import Any

import numpy as np

from repro.errors import TraceFormatError, TraceSchemaError
from repro.trace.batch import STRING_FIELDS, RecordBatch, seal_batch
from repro.trace.record import INT64_MAX, LogRecord, check_fields
from repro.types import CacheStatus

#: Canonical column order for text formats.
FIELD_NAMES = (
    "timestamp",
    "site",
    "object_id",
    "extension",
    "object_size",
    "user_id",
    "user_agent",
    "cache_status",
    "status_code",
    "bytes_served",
    "datacenter",
    "chunk_index",
)

#: Magic bytes + version prefix for the binary format.
BINARY_MAGIC = b"RPRO"
BINARY_VERSION = 1

# Binary record: fixed-size header followed by length-prefixed strings.
#   f64 timestamp, u64 object_size, u64 bytes_served,
#   u16 status_code, i16 chunk_index, u8 cache_status (0=MISS, 1=HIT)
_FIXED = struct.Struct("<dQQHhB")
#: ``_FIXED`` as a packed numpy record, to view a batch's joined fixed-field
#: bytes as columns.
_FIXED_DTYPE = np.dtype(
    [
        ("timestamp", "<f8"),
        ("object_size", "<u8"),
        ("bytes_served", "<u8"),
        ("status_code", "<u2"),
        ("chunk_index", "<i2"),
        ("hit", "u1"),
    ]
)
#: The fixed fields followed by the first string's (the site's) length
#: prefix: one read per row covers every fixed-width value.
_ROW_HEAD = struct.Struct("<dQQHhBH")
_LENGTH = struct.Struct("<H")


def values_to_row(
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
) -> list[str]:
    """Serialise raw field values to a CSV row (field order = FIELD_NAMES)."""
    return [
        repr(timestamp),
        site,
        object_id,
        extension,
        str(object_size),
        user_id,
        user_agent,
        "HIT" if hit else "MISS",
        str(status_code),
        str(bytes_served),
        datacenter,
        str(chunk_index),
    ]


def record_to_row(record: LogRecord) -> list[str]:
    """Serialise a record to a CSV row (field order = FIELD_NAMES)."""
    return values_to_row(
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


def row_to_record(row: list[str]) -> LogRecord:
    """Parse a CSV row back into a record."""
    if len(row) != len(FIELD_NAMES):
        raise TraceFormatError(f"expected {len(FIELD_NAMES)} fields, got {len(row)}")
    try:
        return LogRecord(
            timestamp=float(row[0]),
            site=row[1],
            object_id=row[2],
            extension=row[3],
            object_size=int(row[4]),
            user_id=row[5],
            user_agent=row[6],
            cache_status=CacheStatus(row[7]),
            status_code=int(row[8]),
            bytes_served=int(row[9]),
            datacenter=row[10],
            chunk_index=int(row[11]),
        )
    except (ValueError, KeyError) as exc:
        raise TraceFormatError(f"malformed trace row: {row!r}") from exc


def values_to_dict(
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
) -> dict[str, Any]:
    """Serialise raw field values to a JSON-compatible dict."""
    return {
        "timestamp": timestamp,
        "site": site,
        "object_id": object_id,
        "extension": extension,
        "object_size": object_size,
        "user_id": user_id,
        "user_agent": user_agent,
        "cache_status": "HIT" if hit else "MISS",
        "status_code": status_code,
        "bytes_served": bytes_served,
        "datacenter": datacenter,
        "chunk_index": chunk_index,
    }


def record_to_dict(record: LogRecord) -> dict[str, Any]:
    """Serialise a record to a JSON-compatible dict."""
    return values_to_dict(
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


def dict_to_record(payload: dict[str, Any]) -> LogRecord:
    """Parse a JSON dict back into a record."""
    try:
        return LogRecord(
            timestamp=float(payload["timestamp"]),
            site=str(payload["site"]),
            object_id=str(payload["object_id"]),
            extension=str(payload["extension"]),
            object_size=int(payload["object_size"]),
            user_id=str(payload["user_id"]),
            user_agent=str(payload["user_agent"]),
            cache_status=CacheStatus(payload["cache_status"]),
            status_code=int(payload["status_code"]),
            bytes_served=int(payload["bytes_served"]),
            datacenter=str(payload.get("datacenter", "dc-0")),
            chunk_index=int(payload.get("chunk_index", -1)),
        )
    except (ValueError, KeyError, TypeError) as exc:
        raise TraceFormatError(f"malformed trace object: {payload!r}") from exc


def pack_values(
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
) -> bytes:
    """Serialise raw field values into the compact binary format."""
    fixed = _FIXED.pack(
        timestamp,
        object_size,
        bytes_served,
        status_code,
        chunk_index,
        1 if hit else 0,
    )
    strings = (site, object_id, extension, user_id, user_agent, datacenter)
    parts = [fixed]
    for value in strings:
        encoded = value.encode("utf-8")
        if len(encoded) > 0xFFFF:
            raise TraceFormatError(f"string field too long for binary format ({len(encoded)} bytes)")
        parts.append(struct.pack("<H", len(encoded)))
        parts.append(encoded)
    return b"".join(parts)


def pack_record(record: LogRecord) -> bytes:
    """Serialise a record into the compact binary format."""
    return pack_values(
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


class BinaryDecoder:
    """Decodes binary rows straight into the columns of a :class:`RecordBatch`.

    :meth:`decode` stores the complete rows of a buffer until the decoder
    holds ``limit`` rows or the next row is cut short (more bytes are
    needed); :meth:`finish` seals the stored rows into a batch and starts
    the next one.  Each string field's raw bytes are interned per batch,
    and a value is UTF-8-decoded once, when it first appears: decoding is
    one-to-one on valid UTF-8, so the codes are the first-appearance codes
    :class:`~repro.trace.batch.BatchBuilder` gives the decoded strings.
    A stored row keeps its fixed fields as their raw bytes, which
    :meth:`finish` views as columns in one step.

    Each row is checked before it is stored, in this order: the
    cache-status flag, completeness, UTF-8, then the schema
    (:func:`~repro.trace.record.check_fields`).  A bad row raises
    :class:`TraceFormatError` (corrupt bytes) or :class:`TraceSchemaError`
    naming its byte offset; the rows before it stay stored for the caller
    to flush.  ``keep(timestamp, site, extension)``, when given, drops the
    rows it rejects after they are checked.
    """

    def __init__(self, keep: Callable[[float, str, str], bool] | None = None):
        self._keep = keep
        self._reset()

    def _reset(self) -> None:
        self._fixed = bytearray()
        self._codes: tuple[list[int], ...] = tuple([] for _ in STRING_FIELDS)
        self._lookups: tuple[dict[bytes, int], ...] = tuple({} for _ in STRING_FIELDS)
        self._values: tuple[list[str], ...] = tuple([] for _ in STRING_FIELDS)

    def __len__(self) -> int:
        return len(self._fixed) // _FIXED.size

    def decode(self, buffer: bytes, offset: int, limit: int, base: int = 0) -> int:
        """Store rows from ``buffer[offset:]`` until ``limit`` are held.

        Returns the offset just past the last row read; stops early at a
        row that extends past the end of ``buffer``.  ``base`` is the
        stream offset of ``buffer[0]``, so error messages name absolute
        byte offsets.
        """
        head = _ROW_HEAD.unpack_from
        length = _LENGTH.unpack_from
        fixed_size, head_size, inf, int64_max = _FIXED.size, _ROW_HEAD.size, math.inf, INT64_MAX
        fixed = self._fixed
        get0, get1, get2, get3, get4, get5 = (lookup.get for lookup in self._lookups)
        add0, add1, add2, add3, add4, add5 = (codes.append for codes in self._codes)
        plain = self._keep is None
        end = len(buffer)
        room = limit - len(self)
        while room > 0:
            try:
                timestamp, object_size, bytes_served, status_code, chunk_index, hit, n = head(buffer, offset)
                start0 = offset + head_size
                stop0 = start0 + n
                (n,) = length(buffer, stop0)
                start1 = stop0 + 2
                stop1 = start1 + n
                (n,) = length(buffer, stop1)
                start2 = stop1 + 2
                stop2 = start2 + n
                (n,) = length(buffer, stop2)
                start3 = stop2 + 2
                stop3 = start3 + n
                (n,) = length(buffer, stop3)
                start4 = stop3 + 2
                stop4 = start4 + n
                (n,) = length(buffer, stop4)
                start5 = stop4 + 2
                stop5 = start5 + n
            except struct.error:
                # The row is cut short, but a flag already present is checked first.
                hit = buffer[offset + fixed_size - 1] if end - offset >= fixed_size else 0
                stop5 = end + 1
            if hit > 1:
                raise TraceFormatError(
                    f"corrupt record at byte {base + offset}: cache-status flag {hit} (expected 0 or 1)"
                )
            if stop5 > end:
                break
            r0 = buffer[start0:stop0]
            r1 = buffer[start1:stop1]
            r2 = buffer[start2:stop2]
            r3 = buffer[start3:stop3]
            r4 = buffer[start4:stop4]
            r5 = buffer[start5:stop5]
            code0 = get0(r0)
            code1 = get1(r1)
            code2 = get2(r2)
            code3 = get3(r3)
            code4 = get4(r4)
            code5 = get5(r5)
            valid = (
                0.0 <= timestamp < inf
                and 100 <= status_code <= 599
                and object_size <= int64_max
                and bytes_served <= int64_max
            )
            if (
                plain
                and valid
                and code0 is not None
                and code1 is not None
                and code2 is not None
                and code3 is not None
                and code4 is not None
                and code5 is not None
            ):
                add0(code0)
                add1(code1)
                add2(code2)
                add3(code3)
                add4(code4)
                add5(code5)
                fixed += buffer[offset : offset + fixed_size]
                room -= 1
            elif self._store_checked(
                base + offset,
                buffer[offset : offset + fixed_size],
                (r0, r1, r2, r3, r4, r5),
                (code0, code1, code2, code3, code4, code5),
                valid,
                (timestamp, object_size, bytes_served, status_code, chunk_index),
            ):
                room -= 1
            offset = stop5
        return offset

    def _store_checked(
        self,
        at: int,
        fixed: bytes,
        raws: tuple[bytes, ...],
        codes: tuple[int | None, ...],
        valid: bool,
        numbers: tuple[float, int, int, int, int],
    ) -> bool:
        """Check, filter and store a row that holds a value new to the batch,
        fails the fast schema test, or meets a filter.  Returns whether the
        row was stored."""
        texts = []
        for name, raw, code, values in zip(STRING_FIELDS, raws, codes, self._values):
            if code is not None:
                texts.append(values[code])
                continue
            try:
                texts.append(raw.decode("utf-8"))
            except UnicodeDecodeError as exc:
                raise TraceFormatError(f"corrupt record at byte {at}: invalid UTF-8 in {name}") from exc
        timestamp, object_size, bytes_served, status_code, chunk_index = numbers
        site, object_id, extension = texts[:3]
        if not (valid and site and object_id):
            try:
                check_fields(timestamp, site, object_id, object_size, bytes_served, status_code, chunk_index)
            except TraceSchemaError as exc:
                raise TraceSchemaError(f"record at byte {at}: {exc}") from exc
        if self._keep is not None and not self._keep(timestamp, site, extension):
            return False
        for raw, code, text, lookup, values, column in zip(
            raws, codes, texts, self._lookups, self._values, self._codes
        ):
            if code is None:
                code = lookup[raw] = len(values)
                values.append(text)
            column.append(code)
        self._fixed += fixed
        return True

    def finish(self) -> RecordBatch:
        """Seal the stored rows into a batch and start an empty one."""
        fixed = np.frombuffer(self._fixed, dtype=_FIXED_DTYPE)
        batch = seal_batch(
            fixed["timestamp"].astype(np.float64),
            fixed["object_size"].astype(np.int64),
            fixed["bytes_served"].astype(np.int64),
            fixed["status_code"].astype(np.int64),
            fixed["chunk_index"].astype(np.int64),
            fixed["hit"].astype(np.uint8),
            dict(zip(STRING_FIELDS, self._codes)),
            dict(zip(STRING_FIELDS, self._values)),
        )
        self._reset()
        return batch
