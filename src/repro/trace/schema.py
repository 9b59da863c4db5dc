"""Serialisation schema shared by all trace formats.

Defines the file formats and how a path opens (:func:`infer_format`,
:func:`open_binary`), the canonical field order, the CSV/JSONL field
codecs, and the binary format: its struct layout, the writer's row
encoder (:func:`pack_values`) and the reader's decoder
(:class:`BinaryDecoder`), which turns rows straight into
:class:`~repro.trace.batch.RecordBatch` columns.  Readers and writers
both import from here so the two sides cannot drift apart.
"""

from __future__ import annotations

import gzip
import math
import struct
from collections.abc import Callable
from pathlib import Path
from typing import IO, Any

import numpy as np

from repro.errors import TraceFormatError, TraceSchemaError
from repro.trace.batch import STRING_FIELDS, RecordBatch, seal_batch
from repro.trace.record import INT64_MAX, check_fields

#: Trace file formats, named by their file suffix.
FORMATS = ("csv", "jsonl", "bin")


def infer_format(path: Path) -> str:
    """The format a path's suffixes name (``trace.csv.gz`` is ``csv``)."""
    suffixes = [s.lstrip(".") for s in path.suffixes]
    for suffix in reversed(suffixes):
        if suffix in FORMATS:
            return suffix
    raise TraceFormatError(
        f"cannot infer trace format from {path.name!r}; use one of {FORMATS} as a suffix or pass fmt="
    )


def open_binary(path: Path, mode: str) -> IO[bytes]:
    """Open a trace file's bytes: a ``.gz`` suffix means gzip, in every format."""
    if path.suffix == ".gz":
        return gzip.open(path, mode)  # type: ignore[return-value]
    return open(path, mode)


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
#: Text value of the cache status -> the row tuple's ``hit`` flag.
_HIT = {"HIT": True, "MISS": False}


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


def row_to_values(row: list[str]) -> tuple:
    """Parse a CSV row into the field tuple :meth:`BatchBuilder.append
    <repro.trace.batch.BatchBuilder.append>` takes, checked against the schema."""
    if len(row) != len(FIELD_NAMES):
        raise TraceFormatError(f"expected {len(FIELD_NAMES)} fields, got {len(row)}")
    try:
        values = (
            float(row[0]),
            row[1],
            row[2],
            row[3],
            int(row[4]),
            row[5],
            row[6],
            _HIT[row[7]],
            int(row[8]),
            int(row[9]),
            row[10],
            int(row[11]),
        )
    except (ValueError, KeyError) as exc:
        raise TraceFormatError(f"malformed trace row: {row!r}") from exc
    _check_values(values)
    return values


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


def dict_to_values(payload: dict[str, Any]) -> tuple:
    """Parse a JSON object into the field tuple :meth:`BatchBuilder.append
    <repro.trace.batch.BatchBuilder.append>` takes, checked against the
    schema; ``datacenter`` and ``chunk_index`` may be absent."""
    try:
        values = (
            float(payload["timestamp"]),
            str(payload["site"]),
            str(payload["object_id"]),
            str(payload["extension"]),
            int(payload["object_size"]),
            str(payload["user_id"]),
            str(payload["user_agent"]),
            _HIT[payload["cache_status"]],
            int(payload["status_code"]),
            int(payload["bytes_served"]),
            str(payload.get("datacenter", "dc-0")),
            int(payload.get("chunk_index", -1)),
        )
    except (ValueError, KeyError, TypeError) as exc:
        raise TraceFormatError(f"malformed trace object: {payload!r}") from exc
    _check_values(values)
    return values


def _check_values(values: tuple) -> None:
    """:func:`~repro.trace.record.check_fields` on a field tuple."""
    (timestamp, site, object_id, _, object_size, _, _, _, status_code, bytes_served, _, chunk_index) = values
    check_fields(timestamp, site, object_id, object_size, bytes_served, status_code, chunk_index)


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
