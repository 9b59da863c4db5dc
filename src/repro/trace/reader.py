"""Streaming trace readers with optional record filters.

Mirror image of :mod:`repro.trace.writer`: format is inferred from the
suffix, rows stream out as columnar batches, and callers can restrict by
site, category, or time window without loading the file.  The binary
format decodes straight into batch columns
(:class:`~repro.trace.schema.BinaryDecoder`); the text formats parse each
row into a validated :class:`LogRecord` first.  Every parse failure is a
:class:`~repro.errors.TraceError` naming the file and the line (text
formats) or byte offset (binary format).
"""

from __future__ import annotations

import csv
import gzip
import json
import struct
import zlib
from collections.abc import Iterator
from pathlib import Path
from typing import IO

from repro.errors import TraceError, TraceFormatError, TraceTruncationError
from repro.trace import schema
from repro.trace.batch import DEFAULT_BATCH_SIZE, BatchBuilder, RecordBatch
from repro.trace.record import LogRecord
from repro.types import ContentCategory, category_for_extension

_FORMATS = ("csv", "jsonl", "bin")
_BINARY_CHUNK = 1 << 20


def _infer_format(path: Path) -> str:
    suffixes = [s.lstrip(".") for s in path.suffixes]
    for suffix in reversed(suffixes):
        if suffix in _FORMATS:
            return suffix
    raise TraceFormatError(
        f"cannot infer trace format from {path.name!r}; use one of {_FORMATS} as a suffix or pass fmt="
    )


def _open_binary(path: Path) -> IO[bytes]:
    if path.suffix == ".gz":
        return gzip.open(path, "rb")  # type: ignore[return-value]
    return open(path, "rb")


class TraceReader:
    """Iterate over the records in a trace file.

    Parameters
    ----------
    path:
        Trace file written by :class:`~repro.trace.writer.TraceWriter`.
    fmt:
        Force a format instead of inferring from the suffix.
    sites / categories:
        Optional allow-lists; records not matching are skipped.
    start / end:
        Optional half-open time window ``[start, end)`` in trace seconds.
    """

    def __init__(
        self,
        path: str | Path,
        fmt: str | None = None,
        sites: set[str] | None = None,
        categories: set[ContentCategory] | None = None,
        start: float | None = None,
        end: float | None = None,
    ):
        self.path = Path(path)
        if not self.path.exists():
            raise TraceFormatError(f"trace file does not exist: {self.path}")
        self.fmt = fmt or _infer_format(self.path)
        if self.fmt not in _FORMATS:
            raise TraceFormatError(f"unknown trace format {self.fmt!r}; expected one of {_FORMATS}")
        self.sites = sites
        self.categories = categories
        self.start = start
        self.end = end

    def __iter__(self) -> Iterator[LogRecord]:
        """Record-at-a-time view: a thin adapter over :meth:`iter_batches`
        that builds each :class:`LogRecord` from the batch columns."""
        for batch in self.iter_batches():
            yield from batch.iter_records()

    def iter_batches(self, batch_size: int = DEFAULT_BATCH_SIZE) -> Iterator[RecordBatch]:
        """Stream the trace as columnar :class:`RecordBatch` blocks.

        Filters apply record-wise before batching, so batches contain only
        matching rows.  On a truncated or corrupt file, any complete
        records parsed before the error are flushed as a final partial
        batch *before* the :class:`TraceError` propagates — callers see
        every good record, then the failure.
        """
        if self.fmt == "bin":
            yield from self._iter_binary(batch_size)
            return
        raw = self._iter_csv() if self.fmt == "csv" else self._iter_jsonl()
        builder = BatchBuilder()
        try:
            for record in raw:
                if self._matches(record.timestamp, record.site, record.extension):
                    builder.append_record(record)
                    if len(builder) >= batch_size:
                        yield builder.finish()
                        builder = BatchBuilder()
        except TraceError:
            if len(builder):
                yield builder.finish()
            raise
        if len(builder):
            yield builder.finish()

    def _matches(self, timestamp: float, site: str, extension: str) -> bool:
        if self.sites is not None and site not in self.sites:
            return False
        if self.categories is not None and category_for_extension(extension) not in self.categories:
            return False
        if self.start is not None and timestamp < self.start:
            return False
        if self.end is not None and timestamp >= self.end:
            return False
        return True

    def _iter_csv(self) -> Iterator[LogRecord]:
        with open(self.path, newline="", encoding="utf-8") as handle:
            reader = csv.reader(handle)
            header = next(reader, None)
            if header is None:
                return
            if tuple(header) != schema.FIELD_NAMES:
                raise TraceFormatError(f"unexpected CSV header in {self.path.name}: {header}")
            for row in reader:
                yield self._parsed(schema.row_to_record, row, reader.line_num)

    def _iter_jsonl(self) -> Iterator[LogRecord]:
        with open(self.path, encoding="utf-8") as handle:
            for line_number, line in enumerate(handle, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    payload = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise TraceFormatError(f"{self.path.name}:{line_number}: invalid JSON") from exc
                yield self._parsed(schema.dict_to_record, payload, line_number)

    def _parsed(self, decode, raw, line_number: int) -> LogRecord:
        """``decode(raw)``, with any error prefixed by ``file:line``."""
        try:
            return decode(raw)
        except TraceError as exc:
            raise type(exc)(f"{self.path.name}:{line_number}: {exc}") from exc

    def _iter_binary(self, batch_size: int) -> Iterator[RecordBatch]:
        filtered = any(f is not None for f in (self.sites, self.categories, self.start, self.end))
        decoder = schema.BinaryDecoder(self._matches if filtered else None)
        try:
            yield from self._iter_binary_stream(decoder, max(batch_size, 1))
        except TraceError:
            if len(decoder):
                yield decoder.finish()
            raise
        if len(decoder):
            yield decoder.finish()

    def _iter_binary_stream(self, decoder: schema.BinaryDecoder, batch_size: int) -> Iterator[RecordBatch]:
        """Yield every full batch; the rows left in ``decoder`` (at the end,
        or before an error) are the caller's to flush."""
        try:
            with _open_binary(self.path) as handle:
                self._check_binary_header(handle)
                # Absolute file offset of buffer[0]; keeps error messages
                # pointing at the real byte position even across chunk reads.
                consumed = len(schema.BINARY_MAGIC) + 2
                buffer = b""
                offset = 0
                while True:
                    try:
                        offset = decoder.decode(buffer, offset, batch_size, consumed)
                    except TraceError as exc:
                        raise type(exc)(f"{self.path.name}: {exc}") from exc
                    if len(decoder) >= batch_size:
                        yield decoder.finish()
                        continue
                    # read1: a gzip stream that breaks off mid-read still hands
                    # over every byte decompressed before the break.
                    chunk = handle.read1(_BINARY_CHUNK)
                    if not chunk:
                        break
                    consumed += offset
                    buffer = buffer[offset:] + chunk
                    offset = 0
                if offset < len(buffer):
                    raise TraceTruncationError(
                        f"{self.path.name}: truncated record at byte {consumed + offset} "
                        f"({len(buffer) - offset} trailing bytes)"
                    )
        except EOFError as exc:
            raise TraceTruncationError(
                f"{self.path.name}: truncated gzip stream (ends before its end-of-stream marker)"
            ) from exc
        except (gzip.BadGzipFile, zlib.error) as exc:
            raise TraceFormatError(f"{self.path.name}: not a valid gzip stream: {exc}") from exc

    def _check_binary_header(self, handle: IO[bytes]) -> None:
        magic = handle.read(len(schema.BINARY_MAGIC))
        if magic != schema.BINARY_MAGIC:
            raise TraceFormatError(f"{self.path.name}: not a repro binary trace (bad magic)")
        raw_version = handle.read(2)
        if len(raw_version) < 2:
            raise TraceTruncationError(
                f"{self.path.name}: truncated header (file ends inside the format version)"
            )
        (version,) = struct.unpack("<H", raw_version)
        if version != schema.BINARY_VERSION:
            raise TraceFormatError(f"{self.path.name}: unsupported binary trace version {version}")


class TraceSourceStage:
    """Dataflow source: stream a trace file as columnar batches.

    The plan adapter for :class:`TraceReader`: re-analysis plans start
    here instead of at generate/simulate.  Batches are sized by the run's
    ``batch_size``.
    """

    name = "read_trace"

    def __init__(self, path: str | Path, fmt: str | None = None, **reader_kwargs: object):
        self.path = Path(path)
        self.fmt = fmt
        self.reader_kwargs = reader_kwargs

    def connect(self, upstream, config):
        reader = TraceReader(self.path, fmt=self.fmt, **self.reader_kwargs)  # type: ignore[arg-type]
        return reader.iter_batches(batch_size=config.batch_size)

    def finish(self, stats, result) -> None:
        result.trace_path = self.path


def read_trace(
    path: str | Path, batch_size: int = DEFAULT_BATCH_SIZE, **kwargs: object
) -> list[LogRecord]:
    """Load an entire trace into memory as a record list.

    **Test-scale only**: this materialises one ``LogRecord`` per row, which
    is exactly the overhead the batch pipeline exists to avoid.  For large
    traces use :meth:`TraceReader.iter_batches` (streaming column blocks)
    or :meth:`repro.core.dataset.TraceDataset.from_file` (columnar ingest).
    Internally this routes through the batch reader and builds each
    record from the batch columns.
    """
    records: list[LogRecord] = []
    for batch in TraceReader(path, **kwargs).iter_batches(batch_size=batch_size):  # type: ignore[arg-type]
        records.extend(batch.iter_records())
    return records
