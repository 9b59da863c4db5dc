"""Streaming trace readers with optional record filters.

Mirror image of :mod:`repro.trace.writer`: format is inferred from the
suffix (a further ``.gz`` means gzip), rows stream out as columnar
batches, and callers can restrict by site, category, or time window
without loading the file.  The binary format decodes straight into batch
columns (:class:`~repro.trace.schema.BinaryDecoder`); the text formats
decode each row to a checked field tuple and append it to a
:class:`~repro.trace.batch.BatchBuilder`.  Every parse failure is a
:class:`~repro.errors.TraceError` naming the file and the line (text
formats) or byte offset (binary format).
"""

from __future__ import annotations

import csv
import gzip
import io
import json
import struct
import zlib
from collections.abc import Iterator
from contextlib import contextmanager
from pathlib import Path
from typing import IO

from repro.errors import TraceError, TraceFormatError, TraceTruncationError
from repro.trace import schema
from repro.trace.batch import DEFAULT_BATCH_SIZE, RecordBatch, iter_row_batches
from repro.types import ContentCategory, category_for_extension

_BINARY_CHUNK = 1 << 20


class TraceReader:
    """Stream the rows of a trace file as batches.

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
        self.fmt = fmt or schema.infer_format(self.path)
        if self.fmt not in schema.FORMATS:
            raise TraceFormatError(f"unknown trace format {self.fmt!r}; expected one of {schema.FORMATS}")
        self.sites = sites
        self.categories = categories
        self.start = start
        self.end = end

    def iter_batches(self, batch_size: int = DEFAULT_BATCH_SIZE) -> Iterator[RecordBatch]:
        """Stream the trace as columnar :class:`RecordBatch` blocks.

        Filters apply record-wise before batching, so batches contain only
        matching rows.  On a truncated or corrupt file, any complete
        records parsed before the error are flushed as a final partial
        batch *before* the :class:`TraceError` propagates — callers see
        every good record, then the failure.
        """
        if self.fmt == "bin":
            return self._iter_binary(batch_size)
        rows = (row for row in self._iter_text() if self._matches(row[0], row[1], row[3]))
        return iter_row_batches(rows, batch_size)

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

    @contextmanager
    def _opened(self) -> Iterator[IO[bytes]]:
        """The file's bytes; a damaged gzip stream raises a typed error."""
        try:
            with schema.open_binary(self.path, "rb") as handle:
                yield handle
        except EOFError as exc:
            raise TraceTruncationError(
                f"{self.path.name}: truncated gzip stream (ends before its end-of-stream marker)"
            ) from exc
        except (gzip.BadGzipFile, zlib.error) as exc:
            raise TraceFormatError(f"{self.path.name}: not a valid gzip stream: {exc}") from exc

    def _iter_text(self) -> Iterator[tuple]:
        """Each CSV or JSONL row's checked field tuple."""
        with self._opened() as handle:
            lines = self._text_lines(handle)
            if self.fmt == "csv":
                reader = csv.reader(lines)
                header = next(reader, None)
                if header is None:
                    return
                if tuple(header) != schema.FIELD_NAMES:
                    raise TraceFormatError(f"unexpected CSV header in {self.path.name}: {header}")
                for row in reader:
                    yield self._parsed(schema.row_to_values, row, reader.line_num)
                return
            for line_number, line in enumerate(lines, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    payload = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise TraceFormatError(f"{self.path.name}:{line_number}: invalid JSON") from exc
                yield self._parsed(schema.dict_to_values, payload, line_number)

    def _text_lines(self, handle: IO[bytes]) -> Iterator[str]:
        """The file's lines as text, split as text mode splits them.

        Bytes that are not UTF-8 decode to lone surrogates, which no valid
        UTF-8 decodes to, so a line holding one raises naming its line
        after the lines before it were yielded.
        """
        newline = "" if self.fmt == "csv" else None
        with io.TextIOWrapper(handle, encoding="utf-8", errors="surrogateescape", newline=newline) as text:
            for line_number, line in enumerate(text, start=1):
                if not line.isascii():
                    try:
                        line.encode("utf-8")
                    except UnicodeEncodeError as exc:
                        raise TraceFormatError(f"{self.path.name}:{line_number}: invalid UTF-8") from exc
                yield line

    def _parsed(self, decode, raw, line_number: int) -> tuple:
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
        with self._opened() as handle:
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

