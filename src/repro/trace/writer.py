"""Streaming trace writers (CSV, JSON-lines, compact binary).

Traces can be large; writers therefore stream record-by-record and never
hold the full trace in memory.  Format is inferred from the file suffix
(``.csv``, ``.jsonl``, ``.bin``) or forced with ``fmt=``.
"""

from __future__ import annotations

import csv
import gzip
import json
import struct
from collections.abc import Iterable
from pathlib import Path
from typing import IO

from repro.errors import PlanError, TraceFormatError
from repro.trace import schema
from repro.trace.batch import RecordBatch
from repro.trace.record import LogRecord

_FORMATS = ("csv", "jsonl", "bin")


def _infer_format(path: Path) -> str:
    suffixes = [s.lstrip(".") for s in path.suffixes]
    for suffix in reversed(suffixes):
        if suffix in _FORMATS:
            return suffix
    raise TraceFormatError(
        f"cannot infer trace format from {path.name!r}; use one of {_FORMATS} as a suffix or pass fmt="
    )


def _open_binary(path: Path, mode: str) -> IO[bytes]:
    if path.suffix == ".gz":
        return gzip.open(path, mode)  # type: ignore[return-value]
    return open(path, mode)


class TraceWriter:
    """Write records to a trace file, streaming.

    Use as a context manager::

        with TraceWriter("trace.csv") as writer:
            for record in records:
                writer.write(record)
    """

    def __init__(self, path: str | Path, fmt: str | None = None):
        self.path = Path(path)
        self.fmt = fmt or _infer_format(self.path)
        if self.fmt not in _FORMATS:
            raise TraceFormatError(f"unknown trace format {self.fmt!r}; expected one of {_FORMATS}")
        self._handle: IO | None = None
        self._csv_writer: csv.writer | None = None
        self.records_written = 0

    def __enter__(self) -> "TraceWriter":
        self.open()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def open(self) -> None:
        if self._handle is not None:
            return
        self.path.parent.mkdir(parents=True, exist_ok=True)
        if self.fmt == "bin":
            self._handle = _open_binary(self.path, "wb")
            self._handle.write(schema.BINARY_MAGIC)
            self._handle.write(struct.pack("<H", schema.BINARY_VERSION))
        elif self.fmt == "csv":
            self._handle = open(self.path, "w", newline="", encoding="utf-8")
            self._csv_writer = csv.writer(self._handle)
            self._csv_writer.writerow(schema.FIELD_NAMES)
        else:
            self._handle = open(self.path, "w", encoding="utf-8")

    def write(self, record: LogRecord) -> None:
        """Append one record."""
        if self._handle is None:
            raise TraceFormatError("writer is not open; use it as a context manager")
        if self.fmt == "csv":
            assert self._csv_writer is not None
            self._csv_writer.writerow(schema.record_to_row(record))
        elif self.fmt == "jsonl":
            self._handle.write(json.dumps(schema.record_to_dict(record)) + "\n")
        else:
            self._handle.write(schema.pack_record(record))
        self.records_written += 1

    def write_all(self, records: Iterable[LogRecord]) -> int:
        """Append every record from an iterable; returns the count written."""
        for record in records:
            self.write(record)
        return self.records_written

    def write_batch(self, batch: RecordBatch) -> None:
        """Append a whole :class:`RecordBatch` without building records.

        The batch's columns are bulk-converted to python rows and fed to
        the per-format codec directly, skipping ``LogRecord`` construction
        entirely.
        """
        if self._handle is None:
            raise TraceFormatError("writer is not open; use it as a context manager")
        if self.fmt == "csv":
            assert self._csv_writer is not None
            self._csv_writer.writerows(schema.values_to_row(*row) for row in batch.iter_rows())
        elif self.fmt == "jsonl":
            self._handle.writelines(
                json.dumps(schema.values_to_dict(*row)) + "\n" for row in batch.iter_rows()
            )
        else:
            self._handle.write(b"".join(schema.pack_values(*row) for row in batch.iter_rows()))
        self.records_written += len(batch)

    def write_batches(self, batches: Iterable[RecordBatch]) -> int:
        """Append every batch from an iterable; returns the count written."""
        for batch in batches:
            self.write_batch(batch)
        return self.records_written

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None
            self._csv_writer = None


class TraceWriteStage:
    """Dataflow tee: persist the batch stream while passing it through.

    The plan adapter for :class:`TraceWriter`: each incoming batch is
    written and then re-yielded, so an ingest downstream still sees the
    full stream — the trace never materialises.  The writer closes when
    the stream is exhausted (or abandoned, via generator finalisation).
    """

    name = "write_trace"

    def __init__(self, path: str | Path, fmt: str | None = None):
        self.path = Path(path)
        self.fmt = fmt
        self.rows_written = 0

    def connect(self, upstream, config):
        if upstream is None:
            raise PlanError("write_trace needs an upstream batch stream")
        return self._tee(upstream)

    def _tee(self, upstream):
        with TraceWriter(self.path, fmt=self.fmt) as writer:
            for batch in upstream:
                writer.write_batch(batch)
                yield batch
            self.rows_written = writer.records_written

    def finish(self, stats, result) -> None:
        result.rows_written = self.rows_written
        result.trace_path = self.path


def write_trace(records: Iterable[LogRecord], path: str | Path, fmt: str | None = None) -> int:
    """Write all ``records`` to ``path``; returns the number written."""
    with TraceWriter(path, fmt=fmt) as writer:
        return writer.write_all(records)


def write_trace_batches(
    batches: Iterable[RecordBatch], path: str | Path, fmt: str | None = None
) -> int:
    """Write a stream of record batches to ``path``; returns rows written."""
    with TraceWriter(path, fmt=fmt) as writer:
        return writer.write_batches(batches)
