"""Streaming trace writers (CSV, JSON-lines, compact binary).

Traces can be large; writers therefore stream batch-by-batch and never
hold the full trace in memory.  Format is inferred from the file suffix
(``.csv``, ``.jsonl``, ``.bin``) or forced with ``fmt=``; a further
``.gz`` suffix gzips the file, in every format.
"""

from __future__ import annotations

import csv
import io
import json
import struct
from collections.abc import Iterable
from pathlib import Path
from typing import IO

from repro.errors import PlanError, TraceFormatError
from repro.trace import schema
from repro.trace.batch import RecordBatch


class TraceWriter:
    """Write record batches to a trace file, streaming.

    Use as a context manager::

        with TraceWriter("trace.csv") as writer:
            for batch in batches:
                writer.write_batch(batch)
    """

    def __init__(self, path: str | Path, fmt: str | None = None):
        self.path = Path(path)
        self.fmt = fmt or schema.infer_format(self.path)
        if self.fmt not in schema.FORMATS:
            raise TraceFormatError(f"unknown trace format {self.fmt!r}; expected one of {schema.FORMATS}")
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
        handle: IO = schema.open_binary(self.path, "wb")
        if self.fmt == "bin":
            handle.write(schema.BINARY_MAGIC + struct.pack("<H", schema.BINARY_VERSION))
        else:
            handle = io.TextIOWrapper(handle, encoding="utf-8", newline="")
            if self.fmt == "csv":
                self._csv_writer = csv.writer(handle)
                self._csv_writer.writerow(schema.FIELD_NAMES)
        self._handle = handle

    def write_batch(self, batch: RecordBatch) -> None:
        """Append a whole :class:`RecordBatch`.

        The batch's columns are bulk-converted to python rows and fed to
        the per-format codec directly, without building records.
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


def write_trace_batches(
    batches: Iterable[RecordBatch], path: str | Path, fmt: str | None = None
) -> int:
    """Write a stream of record batches to ``path``; returns rows written."""
    with TraceWriter(path, fmt=fmt) as writer:
        return writer.write_batches(batches)
