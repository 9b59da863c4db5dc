"""Trace-file manipulation tools: merge, split, and summarise.

Real log pipelines rarely deal with one tidy file: collection produces
per-data-center or per-day shards that must be merged in time order, and
analyses often want per-site or per-day extracts.  These helpers operate
on any format :mod:`repro.trace` reads and keep everything streaming.
"""

from __future__ import annotations

import heapq
from collections import Counter
from collections.abc import Callable, Iterator
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.errors import TraceError
from repro.trace.batch import RecordBatch, iter_row_batches
from repro.trace.reader import TraceReader
from repro.trace.writer import TraceWriter, write_trace_batches
from repro.types import DAY_SECONDS


def merge_traces(inputs: list[str | Path], output: str | Path) -> int:
    """Merge trace files into one, ordered by timestamp.

    Inputs must each be internally time-ordered (as written by the
    pipeline); the merge is a streaming k-way heap merge over the inputs'
    rows (ties keep input order), so arbitrarily large shards are fine.
    Returns the number of records written.
    """
    if not inputs:
        raise TraceError("merge_traces needs at least one input file")
    readers = [TraceReader(path) for path in inputs]
    merged = heapq.merge(*map(_rows, readers), key=lambda row: row[0])
    return write_trace_batches(iter_row_batches(merged), output)


def _rows(reader: TraceReader) -> Iterator[tuple]:
    for batch in reader.iter_batches():
        yield from batch.iter_rows()


def split_trace_by_site(input_path: str | Path, output_dir: str | Path, fmt: str = "csv") -> dict[str, Path]:
    """Split one trace into one file per site; returns site → path."""

    def pieces(batch: RecordBatch) -> Iterator[tuple[str, str, np.ndarray]]:
        # Site codes number the batch's sites in first-appearance order.
        for code, site in enumerate(batch.site.values):
            yield site, f"{site.replace('/', '_')}.{fmt}", batch.site.codes == code

    return _split(input_path, Path(output_dir), pieces)


def split_trace_by_day(input_path: str | Path, output_dir: str | Path, fmt: str = "csv") -> dict[int, Path]:
    """Split one trace into one file per trace day; returns day → path."""

    def pieces(batch: RecordBatch) -> Iterator[tuple[int, str, np.ndarray]]:
        days = (batch.timestamp // DAY_SECONDS).astype(np.int64)
        found, first = np.unique(days, return_index=True)
        for day in found[np.argsort(first)].tolist():
            yield day, f"day{day}.{fmt}", days == day

    return _split(input_path, Path(output_dir), pieces)


def _split(input_path: str | Path, directory: Path, pieces: Callable) -> dict:
    """Write each batch's pieces to one file per key.

    ``pieces(batch)`` yields ``(key, file name, row mask)`` in the order
    the keys first appear in the batch, so files open in first-appearance
    order and each receives its rows in trace order.  Two keys whose file
    names coincide (sites ``a/b`` and ``a_b``) raise :class:`TraceError`
    rather than share a file.
    """
    directory.mkdir(parents=True, exist_ok=True)
    writers: dict = {}
    owners: dict[str, object] = {}  # file name -> the key writing it
    try:
        for batch in TraceReader(input_path).iter_batches():
            for key, name, mask in pieces(batch):
                writer = writers.get(key)
                if writer is None:
                    owner = owners.setdefault(name, key)
                    if owner != key:
                        raise TraceError(
                            f"{owner!r} and {key!r} would both be written to {directory / name}"
                        )
                    writer = writers[key] = TraceWriter(directory / name)
                    writer.open()
                writer.write_batch(batch.filter(mask))
    finally:
        for writer in writers.values():
            writer.close()
    return {key: writer.path for key, writer in writers.items()}


@dataclass
class TraceSummary:
    """Single-pass summary of a trace file (streaming, O(sites) memory)."""

    records: int = 0
    first_timestamp: float = float("inf")
    last_timestamp: float = float("-inf")
    bytes_served: int = 0
    site_records: Counter = field(default_factory=Counter)
    status_codes: Counter = field(default_factory=Counter)
    hits: int = 0

    @property
    def duration_days(self) -> float:
        if self.records == 0:
            return 0.0
        return (self.last_timestamp - self.first_timestamp) / DAY_SECONDS

    @property
    def hit_ratio(self) -> float:
        if self.records == 0:
            return 0.0
        return self.hits / self.records

    def render(self) -> str:
        window = (
            f"{self.first_timestamp:.0f}s .. {self.last_timestamp:.0f}s ({self.duration_days:.1f} days)"
            if self.records
            else "none (empty trace)"
        )
        lines = [
            f"records:        {self.records:,}",
            f"window:         {window}",
            f"bytes served:   {self.bytes_served / 1e9:.2f} GB",
            f"hit ratio:      {self.hit_ratio:.1%}",
            "per-site records:",
        ]
        for site, count in sorted(self.site_records.items()):
            lines.append(f"  {site:8} {count:>10,}")
        lines.append("status codes:")
        for code, count in sorted(self.status_codes.items()):
            lines.append(f"  {code:8} {count:>10,}")
        return "\n".join(lines)


def summarize_trace(input_path: str | Path) -> TraceSummary:
    """Stream over a trace once and collect the headline numbers."""
    summary = TraceSummary()
    for batch in TraceReader(input_path).iter_batches():
        summary.records += len(batch)
        summary.first_timestamp = min(summary.first_timestamp, float(batch.timestamp.min()))
        summary.last_timestamp = max(summary.last_timestamp, float(batch.timestamp.max()))
        summary.bytes_served += sum(batch.bytes_served.tolist())  # python ints: no int64 wrap
        site_counts = np.bincount(batch.site.codes, minlength=len(batch.site.values))
        summary.site_records.update(dict(zip(batch.site.values, site_counts.tolist())))
        codes, counts = np.unique(batch.status_code, return_counts=True)
        summary.status_codes.update(dict(zip(codes.tolist(), counts.tolist())))
        summary.hits += int(np.count_nonzero(batch.cache_status))
    return summary
