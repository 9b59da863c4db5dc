"""Trace substrate: the HTTP access-log record model and its I/O.

The paper's dataset (Section III) is a week of CDN HTTP logs where each
record carries a publisher identifier, hashed URL, object file type, object
size, user agent, request timestamp, plus the response's cache status and
HTTP status code.  This subpackage defines that record
(:class:`~repro.trace.record.LogRecord`), user-agent synthesis/parsing,
privacy-preserving anonymisation, and streaming batch readers/writers for
CSV, JSON-lines and a compact binary format.
"""

from repro.trace.anonymize import Anonymizer
from repro.trace.batch import (
    DEFAULT_BATCH_SIZE,
    BatchBuilder,
    RecordBatch,
    StringColumn,
    iter_record_batches,
)
from repro.trace.reader import TraceReader
from repro.trace.record import LogRecord
from repro.trace.tools import (
    TraceSummary,
    merge_traces,
    split_trace_by_day,
    split_trace_by_site,
    summarize_trace,
)
from repro.trace.useragent import parse_user_agent, synthesize_user_agent
from repro.trace.writer import TraceWriter, write_trace_batches

__all__ = [
    "Anonymizer",
    "BatchBuilder",
    "DEFAULT_BATCH_SIZE",
    "LogRecord",
    "RecordBatch",
    "StringColumn",
    "TraceReader",
    "TraceSummary",
    "TraceWriter",
    "iter_record_batches",
    "merge_traces",
    "parse_user_agent",
    "split_trace_by_day",
    "split_trace_by_site",
    "summarize_trace",
    "synthesize_user_agent",
    "write_trace_batches",
]
