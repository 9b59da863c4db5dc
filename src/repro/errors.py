"""Exception hierarchy for the :mod:`repro` package.

Every error raised by this library derives from :class:`ReproError`, so a
caller can catch one type to handle all library failures.  Subclasses are
organised by subsystem (trace handling, workload generation, CDN simulation,
analysis) so callers can be more selective when they need to be.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ConfigError(ReproError):
    """A configuration object or parameter set is invalid."""


class PlanError(ConfigError):
    """A dataflow plan was assembled or executed inconsistently.

    Raised by :class:`repro.dataflow.Plan` when stages are composed in an
    impossible order (a transform before any source, an analysis without
    an ingest, two sources) or when a plan is run without stages.
    """


class TraceError(ReproError):
    """Base class for trace (HTTP log) related errors."""


class TraceFormatError(TraceError):
    """A serialised trace record or file could not be parsed."""


class TraceTruncationError(TraceFormatError):
    """A binary trace ends inside a record, its header or its gzip stream.

    The binary decoder (:class:`repro.trace.schema.BinaryDecoder`) stops at
    a row that extends past the bytes read so far, and the reader retries
    after the next read; only at end-of-file does the reader raise this,
    naming the byte offset of the cut-off record.  Genuine corruption
    (bytes present but invalid) raises plain :class:`TraceFormatError`
    instead.
    """


class TraceSchemaError(TraceError):
    """A record is missing fields or holds values outside the schema."""


class SpillError(ReproError):
    """A spill segment could not be read back intact.

    Raised by :func:`repro.spill.segment.iter_blocks` when a segment is
    truncated (the file ends inside a header or block payload) or corrupt
    (bad magic/version, an implausible block length, a CRC mismatch, or a
    payload whose column encoding is inconsistent).  The message always
    names the segment path and the byte offset of the damage, so a failed
    restore is diagnosable without re-running the spill.  Spill segments
    are run-scoped scratch — there is no "need more bytes" retry case, so
    truncation and corruption are both terminal here.
    """


class WorkloadError(ReproError):
    """Workload generation failed or was configured inconsistently."""


class CatalogError(WorkloadError):
    """A content catalog is empty, inconsistent, or malformed."""


class CdnError(ReproError):
    """Base class for CDN simulator errors."""


class CachePolicyError(CdnError):
    """A cache policy was misconfigured (e.g. non-positive capacity)."""


class SimulationError(CdnError):
    """A parallel simulation run failed in a worker process.

    Raised by :meth:`repro.cdn.simulator.CdnSimulator.run_batches` when a
    shard worker raises or dies.  The message names the failing worker and
    shard; no mutated shard state is adopted back into the simulator, so
    the parent's shards are exactly the pre-run state and a retry starts
    from a consistent simulator.
    """


class RoutingError(CdnError):
    """No data center could serve a request."""


class AnalysisError(ReproError):
    """An analysis was asked to run on data it cannot process."""


class EmptyDatasetError(AnalysisError):
    """An analysis requires at least one record/series but received none."""


class StorelessDatasetError(AnalysisError):
    """Row-level access was requested from a ``keep_store=False`` build.

    Raised by :class:`~repro.core.dataset.TraceDataset` (``records``,
    ``store()``, ``site_records``) when the rows were deliberately dropped
    at ingest.  Rebuild with ``keep_store=True`` for row-level access;
    every aggregate-backed analysis works either way.
    """
