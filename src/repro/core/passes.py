"""Single-sweep analysis passes over the columnar store.

An :class:`AnalysisPass` is a stateful column operation: it is handed the
dataset once (``begin``), then each chunk of the columnar store in row
order (``process``), and finally asked for its result (``finish``).
:func:`run_passes` drives any number of passes through **one** scan of the
store, so the figure analyses that need a full-trace sweep (hourly volume,
response codes, ...) share a single pass over the data instead of each
re-reading ``dataset.records``.

Chunks are row slices of one parent :class:`~repro.trace.batch.RecordBatch`,
so all chunks share the parent's string dictionaries: a code observed in
chunk 3 means the same value as in chunk 0, which lets passes accumulate
per-code arrays and decode names once in ``finish``.

Passes that only consume the dataset's prebuilt indices (object stats, the
user index) may leave ``process`` a no-op; driving them through
:func:`run_passes` still costs nothing extra because the scan is shared.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import Any, Protocol, runtime_checkable

from repro.core.dataset import TraceDataset
from repro.errors import AnalysisError, PlanError
from repro.trace.batch import RecordBatch

#: Rows per chunk handed to ``process``; large enough to amortise numpy
#: call overhead, small enough to keep per-chunk scratch arrays in cache.
DEFAULT_CHUNK_ROWS = 1 << 18


@runtime_checkable
class AnalysisPass(Protocol):
    """One column-oriented analysis, driven by :func:`run_passes`.

    A pass may declare the class attribute ``supports_storeless``: it
    works off prebuilt indices or scan tables and can run on a
    ``keep_store=False`` dataset.
    """

    #: Key under which the result lands in the ``run_passes`` mapping.
    name: str

    def begin(self, dataset: TraceDataset) -> None:
        """Reset state for a fresh sweep over ``dataset``."""

    def process(self, chunk: RecordBatch) -> None:
        """Accumulate one chunk of the store (rows arrive in trace order)."""

    def finish(self) -> Any:
        """Return the analysis result; called once after the last chunk."""


def run_passes(
    dataset: TraceDataset,
    passes: Sequence[AnalysisPass],
    chunk_rows: int = DEFAULT_CHUNK_ROWS,
) -> dict[str, Any]:
    """Drive ``passes`` through one shared scan of the dataset's store.

    Every pass sees every row exactly once, in trace order.  Returns
    ``{pass.name: pass.finish()}``.  Passes whose ``process`` is a no-op
    ride along for free.

    For datasets built with ``keep_store=False`` there are no rows to
    scan: passes that declare ``supports_storeless = True`` (they consume
    prebuilt indices or the dataset's streaming scan tables) run with no
    ``process`` calls; any other pass raises
    :class:`~repro.errors.AnalysisError` instead of silently seeing zero
    rows.
    """
    if len(dataset) and not dataset.has_store:
        unsupported = [
            analysis_pass.name
            for analysis_pass in passes
            if not getattr(analysis_pass, "supports_storeless", False)
        ]
        if unsupported:
            raise AnalysisError(
                f"dataset was built with keep_store=False but passes {unsupported} "
                "need to scan the row store; rebuild with keep_store=True"
            )
    for analysis_pass in passes:
        analysis_pass.begin(dataset)
    if len(dataset) and dataset.has_store:
        store = dataset.store()
        total = len(store)
        for start in range(0, total, chunk_rows):
            chunk = store.rows(start, min(start + chunk_rows, total))
            for analysis_pass in passes:
                analysis_pass.process(chunk)
    return {analysis_pass.name: analysis_pass.finish() for analysis_pass in passes}


class PassSweepStage:
    """Dataflow derive stage: sweep analysis passes over the ingest result.

    The plan adapter for :func:`run_passes` — it runs after the stream is
    drained, against the dataset the ingest stage contributed, and lands
    the ``{pass.name: result}`` mapping on the plan result.
    """

    name = "passes"

    def __init__(self, passes: Sequence[AnalysisPass], chunk_rows: int | None = None):
        self.passes = list(passes)
        self.chunk_rows = chunk_rows

    def derive(self, result, config) -> None:
        if result.dataset is None:
            raise PlanError("passes stage ran but no ingest contributed a dataset to the plan")
        chunk_rows = DEFAULT_CHUNK_ROWS if self.chunk_rows is None else self.chunk_rows
        result.pass_results = run_passes(result.dataset, self.passes, chunk_rows=chunk_rows)

    def finish(self, stats, result) -> None:
        if result.dataset is not None:
            stats.rows = len(result.dataset)
