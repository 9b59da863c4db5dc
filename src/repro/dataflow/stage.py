"""Stage protocol and per-stage telemetry of the dataflow layer.

A *stage* is one step of the end-to-end measurement pipeline — workload
generation, CDN simulation, trace writing, accumulator ingest — expressed
as an operator over a stream of row blocks
(:class:`~repro.workload.generator.RequestBlock` between generate and
simulate, :class:`~repro.trace.batch.RecordBatch` from the simulator
onward; anything with ``len()`` counting rows).  The protocol
is deliberately tiny so that each subsystem module can expose an adapter
without importing the executor:

* **streaming stages** implement :meth:`Stage.connect`: given the
  upstream iterator (``None`` for sources) and the run's
  :class:`~repro.dataflow.config.RunConfig`, return the stage's output
  iterator.  Every stage — including sinks — passes blocks through, so
  tees (write the trace *and* ingest it) compose for free and the
  executor owns the single drain loop.
* **derive stages** implement :meth:`DeriveStage.derive`: they run after
  the stream is drained, off the results earlier stages contributed
  (e.g. the figure battery over the ingested dataset).

Optional hooks a stage may provide:

* ``resident_rows()`` — the rows the stage currently holds resident;
  sampled after every block for :attr:`StageStats.peak_resident_rows`.
  Without it the executor assumes the stage streams (one block resident).
* ``finish(stats, result)`` — called once after the drain to contribute
  results (dataset, simulator, rows written, …) to the
  :class:`~repro.dataflow.plan.PlanResult` and to adjust the stage's own
  :class:`StageStats` (e.g. adopt the simulator's dispatcher high-water
  mark).
* ``use_spill(pool)`` — called before ``connect`` when the run has a
  memory budget (:attr:`~repro.dataflow.config.RunConfig.memory_budget`),
  handing the stage the run-wide :class:`~repro.spill.SpillPool`.  The
  stage registers its spillable state with the pool; the executor owns
  the pool's lifecycle and closes it (removing every live segment) after
  the drain, even on error.

The executor (:meth:`repro.dataflow.plan.Plan.run`) owns every
cross-cutting concern: wall-clock attribution per stage, row/batch
counting, resident-row tracking, and threading the one validated
:class:`~repro.dataflow.config.RunConfig` to every ``connect`` call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Iterator, Protocol, runtime_checkable

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids import cycles
    from repro.dataflow.config import RunConfig
    from repro.dataflow.plan import PlanResult


@dataclass
class StageStats:
    """What one stage did during a plan run.

    The dataflow sibling of ``SimStats`` / ``IngestStats`` / ``DtwStats``,
    but uniform across every stage: rows and blocks through the stage,
    the wall time attributable to the stage alone (its ``connect`` cost
    plus its streaming self-time, upstream pull time excluded), and the
    high-water mark of rows the stage held resident at once.
    """

    name: str
    rows: int = 0
    batches: int = 0
    wall_seconds: float = 0.0
    peak_resident_rows: int = 0
    #: Spill segments this stage wrote under a memory budget.
    spill_files: int = 0
    #: Bytes this stage evicted to disk under a memory budget.
    bytes_spilled: int = 0
    #: Bytes this stage read back from its spill segments.
    bytes_restored: int = 0
    #: Wall time spent writing and reading spill segments.
    spill_seconds: float = 0.0

    @property
    def rows_per_sec(self) -> float:
        """Stage throughput over its own wall time (0 when untimed)."""
        if self.wall_seconds <= 0:
            return 0.0
        return self.rows / self.wall_seconds

    def render(self, name_width: int | None = None) -> str:
        """One aligned telemetry line (the CLI prints one per stage).

        ``name_width`` pads the stage label; callers rendering a table
        pass the widest name so long labels never shift the columns
        (:func:`render_stage_stats` computes it).
        """
        width = max(len(self.name), 12) if name_width is None else name_width
        line = (
            f"stage {self.name:<{width}} {self.rows:>12,} rows {self.batches:>6,} batches "
            f"{self.wall_seconds:9.3f}s {self.rows_per_sec:14,.0f} rows/s "
            f"peak resident {self.peak_resident_rows:,} rows"
        )
        if self.spill_files or self.bytes_spilled or self.bytes_restored:
            line += (
                f" spill_files {self.spill_files} bytes_spilled {self.bytes_spilled:,}"
                f" bytes_restored {self.bytes_restored:,} spill {self.spill_seconds:.3f}s"
            )
        return line


def render_stage_stats(stats: tuple[StageStats, ...] | list[StageStats]) -> str:
    """The per-stage telemetry table as printable text.

    The stage-name column is sized to the longest name in the table, so a
    stage label wider than the old fixed 12 characters no longer shoves
    every later column out of alignment.
    """
    width = max([12, *(len(s.name) for s in stats)])
    return "\n".join(("dataflow plan:", *(f"  {s.render(name_width=width)}" for s in stats)))


@runtime_checkable
class Stage(Protocol):
    """A streaming stage: source (``upstream is None``), transform or sink."""

    #: Stage label used in telemetry and error messages.
    name: str

    def connect(self, upstream: Iterator[Any] | None, config: "RunConfig") -> Iterator[Any]:
        """Wire the stage into the plan and return its output stream.

        Called once, in plan order, before any block flows; expensive
        setup here (catalog generation, cache warming) is attributed to
        this stage's wall time.  The returned iterator must pass every
        block downstream — sinks fold and re-yield.
        """
        ...  # pragma: no cover - protocol


@runtime_checkable
class DeriveStage(Protocol):
    """A post-stream stage computing results from earlier contributions."""

    name: str

    def derive(self, result: "PlanResult", config: "RunConfig") -> None:
        """Compute and attach this stage's result to ``result``."""
        ...  # pragma: no cover - protocol
