"""End-to-end pipeline: generate → simulate → analyze in one call.

Convenience layer used by the examples, benchmarks and integration tests.
Since the dataflow refactor these entry points are thin wrappers over
:class:`repro.dataflow.Plan`: they assemble the stage graph (generate →
simulate → [tee to trace file] → ingest → study), resolve one validated
:class:`~repro.dataflow.config.RunConfig` (environment < keyword
arguments, see that module for the knob table), and run it as a single
streaming pass.  Outputs are bit-identical to the pre-dataflow
implementations — the golden-report and engine-equivalence suites pin
this — and every run now carries uniform per-stage telemetry
(``result.stage_stats``).
"""

from __future__ import annotations

from pathlib import Path

from repro.cdn.simulator import (
    DEFAULT_CACHE_CATALOG_FRACTION,  # noqa: F401  (re-exported; moved to the simulator)
    CdnSimulator,
    SimulationConfig,
)
from repro.core.dataset import TraceDataset
from repro.core.report import Study, StudyReport
from repro.dataflow import Plan, PlanResult, RunConfig, StageStats, render_stage_stats
from repro.errors import StorelessDatasetError
from repro.trace.batch import RecordBatch
from repro.trace.record import LogRecord
from repro.workload.catalog import ContentCatalog
from repro.workload.generator import SiteWorkload
from repro.workload.profiles import SiteProfile
from repro.workload.scale import ScaleConfig


class PipelineResult:
    """Everything a full pipeline run produces.

    ``batches`` and ``records`` are row-level views and exist only for
    ``keep_store=True`` runs; a storeless run raises
    :class:`~repro.errors.StorelessDatasetError` from either accessor
    instead of silently returning an empty list.
    """

    def __init__(
        self,
        workloads: dict[str, SiteWorkload],
        batches: list[RecordBatch] | None,
        dataset: TraceDataset,
        simulator: CdnSimulator,
        stage_stats: tuple[StageStats, ...] = (),
    ):
        self.workloads = workloads
        self._batches = batches
        self.dataset = dataset
        self.simulator = simulator
        #: Per-stage telemetry of the dataflow plan that produced this
        #: result (rows, batches, wall seconds, peak resident rows).
        self.stage_stats = stage_stats

    @property
    def batches(self) -> list[RecordBatch]:
        """The simulated trace as the list of emitted record batches."""
        if self._batches is None:
            raise StorelessDatasetError(
                "batches unavailable: pipeline ran with keep_store=False and dropped "
                "the rows after folding them; rerun with keep_store=True for row access"
            )
        return self._batches

    @property
    def records(self) -> list[LogRecord]:
        """The simulated log as a record list (materialised on demand;
        the batch/dataset view is the primary representation)."""
        if self._batches is None:
            raise StorelessDatasetError(
                "records unavailable: pipeline ran with keep_store=False and dropped "
                "the rows after folding them; rerun with keep_store=True for row access"
            )
        return self.dataset.records

    @property
    def catalogs(self) -> dict[str, ContentCatalog]:
        return {name: workload.catalog for name, workload in self.workloads.items()}

    def render_stage_stats(self) -> str:
        """The per-stage telemetry table as printable text."""
        return render_stage_stats(self.stage_stats)


def _resolve_config(
    seed: int | None,
    scale: ScaleConfig | str | None,
    keep_store: bool | None = None,
    sim_workers: int | None = None,
    sim_queue_depth: int | None = None,
    batch_size: int | None = None,
    memory_budget: int | None = None,
    spill_dir: str | None = None,
) -> RunConfig:
    """One RunConfig from wrapper kwargs: env < explicitly-passed values."""
    return RunConfig.resolve(
        seed=seed,
        scale=scale,
        keep_store=keep_store,
        sim_workers=sim_workers,
        sim_queue_depth=sim_queue_depth,
        batch_size=batch_size,
        memory_budget=memory_budget,
        spill_dir=spill_dir,
    )


def _wrap(result: PlanResult) -> PipelineResult:
    assert result.workloads is not None
    assert result.dataset is not None
    assert result.simulator is not None
    return PipelineResult(
        workloads=result.workloads,
        batches=result.batches,
        dataset=result.dataset,
        simulator=result.simulator,
        stage_stats=result.stage_stats,
    )


def run_pipeline(
    seed: int | None = None,
    scale: ScaleConfig | None = None,
    profiles: tuple[SiteProfile, ...] | None = None,
    sim_config: SimulationConfig | None = None,
    keep_store: bool | None = None,
    sim_workers: int | None = None,
    sim_queue_depth: int | None = None,
    memory_budget: int | None = None,
    spill_dir: str | None = None,
) -> PipelineResult:
    """Generate a synthetic week of adult-CDN traffic and index it.

    Returns the workloads (catalogs/populations/requests), the simulated
    log records, and a ready-to-analyse :class:`TraceDataset`.  Unless a
    ``sim_config`` pins a capacity, each data center's edge cache is sized
    to a fraction of the generated catalog and pre-warmed with popular
    pre-existing objects (a real CDN is never cold when a measurement week
    starts).

    Every keyword defaults to ``None`` = "not specified": unspecified
    knobs fall back to their ``REPRO_*`` environment variables and then
    the built-in defaults (seed 0, small scale, ``keep_store=True``, one
    worker — see :data:`repro.dataflow.config.KNOBS`).
    ``keep_store=False`` streams the simulated batches through the
    accumulator ingest and keeps only aggregates; ``sim_workers > 1``
    serves the simulation shards in parallel worker processes overlapped
    with generation, ``sim_queue_depth`` bounding each shard's in-flight
    window.  The emitted trace is bit-identical for any worker count or
    queue depth.
    """
    config = _resolve_config(
        seed, scale, keep_store, sim_workers, sim_queue_depth,
        memory_budget=memory_budget, spill_dir=spill_dir,
    )
    plan = Plan(config).generate(profiles).simulate(sim_config).ingest()
    return _wrap(plan.run())


def run_study(
    seed: int | None = None,
    scale: ScaleConfig | None = None,
    profiles: tuple[SiteProfile, ...] | None = None,
    sim_config: SimulationConfig | None = None,
    study: Study | None = None,
    keep_store: bool | None = None,
    sim_workers: int | None = None,
    sim_queue_depth: int | None = None,
    memory_budget: int | None = None,
    spill_dir: str | None = None,
) -> tuple[PipelineResult, StudyReport]:
    """Full pipeline plus the complete figure battery.

    Accepts and threads the same streaming/parallel knobs as
    :func:`run_pipeline` — a ``keep_store=False`` study runs the whole
    battery off the streaming aggregates and produces a report identical
    to the eager one.
    """
    config = _resolve_config(
        seed, scale, keep_store, sim_workers, sim_queue_depth,
        memory_budget=memory_budget, spill_dir=spill_dir,
    )
    plan = Plan(config).generate(profiles).simulate(sim_config).ingest().analyze(study)
    result = plan.run()
    assert result.report is not None
    return _wrap(result), result.report


def generate_trace_plan(
    path: str | Path,
    seed: int | None = None,
    scale: ScaleConfig | None = None,
    profiles: tuple[SiteProfile, ...] | None = None,
    sim_workers: int | None = None,
    sim_queue_depth: int | None = None,
    batch_size: int | None = None,
    memory_budget: int | None = None,
    spill_dir: str | None = None,
) -> PlanResult:
    """Generate a trace and stream it straight to ``path``.

    The batch stream flows from the simulator directly into the trace
    writer — no intermediate list, peak resident rows bounded by the
    dispatch windows regardless of trace length.  Returns the full
    :class:`~repro.dataflow.plan.PlanResult` (rows written, per-stage
    telemetry); :func:`generate_trace_file` is the count-only wrapper.
    """
    config = _resolve_config(
        seed, scale, keep_store=False, sim_workers=sim_workers,
        sim_queue_depth=sim_queue_depth, batch_size=batch_size,
        memory_budget=memory_budget, spill_dir=spill_dir,
    )
    return Plan(config).generate(profiles).simulate().write_trace(path).run()


def generate_trace_file(
    path: str | Path,
    seed: int | None = None,
    scale: ScaleConfig | None = None,
    profiles: tuple[SiteProfile, ...] | None = None,
    sim_workers: int | None = None,
    sim_queue_depth: int | None = None,
    memory_budget: int | None = None,
    spill_dir: str | None = None,
) -> int:
    """Generate a trace and write it to ``path``; returns records written."""
    result = generate_trace_plan(
        path,
        seed=seed,
        scale=scale,
        profiles=profiles,
        sim_workers=sim_workers,
        sim_queue_depth=sim_queue_depth,
        memory_budget=memory_budget,
        spill_dir=spill_dir,
    )
    assert result.rows_written is not None
    return result.rows_written
