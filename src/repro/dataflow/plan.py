"""Plan builder and executor for the streaming dataflow layer.

A :class:`Plan` composes the end-to-end measurement pipeline of the paper
— generate → simulate → tee(write trace) → ingest → figure battery — out
of the stage adapters each subsystem exposes, then :meth:`Plan.run`
executes it as **one streaming pass**: blocks flow straight from the
producing stage into every consumer, nothing materialises the full trace,
and peak memory stays bounded by the dispatch windows regardless of trace
length.

The builder validates composition as stages are added (stream kinds must
line up: ``requests`` between generate and simulate, columnar ``batches``
from the simulator or a trace file onward; exactly one source; analyses
need an ingest) and raises :class:`~repro.errors.PlanError` on the first
impossible graph rather than failing mid-run.

The executor owns every cross-cutting concern the subsystems used to
handle ad hoc:

* threading the one validated :class:`~repro.dataflow.config.RunConfig`
  into every stage (workers, queue depth, batch size, keep_store, …);
* the single drain loop — stages never pull from each other outside it;
* per-stage telemetry: each stage's output iterator is wrapped in an
  instrumented proxy measuring inclusive pull time, so stage *self* time
  is ``inclusive[i] − inclusive[i−1]`` plus the stage's ``connect`` setup
  cost, and rows / blocks / peak resident rows are counted uniformly;
* collecting stage contributions (dataset, simulator, report, rows
  written) onto one :class:`PlanResult` via the optional ``finish`` hook.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import TYPE_CHECKING, Any, Iterable, Iterator

from repro.dataflow.config import RunConfig
from repro.dataflow.stage import DeriveStage, Stage, StageStats, render_stage_stats
from repro.errors import PlanError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cdn.simulator import CdnSimulator, SimStats, SimulationConfig
    from repro.core.dataset import TraceDataset
    from repro.core.report import Study, StudyReport
    from repro.trace.batch import RecordBatch
    from repro.workload.catalog import ContentCatalog
    from repro.workload.generator import SiteWorkload


@dataclass
class PlanResult:
    """Everything a plan run produced, stage telemetry included.

    Streaming stages contribute their artefacts through their ``finish``
    hooks; fields a plan did not include stay ``None``.  ``batches`` is
    set only when the ingest kept its row store (``keep_store=True``).
    """

    config: RunConfig
    stage_stats: tuple[StageStats, ...] = ()
    workloads: "dict[str, SiteWorkload] | None" = None
    simulator: "CdnSimulator | None" = None
    sim_stats: "SimStats | None" = None
    dataset: "TraceDataset | None" = None
    batches: "list[RecordBatch] | None" = None
    report: "StudyReport | None" = None
    rows_written: int | None = None
    trace_path: Path | None = None

    def render_stats(self) -> str:
        """The per-stage telemetry table as printable text."""
        return render_stage_stats(self.stage_stats)

    @property
    def catalogs(self) -> "dict[str, ContentCatalog] | None":
        """Each generated site's catalog; ``None`` without a generate stage."""
        if not self.workloads:
            return None
        return {name: workload.catalog for name, workload in self.workloads.items()}

    @property
    def total_rows(self) -> int:
        """Rows through the widest stage (the plan's row count)."""
        return max((s.rows for s in self.stage_stats), default=0)


class _Instrumented:
    """Iterator proxy attributing pull time and row counts to a stage.

    ``inclusive`` accumulates the wall time spent inside ``next()`` —
    the stage's own work *plus* everything upstream of it, because
    streaming stages pull recursively.  The executor subtracts adjacent
    stages' inclusive times to recover per-stage self time.
    """

    __slots__ = ("_inner", "_stage", "_stats", "_resident_hook", "inclusive")

    def __init__(self, inner: Iterator[Any], stage: Stage, stats: StageStats):
        self._inner = inner
        self._stage = stage
        self._stats = stats
        self._resident_hook = getattr(stage, "resident_rows", None)
        self.inclusive = 0.0

    def __iter__(self) -> "_Instrumented":
        return self

    def __next__(self) -> Any:
        start = perf_counter()
        try:
            block = next(self._inner)
        finally:
            self.inclusive += perf_counter() - start
        stats = self._stats
        stats.rows += len(block)
        stats.batches += 1
        if self._resident_hook is not None:
            resident = int(self._resident_hook())
        else:
            resident = len(block)
        if resident > stats.peak_resident_rows:
            stats.peak_resident_rows = resident
        return block


#: Stream kinds flowing between streaming stages.
_REQUESTS = "requests"
_BATCHES = "batches"


class Plan:
    """Composable streaming pipeline over the repro subsystems.

    Build by chaining stage methods, then :meth:`run`::

        result = (
            Plan(RunConfig.resolve(seed=7, scale="tiny"))
            .generate()
            .simulate()
            .write_trace("trace.bin")
            .ingest()
            .analyze()
            .run()
        )
        print(result.render_stats())

    Composition errors (two sources, a transform before any source, an
    analysis without an ingest) raise :class:`~repro.errors.PlanError`
    at build time.
    """

    def __init__(self, config: RunConfig | None = None):
        self.config = config if config is not None else RunConfig.resolve()
        self._stages: list[Stage] = []
        self._derives: list[DeriveStage] = []
        self._kind: str | None = None
        self._has_ingest = False

    # -- generic composition ------------------------------------------------

    def add(self, stage: Stage, requires: str | None, produces: str) -> "Plan":
        """Append a streaming stage, checking the stream kinds line up."""
        if requires is None:
            if self._kind is not None:
                raise PlanError(
                    f"stage {stage.name!r} is a source but the plan already has one "
                    f"(current stream: {self._kind!r})"
                )
        elif self._kind != requires:
            have = "no source yet" if self._kind is None else f"a {self._kind!r} stream"
            raise PlanError(f"stage {stage.name!r} needs a {requires!r} stream but the plan has {have}")
        self._stages.append(stage)
        self._kind = produces
        return self

    def add_derive(self, stage: DeriveStage) -> "Plan":
        """Append a post-stream stage (runs after the drain, in order)."""
        self._derives.append(stage)
        return self

    # -- the canonical stages -----------------------------------------------

    def generate(self, profiles: "tuple | list | None" = None) -> "Plan":
        """Source: synthesise site workloads and stream merged requests."""
        from repro.workload.generator import GenerateStage

        return self.add(GenerateStage(profiles=profiles), requires=None, produces=_REQUESTS)

    def simulate(self, sim_config: "SimulationConfig | None" = None) -> "Plan":
        """Transform requests into simulated trace batches (sharded CDN).

        Without an explicit ``sim_config``, each data center's edge cache
        is sized from the upstream generate stage's catalogs
        (:func:`~repro.cdn.simulator.sized_simulation_config`) and
        pre-warmed with popular pre-existing objects: a real CDN is never
        cold when a measurement week starts.
        """
        from repro.cdn.simulator import SimulateStage

        workload_source = self._stages[-1] if self._stages else None
        return self.add(
            SimulateStage(sim_config=sim_config, workload_source=workload_source),
            requires=_REQUESTS,
            produces=_BATCHES,
        )

    def read_trace(self, path: str | Path, fmt: str | None = None) -> "Plan":
        """Source: stream batches out of a trace file."""
        from repro.trace.reader import TraceSourceStage

        return self.add(TraceSourceStage(path, fmt=fmt), requires=None, produces=_BATCHES)

    def source_batches(self, batches: "Iterable[RecordBatch]", name: str = "source") -> "Plan":
        """Source: stream batches from an in-memory iterable."""
        return self.add(_IterableSource(name, batches), requires=None, produces=_BATCHES)

    def write_trace(self, path: str | Path, fmt: str | None = None) -> "Plan":
        """Tee: persist the batch stream to ``path`` while passing it on."""
        from repro.trace.writer import TraceWriteStage

        return self.add(TraceWriteStage(path, fmt=fmt), requires=_BATCHES, produces=_BATCHES)

    def ingest(self) -> "Plan":
        """Sink: fold batches into a :class:`TraceDataset` (keep_store routed)."""
        from repro.core.dataset import IngestStage

        self.add(IngestStage(), requires=_BATCHES, produces=_BATCHES)
        self._has_ingest = True
        return self

    def analyze(self, study: "Study | None" = None) -> "Plan":
        """Derive: run the figure battery (:class:`Study`) over the dataset."""
        from repro.core.report import StudyStage

        self._require_ingest("analyze")
        return self.add_derive(StudyStage(study=study))

    def _require_ingest(self, what: str) -> None:
        if not self._has_ingest:
            raise PlanError(f"{what} needs an ingested dataset; add .ingest() to the plan first")

    # -- execution ----------------------------------------------------------

    def run(self) -> PlanResult:
        """Execute the plan as one streaming pass; returns the result."""
        if not self._stages:
            raise PlanError("cannot run an empty plan; add at least one source stage")
        config = self.config
        result = PlanResult(config=config)
        pool = None
        if config.memory_budget is not None:
            from repro.spill import MemoryBudget, SpillPool

            pool = SpillPool(MemoryBudget(config.memory_budget), spill_dir=config.spill_dir)
        try:
            stream: Iterator[Any] | None = None
            connected: list[tuple[Stage, StageStats, _Instrumented, float]] = []
            for stage in self._stages:
                stats = StageStats(name=stage.name)
                if pool is not None:
                    use_spill = getattr(stage, "use_spill", None)
                    if use_spill is not None:
                        use_spill(pool)
                start = perf_counter()
                stream = stage.connect(stream, config)
                setup = perf_counter() - start
                wrapper = _Instrumented(stream, stage, stats)
                connected.append((stage, stats, wrapper, setup))
                stream = wrapper

            assert stream is not None
            for _ in stream:
                pass

            all_stats: list[StageStats] = []
            upstream_inclusive = 0.0
            for stage, stats, wrapper, setup in connected:
                stats.wall_seconds = max(0.0, wrapper.inclusive - upstream_inclusive) + setup
                upstream_inclusive = wrapper.inclusive
                all_stats.append(stats)
            for stage, stats, _, _ in connected:
                finish = getattr(stage, "finish", None)
                if finish is not None:
                    finish(stats, result)

            for derive_stage in self._derives:
                stats = StageStats(name=derive_stage.name)
                start = perf_counter()
                derive_stage.derive(result, config)
                stats.wall_seconds = perf_counter() - start
                finish = getattr(derive_stage, "finish", None)
                if finish is not None:
                    finish(stats, result)
                all_stats.append(stats)
        finally:
            # The pool owns every live segment (and its tempdir when it
            # created one): close them even when a stage raised mid-drain.
            if pool is not None:
                pool.close()

        result.stage_stats = tuple(all_stats)
        return result


class _IterableSource:
    """Source stage over an in-memory batch iterable (tests, re-analysis)."""

    def __init__(self, name: str, batches: "Iterable[RecordBatch]"):
        self.name = name
        self._batches = batches

    def connect(self, upstream: Iterator[Any] | None, config: RunConfig) -> Iterator[Any]:
        return iter(self._batches)
