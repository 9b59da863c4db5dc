"""Shared fixtures for the figure-reproduction benchmarks.

One plan run (generate → simulate → ingest) is shared by every benchmark;
each ``bench_figNN`` file then times its *analysis* step and prints the
rows/series the corresponding paper figure reports.  The run's
:class:`~repro.dataflow.config.RunConfig` fixes the seed and reads every
other knob from its ``REPRO_*`` environment variable; the scale comes
from ``REPRO_SCALE`` (tiny | small | medium; default small — big enough
for stable distribution shapes, small enough to run on a laptop in well
under a minute).

The ablation benchmarks instead replay the run's workloads through fresh
simulators under other configurations (:func:`replay`).

Every benchmark run additionally appends one machine-readable record per
executed ``bench_*`` test to ``BENCH_results.json`` at the repo root
(figure id, outcome, wall time, scale, plus whatever extra
payload the benchmark registered via :func:`record_extra` — e.g. the
``DtwStats`` of the clustering figures), seeding the performance
trajectory across PRs.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import pytest

from repro.cdn.simulator import CdnSimulator, SimulationConfig
from repro.dataflow import Plan, PlanResult, RunConfig
from repro.trace.batch import RecordBatch
from repro.workload.generator import WorkloadGenerator

BENCH_SEED = 2016  # the paper's year

#: Machine-readable per-run benchmark records land here (repo root).
RESULTS_PATH = Path(__file__).resolve().parent.parent / "BENCH_results.json"

_records: list[dict] = []
_extras: dict[str, dict] = {}


def record_extra(figure: str, **payload) -> None:
    """Attach extra machine-readable payload to a figure's benchmark record.

    ``figure`` is the benchmark file stem without the ``bench_`` prefix
    (e.g. ``"fig08_dtw_clustering"``); the payload is merged into the
    record written to ``BENCH_results.json``.
    """
    _extras.setdefault(figure, {}).update(payload)


def _figure_id(item: pytest.Item) -> str:
    stem = Path(str(item.fspath)).stem
    return stem.removeprefix("bench_")


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item: pytest.Item, call: pytest.CallInfo):
    outcome = yield
    report = outcome.get_result()
    if report.when != "call":
        return
    figure = _figure_id(item)
    record: dict = {
        "figure": figure,
        "test": item.name,
        "outcome": report.outcome,
        "wall_seconds": round(call.duration, 6),
        "scale": RunConfig.resolve().scale,
        "seed": BENCH_SEED,
        "timestamp": round(time.time(), 3),
    }
    benchmark = item.funcargs.get("benchmark") if hasattr(item, "funcargs") else None
    if benchmark is not None:
        try:
            record["benchmark_seconds"] = float(benchmark.stats.stats.mean)
        except (AttributeError, TypeError):
            pass
    record.update(_extras.pop(figure, {}))
    _records.append(record)


def pytest_sessionfinish(session: pytest.Session, exitstatus: int) -> None:
    if not _records:
        return
    existing: list[dict] = []
    if RESULTS_PATH.exists():
        try:
            loaded = json.loads(RESULTS_PATH.read_text())
            if isinstance(loaded, list):
                existing = loaded
        except (OSError, ValueError):
            existing = []
    existing.extend(_records)
    RESULTS_PATH.write_text(json.dumps(existing, indent=2) + "\n")


@pytest.fixture(scope="session")
def pipeline_result() -> PlanResult:
    return Plan(RunConfig.resolve(seed=BENCH_SEED)).generate().simulate().ingest().run()


@pytest.fixture(scope="session")
def dataset(pipeline_result: PlanResult):
    return pipeline_result.dataset


@pytest.fixture(scope="session")
def catalogs(pipeline_result: PlanResult):
    return pipeline_result.catalogs


def replay(
    pipeline_result: PlanResult,
    config: SimulationConfig,
    sites: tuple[str, ...] | None = None,
    push: bool = False,
) -> tuple[CdnSimulator, RecordBatch]:
    """Serve the run's merged request stream again, on a new simulator.

    The simulator runs ``config``; it warms with every catalog when the
    config asks for warm caches, and with ``push`` replicates popular
    objects (:meth:`~repro.cdn.simulator.CdnSimulator.enable_push`).
    ``sites`` restricts the stream to those sites' requests.  Returns the
    simulator and every log record it emitted, as one batch.
    """
    workloads = pipeline_result.workloads
    if sites is not None:
        workloads = {name: workloads[name] for name in sites}
    simulator = CdnSimulator(config=config)
    if config.warm_caches:
        simulator.warm(pipeline_result.catalogs.values())
    if push:
        simulator.enable_push(pipeline_result.catalogs.values())
    stream = WorkloadGenerator().merged_request_batches(workloads)
    return simulator, RecordBatch.concat(list(simulator.run_batches(stream)))


def print_header(figure: str, claim: str) -> None:
    print()
    print(f"=== {figure} ===")
    print(f"paper: {claim}")
