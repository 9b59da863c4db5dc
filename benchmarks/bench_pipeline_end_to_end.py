"""End-to-end pipeline: one streaming dataflow plan.

Times the full generate → simulate → ingest → figure battery as one
:class:`~repro.dataflow.plan.Plan` run with ``keep_store=False`` over the
standard benchmark workload: blocks flow straight from the simulator
through the accumulator ingest, so the resident set stays one batch
window however long the trace is (asserted).  Wall seconds, the peak
resident rows and the per-stage wall times land in ``BENCH_results.json``.
"""

from __future__ import annotations

import time

from conftest import BENCH_SEED, print_header, record_extra

from repro.dataflow import Plan, RunConfig


def test_pipeline_end_to_end(benchmark):
    # Only the scale comes from the environment (REPRO_SCALE).  A
    # sub-trace batch size makes the streaming window visible even at
    # tiny scale (batch boundaries provably do not change the output).
    config = RunConfig.resolve(
        env={},
        seed=BENCH_SEED,
        scale=RunConfig.resolve().scale,
        keep_store=False,
        run_clustering=False,
        batch_size=8192,
    )
    runs: dict[str, tuple] = {}

    def sweep():
        start = time.perf_counter()
        plan_result = Plan(config).generate().simulate().ingest().analyze().run()
        runs["plan"] = (time.perf_counter() - start, plan_result)
        return runs

    benchmark.pedantic(sweep, rounds=1, iterations=1)

    plan_seconds, plan_result = runs["plan"]
    assert plan_result.report is not None

    by_name = {s.name: s for s in plan_result.stage_stats}
    plan_peak = by_name["ingest"].peak_resident_rows
    total = by_name["ingest"].rows
    assert plan_peak < total  # streaming never held the whole trace

    print_header(
        "pipeline_end_to_end",
        "single-pass streaming plan holds one batch window, not the trace",
    )
    print(f"rows: {total:,}")
    print(f"plan (streaming, keep_store=False): {plan_seconds:8.2f}s  peak resident {plan_peak:,} rows")
    print(plan_result.render_stats())

    record_extra(
        "pipeline_end_to_end",
        rows=total,
        plan_seconds=round(plan_seconds, 6),
        plan_peak_resident_rows=plan_peak,
        stage_wall_seconds={
            s.name: round(s.wall_seconds, 6) for s in plan_result.stage_stats
        },
    )
