"""Streaming dataflow layer: stage graph over RecordBatch streams.

The end-to-end measurement pipeline — workload generation, CDN
simulation, trace persistence, accumulator ingest, the figure battery —
composed as an explicit :class:`Plan` of :class:`Stage` adapters and run
as one streaming pass under a single validated :class:`RunConfig`, with
uniform per-stage telemetry (:class:`StageStats`).
"""

from repro.dataflow.config import KNOBS, Knob, RunConfig
from repro.dataflow.plan import Plan, PlanResult
from repro.dataflow.stage import DeriveStage, Stage, StageStats, render_stage_stats

__all__ = [
    "KNOBS",
    "Knob",
    "RunConfig",
    "Plan",
    "PlanResult",
    "Stage",
    "DeriveStage",
    "StageStats",
    "render_stage_stats",
]
