"""repro — reproduction of *The Internet is for Porn: Measurement and
Analysis of Online Adult Traffic* (Ahmed, Shafiq, Liu; IEEE ICDCS 2016).

The paper measures a week of HTTP logs from a commercial CDN serving
several dozen adult websites.  Those logs are proprietary, so this library
rebuilds the entire stack from scratch:

* :mod:`repro.workload` — a synthetic workload generator calibrated to
  every distribution the paper publishes (five site profiles V-1, V-2,
  P-1, P-2, S-1);
* :mod:`repro.cdn` — a CDN simulator (geo routing, pluggable edge caches,
  video chunking, browser caches with incognito modelling, full HTTP
  status semantics) that turns workload requests into HTTP log records;
* :mod:`repro.trace` — the log-record model with streaming CSV/JSONL/
  binary I/O and anonymisation;
* :mod:`repro.core` — the paper's analysis pipeline, figure by figure,
  including from-scratch DTW and agglomerative hierarchical clustering;
* :mod:`repro.stats` — the supporting statistics toolkit;
* :mod:`repro.dataflow` — one :class:`Plan` that composes the stages above
  and runs them as a single streaming pass under one :class:`RunConfig`.

Quickstart::

    from repro import Plan, RunConfig

    config = RunConfig.resolve(seed=42, scale="tiny")
    result = Plan(config).generate().simulate().ingest().analyze().run()
    print(result.report.render_text())
"""

from repro.cdn import CdnSimulator, SimulationConfig
from repro.core import Study, StudyReport, TraceDataset
from repro.dataflow import Plan, PlanResult, RunConfig
from repro.errors import ReproError
from repro.trace import LogRecord, TraceReader, TraceWriter
from repro.types import CacheStatus, ContentCategory, DeviceType, TrendClass
from repro.workload import ALL_PROFILES, PROFILES_BY_NAME, ScaleConfig, SiteProfile, WorkloadGenerator

__version__ = "1.0.0"

__all__ = [
    "ALL_PROFILES",
    "CacheStatus",
    "CdnSimulator",
    "ContentCategory",
    "DeviceType",
    "LogRecord",
    "PROFILES_BY_NAME",
    "Plan",
    "PlanResult",
    "ReproError",
    "RunConfig",
    "ScaleConfig",
    "SimulationConfig",
    "SiteProfile",
    "Study",
    "StudyReport",
    "TraceDataset",
    "TraceReader",
    "TraceWriter",
    "TrendClass",
    "WorkloadGenerator",
    "__version__",
]
