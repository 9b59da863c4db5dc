"""In-memory span tracer wrapped around the program's public calls.

Only the traced repetition's interpreter installs it (``install``); the
timed repetitions run the program untouched.  Every wrapped call or
iterator pull is a span.  A span's *self* time is its duration minus the
spans nested inside it, so the self times of all spans add up to the time
covered by the outermost spans, and ``wall_s`` minus that sum is the time
no wrapped call accounts for (the dataflow executor, projection and
iterator proxies).

Calls made once per request inside the serve loop are only aggregated per
name (calls, total and self seconds); the few coarse spans (generation,
warm-up, batch pulls, ingest, analysis) are also kept one by one with
their parent, start and end, and written out when the benchmark ends.
"""

from __future__ import annotations

import importlib
from time import perf_counter
from typing import Any, Callable, Iterator

#: (module, attribute path, span name) of the calls traced in every traced
#: run.  They all run in the process that runs the plan.
COARSE_CALLS = (
    ("repro.workload.generator", "WorkloadGenerator.generate_all", "workload.generate_all"),
    ("repro.cdn.simulator", "CdnSimulator.warm", "cdn.warm"),
    ("repro.trace.writer", "TraceWriter.write_batch", "trace.write"),
    ("repro.core.dataset", "DatasetBuilder.add", "core.ingest"),
    ("repro.core.dataset", "DatasetBuilder.finish", "core.ingest"),
    ("repro.core.report", "run_passes", "core.passes"),
    ("repro.core.report", "size_cdf", "core.figures"),
    ("repro.core.report", "popularity_distribution", "core.figures"),
    ("repro.core.report", "content_age_survival", "core.figures"),
    ("repro.core.report", "hit_ratio_analysis", "core.figures"),
    ("repro.core.report", "cluster_popularity_trends", "core.dtw"),
)

#: Calls returning an iterator: each pull is a span, and the length of
#: every pulled block is added to the span's item count.
COARSE_PULLS = (
    ("repro.workload.generator", "WorkloadGenerator.merged_request_batches", "workload.stream"),
    ("repro.trace.reader", "TraceReader.iter_batches", "trace.read"),
)

#: The simulator's per-request calls.  Traced only when the simulation runs
#: in the traced interpreter: with shard workers they run in other processes.
PER_REQUEST_CALLS = (
    ("repro.cdn.server", "EdgeServer.serve", "cdn.edge"),
    ("repro.cdn.cache", "Cache.apply_pressure", "cdn.churn"),
    ("repro.cdn.origin", "OriginServer.is_published", "cdn.origin"),
    ("repro.cdn.origin", "OriginServer.check_access", "cdn.origin"),
    ("repro.cdn.origin", "OriginServer.current_version", "cdn.origin"),
    ("repro.cdn.http", "ClientModel.intent", "cdn.http"),
    ("repro.cdn.simulator", "decide_response", "cdn.http"),
    ("repro.cdn.browser", "BrowserCache.get", "cdn.browser"),
    ("repro.cdn.browser", "BrowserCache.put", "cdn.browser"),
    ("repro.cdn.metrics", "SimulationMetrics.record", "cdn.metrics"),
    ("repro.cdn.simulator", "counter_rng", "stats.rng"),
    ("repro.trace.anonymize", "Anonymizer.url", "trace.anonymize"),
    ("repro.trace.anonymize", "Anonymizer.user", "trace.anonymize"),
    ("repro.trace.batch", "BatchBuilder.append", "trace.batch_build"),
    ("repro.trace.batch", "BatchBuilder.finish", "trace.batch_build"),
)


class Tracer:
    """Spans of one traced run, kept in memory until :meth:`to_json`."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self._origin = perf_counter()
        #: One frame per open span: [seconds covered by child spans, id of
        #: the nearest recorded span].
        self._stack: list[list[Any]] = []
        #: name -> [calls, total seconds, self seconds, items]
        self.totals: dict[str, list[float]] = {}
        self.spans: list[dict[str, Any]] = []

    def _totals(self, name: str) -> list[float]:
        return self.totals.setdefault(name, [0, 0.0, 0.0, 0])

    def traced_call(self, fn: Callable, name: str, record: bool) -> Callable:
        """``fn`` wrapped so that every call is a span called ``name``."""
        totals = self._totals(name)
        stack = self._stack
        spans = self.spans
        origin = self._origin
        run_id = self.run_id

        def traced(*args, **kwargs):
            parent = stack[-1][1] if stack else None
            span_id = len(spans) if record else parent
            if record:
                spans.append({"run_id": run_id, "id": span_id, "parent": parent, "name": name})
            frame = [0.0, span_id]
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                elapsed = end - start
                totals[0] += 1
                totals[1] += elapsed
                totals[2] += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed
                if record:
                    spans[span_id]["start_s"] = start - origin
                    spans[span_id]["end_s"] = end - origin

        return traced

    def traced_pulls(self, fn: Callable, name: str) -> Callable:
        """``fn`` wrapped so that every pull of the iterator it returns is a
        recorded span called ``name``, counting the pulled blocks' lengths."""
        pull = self.traced_call(next, name, record=True)
        totals = self._totals(name)

        def traced(*args, **kwargs) -> "_Pulls":
            return _Pulls(iter(fn(*args, **kwargs)), pull, totals)

        return traced

    def self_seconds(self, name: str) -> float:
        return self.totals[name][2] if name in self.totals else 0.0

    def calls(self, name: str) -> int:
        return int(self.totals[name][0]) if name in self.totals else 0

    def items(self, name: str) -> int:
        return int(self.totals[name][3]) if name in self.totals else 0

    def covered_seconds(self) -> float:
        """Time covered by the outermost spans: the sum of all self times."""
        return sum(total[2] for total in self.totals.values())

    def to_json(self) -> dict[str, Any]:
        return {
            "run_id": self.run_id,
            "spans": self.spans,
            "aggregates": [
                {"name": name, "calls": int(calls), "total_s": total, "self_s": own, "items": int(items)}
                for name, (calls, total, own, items) in sorted(self.totals.items())
            ],
        }


class _Pulls:
    """Iterator whose every ``next`` (the last, raising one included) is a span."""

    __slots__ = ("_inner", "_pull", "_totals")

    def __init__(self, inner: Iterator, pull: Callable, totals: list[float]):
        self._inner = inner
        self._pull = pull
        self._totals = totals

    def __iter__(self) -> "_Pulls":
        return self

    def __next__(self):
        block = self._pull(self._inner)
        self._totals[3] += len(block)
        return block


def install(tracer: Tracer, in_process_simulation: bool, simulate_span: str) -> None:
    """Wrap the traced calls in place; the interpreter is discarded after.

    ``simulate_span`` names the pulls of ``CdnSimulator.run_batches``:
    ``cdn.serve`` when the simulation runs in this process, ``cdn.dispatch``
    when shard workers serve it and this process only dispatches and merges.
    """
    for module, path, name in COARSE_CALLS:
        _patch(module, path, lambda fn, name=name: tracer.traced_call(fn, name, record=True))
    for module, path, name in COARSE_PULLS:
        _patch(module, path, lambda fn, name=name: tracer.traced_pulls(fn, name))
    _patch(
        "repro.cdn.simulator",
        "CdnSimulator.run_batches",
        lambda fn: tracer.traced_pulls(fn, simulate_span),
    )
    if in_process_simulation:
        for module, path, name in PER_REQUEST_CALLS:
            _patch(module, path, lambda fn, name=name: tracer.traced_call(fn, name, record=False))


def _patch(module_name: str, path: str, wrap: Callable[[Callable], Callable]) -> None:
    owner: Any = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for parent in parents:
        owner = getattr(owner, parent)
    setattr(owner, attr, wrap(getattr(owner, attr)))
