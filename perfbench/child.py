"""One repetition of a benchmark workload, in a fresh interpreter.

``run.py`` starts this script once per repetition::

    python3 perfbench/child.py WORKLOAD SEED SCALE WORKDIR MODE

``MODE`` is ``warmup`` (untimed: import every module so the bytecode cache
is filled, build the DTW kernel, and for ``tracegen-sharded`` write the
sequential trace whose digest the sharded runs of ``SEED`` must match),
``timed``, ``traced`` (the same repetition with the span tracer installed)
or ``write`` (write ``reanalyze``'s input trace; run by a ``reanalyze``
repetition during its set-up, in a process of its own so that the timed
interpreter's memory holds only what the re-analysis needs).

The script prints protocol lines prefixed with ``@@perfbench``: ``ready``
once set-up is done (the parent times set-up from process start to this
line), then one JSON object describing the timed phase.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import sys
import time
from collections import OrderedDict
from pathlib import Path

PROTOCOL = "@@perfbench"

#: Iterations of ``reference_loop`` and the seconds they take at the
#: reference host speed (the build host's fast state: Intel Xeon at
#: 2.1 GHz, 2 vCPUs, Python 3.11).  A repetition's host factor is the
#: loop's measured time over this; times divided by it are in seconds at
#: the reference speed.
REFERENCE_LOOP_ITERATIONS = 25_000
REFERENCE_LOOP_S = 0.3

#: Memory budget of the sharded trace generation, in bytes: small enough
#: that the frontier merge spills.
SHARDED_MEMORY_BUDGET = 4096


def emit(kind: str, payload: object = None) -> None:
    print(PROTOCOL, kind, json.dumps(payload), flush=True)


def usable_cpus() -> int:
    return len(os.sched_getaffinity(0))


def file_digest(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def report_digest(report) -> str:
    canonical = json.dumps(report.to_summary_dict(), sort_keys=True)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def cpu_seconds() -> tuple[float, float]:
    """User plus system seconds of this process and of its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime, children.ru_utime + children.ru_stime


def reset_peak_rss() -> None:
    """Restart the peak-RSS high-water mark at the current RSS (Linux).

    Raises ``OSError`` where that is not possible: the repetition then
    fails rather than report the whole process's peak under the same name.
    """
    with open("/proc/self/clear_refs", "w") as handle:
        handle.write("5")


def reference_loop() -> float:
    """Seconds a fixed mix of interpreter, hashing and numpy work takes now.

    The mix resembles the simulator's hot path (an LRU of string keys, a
    keyed blake2b digest and a Philox generator per iteration), so the
    host's contention slows it about as much as it slows the program; but
    it runs none of the program's code, so a faster program leaves it as
    it is.  Timed just before and just after the timed phase, it measures
    how fast this shared host runs while the plan runs.
    """
    import numpy as np

    lru: OrderedDict[str, int] = OrderedDict()
    start = time.perf_counter()
    for i in range(REFERENCE_LOOP_ITERATIONS):
        key = f"object-{(i * 7919) % 3000}"
        if key in lru:
            lru.move_to_end(key)
        else:
            lru[key] = i
            if len(lru) > 1000:
                lru.popitem(last=False)
        hashlib.blake2b(key.encode(), key=b"reference", digest_size=32).hexdigest()
        np.random.Generator(np.random.Philox(key=i)).random()
    return time.perf_counter() - start


def live_children() -> list[int]:
    """Pids of this process's children that are still running."""
    pids: list[int] = []
    for task in Path("/proc/self/task").iterdir():
        try:
            pids.extend(int(pid) for pid in (task / "children").read_text().split())
        except OSError:
            continue
    return pids


def sequential_trace(seed: int, scale: str, path: Path) -> dict:
    """Write the trace through the program's sequential generate path."""
    from repro.dataflow import Plan, RunConfig

    config = RunConfig.resolve(env={}, seed=seed, scale=scale, sim_workers=1)
    result = Plan(config).generate().simulate().write_trace(path).run()
    return {"requests": result.sim_stats.requests}


def write_input_trace(workload: str, seed: int, scale: str, workdir: Path) -> dict:
    """Write reanalyze's input trace in a separate interpreter."""
    import subprocess

    command = [sys.executable, __file__, workload, str(seed), scale, str(workdir), "write"]
    completed = subprocess.run(command, stdout=subprocess.PIPE, text=True, check=True)
    results = [line for line in completed.stdout.splitlines() if line.startswith(f"{PROTOCOL} result ")]
    return json.loads(results[-1].split(" ", 2)[2])


def warm_up(workload: str, seed: int, scale: str, workdir: Path) -> dict:
    import importlib
    import pkgutil

    import repro
    from repro.core.dtw_backends import kernel_name

    for module in pkgutil.walk_packages(repro.__path__, "repro."):
        importlib.import_module(module.name)
    outcome: dict = {"kernel": kernel_name("auto")}
    if workload == "tracegen-sharded":
        path = workdir / "sequential.bin"
        sequential_trace(seed, scale, path)
        outcome["sequential_digest"] = file_digest(path)
    return outcome


def run_config(workload: str, seed: int, scale: str, workdir: Path):
    from repro.dataflow import RunConfig

    if workload == "study":
        return RunConfig.resolve(env={}, seed=seed, scale=scale, keep_store=False)
    if workload == "tracegen-sharded":
        return RunConfig.resolve(
            env={},
            seed=seed,
            scale=scale,
            sim_workers=usable_cpus(),
            memory_budget=SHARDED_MEMORY_BUDGET,
            spill_dir=str(workdir / "spill"),
        )
    return RunConfig.resolve(env={}, seed=seed, scale=scale)


def build_plan(workload: str, config, workdir: Path):
    from repro.dataflow import Plan

    plan = Plan(config)
    if workload == "study":
        return plan.generate().simulate().ingest().analyze()
    if workload == "tracegen-sharded":
        return plan.generate().simulate().write_trace(workdir / "trace.bin")
    return plan.read_trace(workdir / "input.bin").ingest().analyze()


def layer_metrics(
    tracer, result, wall_s: float, worker_cpu_s: float, written_bytes: int, read_bytes: int
) -> dict:
    """Every per-layer metric of the traced repetition."""
    sim = result.sim_stats
    dataset = result.dataset
    ingest = dataset.ingest_stats if dataset is not None else None
    report = result.report
    dtw = [c.dtw_stats for c in report.clustering.values() if c.dtw_stats] if report else []
    dtw_pairs = sum(stats.pairs_total for stats in dtw)
    dtw_resolved = sum(stats.pruned + stats.abandoned for stats in dtw)
    # The dispatcher, shard and worker figures describe shard workers; the
    # sequential simulator (study) and no simulator (reanalyze) report 0.
    parallel = sim is not None and sim.workers > 1
    busy = [shard.wall_seconds for shard in sim.shards] if parallel else [0.0]
    worker_peak_rss_mb = 0.0
    if parallel:
        worker_peak_rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    metrics = {
        "workload.generate_all_s": tracer.self_seconds("workload.generate_all"),
        "workload.stream_s": tracer.self_seconds("workload.stream"),
        "workload.requests": tracer.items("workload.stream"),
        "cdn.warm_s": tracer.self_seconds("cdn.warm"),
        "cdn.serve_s": tracer.self_seconds("cdn.serve"),
        "cdn.requests": sim.requests if sim is not None else 0,
        "cdn.records": sim.records if sim is not None else 0,
        "cdn.dispatch_s": tracer.self_seconds("cdn.dispatch"),
        "cdn.shard_busy_max_s": max(busy),
        "cdn.shard_busy_sum_s": sum(busy),
        "cdn.ideal_speedup": sim.ideal_speedup if parallel else 0.0,
        "cdn.overlap_fraction": sim.overlap_fraction if parallel else 0.0,
        "cdn.peak_resident_requests": sim.peak_resident_requests if parallel else 0,
        "cdn.queue_peak_max": max((s.queue_peak for s in sim.shards), default=0) if parallel else 0,
        "cdn.worker_cpu_s": worker_cpu_s if parallel else 0.0,
        "cdn.worker_peak_rss_mb": worker_peak_rss_mb,
        "spill.files": (sim.spill_files if sim else 0) + (ingest.spill_files if ingest else 0),
        "spill.bytes": (sim.bytes_spilled if sim else 0) + (ingest.bytes_spilled if ingest else 0),
        "spill.io_s": (sim.spill_seconds if sim else 0.0) + (ingest.spill_seconds if ingest else 0.0),
        "trace.write_s": tracer.self_seconds("trace.write"),
        "trace.write.bytes": written_bytes,
        "trace.read_s": tracer.self_seconds("trace.read"),
        "trace.read.rows": tracer.items("trace.read"),
        "trace.read.bytes": read_bytes,
        "core.ingest_s": tracer.self_seconds("core.ingest"),
        "core.ingest.rows": ingest.rows if ingest else 0,
        "core.ingest.peak_resident_bytes": ingest.peak_resident_bytes if ingest else 0,
        "core.passes_s": tracer.self_seconds("core.passes"),
        "core.figures_s": tracer.self_seconds("core.figures"),
        "core.dtw_s": tracer.self_seconds("core.dtw"),
        "core.dtw.pairs": dtw_pairs,
        "core.dtw.pruned_fraction": dtw_resolved / dtw_pairs if dtw_pairs else 0.0,
        "dataflow.unattributed_s": wall_s - tracer.covered_seconds(),
    }
    for layer in ("edge", "churn", "origin", "http", "browser", "metrics"):
        metrics[f"cdn.{layer}_s"] = tracer.self_seconds(f"cdn.{layer}")
        metrics[f"cdn.{layer}.calls"] = tracer.calls(f"cdn.{layer}")
    for layer in ("stats.rng", "trace.anonymize"):
        metrics[f"{layer}_s"] = tracer.self_seconds(layer)
        metrics[f"{layer}.calls"] = tracer.calls(layer)
    metrics["trace.batch_build_s"] = tracer.self_seconds("trace.batch_build")
    return metrics


def repetition(workload: str, seed: int, scale: str, workdir: Path, traced: bool) -> dict:
    # Set-up: imports, the DTW kernel, and reanalyze's input trace.
    import numpy

    import repro.cdn.simulator  # noqa: F401  (stage modules the plan imports lazily)
    import repro.core.dataset  # noqa: F401
    import repro.core.report  # noqa: F401
    import repro.trace.reader  # noqa: F401
    import repro.trace.writer  # noqa: F401
    import repro.workload.generator  # noqa: F401
    from repro.core.dtw_backends import kernel_name, resolve_kernel

    config = run_config(workload, seed, scale, workdir)
    resolve_kernel(config.dtw_kernel)
    written = None
    if workload == "reanalyze":
        written = write_input_trace(workload, seed, scale, workdir)
    tracer = None
    if traced:
        import tracer as tracing

        tracer = tracing.Tracer(run_id=f"{workload}-{seed}-{os.getpid()}-{time.time_ns()}")
        tracing.install(
            tracer,
            in_process_simulation=workload == "study",
            simulate_span="cdn.serve" if config.sim_workers == 1 else "cdn.dispatch",
        )
    emit("ready")

    loop_before = reference_loop()
    reset_peak_rss()
    own_before, children_before = cpu_seconds()
    start = time.perf_counter()
    result = build_plan(workload, config, workdir).run()
    wall_s = time.perf_counter() - start
    own_after, children_after = cpu_seconds()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    loop_after = reference_loop()

    sim = result.sim_stats
    if workload == "tracegen-sharded":
        digest = file_digest(result.trace_path)
        records = result.rows_written
        trace_bytes = result.trace_path.stat().st_size
    else:
        digest = report_digest(result.report)
        records = sim.records if workload == "study" else len(result.dataset)
        trace_bytes = (workdir / "input.bin").stat().st_size if workload == "reanalyze" else None
    outcome = {
        "wall_s": wall_s,
        "host_factor": (loop_before + loop_after) / (2 * REFERENCE_LOOP_S),
        "cpu_s": (own_after - own_before) + (children_after - children_before),
        "peak_rss_mb": peak_rss_mb,
        "records": records,
        "requests": sim.requests if written is None else written["requests"],
        "trace_bytes": trace_bytes,
        "digest": digest,
        "live_children": live_children(),
        "facts": {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "dtw_kernel": kernel_name(config.dtw_kernel),
            "usable_cpus": usable_cpus(),
            "sim_workers": config.sim_workers,
        },
    }
    if workload == "reanalyze":
        outcome["input_digest"] = file_digest(workdir / "input.bin")
    if tracer is not None:
        outcome["layers"] = layer_metrics(
            tracer,
            result,
            wall_s,
            worker_cpu_s=children_after - children_before,
            written_bytes=trace_bytes if workload == "tracegen-sharded" else 0,
            read_bytes=trace_bytes if workload == "reanalyze" else 0,
        )
        outcome["trace"] = tracer.to_json()
    return outcome


def main(argv: list[str]) -> int:
    workload, seed, scale, workdir, mode = argv
    workdir_path = Path(workdir)
    try:
        if mode == "warmup":
            outcome = warm_up(workload, int(seed), scale, workdir_path)
            emit("ready")
        elif mode == "write":
            outcome = sequential_trace(int(seed), scale, workdir_path / "input.bin")
        else:
            outcome = repetition(workload, int(seed), scale, workdir_path, mode == "traced")
    except Exception as exc:  # reported to the parent, which counts the repetition failed
        import traceback

        traceback.print_exc(file=sys.stderr)
        emit("result", {"error": f"{type(exc).__name__}: {exc}"})
        return 1
    emit("result", outcome)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
