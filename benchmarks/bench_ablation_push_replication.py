"""Ablation A4: push-based replication of popular injected objects.

Paper Section V: "content delivery networks can improve performance and
reduce network traffic by pushing copies of popular adult objects to
locations closer to their end-users", with Section IV-B singling out
diurnal and long-lived objects as the ones to push.

We replay the same workload with replication off and on, and report the
request hit ratio, mean user-perceived first-byte latency, and the origin
traffic saved per pushed byte.
"""

from __future__ import annotations

from conftest import BENCH_SEED, print_header, replay

from repro.cdn.simulator import SimulationConfig


def replay_with(pipeline_result, push: bool):
    catalog_bytes = sum(c.total_bytes() for c in pipeline_result.catalogs.values())
    config = SimulationConfig(seed=BENCH_SEED + 1, cache_capacity_bytes=max(1, int(0.4 * catalog_bytes)))
    simulator, _ = replay(pipeline_result, config, push=push)
    return simulator


def test_ablation_push_replication(benchmark, pipeline_result):
    runs = {}

    def sweep():
        runs["off"] = replay_with(pipeline_result, push=False)
        runs["on"] = replay_with(pipeline_result, push=True)
        return runs

    benchmark.pedantic(sweep, rounds=1, iterations=1)

    off, on = runs["off"], runs["on"]
    print_header("Ablation A4 — push replication of popular diurnal/long-lived objects",
                 "pushing popular injected objects closer to users (paper Section V)")
    for label, simulator in (("replication off", off), ("replication on ", on)):
        print(
            f"  {label}: hit ratio {simulator.metrics.overall_hit_ratio:6.1%}  "
            f"mean latency {simulator.metrics.overall_mean_latency_ms:6.1f} ms  "
            f"origin bytes {simulator.origin.bytes_served / 1e9:7.2f} GB"
        )
    stats = on.push_stats
    print(f"  pushed: {stats.objects_pushed} objects / {stats.chunks_pushed} chunks / {stats.bytes_pushed / 1e9:.2f} GB")

    # Pushing can only help hit ratio and latency on this workload.
    assert on.metrics.overall_hit_ratio >= off.metrics.overall_hit_ratio - 0.002
    assert on.metrics.overall_mean_latency_ms <= off.metrics.overall_mean_latency_ms + 0.5
    assert stats.objects_pushed > 0
