"""Ablation A7: streaming playback vs whole-object video delivery.

Paper Section V notes that "customized caching strategies for streaming
video content can also be implemented by the CDN" and that the CDN
treats video chunks as separate cache objects.  In playback mode each
viewing becomes a stream of sequential 206 segment downloads with seeks
and abandonment; we compare the resulting traffic mix and cache
behaviour against the default per-viewing model.
"""

from __future__ import annotations

import numpy as np
from conftest import BENCH_SEED, print_header, replay

from repro.cdn.simulator import SimulationConfig


def replay_with(pipeline_result, playback: bool):
    catalog_bytes = sum(c.total_bytes() for c in pipeline_result.catalogs.values())
    config = SimulationConfig(
        seed=BENCH_SEED + 1,
        cache_capacity_bytes=max(1, int(0.4 * catalog_bytes)),
        playback_mode=playback,
    )
    # V-1 carries the video traffic; replay its workload only to bound cost.
    simulator, records = replay(pipeline_result, config, sites=("V-1",))
    return simulator, records, pipeline_result.workloads["V-1"].request_count


def test_ablation_streaming_playback(benchmark, pipeline_result):
    runs = {}

    def sweep():
        runs["viewing"] = replay_with(pipeline_result, playback=False)
        runs["playback"] = replay_with(pipeline_result, playback=True)
        return runs

    benchmark.pedantic(sweep, rounds=1, iterations=1)

    print_header("Ablation A7 — streaming playback mode (V-1 workload)",
                 "segment streams multiply 206s; abandonment caps byte volume")
    for label in ("viewing", "playback"):
        simulator, records, viewings = runs[label]
        share_206 = int(np.count_nonzero(records.status_code == 206)) / len(records)
        bytes_served = int(records.bytes_served.sum())
        print(
            f"  {label:8}: viewings={viewings:,} log records={len(records):,} "
            f"206 share={share_206:6.1%} bytes={bytes_served / 1e9:7.1f} GB "
            f"hit ratio={simulator.metrics.overall_hit_ratio:6.1%}"
        )

    _, viewing_records, viewings = runs["viewing"]
    _, playback_records, _ = runs["playback"]
    # Playback multiplies log records (one per segment) ...
    assert len(playback_records) > len(viewing_records)
    # ... and 206 dominates the playback log.
    share_206 = int(np.count_nonzero(playback_records.status_code == 206)) / len(playback_records)
    assert share_206 > 0.5
    # Abandonment keeps byte volume below download-everything levels.
    playback_bytes = int(playback_records.bytes_served.sum())
    full_bytes = int(viewing_records.object_size[np.isin(viewing_records.status_code, (200, 206))].sum())
    assert playback_bytes < full_bytes
