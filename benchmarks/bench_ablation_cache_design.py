"""Ablations A2/A3: the paper's Section V cache-design suggestions.

* A2 — separate small/large-object caching platforms and trend-aware TTL
  revalidation (re-validate short-lived objects hourly, diurnal daily) vs
  a plain unified cache.
* A3 — incognito prevalence: how private browsing starves browsers'
  conditional requests and drives the 304 share towards zero.
"""

from __future__ import annotations

import numpy as np
from conftest import BENCH_SEED, print_header, replay

from repro.cdn.simulator import SimulationConfig


def test_ablation_cache_design(benchmark, pipeline_result):
    catalog_bytes = sum(c.total_bytes() for c in pipeline_result.catalogs.values())
    capacity = max(1, int(0.4 * catalog_bytes))
    variants = {
        "split tiers + trend TTL (paper design)": SimulationConfig(
            seed=BENCH_SEED + 1, cache_capacity_bytes=capacity
        ),
        "unified cache": SimulationConfig(
            seed=BENCH_SEED + 1, cache_capacity_bytes=capacity, split_small_object_cache=False
        ),
        "no trend-aware TTLs": SimulationConfig(
            seed=BENCH_SEED + 1, cache_capacity_bytes=capacity, trend_aware_ttl=False
        ),
    }
    results = {}

    def sweep():
        for label, config in variants.items():
            simulator, _records = replay(pipeline_result, config)
            results[label] = simulator.metrics.overall_hit_ratio
        return results

    benchmark.pedantic(sweep, rounds=1, iterations=1)

    print_header("Ablation A2 — cache design variants",
                 "separate small/large platforms + trend TTLs (paper Section V)")
    for label, hit_ratio in results.items():
        print(f"  {label:42} hit ratio {hit_ratio:6.1%}")

    assert all(0.3 <= v <= 0.99 for v in results.values())


def test_ablation_incognito(benchmark, pipeline_result):
    catalog_bytes = sum(c.total_bytes() for c in pipeline_result.catalogs.values())
    capacity = max(1, int(0.4 * catalog_bytes))
    shares = {}

    def sweep():
        for local_serve in (0.0, 0.75):
            config = SimulationConfig(
                seed=BENCH_SEED + 1,
                cache_capacity_bytes=capacity,
                browser_local_serve_prob=local_serve,
            )
            _, records = replay(pipeline_result, config)
            total = len(records)
            share_304 = int(np.count_nonzero(records.status_code == 304)) / total
            shares[local_serve] = share_304
        return shares

    benchmark.pedantic(sweep, rounds=1, iterations=1)

    print_header("Ablation A3 — browser caching vs 304 share",
                 "incognito-dominated browsing keeps the 304 share tiny (paper Section V)")
    for local_serve, share in shares.items():
        print(f"  local-serve prob {local_serve:4.2f} -> 304 share {share:6.2%}")

    # Forcing all cached copies through conditional GETs raises the 304
    # share; the realistic local-serving browser keeps it small.
    assert shares[0.0] > shares[0.75]
    assert shares[0.75] < 0.08
