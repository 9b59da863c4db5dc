"""Ablation A5: ISP-side proxy caches for repeated local accesses.

Paper Section V: because incognito browsing defeats browser caches,
"objects accessed multiple times by a single user or a small number of
users should be locally cached closer to end-users" — e.g. in ISP proxy
caches.  We replay the workload with and without a per-continent ISP
proxy layer and report how much request traffic the proxies absorb
before it reaches the CDN.
"""

from __future__ import annotations

from conftest import BENCH_SEED, print_header, replay

from repro.cdn.simulator import SimulationConfig


def replay_with(pipeline_result, proxies: bool):
    catalog_bytes = sum(c.total_bytes() for c in pipeline_result.catalogs.values())
    config = SimulationConfig(
        seed=BENCH_SEED + 1,
        cache_capacity_bytes=max(1, int(0.4 * catalog_bytes)),
        isp_proxies=proxies,
    )
    simulator, records = replay(pipeline_result, config)
    requests = sum(w.request_count for w in pipeline_result.workloads.values())
    return simulator, len(records), requests


def test_ablation_isp_proxy(benchmark, pipeline_result):
    runs = {}

    def sweep():
        runs["off"] = replay_with(pipeline_result, proxies=False)
        runs["on"] = replay_with(pipeline_result, proxies=True)
        return runs

    benchmark.pedantic(sweep, rounds=1, iterations=1)

    (_, cdn_off, total), (sim_on, cdn_on, _) = runs["off"], runs["on"]
    absorbed = cdn_off - cdn_on
    print_header("Ablation A5 — ISP proxy caches (paper Section V)",
                 "proxies absorb repeated local accesses before they reach the CDN")
    print(f"  workload requests:        {total:>9,}")
    print(f"  reach CDN without proxy:  {cdn_off:>9,}")
    print(f"  reach CDN with proxy:     {cdn_on:>9,}  (absorbed {absorbed:,}, {absorbed / cdn_off:6.1%})")
    print(f"  proxy layer hit ratio:    {sim_on.proxies.hit_ratio:>9.1%}")

    # Proxies can only reduce the CDN-visible request volume.
    assert cdn_on < cdn_off
    assert sim_on.proxies.total_lookups > 0
