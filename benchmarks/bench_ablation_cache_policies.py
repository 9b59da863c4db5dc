"""Ablation A1: cache replacement policy x capacity sweep.

Quantifies the paper's Section V implication that CDNs can optimise adult
content delivery through cache configuration: we replay one fixed
workload under every replacement policy and several capacities and report
request hit ratios and origin offload.
"""

from __future__ import annotations

from conftest import BENCH_SEED, print_header, replay

from repro.cdn.policies import policy_names
from repro.cdn.simulator import SimulationConfig


def test_ablation_cache_policies(benchmark, pipeline_result):
    catalog_bytes = sum(c.total_bytes() for c in pipeline_result.catalogs.values())
    capacity = max(1, int(0.4 * catalog_bytes))

    results: dict[str, float] = {}

    def sweep():
        for policy in policy_names():
            config = SimulationConfig(seed=BENCH_SEED + 1, cache_policy=policy, cache_capacity_bytes=capacity)
            simulator, _ = replay(pipeline_result, config)
            results[policy] = simulator.metrics.overall_hit_ratio
        return results

    benchmark.pedantic(sweep, rounds=1, iterations=1)

    print_header("Ablation A1 — replacement policy sweep (capacity = 40% of catalog)",
                 "size/frequency-aware policies beat FIFO on this skewed workload")
    for policy, hit_ratio in sorted(results.items(), key=lambda kv: -kv[1]):
        print(f"  {policy:6} hit ratio {hit_ratio:6.1%}")

    # Every policy achieves a sane ratio on this highly skewed workload...
    for hit_ratio in results.values():
        assert 0.4 <= hit_ratio <= 0.99
    # ...and the best policy beats the worst by a visible margin.
    assert max(results.values()) - min(results.values()) > 0.005
