#!/usr/bin/env python3
"""Cache-policy and capacity sweep over the synthetic adult workload.

The paper's Section V argues that adult-content CDNs should tune caching to
the workload: separate small/large-object platforms, trend-aware
revalidation, and priority for popular objects.  This example quantifies
those suggestions: it fixes one workload, then replays it through the CDN
simulator under every replacement policy, a range of capacities, and with
the small-object tier and trend-aware TTLs switched on/off.

Run with:  python examples/cache_policy_comparison.py [--seed N]
"""

from __future__ import annotations

import argparse

from repro.cdn.policies import policy_names
from repro.cdn.simulator import CdnSimulator, SimulationConfig
from repro.workload.generator import WorkloadGenerator
from repro.workload.scale import ScaleConfig


def replay(generator: WorkloadGenerator, workloads, config: SimulationConfig) -> tuple[float, float]:
    """Replay the workload; returns (request hit ratio, origin GB fetched)."""
    simulator = CdnSimulator(profiles=generator.profiles, config=config)
    if config.warm_caches:
        simulator.warm(w.catalog for w in workloads.values())
    for _ in simulator.run_batches(generator.merged_request_batches(workloads)):
        pass
    origin_gb = simulator.origin.bytes_served / 1e9
    return simulator.metrics.overall_hit_ratio, origin_gb


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()

    scale = ScaleConfig.tiny()
    generator = WorkloadGenerator(scale=scale, seed=args.seed)
    workloads = generator.generate_all()
    catalog_bytes = sum(w.catalog.total_bytes() for w in workloads.values())
    print(f"Workload: {sum(w.request_count for w in workloads.values()):,} requests, "
          f"catalog {catalog_bytes / 1e9:.1f} GB\n")

    print("== policy sweep (capacity = 40% of catalog) ==")
    print(f"{'policy':8} {'hit ratio':>10} {'origin GB':>10}")
    capacity = int(0.4 * catalog_bytes)
    for policy in policy_names():
        config = SimulationConfig(seed=args.seed + 1, cache_policy=policy, cache_capacity_bytes=capacity)
        hit_ratio, origin_gb = replay(generator, workloads, config)
        print(f"{policy:8} {hit_ratio:>10.1%} {origin_gb:>10.1f}")

    print("\n== capacity sweep (gdsf policy) ==")
    print(f"{'capacity':>10} {'hit ratio':>10} {'origin GB':>10}")
    for fraction in (0.05, 0.1, 0.2, 0.4, 0.8):
        config = SimulationConfig(
            seed=args.seed + 1, cache_policy="gdsf", cache_capacity_bytes=max(1, int(fraction * catalog_bytes))
        )
        hit_ratio, origin_gb = replay(generator, workloads, config)
        print(f"{fraction:>9.0%} {hit_ratio:>10.1%} {origin_gb:>10.1f}")

    print("\n== design ablations (gdsf, 40% capacity) ==")
    print(f"{'variant':40} {'hit ratio':>10} {'origin GB':>10}")
    variants = {
        "baseline (split tiers + trend TTL + warm)": SimulationConfig(
            seed=args.seed + 1, cache_capacity_bytes=capacity
        ),
        "unified cache (no small-object tier)": SimulationConfig(
            seed=args.seed + 1, cache_capacity_bytes=capacity, split_small_object_cache=False
        ),
        "no trend-aware TTL revalidation": SimulationConfig(
            seed=args.seed + 1, cache_capacity_bytes=capacity, trend_aware_ttl=False
        ),
        "cold start (no warm caches)": SimulationConfig(
            seed=args.seed + 1, cache_capacity_bytes=capacity, warm_caches=False
        ),
    }
    for label, config in variants.items():
        hit_ratio, origin_gb = replay(generator, workloads, config)
        print(f"{label:40} {hit_ratio:>10.1%} {origin_gb:>10.1f}")


if __name__ == "__main__":
    main()
