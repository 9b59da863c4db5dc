#!/usr/bin/env python3
"""Quickstart: generate a synthetic week of adult-CDN traffic and analyse it.

This reproduces the paper's whole measurement pipeline in three steps:

1. generate a workload for the five paper sites (V-1, V-2, P-1, P-2, S-1),
2. run it through the CDN simulator to obtain HTTP access logs,
3. run the full figure battery (Figs. 1-16) and print the text report.

Run with:  python examples/quickstart.py [--scale tiny|small|medium] [--seed N]
"""

from __future__ import annotations

import argparse
import time

from repro import Plan, RunConfig, Study
from repro.workload.scale import SCALE_NAMES


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", choices=SCALE_NAMES, default="tiny")
    parser.add_argument("--seed", type=int, default=42)
    args = parser.parse_args()

    config = RunConfig.resolve(seed=args.seed, scale=args.scale)

    print(f"Generating one synthetic week at scale={args.scale!r}, seed={args.seed} ...")
    started = time.perf_counter()
    plan = Plan(config).generate().simulate().ingest().analyze(Study(max_cluster_objects=50))
    result = plan.run()
    elapsed = time.perf_counter() - started

    records = result.dataset.records
    total_requests = len(records)
    total_bytes = sum(r.bytes_served for r in records)
    total_users = len(result.dataset.users_of())
    print(
        f"Simulated {total_requests:,} logged requests from {total_users:,} users "
        f"({total_bytes / 1e9:.1f} GB served) in {elapsed:.1f}s\n"
    )
    print(result.report.render_text())

    print("\n-- per-site cache performance (simulator-side) --")
    for site, metrics in sorted(result.simulator.metrics.sites.items()):
        print(f"  {site}: requests={metrics.requests:>7,}  hit_ratio={metrics.hit_ratio:6.1%}")
    print(f"  overall hit ratio: {result.simulator.metrics.overall_hit_ratio:6.1%}")


if __name__ == "__main__":
    main()
