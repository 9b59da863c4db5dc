#!/usr/bin/env python3
"""Edge failure drill: what happens when a data center drops out mid-week.

The paper's CDN serves users from geographically distributed data centers
via DNS redirection — which is also how real CDNs survive an edge outage:
health checks pull the failed location out of rotation and its users fail
over to the next-nearest site.  This drill replays the synthetic week,
fails the European data center mid-trace, restores it two simulated days
later, and reports how hit ratio and latency move through the incident
(the failed-over users arrive at a cache that never saw their working
set).

Run with:  python examples/edge_failure_drill.py [--seed N]
"""

from __future__ import annotations

import argparse

import numpy as np

from repro.cdn.simulator import CdnSimulator, SimulationConfig
from repro.types import DAY_SECONDS
from repro.workload.generator import WorkloadGenerator
from repro.workload.scale import ScaleConfig

FAIL_AT = 3 * DAY_SECONDS          # outage starts Tuesday 00:00
RECOVER_AT = 5 * DAY_SECONDS       # repaired Thursday 00:00
FAILED_DC = "dc-europe"


def drill_blocks(blocks, router):
    """The request blocks, split where the outage starts and ends.

    The router is marked between two pulls: the simulator reads it at
    every request, so the mark holds from the first request at or after
    each instant.
    """
    events = [(FAIL_AT, router.mark_down, "marked down"), (RECOVER_AT, router.mark_up, "restored")]
    for block in blocks:
        start = 0
        while events:
            at, mark, label = events[0]
            cut = int(np.searchsorted(block.timestamps, at))
            if cut == len(block):
                break
            if cut > start:
                yield block.rows(start, cut)
            mark(FAILED_DC)
            print(f"  !! {FAILED_DC} {label} at t={block.timestamps[cut] / DAY_SECONDS:.2f} days")
            events.pop(0)
            start = cut
        yield block.rows(start, len(block))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=3)
    args = parser.parse_args()

    print("Generating workload ...")
    generator = WorkloadGenerator(scale=ScaleConfig.tiny(), seed=args.seed)
    workloads = generator.generate_all()
    catalog_bytes = sum(w.catalog.total_bytes() for w in workloads.values())
    config = SimulationConfig(seed=args.seed + 1, cache_capacity_bytes=int(0.4 * catalog_bytes))
    simulator = CdnSimulator(profiles=generator.profiles, config=config)
    simulator.warm(w.catalog for w in workloads.values())

    # Day-indexed accounting of the logged (CDN-visible) requests.
    day_hits = np.zeros(7, dtype=np.int64)
    day_requests = np.zeros(7, dtype=np.int64)
    blocks = drill_blocks(generator.merged_request_batches(workloads), simulator.router)
    for batch in simulator.run_batches(blocks):
        days = np.minimum(6, batch.timestamp // DAY_SECONDS).astype(np.int64)
        day_requests += np.bincount(days, minlength=7)
        day_hits += np.bincount(days, weights=batch.cache_status, minlength=7).astype(np.int64)

    print("\nday  requests  hit ratio   note")
    notes = {3: "outage begins", 4: "outage", 5: "recovered"}
    for day in range(7):
        if day_requests[day] == 0:
            continue
        ratio = int(day_hits[day]) / int(day_requests[day])
        print(f"  {day}  {int(day_requests[day]):>8,}  {ratio:>8.1%}   {notes.get(day, '')}")

    print(
        "\nDuring the outage the failed-over European users land on a North"
        "\nAmerican cache that never held their working set, so the hit ratio"
        "\ndips and recovers as that cache warms — and again briefly after the"
        "\nrepair, when traffic returns to the now-stale European cache."
    )


if __name__ == "__main__":
    main()
