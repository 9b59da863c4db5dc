#!/usr/bin/env python3
"""Adult traffic vs a non-adult control site, side by side.

The paper's findings are all contrasts against "typical" web content:
temporal access patterns unlike the classic 7-11pm peak, much shorter
sessions than non-adult sites, and browser caches that adult publishers
cannot rely on because of incognito browsing.  This example generates two
traces with identical machinery — the five adult sites and one non-adult
control (N-1: evening peak, engaged sessions, persistent browser caches)
— and prints the same engagement metrics for both.

Run with:  python examples/adult_vs_nonadult.py [--seed N]
"""

from __future__ import annotations

import argparse

from repro.core.comparison import compare_to_baseline, render_comparison
from repro.dataflow import Plan, RunConfig
from repro.workload.profiles import profile_nonadult


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=5)
    args = parser.parse_args()

    config = RunConfig.resolve(seed=args.seed, scale="tiny")
    print("Generating the adult five-site trace ...")
    adult = Plan(config).generate().simulate().ingest().run()
    print("Generating the non-adult control trace ...")
    control = Plan(config.replacing(seed=args.seed + 1)).generate((profile_nonadult(),))
    baseline = control.simulate().ingest().run()

    comparison = compare_to_baseline(adult.dataset, baseline.dataset)
    print()
    print(render_comparison(comparison))

    print("\n-- contrasts (paper's framing) --")
    for site in sorted(comparison.adult):
        print(
            f"  {site}: sessions {comparison.session_ratio(site):4.1f}x shorter than N-1, "
            f"evening-traffic share {comparison.evening_shift(site):+5.1%} below N-1, "
            f"304 share {comparison.conditional_gap(site):+6.2%} below N-1"
        )
    print(
        "\nThe control peaks in the classic evening window with longer sessions"
        "\nand more conditional (304) revalidation — each adult site deviates in"
        "\nexactly the directions the paper reports."
    )


if __name__ == "__main__":
    main()
