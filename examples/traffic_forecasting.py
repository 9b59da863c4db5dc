#!/usr/bin/env python3
"""Why adult traffic needs its own forecasting model (paper Section IV-A).

The paper observes that adult sites do not follow the classic 7-11pm web
peak — V-1 peaks late-night/early-morning — and concludes that network
operators must 'separately account for adult traffic in the traffic
forecasting models and network resource allocation'.

This example quantifies both halves of that advice using
:mod:`repro.core.forecasting`:

* forecasting: a generic evening-peak model vs a per-site seasonal
  profile, trained on the first five trace days and scored on the last
  two;
* resource allocation: the 95th-percentile provisioning level per site,
  and how adult late-night peaks complement classic evening traffic on
  shared capacity.

Run with:  python examples/traffic_forecasting.py [--seed N]
"""

from __future__ import annotations

import argparse

import numpy as np

from repro.core.aggregate import hourly_volume
from repro.core.forecasting import (
    GenericDiurnalForecaster,
    SeasonalProfileForecaster,
    evaluate_forecaster,
    provisioning_level,
)
from repro.dataflow import Plan, RunConfig


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=23)
    args = parser.parse_args()

    print("Generating workload and trace ...")
    config = RunConfig.resolve(seed=args.seed, scale="tiny")
    result = Plan(config).generate().simulate().ingest().run()
    volumes = hourly_volume(result.dataset, local_time=True)
    train_hours = 5 * 24

    print(f"\n{'site':6} {'generic-web MAPE':>18} {'site-profile MAPE':>19} {'improvement':>12}")
    for site in sorted(volumes.series):
        series = volumes.series[site]
        if series.values[train_hours:].sum() == 0:
            continue
        generic = evaluate_forecaster(GenericDiurnalForecaster(), series, train_hours)
        specific = evaluate_forecaster(SeasonalProfileForecaster(), series, train_hours)
        improvement = (generic.mape - specific.mape) / generic.mape if generic.mape else 0.0
        print(f"{site:6} {generic.mape:>17.1%} {specific.mape:>18.1%} {improvement:>11.1%}")

    print("\n-- provisioning (95th-percentile hourly load vs mean) --")
    combined = None
    for site in sorted(volumes.series):
        series = volumes.series[site]
        level = provisioning_level(series)
        mean = series.values.mean()
        ratio = level / mean if mean else float("nan")
        print(f"  {site}: p95 {level:8.1f} req/h, {ratio:4.2f}x its mean")
        combined = series if combined is None else combined + series

    if combined is not None:
        separate = sum(provisioning_level(volumes.series[s]) for s in volumes.series)
        pooled = provisioning_level(combined)
        print(
            f"  pooled across sites: p95 {pooled:8.1f} req/h vs {separate:8.1f} "
            f"summed separately ({1 - pooled / separate:5.1%} saved by complementary peaks)"
        )

    print(
        "\nThe generic evening-peak model misses the adult sites' shifted cycles"
        "\n(most of all V-1's late-night peak); per-site profiles track them, and"
        "\nthe complementary peaks reduce pooled provisioning — the paper's"
        "\n'separate forecasting and resource allocation' implication."
    )


if __name__ == "__main__":
    main()
