#!/usr/bin/env python3
"""Popularity-trend clustering demo (Figures 8-10 of the paper).

Builds the per-object hourly request-count time series for two of the
paper's showcased (site, category) pairs — V-2 video and P-2 image —
computes pairwise DTW distances, clusters them agglomeratively, and prints:

* the cluster shares per trend label (the Fig. 8 dendrogram percentages),
* a trimmed ASCII dendrogram,
* each dominant cluster's medoid time series as a sparkline (Figs. 9/10).

Run with:  python examples/popularity_clustering.py [--seed N] [--objects N]
"""

from __future__ import annotations

import argparse

import numpy as np

from repro.core.clustering import cluster_popularity_trends
from repro.dataflow import Plan, RunConfig
from repro.types import ContentCategory

_SPARK_LEVELS = " .:-=+*#%@"


def sparkline(values: np.ndarray, width: int = 84) -> str:
    """Render a series as a fixed-width ASCII sparkline."""
    if values.size > width:
        bins = np.array_split(values, width)
        values = np.array([chunk.sum() for chunk in bins])
    peak = values.max()
    if peak <= 0:
        return " " * values.size
    indices = np.minimum((values / peak * (len(_SPARK_LEVELS) - 1)).astype(int), len(_SPARK_LEVELS) - 1)
    return "".join(_SPARK_LEVELS[i] for i in indices)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--objects", type=int, default=60, help="series per clustering run")
    args = parser.parse_args()

    print("Generating workload and trace ...")
    config = RunConfig.resolve(seed=args.seed, scale="tiny")
    result = Plan(config).generate().simulate().ingest().run()

    for site, category in (("V-2", ContentCategory.VIDEO), ("P-2", ContentCategory.IMAGE)):
        print(f"\n=== {site} {category.value} objects (cf. paper Fig. 8-10) ===")
        clustering = cluster_popularity_trends(
            result.dataset, site, category, max_objects=args.objects, n_clusters=6
        )
        print(f"clustered {len(clustering.objects)} objects into {len(clustering.clusters)} clusters")
        for label, share in sorted(clustering.fractions().items(), key=lambda kv: -kv[1]):
            print(f"  {label.value:12} {share:6.1%}")

        print("\ndendrogram (coarsest levels):")
        print(clustering.dendrogram.to_text(max_depth=3))

        print("\ncluster medoids (one week, Sat -> Fri):")
        for cluster in clustering.clusters[:4]:
            series = np.asarray(cluster.medoid_series)
            print(f"  [{cluster.label.value:12} n={cluster.size:3}] |{sparkline(series)}|")


if __name__ == "__main__":
    main()
