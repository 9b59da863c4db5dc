"""Popularity-trend clustering (paper Section IV-B; Figures 8-10).

Pipeline, exactly as the paper describes it:

1. take the normalised hourly request-count time series of each object;
2. compute pairwise DTW distances (:mod:`repro.core.dtw`);
3. agglomeratively cluster the distance matrix
   (:mod:`repro.core.hierarchy`) and cut the dendrogram;
4. find each cluster's medoid — the most centrally located series — and
   the point-wise standard deviation band around it (Figs. 9/10);
5. label each cluster as diurnal / long-lived / short-lived / flash-crowd
   / outlier from its medoid's shape (the paper labels clusters the same
   way, by inspection; our labeller codifies the same criteria).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.dataset import ObjectStats, TraceDataset
from repro.core.dtw import DtwStats, pairwise_dtw
from repro.core.hierarchy import AgglomerativeClustering, Dendrogram, cluster_medoid
from repro.errors import EmptyDatasetError
from repro.types import ContentCategory, TrendClass


@dataclass
class TrendCluster:
    """One cluster of similarly shaped popularity time series."""

    label: TrendClass
    member_indices: list[int]
    medoid_index: int
    medoid_series: np.ndarray
    band_lower: np.ndarray
    band_upper: np.ndarray

    @property
    def size(self) -> int:
        return len(self.member_indices)


@dataclass
class TrendClusteringResult:
    """Figs. 8-10 for one (site, category)."""

    site: str
    category: ContentCategory
    objects: list[ObjectStats]
    series: list[np.ndarray]
    dendrogram: Dendrogram
    clusters: list[TrendCluster] = field(default_factory=list)
    #: How the pairwise DTW matrix was computed (pairs certified by a lower
    #: bound or run through the full DP, wall time and kernel tier) — see
    #: :class:`repro.core.dtw.DtwStats`.
    dtw_stats: DtwStats | None = None

    def fractions(self) -> dict[TrendClass, float]:
        """Share of clustered objects per trend label (Fig. 8 percentages)."""
        total = sum(cluster.size for cluster in self.clusters)
        shares: dict[TrendClass, float] = {}
        for cluster in self.clusters:
            shares[cluster.label] = shares.get(cluster.label, 0.0) + cluster.size / total
        return shares

    def cluster_of(self, label: TrendClass) -> TrendCluster | None:
        """The largest cluster carrying ``label`` (None when absent)."""
        candidates = [c for c in self.clusters if c.label is label]
        if not candidates:
            return None
        return max(candidates, key=lambda c: c.size)


def classify_trend(series: np.ndarray) -> TrendClass:
    """Label one normalised hourly series with its popularity trend.

    Criteria (mirroring the paper's cluster descriptions):

    * **diurnal**: activity spread across most trace days with a strong
      24-hour periodicity (autocorrelation at lag 24).
    * **short-lived**: nearly all mass within ~a day of first activity,
      dying completely.
    * **long-lived**: peaks within ~a day of first activity, decays over
      several days.
    * **flash-crowd**: quiet start, one dominant late spike.
    * **outlier**: none of the above.
    """
    values = np.asarray(series, dtype=float)
    total = values.sum()
    if total <= 0:
        return TrendClass.OUTLIER
    norm = values / total
    hours = norm.size
    active = np.nonzero(values)[0]
    first, last = int(active[0]), int(active[-1])
    active_span = last - first + 1
    days_active = len({(hour - first) // 24 for hour in active})
    # Days the object could have been requested on (from first activity to
    # trace end) — late-injected objects are judged on their own lifetime.
    observable_days = max(1, int(np.ceil((hours - first) / 24)))
    active_day_fraction = days_active / observable_days

    # Mass within the first 36 hours of life.
    early_mass = float(norm[first : min(first + 36, hours)].sum())
    centroid = float((np.arange(hours) * norm).sum())

    if early_mass > 0.95 and active_span <= 48:
        return TrendClass.SHORT_LIVED

    # Flash crowd: most mass concentrated in a narrow window well after
    # birth (checked before the diurnal rule — a flash object may tick
    # along at a low baseline on every day).
    peak = int(np.argmax(norm))
    window = norm[max(0, peak - 6) : peak + 7].sum()
    if window > 0.6 and peak - first > 24:
        return TrendClass.FLASH_CROWD

    # Requested on (nearly) every day of its observable life, with real
    # mass still arriving late in life: front-page style diurnal access.
    # Decaying objects touch late days too, so the criterion is mass-based,
    # not presence-based.
    life_hours = hours - first
    late_third_mass = float(norm[first + 2 * life_hours // 3 :].sum())
    if observable_days >= 3 and active_day_fraction >= 0.7:
        if late_third_mass >= 0.15 and early_mass < 0.6:
            return TrendClass.DIURNAL

    # Sparse series (a handful of requests) carry too little mass for the
    # early_mass/centroid statistics; there, a wide multi-day spread is the
    # reliable diurnal signal (long/short-lived objects die within days).
    total_requests = float(values.sum())
    if total_requests <= 10 and days_active >= 3 and active_span >= 96:
        return TrendClass.DIURNAL

    if early_mass > 0.35 and centroid - first < 72 and days_active >= 2:
        return TrendClass.LONG_LIVED

    if observable_days >= 3 and active_day_fraction >= 0.55 and late_third_mass >= 0.2:
        return TrendClass.DIURNAL

    return TrendClass.OUTLIER


def _daily_autocorrelation(values: np.ndarray, lag: int = 24) -> float:
    """Autocorrelation of the series at a 24-hour lag (0 when undefined)."""
    if values.size <= lag:
        return 0.0
    x = values - values.mean()
    denom = float((x**2).sum())
    if denom == 0:
        return 0.0
    return float((x[:-lag] * x[lag:]).sum() / denom)


def _resample(values: np.ndarray, factor: int) -> np.ndarray:
    """Sum consecutive groups of ``factor`` hours (tail zero-padded)."""
    if factor <= 1:
        return values
    length = values.size
    padded_length = int(np.ceil(length / factor)) * factor
    padded = np.zeros(padded_length)
    padded[:length] = values
    return padded.reshape(-1, factor).sum(axis=1)


def cluster_popularity_trends(
    dataset: TraceDataset,
    site: str,
    category: ContentCategory,
    max_objects: int = 80,
    n_clusters: int = 6,
    dtw_window: int = 24,
    linkage: str = "average",
    min_requests: int = 3,
    resample_hours: int = 2,
    selection: str = "random",
    selection_seed: int = 0,
    dtw_kernel: str | None = None,
) -> TrendClusteringResult:
    """Run the full Fig. 8-10 pipeline for one (site, category).

    ``max_objects`` bounds the O(n^2) DTW matrix; the paper likewise
    clusters the request series of the site's requested objects, and the
    popular objects carry the trends of interest.  ``resample_hours``
    coarsens the hourly grid before DTW (2-hour bins by default) — the
    trends of interest live at day scale, and the coarser grid cuts the
    DTW cost by the square of the factor.

    Cluster labels come from classifying every member series and taking
    the majority (medoid breaks ties), which is robust to sparse series.
    ``selection`` chooses between a seeded uniform ``"random"`` sample of
    qualifying objects (default; keeps trend shares representative) and the
    ``"top"`` most-requested objects.

    ``dtw_kernel`` is forwarded to :func:`repro.core.dtw.pairwise_dtw`;
    the matrix (and therefore the clustering) is bit-identical across
    kernel tiers, and the :class:`DtwStats` describing how the matrix was
    computed (including which kernel tier ran) land on the result's
    ``dtw_stats``.
    """
    if selection == "top":
        objects = dataset.top_objects(site, category, limit=max_objects, min_requests=min_requests)
    elif selection == "random":
        objects = dataset.sample_objects(
            site, category, limit=max_objects, min_requests=min_requests, seed=selection_seed
        )
    else:
        raise EmptyDatasetError(f"unknown selection {selection!r}; expected 'random' or 'top'")
    if len(objects) < max(2, n_clusters):
        raise EmptyDatasetError(
            f"not enough {category.value} objects with >= {min_requests} requests on {site} "
            f"to form {n_clusters} clusters (found {len(objects)})"
        )
    hours = dataset.duration_hours
    series = [stats.hourly_series(hours).normalized().values for stats in objects]
    dtw_series = [_resample(s, resample_hours) for s in series]
    window = max(1, dtw_window // max(1, resample_hours))

    distances, dtw_stats = pairwise_dtw(
        dtw_series, window=window, return_stats=True, kernel=dtw_kernel
    )
    dendrogram = AgglomerativeClustering(linkage=linkage).fit(distances)
    labels = dendrogram.cut(min(n_clusters, len(objects)))

    result = TrendClusteringResult(
        site=site,
        category=category,
        objects=objects,
        series=series,
        dendrogram=dendrogram,
        dtw_stats=dtw_stats,
    )
    member_labels = [classify_trend(s) for s in series]
    for cluster_id in range(labels.max() + 1):
        members = np.nonzero(labels == cluster_id)[0]
        medoid = cluster_medoid(distances, members)
        member_series = np.stack([series[i] for i in members])
        mean = member_series.mean(axis=0)
        std = member_series.std(axis=0)
        votes: dict[TrendClass, int] = {}
        for i in members:
            votes[member_labels[i]] = votes.get(member_labels[i], 0) + 1
        best = max(votes.values())
        winners = [label for label, count in votes.items() if count == best]
        label = member_labels[medoid] if member_labels[medoid] in winners else winners[0]
        result.clusters.append(
            TrendCluster(
                label=label,
                member_indices=[int(i) for i in members],
                medoid_index=medoid,
                medoid_series=series[medoid],
                band_lower=mean - std,
                band_upper=mean + std,
            )
        )
    result.clusters.sort(key=lambda c: -c.size)
    return result
