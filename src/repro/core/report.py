"""The full study driver: run every analysis over one trace.

:class:`Study` executes the complete figure battery of the paper over a
:class:`~repro.core.dataset.TraceDataset` and collects the results into a
:class:`StudyReport`, which can render itself as a text report (the
format the benchmark harness prints).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.core.aggregate import (
    CompositionResult,
    DeviceCompositionResult,
    HourlyVolumeResult,
    content_composition,
    device_composition,
    hourly_volume,
    traffic_composition,
)
from repro.core.caching import (
    HitRatioResult,
    ResponseCodeResult,
    hit_ratio_analysis,
    response_code_analysis,
)
from repro.core.clustering import TrendClusteringResult, cluster_popularity_trends
from repro.core.content import (
    AgeSurvivalResult,
    PopularityResult,
    SizeCdfResult,
    content_age_survival,
    popularity_distribution,
    size_cdf,
)
from repro.core.dataset import TraceDataset
from repro.core.users import (
    AddictionResult,
    IatResult,
    RepeatedAccessResult,
    SessionResult,
    addiction_cdf,
    interarrival_times,
    repeated_access_scatter,
    session_lengths,
)
from repro.errors import EmptyDatasetError, PlanError
from repro.stats.ecdf import EmpiricalCDF
from repro.types import ContentCategory
from repro.workload.catalog import ContentCatalog


def _num(value: float) -> float | str:
    """A JSON-stable scalar: ~12 significant digits, non-finites as text."""
    value = float(value)
    if np.isfinite(value):
        return float(f"{value:.12g}")
    return repr(value)


def _cdf_summary(cdf: EmpiricalCDF) -> dict[str, Any]:
    return {
        "n": len(cdf),
        "mean": _num(cdf.mean),
        "median": _num(cdf.median),
        "p90": _num(cdf.quantile(0.9)),
    }


@dataclass
class StudyReport:
    """All figure results of one study run."""

    content_composition: CompositionResult
    traffic_composition: CompositionResult
    hourly_volume: HourlyVolumeResult
    device_composition: DeviceCompositionResult
    video_sizes: SizeCdfResult
    image_sizes: SizeCdfResult
    video_popularity: PopularityResult
    image_popularity: PopularityResult
    age_survival: AgeSurvivalResult
    iat: IatResult
    sessions: SessionResult
    video_addiction: AddictionResult
    image_addiction: AddictionResult
    video_hit_ratio: HitRatioResult
    image_hit_ratio: HitRatioResult
    response_codes: ResponseCodeResult
    clustering: dict[tuple[str, str], TrendClusteringResult] = field(default_factory=dict)
    extras: dict[str, Any] = field(default_factory=dict)

    def render_text(self) -> str:
        """A compact multi-section text report, one section per figure."""
        lines: list[str] = []
        sites = self.content_composition.sites()

        lines.append("== Fig 1: content composition (objects per category) ==")
        for site in sites:
            parts = []
            for category in ContentCategory:
                share = self.content_composition.share(site, category, "objects")
                parts.append(f"{category.value}={share:6.1%}")
            lines.append(f"  {site}: " + "  ".join(parts))

        lines.append("== Fig 2: traffic composition (requests / bytes) ==")
        for site in sites:
            parts = []
            for category in ContentCategory:
                req = self.traffic_composition.share(site, category, "requests")
                byt = self.traffic_composition.share(site, category, "bytes_requested")
                parts.append(f"{category.value}: req={req:6.1%} bytes={byt:6.1%}")
            lines.append(f"  {site}: " + " | ".join(parts))

        lines.append("== Fig 3: temporal access (local-time peak hour, diurnality) ==")
        for site in sites:
            if site in self.hourly_volume.series:
                lines.append(
                    f"  {site}: peak hour {self.hourly_volume.peak_hour(site):2d}:00, "
                    f"peak/mean {self.hourly_volume.diurnality(site):.2f}"
                )

        lines.append("== Fig 4: device composition (visitor share) ==")
        for site in sites:
            if site in self.device_composition.counts:
                mobile = self.device_composition.mobile_share(site)
                lines.append(f"  {site}: desktop={1 - mobile:6.1%} mobile+misc={mobile:6.1%}")

        lines.append("== Fig 5: content sizes (median bytes) ==")
        for site in sites:
            video = self.video_sizes.cdfs.get(site)
            image = self.image_sizes.cdfs.get(site)
            video_m = f"{video.median / 1e6:8.1f} MB" if video else "       --"
            image_m = f"{image.median / 1e3:8.1f} KB" if image else "       --"
            lines.append(f"  {site}: video median {video_m}, image median {image_m}")

        lines.append("== Fig 6: popularity (top-10% request share, Zipf fit) ==")
        for site in sites:
            for label, pop in (("video", self.video_popularity), ("image", self.image_popularity)):
                if site in pop.cdfs:
                    lines.append(
                        f"  {site} {label}: top-10% objects take {pop.skewness_ratio(site):5.1%} "
                        f"of requests (zipf s~{pop.tail_index(site):.2f})"
                    )

        lines.append("== Fig 7: content aging (fraction requested at age d) ==")
        for site, fractions in sorted(self.age_survival.fractions.items()):
            series = " ".join(f"{value:.2f}" for value in fractions)
            lines.append(f"  {site}: {series}")

        if self.clustering:
            lines.append("== Fig 8 / Fig 9 / Fig 10: popularity trend clusters ==")
            for (site, category), result in sorted(self.clustering.items()):
                shares = ", ".join(
                    f"{label.value}={share:5.1%}" for label, share in sorted(result.fractions().items(), key=lambda kv: -kv[1])
                )
                lines.append(f"  {site} {category}: {shares}")

        lines.append("== Fig 11 & Fig 12: engagement (median IAT, median session) ==")
        for site in sites:
            iat = self.iat.cdfs.get(site)
            ses = self.sessions.cdfs.get(site)
            iat_m = f"{iat.median / 60:7.1f} min" if iat else "     --"
            ses_m = f"{ses.median:6.0f} s" if ses else "    --"
            lines.append(f"  {site}: median IAT {iat_m}, median session {ses_m}")

        lines.append("== Fig 13 & Fig 14: addiction (objects with >10 requests/user) ==")
        for site in sites:
            parts = []
            for label, result in (("video", self.video_addiction), ("image", self.image_addiction)):
                if site in result.cdfs:
                    parts.append(f"{label}: {result.fraction_above(site, 10):5.1%}")
            if parts:
                lines.append(f"  {site}: " + "  ".join(parts))

        lines.append("== Fig 15: cache hit ratios ==")
        for site in sites:
            parts = []
            for label, result in (("video", self.video_hit_ratio), ("image", self.image_hit_ratio)):
                if site in result.overall_hit_ratio:
                    parts.append(
                        f"{label}: overall={result.overall_hit_ratio[site]:5.1%} "
                        f"corr={result.popularity_correlation[site]:+.2f}"
                    )
            if parts:
                lines.append(f"  {site}: " + "  ".join(parts))

        lines.append("== Fig 16: response codes (share of requests) ==")
        for site in sites:
            if site in self.response_codes.counts:
                totals = self.response_codes.site_total(site)
                grand = sum(totals.values())
                shares = "  ".join(f"{code}={count / grand:6.2%}" for code, count in sorted(totals.items()))
                lines.append(f"  {site}: {shares}")

        return "\n".join(lines)

    def to_summary_dict(self) -> dict[str, Any]:
        """Every figure's results as one JSON-serialisable nested dict.

        The golden-report regression test serialises this and diffs it
        field-by-field, so every value is either an int, a string, or a
        float rounded to ~12 significant digits (absorbing last-ulp
        platform noise while still catching real analysis drift).
        """
        out: dict[str, Any] = {}
        out["content_composition"] = [
            {"site": row.site, "category": row.category.value, "objects": row.objects}
            for row in self.content_composition.rows
        ]
        out["traffic_composition"] = [
            {
                "site": row.site,
                "category": row.category.value,
                "objects": row.objects,
                "requests": row.requests,
                "bytes": row.bytes_requested,
            }
            for row in self.traffic_composition.rows
        ]
        out["hourly_volume"] = {
            site: {
                "peak_hour": self.hourly_volume.peak_hour(site),
                "diurnality": _num(self.hourly_volume.diurnality(site)),
                "values": [_num(value) for value in series.values],
            }
            for site, series in self.hourly_volume.series.items()
        }
        out["device_composition"] = {
            site: {device.value: count for device, count in counts.items()}
            for site, counts in self.device_composition.counts.items()
        }
        for key, sizes in (("video_sizes", self.video_sizes), ("image_sizes", self.image_sizes)):
            out[key] = {site: _cdf_summary(cdf) for site, cdf in sizes.cdfs.items()}
        for key, pop in (
            ("video_popularity", self.video_popularity),
            ("image_popularity", self.image_popularity),
        ):
            out[key] = {
                site: {
                    "skewness_ratio": _num(pop.skewness_ratio(site)),
                    "zipf": _num(pop.tail_index(site)),
                }
                for site in pop.cdfs
            }
        out["age_survival"] = {
            site: [_num(value) for value in fractions]
            for site, fractions in self.age_survival.fractions.items()
        }
        out["iat"] = {site: _cdf_summary(cdf) for site, cdf in self.iat.cdfs.items()}
        out["sessions"] = {
            "cdfs": {site: _cdf_summary(cdf) for site, cdf in self.sessions.cdfs.items()},
            "counts": dict(self.sessions.counts),
        }
        for key, addiction in (
            ("video_addiction", self.video_addiction),
            ("image_addiction", self.image_addiction),
        ):
            out[key] = {
                site: {"above_10": _num(addiction.fraction_above(site, 10)), **_cdf_summary(cdf)}
                for site, cdf in addiction.cdfs.items()
            }
        for key, hit in (
            ("video_hit_ratio", self.video_hit_ratio),
            ("image_hit_ratio", self.image_hit_ratio),
        ):
            out[key] = {
                site: {
                    "overall": _num(hit.overall_hit_ratio[site]),
                    "correlation": _num(hit.popularity_correlation[site]),
                    "cached_fraction": _num(hit.cached_fraction[site]),
                    "mean_object": _num(hit.cdfs[site].mean),
                }
                for site in hit.cdfs
            }
        out["response_codes"] = {
            site: {
                category.value: {str(code): count for code, count in sorted(counter.items())}
                for category, counter in per_site.items()
            }
            for site, per_site in self.response_codes.counts.items()
        }
        out["clustering"] = {
            f"{site}/{category}": {
                label.value: _num(share)
                for label, share in sorted(result.fractions().items(), key=lambda kv: kv[0].value)
            }
            for (site, category), result in sorted(self.clustering.items())
        }
        out["scatter"] = {
            name: {
                "points": int(extra.requests.size),
                "fraction_above_diagonal": _num(extra.fraction_above_diagonal()),
                "max_amplification": _num(extra.max_amplification()),
            }
            for name, extra in sorted(self.extras.items())
            if isinstance(extra, RepeatedAccessResult)
        }
        return out


def run_passes(
    dataset: TraceDataset,
    catalogs: dict[str, ContentCatalog] | None = None,
) -> dict[str, Any]:
    """Figs. 1-4, 11-14 and 16 over the dataset's ingest-built indices.

    Returns the results keyed by their :class:`StudyReport` field; the
    Fig. 13 scatters of the paper's two showcased sites (V-1 video, P-1
    image, when present) land under ``extras`` as ``scatter:<site>``.
    """
    return {
        "content_composition": content_composition(dataset, catalogs),
        "traffic_composition": traffic_composition(dataset),
        "hourly_volume": hourly_volume(dataset),
        "device_composition": device_composition(dataset),
        "response_codes": response_code_analysis(dataset),
        "iat": interarrival_times(dataset),
        "sessions": session_lengths(dataset),
        "video_addiction": addiction_cdf(dataset, ContentCategory.VIDEO),
        "image_addiction": addiction_cdf(dataset, ContentCategory.IMAGE),
        "extras": {
            f"scatter:{site}": repeated_access_scatter(dataset, site, category)
            for site, category in (("V-1", ContentCategory.VIDEO), ("P-1", ContentCategory.IMAGE))
            if site in dataset.sites
        },
    }


class Study:
    """Configure and run the full analysis battery.

    Parameters
    ----------
    cluster_sites:
        (site, category) pairs to run the DTW trend clustering on; defaults
        to the paper's two showcased combinations — V-2 video and P-2
        image — when those sites are present.
    max_cluster_objects:
        Cap on the number of series per clustering run (O(n^2) DTW).
    dtw_kernel:
        The DTW kernel tier of the trend clustering.  ``None`` (the
        default) reads the ``REPRO_DTW_KERNEL`` environment variable at
        compute time; the dataflow layer passes the value its
        :class:`RunConfig` already resolved.  The clustering is
        bit-identical across kernel tiers either way.
    """

    def __init__(
        self,
        cluster_sites: list[tuple[str, ContentCategory]] | None = None,
        max_cluster_objects: int = 60,
        run_clustering: bool = True,
        dtw_kernel: str | None = None,
    ):
        self.cluster_sites = cluster_sites
        self.max_cluster_objects = max_cluster_objects
        self.run_clustering = run_clustering
        self.dtw_kernel = dtw_kernel

    def run(
        self,
        dataset: TraceDataset,
        catalogs: dict[str, ContentCatalog] | None = None,
    ) -> StudyReport:
        """Execute every analysis and return the bundled report.

        Every figure is a plain function of the dataset's ingest-built
        indices and tables; none reads the rows, so ``keep_store`` does
        not change the report.  Figs. 1-4, 11-14 and 16 come from one
        :func:`run_passes` call, Figs. 5-7 and 15 from their own
        functions, then the DTW trend clustering (Figs. 8-10).
        """
        dataset.require_nonempty()
        indexed = run_passes(dataset, catalogs)
        report = StudyReport(
            **indexed,
            video_sizes=size_cdf(dataset, ContentCategory.VIDEO),
            image_sizes=size_cdf(dataset, ContentCategory.IMAGE),
            video_popularity=popularity_distribution(dataset, ContentCategory.VIDEO),
            image_popularity=popularity_distribution(dataset, ContentCategory.IMAGE),
            age_survival=content_age_survival(dataset),
            video_hit_ratio=hit_ratio_analysis(dataset, ContentCategory.VIDEO),
            image_hit_ratio=hit_ratio_analysis(dataset, ContentCategory.IMAGE),
        )
        if self.run_clustering:
            targets = self.cluster_sites
            if targets is None:
                targets = []
                if "V-2" in dataset.sites:
                    targets.append(("V-2", ContentCategory.VIDEO))
                if "P-2" in dataset.sites:
                    targets.append(("P-2", ContentCategory.IMAGE))
            for site, category in targets:
                try:
                    result = cluster_popularity_trends(
                        dataset,
                        site,
                        category,
                        max_objects=self.max_cluster_objects,
                        dtw_kernel=self.dtw_kernel,
                    )
                except EmptyDatasetError:
                    continue
                report.clustering[(site, category.value)] = result
        return report


class StudyStage:
    """Dataflow derive stage: run the figure battery over the dataset.

    The plan adapter for :class:`Study`: after the stream is drained it
    runs the full analysis against the ingested dataset (with the
    generate stage's catalogs, when the plan has one) and lands the
    :class:`StudyReport` on the plan result.  Without an explicit
    ``study`` the run's :class:`~repro.dataflow.config.RunConfig` supplies
    the clustering toggle and the DTW kernel knob.
    """

    name = "analyze"

    def __init__(self, study: Study | None = None):
        self.study = study

    def derive(self, result, config) -> None:
        if result.dataset is None:
            raise PlanError("analyze stage ran but no ingest contributed a dataset to the plan")
        study = self.study
        if study is None:
            study = Study(
                run_clustering=config.run_clustering,
                dtw_kernel=config.dtw_kernel,
            )
        result.report = study.run(result.dataset, catalogs=result.catalogs)

    def finish(self, stats, result) -> None:
        if result.dataset is not None:
            stats.rows = len(result.dataset)
