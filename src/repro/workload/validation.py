"""Workload calibration validation.

The whole reproduction rests on the synthetic workload actually matching
the statistics it is calibrated to.  :func:`validate_workload` measures a
generated :class:`~repro.workload.generator.SiteWorkload` against its
profile's targets and returns a :class:`CalibrationReport` of per-metric
checks — used by the test suite and available to users who tweak
profiles.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.types import ContentCategory, DeviceType
from repro.workload.generator import SiteWorkload


@dataclass(frozen=True, slots=True)
class CalibrationCheck:
    """One measured-vs-target comparison."""

    metric: str
    target: float
    measured: float
    tolerance: float

    @property
    def ok(self) -> bool:
        return abs(self.measured - self.target) <= self.tolerance

    @property
    def error(self) -> float:
        return self.measured - self.target

    def __str__(self) -> str:  # pragma: no cover - formatting
        flag = "ok " if self.ok else "OFF"
        return f"[{flag}] {self.metric:40} target={self.target:8.3f} measured={self.measured:8.3f}"


@dataclass
class CalibrationReport:
    """All checks for one site's generated workload."""

    site: str
    checks: list[CalibrationCheck] = field(default_factory=list)

    def add(self, metric: str, target: float, measured: float, tolerance: float) -> None:
        self.checks.append(CalibrationCheck(metric, target, measured, tolerance))

    @property
    def ok(self) -> bool:
        return all(check.ok for check in self.checks)

    def failures(self) -> list[CalibrationCheck]:
        return [check for check in self.checks if not check.ok]

    def render(self) -> str:
        return "\n".join(str(check) for check in self.checks)


def validate_workload(workload: SiteWorkload) -> CalibrationReport:
    """Check a generated site workload against its profile's targets.

    Verifies catalog mix, device mix, request mix, pre-existing fraction
    and trend mix — the calibration surface the paper's Figs. 1, 4, 7 and
    8 depend on.  Tolerances are generous enough for tiny scales but tight
    enough to catch real calibration regressions.
    """
    profile = workload.profile
    report = CalibrationReport(site=profile.name)

    def binomial_tolerance(target: float, n: int, floor: float) -> float:
        """Tolerance covering ~3 standard deviations of multinomial noise."""
        return max(floor, 3.0 * float(np.sqrt(max(target * (1 - target), 1e-6) / max(n, 1))))

    # Catalog category mix (Fig. 1).
    counts = workload.catalog.category_counts()
    total_objects = len(workload.catalog)
    for category in ContentCategory:
        report.add(
            f"catalog share {category.value}",
            profile.object_mix[category],
            counts[category] / total_objects,
            tolerance=binomial_tolerance(profile.object_mix[category], total_objects, 0.03),
        )

    # Device mix over users (Fig. 4).
    device_counts = workload.population.device_counts()
    total_users = len(workload.population)
    for device in DeviceType:
        report.add(
            f"device share {device.value}",
            profile.device_mix[device],
            device_counts[device] / total_users,
            tolerance=0.02,
        )

    # Request category mix (Fig. 2a).  Binges skew video slightly upward,
    # hence the asymmetric-friendly tolerance.
    request_counts = {category: 0 for category in ContentCategory}
    per_object = np.bincount(workload.object_index, minlength=total_objects)
    for obj, count in zip(workload.catalog, per_object.tolist()):
        request_counts[obj.category] += count
    total_requests = max(1, workload.request_count)
    for category in ContentCategory:
        report.add(
            f"request share {category.value}",
            profile.request_mix[category],
            request_counts[category] / total_requests,
            tolerance=0.10,
        )

    # Content injection (Fig. 7's age axis).
    preexisting = sum(obj.is_preexisting for obj in workload.catalog) / total_objects
    report.add(
        "pre-existing fraction",
        profile.preexisting_fraction,
        preexisting,
        tolerance=binomial_tolerance(profile.preexisting_fraction, total_objects, 0.06),
    )

    # Trend mix (Figs. 8-10).
    trend_counts: dict = {}
    for obj in workload.catalog:
        trend_counts[obj.trend] = trend_counts.get(obj.trend, 0) + 1
    for trend, share in profile.trend_mix.items():
        measured = trend_counts.get(trend, 0) / total_objects
        report.add(
            f"trend share {trend.value}",
            share,
            measured,
            tolerance=binomial_tolerance(share, total_objects, 0.05),
        )

    # Request timestamps stay inside the trace window and are sorted.
    timestamps = workload.timestamps
    in_order = float(np.all(np.diff(timestamps) >= 0)) if timestamps.size else 1.0
    report.add("requests sorted by time", 1.0, in_order, tolerance=0.0)
    return report
