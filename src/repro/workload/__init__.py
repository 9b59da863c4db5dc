"""Workload substrate: synthetic adult-CDN traffic, calibrated to the paper.

The paper's dataset is proprietary (week-long HTTP logs from a commercial
CDN).  This subpackage is the documented substitution: a generator whose
every knob is fit to a statistic the paper publishes — per-site catalog
sizes and category mixes, object-size models, Zipf popularity, temporal
popularity-trend classes, content injection over the week, device mixes,
continental user placement, session behaviour, and per-user addiction.

The output is a time-ordered stream of
:class:`~repro.workload.generator.RequestBlock` columns (user and object
indices into shared tables); feeding them through
:meth:`repro.cdn.CdnSimulator.run_batches` yields the HTTP log records the
analysis pipeline consumes.
"""

from repro.workload.catalog import ContentCatalog, ContentObject, build_catalog
from repro.workload.generator import RequestBlock, RequestTables, WorkloadGenerator
from repro.workload.population import User, UserPopulation
from repro.workload.profiles import (
    ALL_PROFILES,
    PROFILES_BY_NAME,
    SiteProfile,
    profile_nonadult,
    profile_p1,
    profile_p2,
    profile_s1,
    profile_v1,
    profile_v2,
)
from repro.workload.scale import ScaleConfig
from repro.workload.validation import CalibrationReport, validate_workload

__all__ = [
    "ALL_PROFILES",
    "CalibrationReport",
    "ContentCatalog",
    "ContentObject",
    "PROFILES_BY_NAME",
    "RequestBlock",
    "RequestTables",
    "ScaleConfig",
    "SiteProfile",
    "User",
    "UserPopulation",
    "WorkloadGenerator",
    "build_catalog",
    "profile_nonadult",
    "profile_p1",
    "profile_p2",
    "profile_s1",
    "profile_v1",
    "profile_v2",
    "validate_workload",
]
