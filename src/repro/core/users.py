"""User-dynamics analyses (paper Section IV-C; Figures 11-14).

* :func:`interarrival_times`      — Fig. 11: per-user request IAT CDFs.
* :func:`sessionize` / :func:`session_lengths` — Fig. 12: session length
  CDFs under the 10-minute timeout.
* :func:`repeated_access_scatter` — Fig. 13: requests vs unique users per
  object (points above the diagonal = repeated access).
* :func:`addiction_cdf`           — Fig. 14: CDF of requests-per-unique-user
  per object; video content shows far heavier repetition than image.

Figs. 11 and 12 run vectorised over the dataset's columnar
:class:`~repro.core.accumulate.UserTimelines`, so ``Study.run`` never
materialises python-object user timelines; Figs. 13 and 14 read the
object index.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.accumulate import UserTimelines
from repro.core.dataset import TraceDataset
from repro.errors import EmptyDatasetError
from repro.stats.ecdf import EmpiricalCDF
from repro.types import ContentCategory
from repro.workload.sessions import SESSION_TIMEOUT_SECONDS


def _session_boundaries(timelines: UserTimelines, timeout: float) -> tuple[np.ndarray, np.ndarray]:
    """Session start/stop indices into ``timelines.sorted_ts``.

    A session boundary falls on every user's first timestamp and wherever
    the within-user gap reaches ``timeout`` — the same split
    :func:`sessionize` makes per user, computed in one vectorised pass
    over the concatenated timelines.
    """
    ts = timelines.sorted_ts
    n = ts.size
    boundary = np.zeros(n, dtype=bool)
    boundary[timelines.starts] = True
    if n > 1:
        boundary[1:] |= np.diff(ts) >= timeout
    session_starts = np.flatnonzero(boundary)
    session_stops = np.append(session_starts[1:], n)
    return session_starts, session_stops


@dataclass
class IatResult:
    """Fig. 11: per-site request inter-arrival time CDFs (seconds)."""

    cdfs: dict[str, EmpiricalCDF]

    def median_seconds(self, site: str) -> float:
        return self.cdfs[site].median


def interarrival_times(dataset: TraceDataset, max_samples_per_site: int | None = None) -> IatResult:
    """Fig. 11: gaps between consecutive requests of the same user.

    All of a user's requests count (across sessions), exactly as a
    network-side log sees them.  Every per-user gap falls *within* the
    user's segment of the concatenated sorted timestamps, so one
    ``np.diff`` plus a segment-boundary mask yields every IAT at once;
    sites are keyed in the order their first two-request user appears —
    a record-at-a-time scan's insertion order.
    """
    timelines = dataset.user_timelines()
    ts = timelines.sorted_ts
    n = ts.size
    # Site key order: first user (in first-appearance order) with two
    # or more requests, even if all their gaps are zero.
    gaps_by_site: dict[str, list[float]] = {}
    for index in np.flatnonzero(timelines.stops - timelines.starts >= 2).tolist():
        gaps_by_site.setdefault(timelines.sites[index], [])
    if n > 1:
        gaps = np.diff(ts)
        within = np.ones(n - 1, dtype=bool)
        if len(timelines) > 1:
            within[timelines.stops[:-1] - 1] = False  # user-boundary gaps
        valid = np.flatnonzero(within & (gaps > 0))
        if valid.size:
            site_index = {site: code for code, site in enumerate(gaps_by_site)}
            user_site_codes = np.array(
                [site_index.get(site, -1) for site in timelines.sites], dtype=np.int64
            )
            gap_sites = user_site_codes[np.searchsorted(timelines.stops, valid, side="right")]
            gap_values = gaps[valid]
            for site, code in site_index.items():
                gaps_by_site[site] = gap_values[gap_sites == code].tolist()
    cdfs = {}
    for site, site_gaps in gaps_by_site.items():
        if max_samples_per_site is not None and len(site_gaps) > max_samples_per_site:
            site_gaps = site_gaps[:max_samples_per_site]
        if site_gaps:
            cdfs[site] = EmpiricalCDF(site_gaps)
    if not cdfs:
        raise EmptyDatasetError("interarrival_times: no user has two or more requests")
    return IatResult(cdfs=cdfs)


def sessionize(timestamps: list[float], timeout: float = SESSION_TIMEOUT_SECONDS) -> list[list[float]]:
    """Split one user's ascending timestamps into sessions.

    A session is a maximal run of consecutive requests with gaps strictly
    below ``timeout`` (paper Section IV-C: 10 minutes, chosen from the IAT
    knee).  The returned sessions partition the input.
    """
    if not timestamps:
        return []
    sessions: list[list[float]] = [[timestamps[0]]]
    for previous, current in zip(timestamps, timestamps[1:]):
        if current - previous < timeout:
            sessions[-1].append(current)
        else:
            sessions.append([current])
    return sessions


@dataclass
class SessionResult:
    """Fig. 12: per-site session length CDFs (seconds)."""

    cdfs: dict[str, EmpiricalCDF]
    counts: dict[str, int]

    def median_seconds(self, site: str) -> float:
        return self.cdfs[site].median

    def mean_seconds(self, site: str) -> float:
        return self.cdfs[site].mean


def session_lengths(
    dataset: TraceDataset,
    timeout: float = SESSION_TIMEOUT_SECONDS,
    min_length_s: float = 1.0,
) -> SessionResult:
    """Fig. 12: session lengths (first request to last, floored at 1 s).

    The floor matches the paper's plot, whose axis starts at one second —
    single-request sessions have no measurable duration from network logs
    but still count as (minimal) engagement.  Session boundaries are
    found in one vectorised sweep (:func:`_session_boundaries`), and
    per-site grouping preserves user first-appearance order — identical
    to per-user :func:`sessionize` calls.
    """
    timelines = dataset.user_timelines()
    ts = timelines.sorted_ts
    if ts.size == 0:
        raise EmptyDatasetError("session_lengths: trace has no user requests")
    session_starts, session_stops = _session_boundaries(timelines, timeout)
    lengths = np.maximum(ts[session_stops - 1] - ts[session_starts], min_length_s)
    session_user = np.searchsorted(timelines.stops, session_starts, side="right")
    # Every user emits at least one session and sessions come out in
    # user order, so first-session site order equals the users'
    # first-appearance order.
    site_index: dict[str, int] = {}
    for site in timelines.sites:
        if site not in site_index:
            site_index[site] = len(site_index)
    user_site_codes = np.array([site_index[site] for site in timelines.sites], dtype=np.int64)
    session_sites = user_site_codes[session_user]
    cdfs: dict[str, EmpiricalCDF] = {}
    counts: dict[str, int] = {}
    for site, code in site_index.items():
        mask = session_sites == code
        site_lengths = lengths[mask].tolist()
        if site_lengths:
            cdfs[site] = EmpiricalCDF(site_lengths)
            counts[site] = len(site_lengths)
    return SessionResult(cdfs=cdfs, counts=counts)


@dataclass
class RepeatedAccessResult:
    """Fig. 13: (unique_users, requests) scatter for one site+category."""

    site: str
    category: ContentCategory
    unique_users: np.ndarray
    requests: np.ndarray

    def max_amplification(self) -> float:
        """Largest requests/users ratio — Fig. 13's most extreme point."""
        ratios = self.requests / np.maximum(self.unique_users, 1)
        return float(ratios.max()) if ratios.size else 0.0

    def fraction_above_diagonal(self) -> float:
        """Share of objects with more requests than unique users."""
        if self.requests.size == 0:
            return 0.0
        return float(np.mean(self.requests > self.unique_users))


def repeated_access_scatter(
    dataset: TraceDataset,
    site: str,
    category: ContentCategory,
) -> RepeatedAccessResult:
    """Fig. 13: per-object total requests vs unique requesting users."""
    objects = dataset.objects_of(site, category)
    users = np.array([stats.unique_users for stats in objects], dtype=float)
    requests = np.array([stats.requests for stats in objects], dtype=float)
    return RepeatedAccessResult(site=site, category=category, unique_users=users, requests=requests)


@dataclass
class AddictionResult:
    """Fig. 14: per-site CDFs of requests per unique user per object."""

    category: ContentCategory
    cdfs: dict[str, EmpiricalCDF]

    def fraction_above(self, site: str, requests_per_user: float) -> float:
        """Fraction of objects some user requested more than this often.

        The paper's headline: at least 10% of video objects have more than
        10 requests per unique user, while under 1% of image objects do.
        """
        return self.cdfs[site].fraction_above(requests_per_user)


def addiction_cdf(dataset: TraceDataset, category: ContentCategory) -> AddictionResult:
    """Fig. 14: per-object distribution of single-user request intensity.

    For each object the metric is the *largest* request count any single
    user gave it — an object "requested more than 10 times by a user" is
    one whose most devoted fan exceeded 10 requests.
    """
    cdfs: dict[str, EmpiricalCDF] = {}
    for site in dataset.sites:
        ratios = [stats.max_requests_by_one_user for stats in dataset.objects_of(site, category)]
        if ratios:
            cdfs[site] = EmpiricalCDF(ratios)
    return AddictionResult(category=category, cdfs=cdfs)
