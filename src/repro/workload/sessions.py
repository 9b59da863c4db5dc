"""Session-level primitives of the user behaviour model.

The paper measures user dynamics through sessions: consecutive requests by
one user separated by gaps below a 10-minute timeout (Section IV-C).  The
generator is therefore *session-driven*: users arrive in sessions whose
start times follow the site's daily cycle in the user's local time, issue
a geometric number of requests separated by exponential think times, and
occasionally binge on a favourite object (addiction).

This module holds the session mechanics; object selection lives in
:mod:`repro.workload.generator`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.stats.sampling import make_rng
from repro.types import HOUR_SECONDS
from repro.workload.profiles import SiteProfile
from repro.workload.temporal import site_hourly_rate

#: Session timeout used throughout (paper: 10 minutes, from the IAT knee).
SESSION_TIMEOUT_SECONDS = 600.0
#: In-session think times are capped here, below the timeout.
_THINK_CAP_SECONDS = SESSION_TIMEOUT_SECONDS * 0.95


@dataclass(frozen=True, slots=True)
class SessionPlan:
    """One planned session: when it starts and its request timestamps."""

    user_index: int
    start_time: float
    request_times: tuple[float, ...]  # absolute trace seconds, ascending


def hourly_start_distribution(
    profile: SiteProfile,
    duration_hours: int,
    utc_offset_hours: int,
) -> np.ndarray:
    """Probability of a session starting in each trace hour (UTC grid).

    A user at UTC offset ``k`` behaves by local clock: their local-hour
    cycle, viewed on the UTC trace grid, is the site cycle shifted left by
    ``k`` hours (local hour ``h`` happens at UTC hour ``h - k``).

    The shift is taken on the weekly cycle (the site rate is periodic in
    7x24 hours), *not* by rolling the ``duration_hours`` grid: a roll over
    a grid that is not a whole number of days would wrap the first hours'
    mass onto the tail of the trace, handing e.g. Saturday-morning demand
    to the final partial day.
    """
    week_hours = 7 * 24
    week_rate = site_hourly_rate(week_hours, profile.peak_local_hour, profile.diurnal_amplitude)
    local_hours = (np.arange(duration_hours) + utc_offset_hours) % week_hours
    utc_rate = week_rate[local_hours]
    return utc_rate / utc_rate.sum()


def start_hour_cdf(hour_distribution: np.ndarray) -> np.ndarray:
    """The normalised cumulative sum ``Generator.choice(p=...)`` searches."""
    cdf = hour_distribution.cumsum()
    cdf /= cdf[-1]
    return cdf


def sample_session_starts(
    count: int,
    hour_cdf: np.ndarray,
    rng: np.random.Generator | int | None = None,
) -> np.ndarray:
    """Draw ``count`` session start times (trace seconds), unsorted.

    ``hour_cdf`` is a start distribution's normalised cumulative sum
    (:func:`start_hour_cdf`), built once per site and continent.  Hours
    are drawn as ``choice(size=count, p=dist)`` draws them — one
    ``random(count)`` searched in that CDF with ``side="right"`` — without
    re-validating ``p`` on every call; one uniform offset per start
    follows.
    """
    generator = make_rng(rng)
    if count == 0:
        return np.empty(0)
    hours = hour_cdf.searchsorted(generator.random(count), side="right")
    offsets = generator.uniform(0.0, HOUR_SECONDS, size=count)
    return hours * HOUR_SECONDS + offsets


def plan_session(
    user_index: int,
    start_time: float,
    single_fraction: float,
    multi_mean_requests: float,
    mean_think_s: float,
    duration_seconds: float,
    rng: np.random.Generator,
) -> SessionPlan:
    """Plan one session's request timestamps for a user.

    Requests per session follow a bimodal single/browse mixture: with
    probability ``single_fraction`` the session is a single-request
    check-in (common on image-heavy sites, whose IATs are therefore
    dominated by cross-session gaps); otherwise it browses
    ``2 + Geometric`` requests with mean ``multi_mean_requests``.  This
    reproduces both the short sessions of Fig. 12 and the site-dependent
    IAT split of Fig. 11.  Requests are separated by exponential think
    times of mean ``mean_think_s``, capped below the session timeout so a
    planned session never splits in two under the analysis-side
    definition.

    Draws, in order: one ``random()`` (single or browse); when the
    session browses, one ``geometric`` gap count and one ``exponential``
    array of the gaps.  The gaps are summed left to right, exactly as a
    1-D ``np.cumsum`` sums them.

    Requests at/after ``duration_seconds`` fall outside the trace window
    and are dropped; a session whose *start* already falls outside the
    window therefore plans zero requests (``request_times`` empty) rather
    than fabricating a request at an arbitrary — possibly negative —
    in-window time.
    """
    times = [start_time]
    if rng.random() >= single_fraction:
        extra_mean = max(multi_mean_requests - 2.0, 1e-9)
        n_gaps = int(rng.geometric(min(1.0, 1.0 / (1.0 + extra_mean))))
        elapsed = 0.0
        for gap in rng.exponential(scale=mean_think_s, size=n_gaps).tolist():
            elapsed += min(gap, _THINK_CAP_SECONDS)
            times.append(start_time + elapsed)
    request_times = tuple([t for t in times if t < duration_seconds])
    return SessionPlan(user_index=user_index, start_time=start_time, request_times=request_times)
