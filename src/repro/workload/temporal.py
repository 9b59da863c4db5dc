"""Temporal models: site-level daily cycles and per-object trend shapes.

Two layers of time structure drive the synthetic trace:

1. **Site level** (Fig. 3): each site has a 24-hour local-time cycle.  The
   paper's key observation is that adult sites do *not* follow the classic
   7-11 pm web peak — V-1 peaks late-night/early-morning, and the other
   sites show flatter but still atypical cycles.  We model the cycle as a
   raised cosine with a configurable peak hour and amplitude.

2. **Object level** (Figs. 7-10): each object belongs to a popularity-trend
   class — diurnal (front-page content requested every day with day/night
   variation), long-lived (peaks within a day of injection, decays over
   days), short-lived (sharp peak, dead within hours), flash-crowd (sudden
   spike mid-life), or outlier (irregular) — and gets an intensity envelope
   over the trace accordingly.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigError
from repro.stats.sampling import make_rng
from repro.types import HOUR_SECONDS, TrendClass


def daily_cycle(peak_local_hour: int, amplitude: float) -> np.ndarray:
    """24-hour activity multipliers with mean 1.0.

    ``amplitude`` is the peak-to-trough ratio (>= 1; 1 means flat).  The
    shape is a raised cosine centred on ``peak_local_hour``.
    """
    if not 0 <= peak_local_hour < 24:
        raise ConfigError(f"peak_local_hour must be in [0, 24), got {peak_local_hour}")
    if amplitude < 1.0:
        raise ConfigError(f"amplitude must be >= 1, got {amplitude}")
    hours = np.arange(24)
    phase = 2 * np.pi * (hours - peak_local_hour) / 24.0
    # cosine in [-1, 1] -> multiplier in [2/(a+1), 2a/(a+1)], mean 1.
    half_range = (amplitude - 1.0) / (amplitude + 1.0)
    cycle = 1.0 + half_range * np.cos(phase)
    return cycle / cycle.mean()


def site_hourly_rate(
    duration_hours: int,
    peak_local_hour: int,
    amplitude: float,
    weekend_boost: float = 1.12,
) -> np.ndarray:
    """Relative site request rate per trace hour (local time), mean ~1.

    The trace starts on Saturday 00:00 local (the paper's medoid plots run
    Sat→Fri); weekend days get a mild boost.
    """
    cycle = daily_cycle(peak_local_hour, amplitude)
    rate = np.empty(duration_hours)
    for hour in range(duration_hours):
        day = (hour // 24) % 7
        day_factor = weekend_boost if day in (0, 1) else 1.0  # Sat, Sun
        rate[hour] = cycle[hour % 24] * day_factor
    return rate / rate.mean()


def trend_envelope(
    trend: TrendClass,
    birth_hour: float,
    duration_hours: int,
    rng: np.random.Generator | int | None = None,
    peak_hour: int | None = None,
) -> np.ndarray:
    """Per-object request-intensity envelope over the trace (unnormalised).

    The envelope is zero before the object's birth and shaped by its trend
    class afterwards:

    * ``DIURNAL``     — steady daily oscillation for the rest of the trace
      (front-page objects; Fig. 9a/10a).  When ``peak_hour`` is given the
      oscillation peaks near it (front-page objects are requested when
      users visit the site, so their phase follows the site's cycle).
    * ``LONG_LIVED``  — ramps to a peak within ~a day of injection, then
      decays diurnally over several days (Fig. 9b/10b).
    * ``SHORT_LIVED`` — sharp peak on arrival, dead within hours
      (Fig. 9c/10c).
    * ``FLASH_CROWD`` — quiet baseline with one sudden spike at a random
      later hour (Fig. 8b cluster).
    * ``OUTLIER``     — irregular bursty pattern that fits none of the above.

    An object alive at no grid hour — born after the last whole hour of a
    trace that does not end on one — gets the all-zero envelope without
    drawing from ``rng``.
    """
    generator = make_rng(rng)
    hours = np.arange(duration_hours, dtype=float)
    alive = hours >= birth_hour
    if not alive.any():
        return np.zeros(duration_hours)
    age = np.where(alive, hours - birth_hour, 0.0)
    if trend is TrendClass.DIURNAL:
        if peak_hour is None:
            phase_offset = generator.uniform(0, 2 * np.pi)
        else:
            jitter = generator.normal(0.0, 2.0)
            phase_offset = -2 * np.pi * ((peak_hour + jitter) % 24) / 24.0
        envelope = 1.0 + 0.7 * np.cos(2 * np.pi * hours / 24.0 + phase_offset)
        envelope = np.clip(envelope, 0.05, None)
    elif trend is TrendClass.LONG_LIVED:
        peak_age = generator.uniform(8.0, 24.0)
        decay_scale = generator.uniform(24.0, 72.0)
        ramp = np.clip(age / peak_age, 0.0, 1.0)
        decay = np.exp(-np.clip(age - peak_age, 0.0, None) / decay_scale)
        daily = 1.0 + 0.4 * np.cos(2 * np.pi * age / 24.0)
        envelope = ramp * decay * np.clip(daily, 0.1, None)
    elif trend is TrendClass.SHORT_LIVED:
        peak_age = generator.uniform(1.0, 4.0)
        decay_scale = generator.uniform(2.0, 8.0)
        ramp = np.clip(age / peak_age, 0.0, 1.0)
        decay = np.exp(-np.clip(age - peak_age, 0.0, None) / decay_scale)
        envelope = ramp * decay
    elif trend is TrendClass.FLASH_CROWD:
        envelope = np.full(duration_hours, 0.08)
        latest = max(int(birth_hour) + 2, duration_hours - 1)
        spike_hour = int(generator.integers(int(birth_hour) + 1, latest + 1)) if latest > birth_hour + 1 else int(birth_hour) + 1
        spike_width = generator.uniform(2.0, 6.0)
        envelope = envelope + 4.0 * np.exp(-0.5 * ((hours - spike_hour) / spike_width) ** 2)
    else:  # OUTLIER: a few random bursts of random width/height
        envelope = np.full(duration_hours, 0.05)
        for _ in range(int(generator.integers(2, 6))):
            centre = generator.uniform(birth_hour, duration_hours)
            width = generator.uniform(1.0, 12.0)
            height = generator.uniform(0.5, 3.0)
            envelope = envelope + height * np.exp(-0.5 * ((hours - centre) / width) ** 2)
    envelope = np.where(alive, envelope, 0.0)
    return np.clip(envelope, 0.0, None)


def sample_request_times_in_hour(
    hour_index: int,
    count: int,
    rng: np.random.Generator | int | None = None,
) -> np.ndarray:
    """Uniformly place ``count`` request timestamps inside a trace hour."""
    generator = make_rng(rng)
    offsets = generator.uniform(0.0, HOUR_SECONDS, size=count)
    return hour_index * HOUR_SECONDS + np.sort(offsets)
