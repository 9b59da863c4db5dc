"""Tests for daily cycles and trend envelopes."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.stats.sampling import make_rng
from repro.types import TrendClass
from repro.workload.temporal import (
    daily_cycle,
    sample_request_times_in_hour,
    site_hourly_rate,
    trend_envelope,
)


class TestDailyCycle:
    def test_mean_is_one(self):
        cycle = daily_cycle(peak_local_hour=2, amplitude=3.0)
        assert cycle.mean() == pytest.approx(1.0)

    def test_peak_at_configured_hour(self):
        cycle = daily_cycle(peak_local_hour=5, amplitude=2.0)
        assert int(np.argmax(cycle)) == 5

    def test_amplitude_is_peak_to_trough(self):
        cycle = daily_cycle(peak_local_hour=0, amplitude=2.5)
        assert cycle.max() / cycle.min() == pytest.approx(2.5, rel=1e-6)

    def test_flat_when_amplitude_one(self):
        np.testing.assert_allclose(daily_cycle(0, 1.0), np.ones(24))

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ConfigError):
            daily_cycle(24, 2.0)
        with pytest.raises(ConfigError):
            daily_cycle(0, 0.9)


class TestSiteHourlyRate:
    def test_length_and_mean(self):
        rate = site_hourly_rate(168, peak_local_hour=22, amplitude=1.5)
        assert rate.size == 168
        assert rate.mean() == pytest.approx(1.0)

    def test_weekend_boost(self):
        rate = site_hourly_rate(168, peak_local_hour=12, amplitude=1.0, weekend_boost=1.5)
        weekend = rate[:48].mean()  # Sat + Sun
        weekday = rate[48:].mean()
        assert weekend > weekday

    def test_daily_periodicity_within_week(self):
        rate = site_hourly_rate(168, peak_local_hour=3, amplitude=2.0, weekend_boost=1.0)
        np.testing.assert_allclose(rate[:24], rate[24:48])


class TestTrendEnvelope:
    def test_zero_before_birth(self):
        for trend in TrendClass:
            envelope = trend_envelope(trend, birth_hour=100, duration_hours=168, rng=make_rng(0))
            assert np.all(envelope[:100] == 0.0), trend

    def test_nonnegative(self):
        for trend in TrendClass:
            envelope = trend_envelope(trend, birth_hour=0, duration_hours=168, rng=make_rng(1))
            assert np.all(envelope >= 0.0), trend

    def test_diurnal_has_24h_period(self):
        envelope = trend_envelope(TrendClass.DIURNAL, 0, 168, make_rng(2))
        # Autocorrelation at lag 24 should be strongly positive.
        x = envelope - envelope.mean()
        autocorr = float((x[:-24] * x[24:]).sum() / (x**2).sum())
        assert autocorr > 0.5

    def test_diurnal_peak_alignment(self):
        envelope = trend_envelope(TrendClass.DIURNAL, 0, 168, make_rng(3), peak_hour=5)
        peak_hours = {int(h % 24) for h in np.argsort(envelope)[-7:]}
        # Peaks cluster within a few hours of the requested peak.
        assert any(abs(((h - 5 + 12) % 24) - 12) <= 4 for h in peak_hours)

    def test_short_lived_dies_within_days(self):
        envelope = trend_envelope(TrendClass.SHORT_LIVED, 0, 168, make_rng(4))
        peak = envelope.max()
        assert np.all(envelope[72:] < 0.05 * peak)

    def test_long_lived_outlasts_short_lived(self):
        rng = make_rng(5)
        long_total = 0.0
        short_total = 0.0
        for i in range(20):
            long_envelope = trend_envelope(TrendClass.LONG_LIVED, 0, 168, make_rng(100 + i))
            short_envelope = trend_envelope(TrendClass.SHORT_LIVED, 0, 168, make_rng(200 + i))
            long_total += (np.argmax(np.cumsum(long_envelope) >= 0.9 * long_envelope.sum()))
            short_total += (np.argmax(np.cumsum(short_envelope) >= 0.9 * short_envelope.sum()))
        assert long_total > short_total  # long-lived mass arrives later

    def test_flash_crowd_has_dominant_spike(self):
        envelope = trend_envelope(TrendClass.FLASH_CROWD, 0, 168, make_rng(6))
        baseline = np.median(envelope[envelope > 0])
        assert envelope.max() > 5 * baseline

    def test_deterministic_given_rng(self):
        a = trend_envelope(TrendClass.OUTLIER, 10, 168, make_rng(7))
        b = trend_envelope(TrendClass.OUTLIER, 10, 168, make_rng(7))
        np.testing.assert_array_equal(a, b)

    def test_born_after_the_last_grid_hour_is_all_zero(self):
        # Regression: a 36 h + 1234 s trace has a 36-hour grid, so an object
        # born at hour 36.3 is alive at no grid hour; the OUTLIER branch
        # used to draw its burst centres from uniform(36.3, 36) and raise.
        for trend in TrendClass:
            rng = make_rng(8)
            envelope = trend_envelope(trend, birth_hour=36.3, duration_hours=36, rng=rng)
            assert envelope.shape == (36,), trend
            assert np.all(envelope == 0.0), trend
            assert rng.random() == make_rng(8).random(), trend  # nothing drawn


class TestSampleRequestTimes:
    def test_times_within_hour(self):
        times = sample_request_times_in_hour(5, 100, make_rng(0))
        assert np.all(times >= 5 * 3600)
        assert np.all(times < 6 * 3600)

    def test_sorted(self):
        times = sample_request_times_in_hour(0, 50, make_rng(1))
        assert np.all(np.diff(times) >= 0)
