"""Tests for the session-planning primitives."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.stats.sampling import make_rng
from repro.types import Continent
from repro.workload.profiles import profile_p1, profile_v1
from repro.workload.sessions import (
    SESSION_TIMEOUT_SECONDS,
    hourly_start_distribution,
    plan_session,
    sample_session_starts,
    start_hour_cdf,
)


class TestStartDistribution:
    def test_is_probability_distribution(self):
        dist = hourly_start_distribution(profile_v1(), 168, utc_offset_hours=0)
        assert dist.sum() == pytest.approx(1.0)
        assert np.all(dist >= 0)

    def test_local_peak_shifts_with_offset(self):
        profile = profile_v1()
        base = hourly_start_distribution(profile, 168, utc_offset_hours=0)
        shifted = hourly_start_distribution(profile, 168, utc_offset_hours=8)
        # The UTC+8 user's local-hour-h activity happens at UTC hour h-8.
        base_peak = int(np.argmax(base[:24]))
        shifted_peak = int(np.argmax(shifted[:24]))
        assert (base_peak - shifted_peak) % 24 == 8

    def test_partial_day_does_not_wrap_week_boundary(self):
        # Regression: the UTC shift used to np.roll the full duration grid,
        # so a trace that is not a whole number of days wrapped the first
        # hours' mass onto its tail.  A partial-week trace must match the
        # prefix of the full-week distribution (renormalised).
        profile = profile_v1()
        for offset in (-5, 8):
            week = hourly_start_distribution(profile, 168, offset)
            for hours in (36, 100):
                partial = hourly_start_distribution(profile, hours, offset)
                expected = week[:hours] / week[:hours].sum()
                assert partial == pytest.approx(expected)

    def test_all_continents_supported(self):
        profile = profile_p1()
        for continent in Continent:
            dist = hourly_start_distribution(profile, 168, continent.utc_offset_hours)
            assert dist.size == 168


class TestSessionStarts:
    def test_count_and_range(self):
        cdf = start_hour_cdf(hourly_start_distribution(profile_v1(), 168, 0))
        starts = sample_session_starts(500, cdf, make_rng(0))
        assert starts.size == 500
        assert np.all(starts >= 0)
        assert np.all(starts < 168 * 3600)

    def test_zero_sessions(self):
        cdf = start_hour_cdf(hourly_start_distribution(profile_v1(), 168, 0))
        assert sample_session_starts(0, cdf, make_rng(0)).size == 0

    def test_starts_follow_distribution(self):
        profile = profile_v1()
        dist = hourly_start_distribution(profile, 168, 0)
        starts = sample_session_starts(20_000, start_hour_cdf(dist), make_rng(1))
        hours = (starts // 3600).astype(int)
        observed = np.bincount(hours % 24, minlength=24) / starts.size
        expected = dist.reshape(7, 24).sum(axis=0)
        assert np.corrcoef(observed, expected)[0, 1] > 0.8

    def test_hours_are_choice_draws(self):
        # The CDF search makes ``choice(p=dist)``'s draw: one ``random(k)``
        # searched with side="right", then the within-hour offsets.
        dist = hourly_start_distribution(profile_p1(), 36, -5)
        starts = sample_session_starts(300, start_hour_cdf(dist), make_rng(4))
        reference = make_rng(4)
        hours = reference.choice(dist.size, size=300, p=dist)
        offsets = reference.uniform(0.0, 3600, size=300)
        assert np.array_equal(starts, hours * 3600 + offsets)


def _request_counts(single: float, mean: float, sessions: int, seed: int) -> np.ndarray:
    rng = make_rng(seed)
    return np.array(
        [len(plan_session(0, 0.0, single, mean, 60.0, 604800.0, rng).request_times) for _ in range(sessions)]
    )


def _think_times(mean_think_s: float, sessions: int, seed: int) -> np.ndarray:
    rng = make_rng(seed)
    gaps = [np.diff(plan_session(0, 0.0, 0.0, 4.0, mean_think_s, 604800.0, rng).request_times) for _ in range(sessions)]
    return np.concatenate(gaps)


class TestRequestCounts:
    """Requests per planned session: the single/browse mixture."""

    def test_support_at_least_one(self):
        counts = _request_counts(0.4, 3.0, 1000, seed=0)
        assert counts.min() >= 1

    def test_single_fraction_respected(self):
        counts = _request_counts(0.5, 4.0, 20_000, seed=1)
        # Singles come from the 0.5 mixture plus none from the browse branch
        # (browse sessions have >= 2 requests).
        assert np.mean(counts == 1) == pytest.approx(0.5, abs=0.02)

    def test_browse_mean_respected(self):
        counts = _request_counts(0.0, 4.0, 20_000, seed=2)
        assert counts.min() >= 2
        assert counts.mean() == pytest.approx(4.0, rel=0.05)

    def test_empty(self):
        # A session starting at the trace end plans no requests, but makes
        # the same draws as one inside the window, so the stream after it
        # does not move.
        inside, outside = make_rng(5), make_rng(5)
        assert len(plan_session(0, 1000.0, 0.0, 5.0, 60.0, 604800.0, inside).request_times) >= 2
        assert plan_session(0, 604800.0, 0.0, 5.0, 60.0, 604800.0, outside).request_times == ()
        assert inside.random() == outside.random()


class TestThinkTimes:
    """Gaps between a planned session's requests."""

    def test_capped_below_timeout(self):
        gaps = _think_times(300.0, 2000, seed=0)
        assert gaps.size > 2000
        assert gaps.max() < SESSION_TIMEOUT_SECONDS

    def test_mean_roughly_exponential(self):
        gaps = _think_times(60.0, 20_000, seed=1)
        assert gaps.mean() == pytest.approx(60.0, rel=0.1)

    def test_empty(self):
        # A single-request session draws its mixture uniform and nothing else.
        rng, reference = make_rng(6), make_rng(6)
        plan = plan_session(0, 1000.0, 1.0, 5.0, 60.0, 604800.0, rng)
        assert plan.request_times == (1000.0,)
        reference.random()
        assert rng.random() == reference.random()


class TestPlanSession:
    def test_times_ascending_and_within_trace(self):
        plan = plan_session(0, 1000.0, 0.3, 4.0, 60.0, 604800.0, make_rng(0))
        assert np.all(np.diff(plan.request_times) >= 0)
        assert all(t < 604800.0 for t in plan.request_times)
        assert plan.request_times[0] == 1000.0

    def test_never_empty_even_at_trace_end(self):
        plan = plan_session(0, 604799.5, 0.0, 5.0, 60.0, 604800.0, make_rng(1))
        assert len(plan.request_times) >= 1

    def test_out_of_window_session_plans_no_requests(self):
        # Regression: a session starting at/after the trace end used to
        # fabricate a phantom request at ``duration_seconds - 1.0``.
        for start in (604800.0, 604800.1, 1e9):
            plan = plan_session(0, start, 0.0, 5.0, 60.0, 604800.0, make_rng(2))
            assert plan.request_times == ()
            assert plan.start_time == start

    def test_subsecond_trace_never_yields_negative_times(self):
        # Regression: with a trace shorter than 1 s, the phantom request
        # landed at the *negative* time ``duration_seconds - 1.0``.
        plan = plan_session(0, 0.5, 0.0, 5.0, 60.0, 0.25, make_rng(3))
        assert plan.request_times == ()

    def test_planned_gaps_stay_within_session_timeout(self):
        for seed in range(30):
            plan = plan_session(0, 0.0, 0.0, 8.0, 200.0, 604800.0, make_rng(seed))
            if len(plan.request_times) > 1:
                assert np.diff(plan.request_times).max() < SESSION_TIMEOUT_SECONDS

    @settings(max_examples=30)
    @given(
        start=st.floats(min_value=0, max_value=600_000),
        single=st.floats(min_value=0.0, max_value=0.9),
        mean=st.floats(min_value=2.0, max_value=10.0),
    )
    def test_plan_always_valid(self, start, single, mean):
        plan = plan_session(0, start, single, mean, 60.0, 604800.0, make_rng(0))
        assert len(plan.request_times) >= 1
        assert all(start <= t < 604800.0 for t in plan.request_times)
