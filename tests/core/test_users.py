"""Tests for user-dynamics analyses (Figs. 11-14)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.users import (
    addiction_cdf,
    interarrival_times,
    repeated_access_scatter,
    session_lengths,
    sessionize,
)
from repro.types import ContentCategory
from repro.workload.sessions import SESSION_TIMEOUT_SECONDS


class TestSessionize:
    def test_empty(self):
        assert sessionize([]) == []

    def test_single_request(self):
        assert sessionize([5.0]) == [[5.0]]

    def test_split_at_timeout(self):
        times = [0.0, 100.0, 100.0 + SESSION_TIMEOUT_SECONDS, 100.0 + SESSION_TIMEOUT_SECONDS + 50]
        sessions = sessionize(times)
        assert len(sessions) == 2
        assert sessions[0] == [0.0, 100.0]

    def test_gap_just_below_timeout_keeps_session(self):
        times = [0.0, SESSION_TIMEOUT_SECONDS - 1]
        assert len(sessionize(times)) == 1

    def test_sessions_partition_input(self):
        times = [float(i * 400) for i in range(20)]
        sessions = sessionize(times)
        flattened = [t for session in sessions for t in session]
        assert flattened == times

    def test_within_session_gaps_below_timeout(self):
        times = [0.0, 100.0, 900.0, 1000.0, 5000.0]
        for session in sessionize(times):
            for a, b in zip(session, session[1:]):
                assert b - a < SESSION_TIMEOUT_SECONDS

    def test_custom_timeout(self):
        times = [0.0, 50.0, 200.0]
        assert len(sessionize(times, timeout=100.0)) == 2


class TestInterarrival:
    def test_cdfs_for_all_sites(self, dataset):
        result = interarrival_times(dataset)
        assert set(result.cdfs) == set(dataset.sites)

    def test_gaps_positive(self, dataset):
        result = interarrival_times(dataset)
        for cdf in result.cdfs.values():
            assert cdf.min > 0

    def test_video_sites_have_shorter_iats(self, dataset):
        # Paper Fig. 11: video sites' IATs are much shorter than image-heavy.
        result = interarrival_times(dataset)
        video_median = max(result.median_seconds("V-1"), result.median_seconds("V-2"))
        image_median = min(result.median_seconds(s) for s in ("P-1", "P-2", "S-1"))
        assert image_median > video_median

    def test_video_median_below_10_minutes(self, dataset):
        result = interarrival_times(dataset)
        for site in ("V-1", "V-2"):
            assert result.median_seconds(site) < 600

    def test_sample_cap(self, dataset):
        result = interarrival_times(dataset, max_samples_per_site=100)
        for cdf in result.cdfs.values():
            assert len(cdf) <= 100


class TestSessionLengths:
    def test_lengths_floored_at_one_second(self, dataset):
        result = session_lengths(dataset)
        for cdf in result.cdfs.values():
            assert cdf.min >= 1.0

    def test_sessions_are_short(self, dataset):
        # Paper Fig. 12: adult sessions are short (median around a minute,
        # far below non-adult engagement).
        result = session_lengths(dataset)
        for site in dataset.sites:
            assert result.median_seconds(site) < 300

    def test_video_sessions_not_degenerate(self, dataset):
        result = session_lengths(dataset)
        assert result.median_seconds("V-1") > 5

    def test_counts_populated(self, dataset):
        result = session_lengths(dataset)
        for site in dataset.sites:
            assert result.counts[site] > 0


class TestRepeatedAccess:
    def test_scatter_dimensions(self, dataset):
        result = repeated_access_scatter(dataset, "V-1", ContentCategory.VIDEO)
        assert result.unique_users.size == result.requests.size
        assert result.unique_users.size == len(dataset.objects_of("V-1", ContentCategory.VIDEO))

    def test_requests_at_least_users(self, dataset):
        result = repeated_access_scatter(dataset, "V-1", ContentCategory.VIDEO)
        assert (result.requests >= result.unique_users).all()

    def test_video_amplification_above_diagonal(self, dataset):
        # Paper Fig. 13(a): some video objects have far more requests than
        # unique users (repeated access / addiction).
        v1 = repeated_access_scatter(dataset, "V-1", ContentCategory.VIDEO)
        v2 = repeated_access_scatter(dataset, "V-2", ContentCategory.VIDEO)
        assert v1.fraction_above_diagonal() > 0.1
        assert v1.max_amplification() > 2
        # Across the video sites, dedicated fans push some objects far
        # above the diagonal (the paper's extreme points).
        assert max(v1.max_amplification(), v2.max_amplification()) > 8

    def test_empty_site(self, dataset):
        result = repeated_access_scatter(dataset, "V-1", ContentCategory.OTHER)
        assert result.max_amplification() >= 0.0


class TestAddiction:
    def test_video_objects_more_addictive(self, dataset):
        # Paper Fig. 14: >=10% of video objects exceed 10 requests by one
        # user; <1% of image objects do.
        video = addiction_cdf(dataset, ContentCategory.VIDEO)
        image = addiction_cdf(dataset, ContentCategory.IMAGE)
        for site in ("V-1", "V-2"):
            assert video.fraction_above(site, 10) >= 0.08
        for site in ("P-1", "P-2", "S-1"):
            assert image.fraction_above(site, 10) < 0.02

    def test_minimum_is_at_least_one(self, dataset):
        result = addiction_cdf(dataset, ContentCategory.VIDEO)
        for cdf in result.cdfs.values():
            assert cdf.min >= 1


class TestUserSiteAccessor:
    """Fig. 11's per-site grouping goes through the public
    :meth:`TraceDataset.user_site_of` accessor — pinned here on a user
    whose two requests open and close their site's entire time window."""

    @staticmethod
    def _records():
        from repro.trace.record import LogRecord
        from repro.types import CacheStatus

        def record(ts, user, obj="clip"):
            return LogRecord(
                timestamp=ts,
                site="V-1",
                object_id=obj,
                extension="mp4",
                object_size=1000,
                user_id=user,
                user_agent="UA",
                cache_status=CacheStatus.HIT,
                status_code=200,
                bytes_served=500,
            )

        # "spanner" makes the site's first AND last request; everyone
        # else is strictly inside the window.
        return [
            record(0.0, "spanner"),
            record(100.0, "mid-1"),
            record(250.0, "mid-1"),
            record(400.0, "mid-2"),
            record(1000.0, "spanner"),
        ]

    @pytest.fixture(params=["record", "batch", "streaming"])
    def spanning_dataset(self, request):
        from repro.core.dataset import TraceDataset
        from repro.trace.batch import iter_record_batches

        from tests.core.scalar_reference import scalar_dataset

        records = self._records()
        if request.param == "record":
            return scalar_dataset(records)
        batches = list(iter_record_batches(iter(records), batch_size=2))
        return TraceDataset.from_batches(batches, keep_store=request.param == "batch")

    def test_user_site_of(self, spanning_dataset):
        assert spanning_dataset.user_site_of("spanner") == "V-1"
        assert spanning_dataset.user_site_of("mid-1") == "V-1"
        assert spanning_dataset.user_site_of("no-such-user") == ""

    def test_spanning_user_window_and_iat(self, spanning_dataset):
        # The user's requests really do span the site's full window ...
        times = spanning_dataset.user_timestamps("spanner")
        assert times[0] == 0.0
        assert times[-1] == spanning_dataset.duration_seconds == 1000.0
        # ... and the public-accessor path attributes every gap to the
        # right site: spanner's 1000 s window-spanning gap and mid-1's
        # 150 s gap, nothing else.
        result = interarrival_times(spanning_dataset)
        assert set(result.cdfs) == {"V-1"}
        assert sorted(np.asarray(result.cdfs["V-1"].sample).tolist()) == [150.0, 1000.0]
