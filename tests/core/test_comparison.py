"""Tests for the adult-vs-non-adult baseline comparison."""

from __future__ import annotations

import pytest

from repro.core.comparison import compare_to_baseline, render_comparison
from repro.errors import EmptyDatasetError
from repro.core.dataset import TraceDataset
from repro.dataflow import Plan, RunConfig
from repro.workload.profiles import profile_nonadult


@pytest.fixture(scope="module")
def baseline_dataset():
    plan = Plan(RunConfig.resolve(seed=31, scale="tiny")).generate((profile_nonadult(),))
    return plan.simulate().ingest().run().dataset


@pytest.fixture(scope="module")
def comparison(dataset, baseline_dataset):
    return compare_to_baseline(dataset, baseline_dataset)


class TestNonAdultProfile:
    def test_classic_evening_peak(self):
        assert profile_nonadult().peak_local_hour == 21

    def test_browser_cache_friendly(self):
        # Non-adult users rarely browse privately.
        assert profile_nonadult().incognito_fraction < 0.2

    def test_engaged_sessions(self):
        profile = profile_nonadult()
        assert profile.session_single_fraction < 0.3
        assert profile.mean_requests_per_session > 4


class TestCompareToBaseline:
    def test_requires_baseline_site(self, dataset):
        with pytest.raises(EmptyDatasetError):
            compare_to_baseline(dataset, dataset, baseline_site="N-1")

    def test_empty_dataset_rejected(self, baseline_dataset):
        with pytest.raises(EmptyDatasetError):
            compare_to_baseline(TraceDataset(), baseline_dataset)

    def test_all_adult_sites_covered(self, comparison, dataset):
        assert set(comparison.adult) == set(dataset.sites)
        assert comparison.baseline.site == "N-1"

    def test_baseline_sessions_longer_than_adult(self, comparison):
        # The paper: adult engagement is shorter than non-adult websites'.
        for site in comparison.adult:
            assert comparison.session_ratio(site) >= 1.0

    def test_baseline_peaks_in_the_evening(self, comparison):
        assert comparison.baseline.peak_local_hour in range(17, 24)

    def test_v1_shifted_away_from_evening(self, comparison):
        # V-1's anti-diurnal pattern leaves the 5-11pm window under-used
        # relative to the non-adult control.
        assert comparison.evening_shift("V-1") > 0.0

    def test_baseline_serves_more_conditionals(self, comparison):
        # Non-incognito browsing -> persistent browser caches -> more
        # conditional requests than the adult sites produce on average
        # (individual image sites can tie at tiny scale).
        mean_adult_304 = sum(e.share_304 for e in comparison.adult.values()) / len(comparison.adult)
        assert comparison.baseline.share_304 > mean_adult_304
        assert comparison.conditional_gap("V-1") > 0.0

    def test_render_contains_all_sites(self, comparison):
        text = render_comparison(comparison)
        assert "N-1" in text
        for site in comparison.adult:
            assert site in text
