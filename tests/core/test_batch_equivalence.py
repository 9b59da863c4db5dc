"""Equivalence contract: batch-built == record-built TraceDataset.

The columnar engine is only allowed to be *faster* than the scalar
reference loop — every index it builds must be identical, down to
iteration order (dictionaries are interned in first-appearance order
precisely so the orders line up).  These tests pin that contract with a
field-for-field comparison helper, hypothesis-generated traces at varied
batch sizes, and a full fig01–fig16 study comparison on the shared tiny
pipeline run.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dataset import TraceDataset
from repro.core.report import Study
from repro.errors import ConfigError
from repro.trace.batch import iter_record_batches
from repro.types import ContentCategory

from tests.trace.test_io import record_strategy

record_lists = st.lists(record_strategy, max_size=40)


def assert_datasets_equivalent(reference: TraceDataset, other: TraceDataset) -> None:
    """Field-for-field equality of every index both engines build."""
    assert len(other) == len(reference)
    assert other.sites == reference.sites
    assert other.duration_seconds == reference.duration_seconds

    # Object index: same keys, same order, same per-object stats
    # (ObjectStats is a plain dataclass, == covers every field including
    # the user_counts and hourly dicts).
    assert list(other.object_stats) == list(reference.object_stats)
    for name, stats in reference.object_stats.items():
        assert other.object_stats[name] == stats, name

    # User index: timelines (already time-sorted), home site, user agent.
    assert list(other._user_times) == list(reference._user_times)
    for user, times in reference._user_times.items():
        assert np.array_equal(np.asarray(other._user_times[user]), np.asarray(times)), user
    assert dict(other._user_site) == dict(reference._user_site)
    assert dict(other._user_agent) == dict(reference._user_agent)

    # Per-site row index.
    assert set(other._site_rows) == set(reference._site_rows)
    for site, rows in reference._site_rows.items():
        assert np.array_equal(np.asarray(other._site_rows[site]), np.asarray(rows)), site


class TestEngineEquivalence:
    @settings(max_examples=25, deadline=None)
    @given(records=record_lists)
    def test_batch_engine_matches_record_engine(self, records):
        reference = TraceDataset.from_records(records, engine="record")
        columnar = TraceDataset.from_records(records, engine="batch")
        assert_datasets_equivalent(reference, columnar)

    @settings(max_examples=25, deadline=None)
    @given(records=record_lists, batch_size=st.integers(min_value=1, max_value=64))
    def test_equivalence_at_any_batch_size(self, records, batch_size):
        # Batch boundaries must be invisible: concat remaps dictionaries
        # so a chunked build equals a single-scan build.
        reference = TraceDataset.from_records(records, engine="record")
        batches = list(iter_record_batches(iter(records), batch_size=batch_size))
        columnar = TraceDataset.from_batches(batches)
        assert_datasets_equivalent(reference, columnar)

    def test_empty_dataset(self):
        reference = TraceDataset.from_records([], engine="record")
        columnar = TraceDataset.from_records([], engine="batch")
        assert_datasets_equivalent(reference, columnar)
        assert len(TraceDataset.from_batches([])) == 0

    def test_unknown_engine_rejected(self):
        with pytest.raises(ConfigError):
            TraceDataset.from_records([], engine="bogus")


class TestPipelineEquivalence:
    @pytest.fixture(scope="class")
    def record_built(self, pipeline_result):
        return TraceDataset.from_records(pipeline_result.dataset.records, engine="record")

    @pytest.fixture(scope="class")
    def batch_built(self, pipeline_result):
        return TraceDataset.from_batches(pipeline_result.batches)

    def test_full_trace_equivalence(self, record_built, batch_built):
        assert_datasets_equivalent(record_built, batch_built)

    def test_study_reports_identical(self, record_built, batch_built, catalogs):
        # The acceptance contract: every fig01–fig16 analysis produces
        # identical results from either build.  The rendered report covers
        # the full figure battery in one comparison.
        study = Study()
        report_from_records = study.run(record_built, catalogs=catalogs)
        report_from_batches = study.run(batch_built, catalogs=catalogs)
        assert report_from_records.render_text() == report_from_batches.render_text()

    def test_accessors_identical(self, record_built, batch_built):
        site = record_built.sites[0]
        assert batch_built.users_of(site) == record_built.users_of(site)
        assert batch_built.objects_of(site=site) == record_built.objects_of(site=site)
        assert batch_built.top_objects(site, ContentCategory.VIDEO, 10) == record_built.top_objects(
            site, ContentCategory.VIDEO, 10
        )
        user = record_built.users_of()[0]
        assert list(batch_built.user_timestamps(user)) == list(record_built.user_timestamps(user))
        assert batch_built.user_agent_of(user) == record_built.user_agent_of(user)

    def test_site_records_identical(self, record_built, batch_built):
        for site in record_built.sites:
            assert batch_built.site_records(site) == record_built.site_records(site)
