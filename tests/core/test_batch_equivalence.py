"""Equivalence contract: batch-built TraceDataset == the scalar reference.

The columnar ingest is only allowed to be *faster* than the scalar
reference loop (:mod:`tests.core.scalar_reference`) — every index it
builds must be identical, down to iteration order (dictionaries are
interned in first-appearance order precisely so the orders line up).
These tests pin that contract with a field-for-field comparison helper,
hypothesis-generated traces at varied batch sizes, and a full fig01–fig16
study comparison on the shared tiny pipeline run.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dataset import TraceDataset
from repro.core.report import Study
from repro.trace.batch import iter_record_batches
from repro.types import ContentCategory

from tests.core.scalar_reference import scalar_dataset
from tests.trace.test_io import record_strategy

record_lists = st.lists(record_strategy, max_size=40)


def assert_datasets_equivalent(reference: TraceDataset, other: TraceDataset) -> None:
    """Field-for-field equality of every index both builds hold."""
    assert len(other) == len(reference)
    assert other.sites == reference.sites
    assert other.duration_seconds == reference.duration_seconds

    # Object index: same keys, same order, same per-object stats
    # (ObjectStats is a plain dataclass, == covers every field including
    # the user_counts and hourly dicts).
    assert list(other.object_stats) == list(reference.object_stats)
    for name, stats in reference.object_stats.items():
        assert other.object_stats[name] == stats, name

    # User index: one time-sorted timeline per user, home site, user agent,
    # in first-appearance order, and the accessors that read it.
    timelines, expected = other.user_timelines(), reference.user_timelines()
    assert timelines.names == expected.names
    assert timelines.sites == expected.sites
    assert timelines.agents == expected.agents
    for column in ("sorted_ts", "starts", "stops"):
        assert np.array_equal(getattr(timelines, column), getattr(expected, column)), column
    assert other.users_of() == reference.users_of()
    for user in reference.users_of():
        assert other.user_timestamps(user) == reference.user_timestamps(user), user
        assert other.user_site_of(user) == reference.user_site_of(user), user
        assert other.user_agent_of(user) == reference.user_agent_of(user), user

    # Per-site row index: row numbers in first-appearance order, extents,
    # and the rows it serves (the reference's records are its input list).
    assert list(other._site_rows) == list(reference._site_rows)
    records = reference.records
    for site, rows in reference._site_rows.items():
        assert np.array_equal(other._site_rows[site], rows), site
        assert other.site_records(site) == [records[row] for row in rows], site
    assert other.site_extents() == reference.site_extents()


class TestEngineEquivalence:
    @settings(max_examples=25, deadline=None)
    @given(records=record_lists)
    def test_batch_engine_matches_record_engine(self, records):
        reference = scalar_dataset(records)
        columnar = TraceDataset.from_records(records)
        assert_datasets_equivalent(reference, columnar)

    @settings(max_examples=25, deadline=None)
    @given(records=record_lists, batch_size=st.integers(min_value=1, max_value=64))
    def test_equivalence_at_any_batch_size(self, records, batch_size):
        # Batch boundaries must be invisible: concat remaps dictionaries
        # so a chunked build equals a single-scan build.
        reference = scalar_dataset(records)
        batches = list(iter_record_batches(iter(records), batch_size=batch_size))
        columnar = TraceDataset.from_batches(batches)
        assert_datasets_equivalent(reference, columnar)

    def test_empty_dataset(self):
        reference = scalar_dataset([])
        columnar = TraceDataset.from_records([])
        assert_datasets_equivalent(reference, columnar)
        assert_datasets_equivalent(reference, TraceDataset())
        assert len(TraceDataset.from_batches([])) == 0


class TestPipelineEquivalence:
    @pytest.fixture(scope="class")
    def record_built(self, pipeline_result):
        return scalar_dataset(pipeline_result.dataset.records)

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
