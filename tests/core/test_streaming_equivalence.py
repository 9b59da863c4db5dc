"""Three-build equivalence: scalar reference == eager batches == streaming.

The streaming accumulators of :mod:`repro.core.accumulate` promise that
folding a trace batch-by-batch — at *any* batch size, with or without
retaining the row store — produces the same aggregates a single-scan
build does, bit for bit.  This suite pins that promise end to end: an
arbitrary record list, chunked at an arbitrary batch size (including 1
and sizes larger than the trace), must yield an identical
``Study.run`` report from

* ``scalar_dataset(records)`` — the scalar reference loop
  (:mod:`tests.core.scalar_reference`),
* ``TraceDataset.from_batches(batches)`` — eager, store-retaining, and
* ``TraceDataset.from_batches(batches, keep_store=False)`` — streaming,
  aggregates only.

When a build legitimately refuses (e.g. ``EmptyDatasetError`` on a
trace with no content responses), all three must refuse identically.
The Fig. 3 / Fig. 16 tables each build holds must be equal array for
array too: the reference counts them with plain dicts, the other two
with the accumulators.  On failure, hypothesis shrinks to
and prints the minimal failing trace via ``note``.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, note, settings
from hypothesis import strategies as st

from repro.core.aggregate import hourly_volume
from repro.core.caching import response_code_analysis
from repro.core.dataset import TraceDataset
from repro.core.report import Study
from repro.errors import AnalysisError, EmptyDatasetError
from repro.trace.batch import RecordBatch, iter_record_batches

from tests.core.scalar_reference import scalar_dataset
from tests.trace.test_io import record_strategy, sample_records

record_lists = st.lists(record_strategy, max_size=40)
batch_sizes = st.integers(min_value=1, max_value=64)


def _chunk(records, batch_size):
    return list(iter_record_batches(iter(records), batch_size=batch_size))


def _study_outcome(dataset):
    """The full figure battery as comparable data, or the refusal.

    Returns ``("report", render_text, summary_dict)`` on success and
    ``("error", type_name, message)`` when the study refuses — either
    way a value two builds can be compared on with plain ``==``.
    """
    study = Study(run_clustering=False)
    try:
        report = study.run(dataset)
    except EmptyDatasetError as error:
        return ("error", type(error).__name__, str(error))
    return ("report", report.render_text(), report.to_summary_dict())


def _assert_same_scan_tables(left, right):
    assert left.site_values == right.site_values
    for table in dataclasses.fields(left):
        if table.name != "site_values":
            assert np.array_equal(getattr(left, table.name), getattr(right, table.name)), table.name


class TestThreeEngineEquivalence:
    @settings(max_examples=30, deadline=None)
    @given(records=record_lists, batch_size=batch_sizes)
    def test_reports_identical_across_engines(self, records, batch_size):
        note(f"batch_size={batch_size}")
        note(f"records={records!r}")
        datasets = [
            scalar_dataset(records),
            TraceDataset.from_batches(_chunk(records, batch_size)),
            TraceDataset.from_batches(_chunk(records, batch_size), keep_store=False),
        ]
        reference, eager, streaming = map(_study_outcome, datasets)
        assert eager == reference
        assert streaming == reference
        for dataset in datasets[1:]:
            _assert_same_scan_tables(dataset.scan_aggregates, datasets[0].scan_aggregates)

    def test_batch_size_one(self):
        records = sample_records(7)
        reference = _study_outcome(scalar_dataset(records))
        streaming = _study_outcome(
            TraceDataset.from_batches(_chunk(records, 1), keep_store=False)
        )
        assert streaming == reference

    def test_batch_size_larger_than_trace(self):
        records = sample_records(5)
        reference = _study_outcome(scalar_dataset(records))
        streaming = _study_outcome(
            TraceDataset.from_batches(_chunk(records, 512), keep_store=False)
        )
        assert streaming == reference

    def test_empty_trace_refused_identically(self):
        assert (
            _study_outcome(scalar_dataset([]))
            == _study_outcome(TraceDataset.from_batches([]))
            == _study_outcome(TraceDataset.from_batches([], keep_store=False))
        )


class TestStorelessDataset:
    """Contract of a ``keep_store=False`` dataset beyond report equality."""

    @pytest.fixture()
    def streaming(self):
        return TraceDataset.from_batches(_chunk(sample_records(9), 3), keep_store=False)

    def test_row_access_raises(self, streaming):
        assert not streaming.has_store
        with pytest.raises(AnalysisError):
            streaming.records
        with pytest.raises(AnalysisError):
            streaming.store()

    def test_ingest_stats_recorded(self, streaming):
        stats = streaming.ingest_stats
        assert stats is not None
        assert stats.batches == 3
        assert stats.rows == 9
        assert not stats.keep_store
        assert len(stats.resident_series) == 3
        assert stats.peak_resident_bytes == max(stats.resident_series)


class TestFiguresReadNoRows:
    def test_study_never_touches_the_row_store(self, monkeypatch):
        """Every figure reads the ingest-built indices and tables, so a
        dataset that keeps its rows gives the same report with all row
        access disabled."""

        def build():
            return TraceDataset.from_batches(_chunk(sample_records(40), 7), keep_store=True)

        def no_rows(*args, **kwargs):
            raise AssertionError("a figure read the row store")

        expected = Study(run_clustering=False).run(build()).to_summary_dict()
        dataset = build()
        monkeypatch.setattr(TraceDataset, "store", no_rows)
        monkeypatch.setattr(TraceDataset, "records", property(no_rows))
        monkeypatch.setattr(RecordBatch, "rows", no_rows)
        assert Study(run_clustering=False).run(dataset).to_summary_dict() == expected


class TestEmptyDatasets:
    @pytest.mark.parametrize(
        "build",
        [
            TraceDataset,
            lambda: scalar_dataset([]),
            lambda: TraceDataset.from_records([]),
            lambda: TraceDataset.from_batches([], keep_store=False),
        ],
        ids=["hand-built", "record", "batch", "storeless"],
    )
    def test_table_figures_are_empty(self, build):
        dataset = build()
        assert hourly_volume(dataset).series == {}
        assert response_code_analysis(dataset).counts == {}
