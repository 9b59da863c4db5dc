"""Resident-byte accounting: the number the budget and telemetry share.

``IngestStats.peak_resident_bytes`` used to estimate the column footprint
only; spill decisions need the *whole* resident picture, so the estimate
now includes the string intern tables (``RecordBatch.intern_nbytes``) and
the timeline timestamp packs.  This suite pins the accounting on a known
trace so a regression shows up as an exact-number diff, and pins the
invariant that budget decisions and telemetry read the same figure.
"""

from __future__ import annotations

import numpy as np

from repro.core.accumulate import StreamingAggregates
from repro.core.dataset import DatasetBuilder, TraceDataset
from repro.trace.batch import STRING_FIELDS, RecordBatch

from tests.trace.test_batch import varied_records


class TestInternBytes:
    def test_intern_nbytes_is_the_value_list_footprint(self):
        batch = RecordBatch.from_records(varied_records(24))
        expected = 0
        for field in STRING_FIELDS:
            expected += sum(len(value) for value in getattr(batch, field).values)
        assert batch.intern_nbytes == expected
        assert expected > 0

    def test_resident_nbytes_adds_interns_to_columns(self):
        batch = RecordBatch.from_records(varied_records(24))
        assert batch.resident_nbytes == batch.nbytes + batch.intern_nbytes
        assert batch.resident_nbytes > batch.nbytes


class TestBuilderEstimate:
    def _batch(self):
        return RecordBatch.from_records(varied_records(24))

    def test_streaming_resident_series_pins_the_estimate(self):
        batch = self._batch()
        builder = DatasetBuilder(keep_store=False)
        builder.add(batch)
        # The recorded resident figure is exactly aggregates + the
        # in-flight batch including its intern tables...
        expected = builder._aggregates.nbytes_estimate() + batch.resident_nbytes
        assert builder._stats.resident_series == [expected]
        # ...and is strictly larger than the old column-only number.
        old_estimate = builder._aggregates.nbytes_estimate() + batch.nbytes
        assert expected > old_estimate

    def test_keep_store_counts_intern_tables_too(self):
        batch = self._batch()
        builder = DatasetBuilder(keep_store=True)
        builder.add(batch)
        assert builder._store_bytes == batch.resident_nbytes
        expected = builder._aggregates.nbytes_estimate() + batch.resident_nbytes
        assert builder._stats.resident_series == [expected]

    def test_aggregate_estimate_includes_timestamp_packs(self):
        batch = self._batch()
        aggregates = StreamingAggregates()
        before = aggregates.nbytes_estimate()
        aggregates.update(batch)
        after = aggregates.nbytes_estimate()
        pack_bytes = aggregates.timelines._pack_bytes
        assert pack_bytes > 0
        assert after - before >= pack_bytes

    def test_peak_resident_bytes_is_the_series_max(self):
        records = varied_records(48)
        batches = [
            RecordBatch.from_records(records[:16]),
            RecordBatch.from_records(records[16:]),
        ]
        dataset = TraceDataset.from_batches(batches, keep_store=False)
        stats = dataset.ingest_stats
        assert stats is not None
        assert stats.peak_resident_bytes == max(stats.resident_series)
        total_intern = sum(batch.intern_nbytes for batch in batches)
        assert total_intern > 0

    def test_known_trace_accounting_exact(self):
        """Pin the full arithmetic on one deterministic 24-record batch."""
        batch = self._batch()
        builder = DatasetBuilder(keep_store=False)
        builder.add(batch)
        [resident] = builder._stats.resident_series
        rebuilt = builder._aggregates.nbytes_estimate() + (
            batch.nbytes + batch.intern_nbytes
        )
        assert resident == rebuilt
        # The intern share of the batch is itself pinned: every string
        # column's value list, summed by utf-8 length.
        per_field = {
            field: sum(len(v) for v in getattr(batch, field).values)
            for field in STRING_FIELDS
        }
        assert batch.intern_nbytes == sum(per_field.values())
        assert all(n >= 0 for n in per_field.values())
