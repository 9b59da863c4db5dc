"""Columnar RecordBatch tests: round-trips, dictionary invariants, batch I/O.

The batch layer has one load-bearing invariant — string dictionaries
assign codes in first-appearance order, and every derived batch
(``concat``, ``rows``, ``take``, ``filter``) either preserves or shares
its parent's dictionaries.  The columnar dataset engine leans on this to
reproduce the scalar engine's iteration order exactly, so it is pinned
here independently of the dataset tests.
"""

from __future__ import annotations

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import TraceFormatError, TraceSchemaError, TraceTruncationError
from repro.trace import schema
from repro.trace.batch import (
    ALL_COLUMNS,
    CATEGORIES,
    NUMERIC_FIELDS,
    STRING_FIELDS,
    BatchBuilder,
    RecordBatch,
    StringColumn,
    iter_record_batches,
    record_from_row,
    seal_columns,
)
from repro.trace.reader import TraceReader
from repro.trace.record import LogRecord
from repro.trace.writer import TraceWriter, write_trace_batches
from repro.types import CacheStatus

from tests.trace.test_io import record_strategy, rows_of, sample_records, write_records


def varied_records(n: int = 24) -> list[LogRecord]:
    """Records spanning several sites/users/extensions so dictionaries
    have more than one entry and repeats out of order."""
    sites = ["V-1", "P-1", "V-1", "S-1", "P-2"]
    extensions = ["mp4", "jpg", "gif", "html"]
    return [
        LogRecord(
            timestamp=float(i),
            site=sites[i % len(sites)],
            object_id=f"obj{i % 7}",
            extension=extensions[i % len(extensions)],
            object_size=1000 + i,
            user_id=f"user{i % 5}",
            user_agent=f"UA-{i % 3}",
            cache_status=CacheStatus.HIT if i % 3 else CacheStatus.MISS,
            status_code=200 if i % 4 else 304,
            bytes_served=500 + i,
            datacenter="dc-europe" if i % 2 else "dc-asia",
            chunk_index=i % 3 - 1,
        )
        for i in range(n)
    ]


def first_appearance_order(values: list[str]) -> list[str]:
    seen: dict[str, None] = {}
    for value in values:
        seen.setdefault(value)
    return list(seen)


def assert_dictionaries_canonical(batch: RecordBatch, records: list[LogRecord]) -> None:
    """Every string column decodes to the source values AND its dictionary
    is ordered by first appearance in a sequential scan."""
    for field in STRING_FIELDS:
        column = getattr(batch, field)
        raw = [getattr(record, field) for record in records]
        assert column.tolist() == raw
        assert list(column.values) == first_appearance_order(raw)
        assert column.codes.dtype == np.int32


class TestRecordBatch:
    def test_schema_constants_cover_every_column(self):
        assert ALL_COLUMNS == NUMERIC_FIELDS + STRING_FIELDS
        assert len(ALL_COLUMNS) == len(set(ALL_COLUMNS)) == 13

    def test_from_records_roundtrip(self):
        records = varied_records()
        batch = RecordBatch.from_records(records)
        assert len(batch) == len(records)
        assert batch.to_records() == records
        assert_dictionaries_canonical(batch, records)

    def test_empty_batch(self):
        batch = RecordBatch.empty()
        assert len(batch) == 0
        assert batch.to_records() == []

    def test_reconstructed_records_after_drop(self):
        records = varied_records(8)
        batch = RecordBatch.from_records(records)
        # Records rebuilt purely from the columns must match the originals.
        assert batch.to_records() == records
        assert batch.record_at(3) == records[3]

    def test_numeric_dtypes(self):
        batch = RecordBatch.from_records(varied_records(6))
        assert batch.timestamp.dtype == np.float64
        assert batch.object_size.dtype == np.int64
        assert batch.bytes_served.dtype == np.int64
        assert batch.category.dtype == np.uint8

    def test_category_codes_match_records(self):
        records = varied_records(12)
        batch = RecordBatch.from_records(records)
        assert [CATEGORIES[code] for code in batch.category] == [r.category for r in records]

    def test_concat_preserves_first_appearance_order(self):
        records = varied_records(30)
        parts = [
            RecordBatch.from_records(records[:10]),
            RecordBatch.from_records(records[10:17]),
            RecordBatch.from_records(records[17:]),
        ]
        merged = RecordBatch.concat(parts)
        assert merged.to_records() == records
        # The merged dictionaries must look exactly as if one sequential
        # scan had built the batch — the columnar engine depends on it.
        assert_dictionaries_canonical(merged, records)

    def test_concat_skips_empty_batches(self):
        records = varied_records(6)
        merged = RecordBatch.concat(
            [RecordBatch.empty(), RecordBatch.from_records(records), RecordBatch.empty()]
        )
        assert merged.to_records() == records

    def test_rows_take_filter_share_dictionaries(self):
        records = varied_records(20)
        batch = RecordBatch.from_records(records)
        window = batch.rows(5, 12)
        taken = batch.take(np.array([1, 3, 5]))
        masked = batch.filter(batch.status_code == 200)
        for view in (window, taken, masked):
            for field in STRING_FIELDS:
                assert getattr(view, field).values is getattr(batch, field).values
        assert window.to_records() == records[5:12]
        assert taken.to_records() == [records[1], records[3], records[5]]
        assert masked.to_records() == [r for r in records if r.status_code == 200]

    def test_iter_record_batches_chunking(self):
        records = varied_records(25)
        batches = list(iter_record_batches(iter(records), batch_size=10))
        assert [len(b) for b in batches] == [10, 10, 5]
        assert [r for b in batches for r in b.iter_records()] == records

    @settings(max_examples=25)
    @given(records=st.lists(record_strategy, max_size=20))
    def test_roundtrip_property(self, records):
        batch = RecordBatch.from_records(records)
        assert batch.to_records() == records
        assert_dictionaries_canonical(batch, records)

    @settings(max_examples=25)
    @given(
        records=st.lists(record_strategy, min_size=1, max_size=20),
        split=st.integers(min_value=0, max_value=20),
    )
    def test_concat_equals_single_scan_property(self, records, split):
        split = min(split, len(records))
        merged = RecordBatch.concat(
            [RecordBatch.from_records(records[:split]), RecordBatch.from_records(records[split:])]
        )
        reference = RecordBatch.from_records(records)
        assert merged.to_records() == records
        for field in STRING_FIELDS:
            assert list(getattr(merged, field).values) == list(getattr(reference, field).values)
            assert np.array_equal(getattr(merged, field).codes, getattr(reference, field).codes)


class TestBatchIO:
    @pytest.mark.parametrize("fmt", ["csv", "jsonl", "bin"])
    def test_write_batch_read_batches_roundtrip(self, tmp_path, fmt):
        records = varied_records(40)
        path = tmp_path / f"trace.{fmt}"
        written = write_trace_batches(iter_record_batches(iter(records), batch_size=16), path)
        assert written == len(records)
        loaded = list(TraceReader(path).iter_batches(batch_size=16))
        assert [len(b) for b in loaded] == [16, 16, 8]
        assert [r for b in loaded for r in b.iter_records()] == records

    @pytest.mark.parametrize("fmt", ["csv", "jsonl", "bin"])
    def test_write_batch_identical_to_write_records(self, tmp_path, fmt):
        # Batch boundaries leave no trace in the file: one batch of every
        # record is byte for byte the records written one at a time.
        records = varied_records(15)
        record_path = tmp_path / f"records.{fmt}"
        batch_path = tmp_path / f"batch.{fmt}"
        write_trace_batches(iter_record_batches(records, batch_size=1), record_path)
        batch = RecordBatch.from_records(records)
        with TraceWriter(batch_path) as writer:
            writer.write_batch(batch)
        assert batch_path.read_bytes() == record_path.read_bytes()

    def test_reader_filters_apply_to_batches(self, tmp_path):
        records = varied_records(20)
        path = tmp_path / "t.csv"
        write_records(records, path)
        reader = TraceReader(path, sites={"V-1"})
        loaded = [r for b in reader.iter_batches(batch_size=4) for r in b.iter_records()]
        assert loaded == [r for r in records if r.site == "V-1"]

    def test_truncated_binary_flushes_partial_batch(self, tmp_path):
        # Good records parsed before the cut must be flushed as a final
        # partial batch before the truncation error propagates.
        records = sample_records(5)
        header = schema.BINARY_MAGIC + struct.pack("<H", schema.BINARY_VERSION)
        packed = [schema.pack_values(*row) for row in rows_of(records)]
        path = tmp_path / "t.bin"
        path.write_bytes(header + b"".join(packed[:4]) + packed[4][:-3])
        seen: list[LogRecord] = []
        with pytest.raises(TraceTruncationError):
            for batch in TraceReader(path).iter_batches(batch_size=3):
                seen.extend(batch.iter_records())
        assert seen == records[:4]

    def test_corrupt_binary_flushes_partial_batch(self, tmp_path):
        records = sample_records(4)
        header = schema.BINARY_MAGIC + struct.pack("<H", schema.BINARY_VERSION)
        packed = [schema.pack_values(*row) for row in rows_of(records)]
        bad = bytearray(packed[2])
        bad[schema._FIXED.size + 2] = 0xFF  # invalid UTF-8 in the site string
        path = tmp_path / "t.bin"
        path.write_bytes(header + packed[0] + packed[1] + bytes(bad) + packed[3])
        seen: list[LogRecord] = []
        with pytest.raises(TraceFormatError):
            for batch in TraceReader(path).iter_batches(batch_size=10):
                seen.extend(batch.iter_records())
        assert seen == records[:2]

    def test_corrupt_jsonl_flushes_partial_batch(self, tmp_path):
        records = sample_records(3)
        path = tmp_path / "t.jsonl"
        write_records(records, path)
        with open(path, "a", encoding="utf-8") as handle:
            handle.write("{not json\n")
        seen: list[LogRecord] = []
        with pytest.raises(TraceFormatError):
            for batch in TraceReader(path).iter_batches(batch_size=100):
                seen.extend(batch.iter_records())
        assert seen == records


class TestStreamingKillPoints:
    """Mid-batch kill-point fuzz for the streaming batch reader: for
    *every* byte at which a binary trace can be cut, the complete records
    parsed before the cut must be flushed as column batches, and the
    :class:`TraceTruncationError` must name the byte offset of the first
    incomplete record."""

    @staticmethod
    def _binary_trace(records):
        header = schema.BINARY_MAGIC + struct.pack("<H", schema.BINARY_VERSION)
        packed = [schema.pack_values(*row) for row in rows_of(records)]
        boundaries = [len(header)]
        for blob in packed:
            boundaries.append(boundaries[-1] + len(blob))
        return header + b"".join(packed), boundaries

    @staticmethod
    def _stream(path):
        """Consume the streaming reader, returning records decoded from
        the batch columns."""
        seen: list[LogRecord] = []
        for batch in TraceReader(path).iter_batches(batch_size=3):
            seen.extend(batch.to_records())
        return seen

    def test_every_kill_point_flushes_then_reports_offset(self, tmp_path):
        import bisect

        records = varied_records(8)
        blob, boundaries = self._binary_trace(records)
        path = tmp_path / "t.bin"
        for cut in range(boundaries[0], len(blob)):
            path.write_bytes(blob[:cut])
            n_complete = bisect.bisect_right(boundaries, cut) - 1
            if cut in boundaries:
                # Cut on a record boundary: clean EOF, no error.
                assert self._stream(path) == records[:n_complete]
                continue
            seen: list[LogRecord] = []
            with pytest.raises(TraceTruncationError) as error:
                for batch in TraceReader(path).iter_batches(batch_size=3):
                    seen.extend(batch.to_records())
            # Every complete record before the cut was flushed first ...
            assert seen == records[:n_complete]
            # ... and the error names the incomplete record's byte offset.
            assert f"at byte {boundaries[n_complete]}" in str(error.value)
            assert f"({cut - boundaries[n_complete]} trailing bytes)" in str(error.value)

    def test_corrupt_record_mid_batch_names_offset(self, tmp_path):
        records = varied_records(9)
        blob, boundaries = self._binary_trace(records)
        corrupt_index = 5
        mangled = bytearray(blob)
        # Invalid UTF-8 inside record 5's site string.
        mangled[boundaries[corrupt_index] + schema._FIXED.size + 2] = 0xFF
        path = tmp_path / "t.bin"
        path.write_bytes(bytes(mangled))
        seen: list[LogRecord] = []
        with pytest.raises(TraceFormatError) as error:
            for batch in TraceReader(path).iter_batches(batch_size=4):
                seen.extend(batch.to_records())
        assert seen == records[:corrupt_index]
        assert f"corrupt record at byte {boundaries[corrupt_index]}" in str(error.value)

    def test_from_file_streaming_propagates_truncation(self, tmp_path):
        from repro.core.dataset import TraceDataset

        records = varied_records(10)
        blob, boundaries = self._binary_trace(records)
        path = tmp_path / "t.bin"
        path.write_bytes(blob[: boundaries[7] + 5])  # mid-record 7
        with pytest.raises(TraceTruncationError) as error:
            TraceDataset.from_file(path, batch_size=4, keep_store=False)
        assert f"at byte {boundaries[7]}" in str(error.value)


class TestBatchBuilder:
    def test_interning_reuses_codes(self):
        builder = BatchBuilder()
        records = varied_records(10)
        for record in records:
            builder.append_record(record)
        batch = builder.finish()
        assert_dictionaries_canonical(batch, records)

    def test_finish_empty(self):
        assert len(BatchBuilder().finish()) == 0

    def test_row_append_matches_record_append(self):
        records = varied_records(10)
        builder = BatchBuilder()
        for row in RecordBatch.from_records(records).iter_rows():
            builder.append(*row)
        batch = builder.finish()
        assert batch.to_records() == records
        assert_dictionaries_canonical(batch, records)

    @pytest.mark.parametrize(
        ("field", "value"),
        [
            ("timestamp", -0.5),
            ("timestamp", float("nan")),
            ("timestamp", float("inf")),
            ("site", ""),
            ("object_id", ""),
            ("object_size", -1),
            ("object_size", 2**63),
            ("bytes_served", -7),
            ("status_code", 99),
            ("status_code", 600),
        ],
    )
    def test_finish_rejects_what_log_record_rejects(self, field, value):
        # Rows appended as field tuples never pass LogRecord's checks, so
        # finish() must raise the same TraceSchemaError for the column.
        records = varied_records(4)
        row = list(next(RecordBatch.from_records(records[:1]).iter_rows()))
        row[schema.FIELD_NAMES.index(field)] = value
        with pytest.raises(TraceSchemaError) as expected:
            record_from_row(tuple(row))
        builder = BatchBuilder()
        for record in records[1:]:
            builder.append_record(record)
        builder.append(*row)
        with pytest.raises(TraceSchemaError) as error:
            builder.finish()
        assert str(error.value) == str(expected.value)


def _sealed_from_columns(rows: list[tuple]) -> RecordBatch:
    """``seal_columns`` over ``rows``, each string column coded over a value
    list in another order, with a value no row uses."""
    (timestamp, site, object_id, extension, object_size, user_id,
     user_agent, hit, status_code, bytes_served, datacenter, chunk_index) = zip(*rows)

    def coded(values) -> StringColumn:
        table = ["unused"] + sorted(set(values), reverse=True)
        index = {value: code for code, value in enumerate(table)}
        return StringColumn(np.asarray([index[value] for value in values], dtype=np.int32), table)

    return seal_columns(
        timestamp=np.asarray(timestamp, dtype=np.float64),
        object_size=np.asarray(object_size, dtype=np.int64),
        bytes_served=np.asarray(bytes_served, dtype=np.int64),
        status_code=np.asarray(status_code, dtype=np.int64),
        chunk_index=np.asarray(chunk_index, dtype=np.int64),
        hit=np.asarray(hit, dtype=np.bool_),
        strings={
            "site": coded(site), "object_id": coded(object_id), "extension": coded(extension),
            "user_id": coded(user_id), "user_agent": coded(user_agent), "datacenter": coded(datacenter),
        },
    )


class TestSealColumns:
    """``seal_columns`` seals the batch a :class:`BatchBuilder` appending
    the same rows seals, and rejects what it rejects."""

    def test_equals_builder_batch_column_for_column(self):
        rows = list(RecordBatch.from_records(varied_records(24)).iter_rows())
        builder = BatchBuilder()
        for row in rows:
            builder.append(*row)
        expected, sealed = builder.finish(), _sealed_from_columns(rows)
        for name in NUMERIC_FIELDS:
            assert getattr(sealed, name).dtype == getattr(expected, name).dtype, name
            assert getattr(sealed, name).tolist() == getattr(expected, name).tolist(), name
        for name in STRING_FIELDS:
            column, reference = getattr(sealed, name), getattr(expected, name)
            assert column.codes.dtype == reference.codes.dtype, name
            assert column.codes.tolist() == reference.codes.tolist(), name
            assert column.values == reference.values, name

    @pytest.mark.parametrize(
        ("field", "value"),
        [
            ("timestamp", -0.5),
            ("timestamp", float("nan")),
            ("site", ""),
            ("object_id", ""),
            ("object_size", -1),
            ("bytes_served", -7),
            ("status_code", 600),
        ],
    )
    def test_rejects_what_the_builder_rejects(self, field, value):
        rows = [list(row) for row in RecordBatch.from_records(varied_records(4)).iter_rows()]
        rows[2][schema.FIELD_NAMES.index(field)] = value
        builder = BatchBuilder()
        for row in rows:
            builder.append(*row)
        with pytest.raises(TraceSchemaError) as expected:
            builder.finish()
        with pytest.raises(TraceSchemaError) as error:
            _sealed_from_columns([tuple(row) for row in rows])
        assert str(error.value) == str(expected.value)
