"""Round-trip and robustness tests for trace readers/writers."""

from __future__ import annotations

import csv
import gzip
import io
import json
import struct
import zlib

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import TraceFormatError, TraceSchemaError, TraceTruncationError
from repro.trace import reader as reader_module
from repro.trace import schema
from repro.trace.batch import NUMERIC_FIELDS, STRING_FIELDS, RecordBatch, iter_record_batches
from repro.trace.reader import TraceReader
from repro.trace.record import LogRecord
from repro.trace.writer import TraceWriter, write_trace_batches
from repro.types import CacheStatus, ContentCategory

# Strategy for arbitrary-but-valid log records.
_text = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",), blacklist_characters="\x00"),
    min_size=1,
    max_size=30,
)
record_strategy = st.builds(
    LogRecord,
    timestamp=st.floats(min_value=0, max_value=604800, allow_nan=False),
    site=st.sampled_from(["V-1", "V-2", "P-1", "P-2", "S-1"]),
    object_id=_text,
    extension=st.sampled_from(["mp4", "jpg", "gif", "html", "flv"]),
    object_size=st.integers(min_value=0, max_value=10**12),
    user_id=_text,
    user_agent=_text,
    cache_status=st.sampled_from(list(CacheStatus)),
    status_code=st.sampled_from([200, 204, 206, 304, 403, 416]),
    bytes_served=st.integers(min_value=0, max_value=10**12),
    datacenter=st.sampled_from(["dc-europe", "dc-asia"]),
    chunk_index=st.integers(min_value=-1, max_value=1000),
)


def sample_records(n: int = 5) -> list[LogRecord]:
    return [
        LogRecord(
            timestamp=float(i),
            site="V-1",
            object_id=f"obj{i}",
            extension="mp4" if i % 2 == 0 else "jpg",
            object_size=1000 * (i + 1),
            user_id=f"user{i % 2}",
            user_agent="UA",
            cache_status=CacheStatus.HIT if i % 2 == 0 else CacheStatus.MISS,
            status_code=200,
            bytes_served=500,
        )
        for i in range(n)
    ]


def write_records(records: list[LogRecord], path) -> int:
    """Write ``records`` to ``path`` as one batch; returns rows written."""
    return write_trace_batches([RecordBatch.from_records(records)], path)


def read_records(path, **filters) -> list[LogRecord]:
    """Every (matching) record of the trace at ``path``, read as batches."""
    return [record for batch in TraceReader(path, **filters).iter_batches() for record in batch.iter_records()]


def rows_of(records: list[LogRecord]) -> list[tuple]:
    """The records' :meth:`RecordBatch.iter_rows` field tuples."""
    return list(RecordBatch.from_records(records).iter_rows())


class TestRoundTrips:
    @pytest.mark.parametrize("fmt", ["csv", "jsonl", "bin"])
    def test_write_read_roundtrip(self, tmp_path, fmt):
        path = tmp_path / f"trace.{fmt}"
        records = sample_records(20)
        written = write_records(records, path)
        assert written == 20
        loaded = read_records(path)
        assert loaded == records

    @settings(max_examples=30)
    @given(record=record_strategy)
    def test_row_roundtrip(self, record):
        (row,) = rows_of([record])
        assert schema.row_to_values(schema.values_to_row(*row)) == row

    @settings(max_examples=30)
    @given(record=record_strategy)
    def test_dict_roundtrip(self, record):
        (row,) = rows_of([record])
        assert schema.dict_to_values(schema.values_to_dict(*row)) == row

    @settings(max_examples=30)
    @given(record=record_strategy)
    def test_binary_roundtrip(self, record):
        (row,) = rows_of([record])
        packed = schema.pack_values(*row)
        decoder = schema.BinaryDecoder()
        assert decoder.decode(packed, 0, limit=2) == len(packed)
        assert decoder.finish().to_records() == [record]

    def test_binary_multiple_records_sequential(self):
        records = sample_records(4)
        buffer = b"".join(schema.pack_values(*row) for row in rows_of(records))
        decoder = schema.BinaryDecoder()
        offset = 0
        out = []
        for _ in records:
            offset = decoder.decode(buffer, offset, limit=1)
            out.extend(decoder.finish().iter_records())
        assert offset == len(buffer)
        assert out == records


class TestWriter:
    def test_format_inferred_from_suffix(self, tmp_path):
        writer = TraceWriter(tmp_path / "x.jsonl")
        assert writer.fmt == "jsonl"

    def test_uninferrable_suffix_rejected(self, tmp_path):
        with pytest.raises(TraceFormatError):
            TraceWriter(tmp_path / "x.dat")

    def test_explicit_format_overrides(self, tmp_path):
        writer = TraceWriter(tmp_path / "x.dat", fmt="csv")
        assert writer.fmt == "csv"

    def test_write_before_open_rejected(self, tmp_path):
        writer = TraceWriter(tmp_path / "x.csv")
        with pytest.raises(TraceFormatError):
            writer.write_batch(RecordBatch.from_records(sample_records(1)))

    def test_creates_parent_directories(self, tmp_path):
        path = tmp_path / "deep" / "nested" / "trace.csv"
        write_records(sample_records(1), path)
        assert path.exists()

    def test_gzip_binary(self, tmp_path):
        path = tmp_path / "trace.bin.gz"
        records = sample_records(10)
        write_records(records, path)
        assert read_records(path) == records

    @pytest.mark.parametrize("gz", ["", ".gz"])
    @pytest.mark.parametrize("fmt", ["csv", "jsonl", "bin"])
    def test_gz_suffix_means_gzip_in_every_format(self, tmp_path, fmt, gz):
        path = tmp_path / f"trace.{fmt}{gz}"
        records = sample_records(10)
        write_records(records, path)
        assert (path.read_bytes()[:2] == b"\x1f\x8b") == bool(gz)
        assert read_records(path) == records


class TestReader:
    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(TraceFormatError):
            TraceReader(tmp_path / "nope.csv")

    def test_site_filter(self, tmp_path):
        records = sample_records(6)
        path = tmp_path / "t.csv"
        write_records(records, path)
        assert read_records(path, sites={"V-1"}) == records
        assert read_records(path, sites={"P-1"}) == []

    def test_category_filter(self, tmp_path):
        records = sample_records(6)
        path = tmp_path / "t.jsonl"
        write_records(records, path)
        videos = read_records(path, categories={ContentCategory.VIDEO})
        assert all(r.category is ContentCategory.VIDEO for r in videos)
        assert len(videos) == 3

    def test_time_window_filter(self, tmp_path):
        records = sample_records(10)
        path = tmp_path / "t.bin"
        write_records(records, path)
        window = read_records(path, start=2.0, end=5.0)
        assert [r.timestamp for r in window] == [2.0, 3.0, 4.0]

    def test_corrupt_binary_magic_rejected(self, tmp_path):
        path = tmp_path / "t.bin"
        path.write_bytes(b"NOPE" + b"\x00" * 10)
        with pytest.raises(TraceFormatError):
            list(TraceReader(path).iter_batches())

    def test_truncated_binary_rejected(self, tmp_path):
        path = tmp_path / "t.bin"
        write_records(sample_records(3), path)
        data = path.read_bytes()
        path.write_bytes(data[:-4])
        with pytest.raises(TraceFormatError):
            list(TraceReader(path).iter_batches())

    @staticmethod
    def _binary_parts(records):
        header = schema.BINARY_MAGIC + struct.pack("<H", schema.BINARY_VERSION)
        return header, [schema.pack_values(*row) for row in rows_of(records)]

    def test_truncation_reported_with_byte_offset(self, tmp_path):
        # A genuinely truncated file raises TraceTruncationError naming the
        # byte offset where the cut-off record starts.
        header, packed = self._binary_parts(sample_records(3))
        path = tmp_path / "t.bin"
        path.write_bytes(header + packed[0] + packed[1] + packed[2][:-4])
        records = []
        with pytest.raises(TraceTruncationError) as excinfo:
            for batch in TraceReader(path).iter_batches():
                records.extend(batch.iter_records())
        # Everything before the truncated record was still yielded.
        assert len(records) == 2
        expected_offset = len(header) + len(packed[0]) + len(packed[1])
        assert f"byte {expected_offset}" in str(excinfo.value)

    def test_midfile_corruption_distinguished_from_short_read(self, tmp_path):
        # Regression: a corrupt record used to be indistinguishable from a
        # short read, so corruption was buffered to EOF and misreported as
        # trailing bytes.  Invalid UTF-8 in a string field must surface as
        # a plain TraceFormatError (not TraceTruncationError) at the
        # corrupt record's byte offset, after yielding the good records.
        header, packed = self._binary_parts(sample_records(3))
        bad = bytearray(packed[1])
        bad[schema._FIXED.size + 2] = 0xFF  # first byte of the site string
        path = tmp_path / "t.bin"
        path.write_bytes(header + packed[0] + bytes(bad) + packed[2])
        records = []
        with pytest.raises(TraceFormatError) as excinfo:
            for batch in TraceReader(path).iter_batches():
                records.extend(batch.iter_records())
        assert not isinstance(excinfo.value, TraceTruncationError)
        assert len(records) == 1
        assert f"byte {len(header) + len(packed[0])}" in str(excinfo.value)
        assert "UTF-8" in str(excinfo.value)

    def test_corrupt_fixed_header_flag_rejected(self, tmp_path):
        header, packed = self._binary_parts(sample_records(2))
        bad = bytearray(packed[0])
        bad[schema._FIXED.size - 1] = 7  # cache-status flag: only 0/1 valid
        path = tmp_path / "t.bin"
        path.write_bytes(header + bytes(bad) + packed[1])
        with pytest.raises(TraceFormatError) as excinfo:
            list(TraceReader(path).iter_batches())
        assert not isinstance(excinfo.value, TraceTruncationError)
        assert "cache-status flag" in str(excinfo.value)

    def test_bad_flag_reported_before_a_cut(self, tmp_path):
        # A bad cache-status flag is corruption even when the file ends
        # later in the same row (here inside the site's length prefix).
        header, packed = self._binary_parts(sample_records(2))
        bad = bytearray(packed[1])
        bad[schema._FIXED.size - 1] = 2
        path = tmp_path / "t.bin"
        for cut in (schema._FIXED.size, schema._FIXED.size + 1, len(bad) - 1):
            path.write_bytes(header + packed[0] + bytes(bad[:cut]))
            with pytest.raises(TraceFormatError, match="cache-status flag 2") as error:
                list(TraceReader(path).iter_batches())
            assert not isinstance(error.value, TraceTruncationError)

    def test_unpack_record_short_buffer_raises_truncation(self, tmp_path):
        # A row cut short means "need more bytes" to the decoder, and a
        # TraceTruncationError once the file ends there.
        header, (packed,) = self._binary_parts(sample_records(1))
        path = tmp_path / "t.bin"
        for cut in (1, schema._FIXED.size - 1, schema._FIXED.size + 1, len(packed) - 1):
            decoder = schema.BinaryDecoder()
            assert decoder.decode(packed[:cut], 0, limit=1) == 0
            assert len(decoder) == 0
            path.write_bytes(header + packed[:cut])
            with pytest.raises(TraceTruncationError, match=f"truncated record at byte {len(header)} "):
                list(TraceReader(path).iter_batches())
        # The full buffer parses cleanly.
        decoder = schema.BinaryDecoder()
        assert decoder.decode(packed, 0, limit=1) == len(packed)
        assert len(decoder) == 1

    @pytest.mark.parametrize(
        ("fmt", "line", "message"),
        [
            ("csv", 3, "object_size must fit in int64"),
            ("jsonl", 2, "timestamp must be finite"),
        ],
    )
    def test_text_schema_error_names_line_after_good_rows(self, tmp_path, fmt, line, message):
        # An integer beyond int64 or a non-finite timestamp is a schema
        # error at its file:line, not an OverflowError that loses the
        # rows read before it.
        records = sample_records(3)
        path = tmp_path / f"t.{fmt}"
        write_records(records, path)
        lines = path.read_text().splitlines()
        if fmt == "csv":
            lines[2] = lines[2].replace(",2000,", f",{2**70},")
        else:
            lines[1] = json.dumps({**json.loads(lines[1]), "timestamp": float("nan")})
        path.write_text("\n".join(lines) + "\n")
        seen: list[LogRecord] = []
        with pytest.raises(TraceSchemaError, match=f"^t\\.{fmt}:{line}: {message}"):
            for batch in TraceReader(path).iter_batches(batch_size=4):
                seen.extend(batch.iter_records())
        assert seen == records[:1]

    def test_bad_csv_header_rejected(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("wrong,header\n1,2\n")
        with pytest.raises(TraceFormatError):
            list(TraceReader(path).iter_batches())

    def test_invalid_jsonl_line_rejected(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text("{not json}\n")
        with pytest.raises(TraceFormatError):
            list(TraceReader(path).iter_batches())

    def test_blank_jsonl_lines_skipped(self, tmp_path):
        records = sample_records(2)
        path = tmp_path / "t.jsonl"
        write_records(records, path)
        path.write_text(path.read_text() + "\n\n")
        assert read_records(path) == records

    def test_streaming_does_not_need_full_load(self, tmp_path):
        path = tmp_path / "t.csv"
        write_records(sample_records(50), path)
        first = next(TraceReader(path).iter_batches(batch_size=1))
        assert first.to_records() == sample_records(1)

    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    def test_invalid_utf8_names_line_after_good_rows(self, tmp_path, fmt):
        # A byte that is not UTF-8 in a text row is a format error at its
        # file:line, raised after the rows before it were flushed.
        records = sample_records(3)
        path = tmp_path / f"t.{fmt}"
        write_records(records, path)
        path.write_bytes(path.read_bytes().replace(b"obj1", b"obj\xff"))
        line = 3 if fmt == "csv" else 2
        seen: list[LogRecord] = []
        with pytest.raises(TraceFormatError, match=f"^t\\.{fmt}:{line}: invalid UTF-8") as error:
            for batch in TraceReader(path).iter_batches(batch_size=4):
                seen.extend(batch.iter_records())
        assert not isinstance(error.value, TraceTruncationError)
        assert seen == records[:1]

    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    def test_gzip_compressed_text_is_read(self, tmp_path, fmt):
        records = sample_records(5)
        plain = tmp_path / f"plain.{fmt}"
        write_records(records, plain)
        path = tmp_path / f"t.{fmt}.gz"
        path.write_bytes(gzip.compress(plain.read_bytes()))
        assert read_records(path) == records

    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    def test_text_not_gzip_is_format_error(self, tmp_path, fmt):
        plain = tmp_path / f"plain.{fmt}"
        write_records(sample_records(3), plain)
        path = tmp_path / f"t.{fmt}.gz"
        path.write_bytes(plain.read_bytes())
        with pytest.raises(TraceFormatError, match=f"^t\\.{fmt}\\.gz: not a valid gzip stream"):
            list(TraceReader(path).iter_batches())


class TestDamagedBinary:
    """A damaged binary header or gzip stream raises a typed error naming
    the file, after every decodable row was flushed."""

    def test_header_cut_inside_version_is_truncation(self, tmp_path):
        header = schema.BINARY_MAGIC + struct.pack("<H", schema.BINARY_VERSION)
        path = tmp_path / "t.bin"
        for cut in range(len(schema.BINARY_MAGIC), len(header)):
            path.write_bytes(header[:cut])
            with pytest.raises(TraceTruncationError, match=r"^t\.bin: truncated header"):
                list(TraceReader(path).iter_batches())

    def test_truncated_gzip_flushes_every_decodable_row(self, tmp_path):
        records = [
            LogRecord(
                timestamp=float(i), site="V-1", object_id=f"obj{i % 97}", extension="mp4",
                object_size=1000 + i, user_id=f"user{i % 13}", user_agent="UA",
                cache_status=CacheStatus.HIT if i % 3 else CacheStatus.MISS,
                status_code=200, bytes_served=500 + i,
            )
            for i in range(5000)
        ]
        path = tmp_path / "t.bin.gz"
        write_records(records, path)
        cut = path.read_bytes()[: path.stat().st_size * 2 // 3]
        path.write_bytes(cut)
        # The rows an incremental decompressor recovers from the cut bytes.
        recovered = zlib.decompressobj(16 + zlib.MAX_WBITS).decompress(cut)
        decoder = schema.BinaryDecoder()
        decoder.decode(recovered, len(schema.BINARY_MAGIC) + 2, limit=len(records))
        decodable = len(decoder)
        seen: list[LogRecord] = []
        with pytest.raises(TraceTruncationError, match=r"^t\.bin\.gz: truncated gzip stream"):
            for batch in TraceReader(path).iter_batches(batch_size=1000):
                seen.extend(batch.iter_records())
        assert 0 < decodable < len(records)
        assert seen == records[:decodable]

    def test_not_gzip_is_format_error(self, tmp_path):
        path = tmp_path / "t.bin.gz"
        header, packed = TestReader._binary_parts(sample_records(3))
        path.write_bytes(header + b"".join(packed))
        with pytest.raises(TraceFormatError, match=r"^t\.bin\.gz: not a valid gzip stream") as error:
            list(TraceReader(path).iter_batches())
        assert not isinstance(error.value, TraceTruncationError)

    def test_corrupt_gzip_payload_is_format_error(self, tmp_path):
        path = tmp_path / "t.bin.gz"
        write_records(sample_records(200), path)
        blob = bytearray(path.read_bytes())
        blob[20:40] = bytes(20)  # zero a run of the deflate payload
        path.write_bytes(bytes(blob))
        with pytest.raises(TraceFormatError, match=r"^t\.bin\.gz: "):
            list(TraceReader(path).iter_batches())


def _csv_line(fields: list[str]) -> str:
    out = io.StringIO()
    csv.writer(out, lineterminator="").writerow(fields)
    return out.getvalue()


#: Malformed variants of one CSV row's fields.
_CSV_VARIANTS = {
    "too-few-fields": lambda fields: fields[:-1],
    "too-many-fields": lambda fields: fields + ["extra"],
    "empty-line": lambda fields: [],
    "bad-timestamp": lambda fields: ["soon"] + fields[1:],
    "bad-size": lambda fields: fields[:4] + ["1.5kb"] + fields[5:],
    "unknown-cache-status": lambda fields: fields[:7] + ["STALE"] + fields[8:],
}

#: Malformed variants of one JSONL line's object.
_JSONL_VARIANTS = {
    "invalid-json": lambda obj: "{not json",
    "array": lambda obj: json.dumps(list(obj.values())),
    "number": lambda obj: "42",
    "string": lambda obj: json.dumps("V-1"),
    "missing-field": lambda obj: json.dumps({k: v for k, v in obj.items() if k != "object_size"}),
    "bad-number": lambda obj: json.dumps({**obj, "bytes_served": "lots"}),
    "unknown-cache-status": lambda obj: json.dumps({**obj, "cache_status": "STALE"}),
}


class TestTextCorruptionFuzz:
    """At every line of a text trace, each malformed variant of that line
    yields every earlier row, then a TraceFormatError naming file:line."""

    @staticmethod
    def _expect_failure_at(path, records, index, line_number):
        seen: list[LogRecord] = []
        with pytest.raises(TraceFormatError) as error:
            for batch in TraceReader(path).iter_batches(batch_size=4):
                seen.extend(batch.iter_records())
        assert seen == records[:index]
        assert str(error.value).startswith(f"{path.name}:{line_number}: ")

    @pytest.mark.parametrize("variant", sorted(_CSV_VARIANTS))
    def test_csv(self, tmp_path, variant):
        records = sample_records(9)
        path = tmp_path / "t.csv"
        write_records(records, path)
        header, *lines = path.read_text().splitlines()
        for index, line in enumerate(lines):
            bad = _csv_line(_CSV_VARIANTS[variant](next(csv.reader([line]))))
            path.write_text("\n".join([header, *lines[:index], bad, *lines[index + 1 :]]) + "\n")
            # Line 1 is the header.
            self._expect_failure_at(path, records, index, index + 2)

    @pytest.mark.parametrize("variant", sorted(_JSONL_VARIANTS))
    def test_jsonl(self, tmp_path, variant):
        records = sample_records(9)
        path = tmp_path / "t.jsonl"
        write_records(records, path)
        lines = path.read_text().splitlines()
        for index, line in enumerate(lines):
            bad = _JSONL_VARIANTS[variant](json.loads(line))
            path.write_text("\n".join([*lines[:index], bad, *lines[index + 1 :]]) + "\n")
            self._expect_failure_at(path, records, index, index + 1)


#: Field names of a :meth:`RecordBatch.iter_rows` tuple, which is also
#: :func:`schema.pack_values`'s argument order.
_ROW_FIELDS = (
    "timestamp", "site", "object_id", "extension", "object_size", "user_id",
    "user_agent", "hit", "status_code", "bytes_served", "datacenter", "chunk_index",
)


def _packed(row: tuple, **changes) -> bytes:
    """One binary row: ``row``'s fields with ``changes`` applied."""
    return schema.pack_values(**{**dict(zip(_ROW_FIELDS, row)), **changes})


def _with_flag(row: tuple, flag: int) -> bytes:
    blob = bytearray(_packed(row))
    blob[schema._FIXED.size - 1] = flag
    return bytes(blob)


def _with_bad_utf8(row: tuple, field: str) -> bytes:
    """``row`` packed with the first byte of string ``field`` set to 0xFF."""
    blob = bytearray(_packed(row))
    at = schema._FIXED.size
    for name in STRING_FIELDS:
        (length,) = struct.unpack_from("<H", blob, at)
        if name == field:
            blob[at + 2] = 0xFF
            return bytes(blob)
        at += 2 + length
    raise AssertionError(field)


#: Malformed variants of one binary row: (expected error, row bytes).
_BINARY_VARIANTS = {
    "cache-flag-2": (TraceFormatError, lambda row: _with_flag(row, 2)),
    **{
        f"utf8-{field}": (TraceFormatError, lambda row, field=field: _with_bad_utf8(row, field))
        for field in STRING_FIELDS
    },
    "status-0": (TraceSchemaError, lambda row: _packed(row, status_code=0)),
    "status-600": (TraceSchemaError, lambda row: _packed(row, status_code=600)),
    "empty-site": (TraceSchemaError, lambda row: _packed(row, site="")),
    "empty-object-id": (TraceSchemaError, lambda row: _packed(row, object_id="")),
    "negative-timestamp": (TraceSchemaError, lambda row: _packed(row, timestamp=-1.0)),
    "nan-timestamp": (TraceSchemaError, lambda row: _packed(row, timestamp=float("nan"))),
    "inf-timestamp": (TraceSchemaError, lambda row: _packed(row, timestamp=float("inf"))),
    "size-2**63": (TraceSchemaError, lambda row: _packed(row, object_size=2**63)),
}


class TestBinaryCorruptionFuzz:
    """At every row of a binary trace, each malformed variant of that row
    yields every earlier row, then a typed error naming the file and the
    row's byte offset, also when rows straddle the reader's reads."""

    @pytest.mark.parametrize("chunk", [7, 1 << 20])
    @pytest.mark.parametrize("variant", sorted(_BINARY_VARIANTS))
    def test_bin(self, tmp_path, monkeypatch, variant, chunk):
        monkeypatch.setattr(reader_module, "_BINARY_CHUNK", chunk)
        error_type, mangle = _BINARY_VARIANTS[variant]
        records = sample_records(9)
        rows = rows_of(records)
        header, packed = TestReader._binary_parts(records)
        path = tmp_path / "t.bin"
        for index in range(len(records)):
            path.write_bytes(
                header + b"".join(packed[:index]) + mangle(rows[index]) + b"".join(packed[index + 1 :])
            )
            seen: list[RecordBatch] = []
            with pytest.raises(error_type) as error:
                seen.extend(TraceReader(path).iter_batches(batch_size=4))
            # The rows before the bad one, flushed as the batches a builder
            # seals from them: no value of the bad row leaks into a dictionary.
            _assert_same_batches(seen, list(iter_record_batches(records[:index], 4)))
            assert not isinstance(error.value, TraceTruncationError)
            offset = len(header) + sum(map(len, packed[:index]))
            assert str(error.value).startswith("t.bin: ")
            assert f"record at byte {offset}: " in str(error.value)
            # Rows a filter drops are checked all the same.
            filtered = TraceReader(path, sites={"no-such-site"})
            with pytest.raises(error_type, match=f"record at byte {offset}: "):
                assert list(filtered.iter_batches(batch_size=4)) == []


@st.composite
def _record_lists(draw):
    """Record lists whose string fields repeat values, some non-ASCII."""
    pools = {field: draw(st.lists(_text, min_size=1, max_size=3)) for field in ("object_id", "user_id", "user_agent")}
    records = st.builds(
        LogRecord,
        timestamp=st.floats(min_value=0, max_value=604800, allow_nan=False),
        site=st.sampled_from(["V-1", "V-2", "P-1", "P-2", "S-1"]),
        object_id=st.sampled_from(pools["object_id"]),
        extension=st.sampled_from(["mp4", "jpg", "gif", "html", "flv"]),
        object_size=st.integers(min_value=0, max_value=2**63 - 1),
        user_id=st.sampled_from(pools["user_id"]),
        user_agent=st.sampled_from(pools["user_agent"]) | _text,
        cache_status=st.sampled_from(list(CacheStatus)),
        status_code=st.sampled_from([200, 206, 304, 404]),
        bytes_served=st.integers(min_value=0, max_value=2**63 - 1),
        datacenter=st.sampled_from(["dc-europe", "dc-asia", "dc-\u00e9t\u00e9"]),
        chunk_index=st.integers(min_value=-1, max_value=2**15 - 1),
    )
    return draw(st.lists(records, max_size=25))


def _assert_same_batches(got: list[RecordBatch], expected: list[RecordBatch]) -> None:
    assert [len(batch) for batch in got] == [len(batch) for batch in expected]
    for ours, theirs in zip(got, expected):
        for name in NUMERIC_FIELDS:
            column, reference = getattr(ours, name), getattr(theirs, name)
            assert column.dtype == reference.dtype, name
            assert np.array_equal(column, reference), name
        for name in STRING_FIELDS:
            column, reference = getattr(ours, name), getattr(theirs, name)
            assert column.codes.dtype == reference.codes.dtype, name
            assert np.array_equal(column.codes, reference.codes), name
            assert column.values == reference.values, name


#: Filters for the identity property: (reader keyword, record predicate).
_FILTERS = {
    "sites": ({"sites": {"V-1", "P-2"}}, lambda r: r.site in {"V-1", "P-2"}),
    "categories": ({"categories": {ContentCategory.IMAGE}}, lambda r: r.category is ContentCategory.IMAGE),
    "start": ({"start": 302400.0}, lambda r: r.timestamp >= 302400.0),
    "end": ({"end": 302400.0}, lambda r: r.timestamp < 302400.0),
}


class TestBinaryDecoderIdentity:
    """The binary reader's batches equal the batches a BatchBuilder seals
    from the same records: boundaries, arrays, dtypes, codes and values,
    however the file's bytes arrive."""

    @settings(
        max_examples=25, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    @given(records=_record_lists())
    def test_batches_equal_record_batches(self, tmp_path, monkeypatch, records):
        for name in ("t.bin", "t.bin.gz"):
            path = tmp_path / name
            write_records(records, path)
            for chunk in (1, 7, 4096):
                monkeypatch.setattr(reader_module, "_BINARY_CHUNK", chunk)
                for batch_size in (1, 7, 65_536):
                    _assert_same_batches(
                        list(TraceReader(path).iter_batches(batch_size=batch_size)),
                        list(iter_record_batches(records, batch_size)),
                    )

    @pytest.mark.parametrize("kind", sorted(_FILTERS))
    @settings(
        max_examples=15, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    @given(records=_record_lists())
    def test_filtered_batches_equal_filtered_record_batches(self, tmp_path, monkeypatch, kind, records):
        keyword, keep = _FILTERS[kind]
        path = tmp_path / "t.bin"
        write_records(records, path)
        kept = [record for record in records if keep(record)]
        for chunk in (1, 7, 4096):
            monkeypatch.setattr(reader_module, "_BINARY_CHUNK", chunk)
            for batch_size in (1, 7, 65_536):
                _assert_same_batches(
                    list(TraceReader(path, **keyword).iter_batches(batch_size=batch_size)),
                    list(iter_record_batches(kept, batch_size)),
                )
