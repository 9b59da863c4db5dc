"""Tests for trace merge/split/summarise tools."""

from __future__ import annotations

import pytest

from repro.errors import TraceError
from repro.trace.record import LogRecord
from repro.trace.tools import (
    merge_traces,
    split_trace_by_day,
    split_trace_by_site,
    summarize_trace,
)
from repro.trace.writer import write_trace_batches
from repro.types import CacheStatus

from tests.trace.test_io import read_records, write_records


def record(ts, site="V-1", status=200, hit=True):
    return LogRecord(
        timestamp=ts, site=site, object_id=f"o{site}", extension="mp4",
        object_size=1000, user_id="u1", user_agent="UA",
        cache_status=CacheStatus.HIT if hit else CacheStatus.MISS,
        status_code=status, bytes_served=1000 if status in (200, 206) else 0,
    )


class TestMerge:
    def test_merge_keeps_time_order(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        write_records([record(0.0), record(10.0), record(20.0)], a)
        write_records([record(5.0, site="P-1"), record(15.0, site="P-1")], b)
        out = tmp_path / "merged.csv"
        written = merge_traces([a, b], out)
        assert written == 5
        merged = read_records(out)
        times = [r.timestamp for r in merged]
        assert times == sorted(times)

    def test_merge_formats_can_differ(self, tmp_path):
        a = tmp_path / "a.jsonl"
        b = tmp_path / "b.bin"
        write_records([record(1.0)], a)
        write_records([record(2.0)], b)
        out = tmp_path / "merged.csv"
        assert merge_traces([a, b], out) == 2

    def test_empty_inputs_rejected(self, tmp_path):
        with pytest.raises(TraceError):
            merge_traces([], tmp_path / "out.csv")


class TestSplit:
    def test_split_by_site(self, tmp_path):
        source = tmp_path / "trace.csv"
        write_records(
            [record(0.0, site="V-1"), record(1.0, site="P-1"), record(2.0, site="V-1")],
            source,
        )
        parts = split_trace_by_site(source, tmp_path / "by_site")
        assert set(parts) == {"V-1", "P-1"}
        assert len(read_records(parts["V-1"])) == 2
        assert len(read_records(parts["P-1"])) == 1

    def test_split_by_site_refuses_sites_sharing_a_file(self, tmp_path):
        # "a/b" and "a_b" both map to a_b.csv: one file would hold both
        # sites' rows under either name.
        source = tmp_path / "trace.csv"
        write_records([record(float(i), site=("a/b", "a_b")[i % 2]) for i in range(6)], source)
        with pytest.raises(TraceError, match=r"'a/b' and 'a_b' would both be written to .*a_b\.csv"):
            split_trace_by_site(source, tmp_path / "by_site")

    def test_split_by_day(self, tmp_path):
        source = tmp_path / "trace.csv"
        write_records([record(0.0), record(86_400.0 + 5), record(86_400.0 + 10)], source)
        parts = split_trace_by_day(source, tmp_path / "by_day")
        assert set(parts) == {0, 1}
        assert len(read_records(parts[1])) == 2

    def test_split_roundtrip_covers_all_records(self, tmp_path):
        source = tmp_path / "trace.csv"
        records = [record(float(i), site=f"S-{i % 3}") for i in range(30)]
        write_records(records, source)
        parts = split_trace_by_site(source, tmp_path / "by_site")
        total = sum(len(read_records(path)) for path in parts.values())
        assert total == 30


class TestSummarize:
    def test_summary_counts(self, tmp_path):
        source = tmp_path / "trace.csv"
        write_records(
            [
                record(0.0, hit=True),
                record(100.0, site="P-1", hit=False),
                record(86_400.0, status=403, hit=False),
            ],
            source,
        )
        summary = summarize_trace(source)
        assert summary.records == 3
        assert summary.hits == 1
        assert summary.hit_ratio == pytest.approx(1 / 3)
        assert summary.duration_days == pytest.approx(1.0)
        assert summary.site_records["V-1"] == 2
        assert summary.status_codes[403] == 1
        assert summary.bytes_served == 2000

    def test_render_mentions_sites_and_codes(self, tmp_path):
        source = tmp_path / "trace.csv"
        write_records([record(0.0)], source)
        text = summarize_trace(source).render()
        assert "V-1" in text
        assert "200" in text

    def test_empty_trace_renders_without_infinities(self, tmp_path):
        source = tmp_path / "trace.csv"
        write_trace_batches([], source)
        summary = summarize_trace(source)
        assert summary.records == 0
        text = summary.render()
        assert "inf" not in text
        assert "window:         none (empty trace)" in text
