"""Tests for the trace dataset and its indices."""

from __future__ import annotations

import pytest

from repro.core.dataset import ObjectStats, TraceDataset
from repro.trace.record import LogRecord
from repro.trace.writer import write_trace
from repro.types import CacheStatus, ContentCategory


def record(ts, obj="o1", user="u1", status=200, hit=True, ext="mp4", size=1000, site="V-1"):
    return LogRecord(
        timestamp=ts,
        site=site,
        object_id=obj,
        extension=ext,
        object_size=size,
        user_id=user,
        user_agent="UA",
        cache_status=CacheStatus.HIT if hit else CacheStatus.MISS,
        status_code=status,
        bytes_served=size if status in (200, 206) else 0,
    )


class TestIngestion:
    def test_counts_and_indices(self):
        ds = TraceDataset.from_records(
            [
                record(0.0, obj="a", user="u1"),
                record(10.0, obj="a", user="u2", hit=False),
                record(20.0, obj="b", user="u1", ext="jpg"),
            ]
        )
        assert len(ds) == 3
        assert ds.sites == ["V-1"]
        stats = ds.object_stats["a"]
        assert stats.requests == 2
        assert stats.unique_users == 2
        assert stats.hits == 1
        assert stats.misses == 1

    def test_error_codes_excluded_from_object_stats(self):
        ds = TraceDataset.from_records(
            [record(0.0, status=403), record(1.0, status=416), record(2.0, status=200)]
        )
        assert ds.object_stats["o1"].requests == 1

    def test_304_counts_as_request_but_not_cache_lookup(self):
        ds = TraceDataset.from_records([record(0.0, status=304)])
        stats = ds.object_stats["o1"]
        assert stats.requests == 1
        assert stats.hits + stats.misses == 0

    def test_user_timelines_sorted(self):
        ds = TraceDataset.from_records([record(5.0), record(1.0), record(3.0)])
        assert ds.user_timestamps("u1") == [1.0, 3.0, 5.0]

    def test_error_records_still_count_as_user_activity(self):
        ds = TraceDataset.from_records([record(0.0, status=403)])
        assert ds.user_timestamps("u1") == [0.0]

    def test_duration(self):
        ds = TraceDataset.from_records([record(0.0), record(7200.0)])
        assert ds.duration_hours == 3
        # Hours 0 and 1 only: no phantom third hour past the last record.
        assert TraceDataset.from_records([record(0.0), record(7199.0)]).duration_hours == 2
        assert TraceDataset.from_records([record(0.0), record(7199.5)]).duration_hours == 2

    def test_from_file(self, tmp_path):
        records = [record(float(i)) for i in range(5)]
        path = tmp_path / "t.csv"
        write_trace(records, path)
        ds = TraceDataset.from_file(path)
        assert len(ds) == 5


class TestObjectStats:
    def test_requests_per_user(self):
        ds = TraceDataset.from_records(
            [record(0.0, user="u1"), record(1.0, user="u1"), record(2.0, user="u2")]
        )
        assert ds.object_stats["o1"].requests_per_user == pytest.approx(1.5)

    def test_max_requests_by_one_user(self):
        ds = TraceDataset.from_records(
            [record(0.0, user="u1"), record(1.0, user="u1"), record(2.0, user="u2")]
        )
        assert ds.object_stats["o1"].max_requests_by_one_user == 2

    def test_hit_ratio(self):
        ds = TraceDataset.from_records([record(0.0, hit=True), record(1.0, hit=False)])
        assert ds.object_stats["o1"].hit_ratio == pytest.approx(0.5)

    def test_hourly_series(self):
        ds = TraceDataset.from_records([record(0.0), record(1800.0), record(3700.0)])
        series = ds.object_stats["o1"].hourly_series(hours=3)
        assert list(series.values) == [2, 1, 0]

    def test_empty_defaults(self):
        stats = ObjectStats(object_id="x", site="V-1", category=ContentCategory.VIDEO, extension="mp4", size_bytes=0)
        assert stats.requests_per_user == 0.0
        assert stats.max_requests_by_one_user == 0
        assert stats.hit_ratio == 0.0


class TestQueries:
    @pytest.fixture
    def ds(self):
        return TraceDataset.from_records(
            [
                record(0.0, obj="v1", ext="mp4", site="V-1"),
                record(1.0, obj="v2", ext="mp4", site="V-1", user="u2"),
                record(2.0, obj="i1", ext="jpg", site="P-1", user="u3"),
                record(3.0, obj="x1", ext="mp4", site="P-1", status=403, user="u4"),
            ]
        )

    def test_objects_of_site(self, ds):
        assert {s.object_id for s in ds.objects_of("V-1")} == {"v1", "v2"}

    def test_objects_of_category(self, ds):
        assert {s.object_id for s in ds.objects_of(category=ContentCategory.IMAGE)} == {"i1"}

    def test_requested_only_filter(self, ds):
        all_objects = {s.object_id for s in ds.objects_of("P-1", requested_only=False)}
        requested = {s.object_id for s in ds.objects_of("P-1", requested_only=True)}
        assert "x1" in all_objects
        assert "x1" not in requested

    def test_users_of_site(self, ds):
        assert set(ds.users_of("P-1")) == {"u3", "u4"}

    def test_top_objects_orders_by_requests(self):
        ds = TraceDataset.from_records(
            [record(0.0, obj="a"), record(1.0, obj="a"), record(2.0, obj="a"), record(3.0, obj="b"), record(4.0, obj="b")]
        )
        top = ds.top_objects("V-1", ContentCategory.VIDEO, limit=1, min_requests=2)
        assert top[0].object_id == "a"

    def test_sample_objects_deterministic(self):
        records = [record(float(i), obj=f"o{i % 20}") for i in range(100)]
        ds = TraceDataset.from_records(records)
        a = ds.sample_objects("V-1", ContentCategory.VIDEO, limit=5, seed=1)
        b = ds.sample_objects("V-1", ContentCategory.VIDEO, limit=5, seed=1)
        assert [s.object_id for s in a] == [s.object_id for s in b]

    def test_require_nonempty(self):
        from repro.errors import EmptyDatasetError

        with pytest.raises(EmptyDatasetError):
            TraceDataset().require_nonempty()


class TestHourlySeriesBounds:
    def test_out_of_range_hour_raises(self):
        from repro.errors import AnalysisError

        ds = TraceDataset.from_records([record(0.0), record(2 * 3600.0)])
        with pytest.raises(AnalysisError, match="hour 2"):
            ds.object_stats["o1"].hourly_series(hours=2)

    def test_duration_sized_series_always_fits(self):
        ds = TraceDataset.from_records([record(0.0), record(2 * 3600.0)])
        series = ds.object_stats["o1"].hourly_series(hours=ds.duration_hours)
        assert series.values.sum() == 2


class TestSiteRecords:
    def test_served_from_row_index(self):
        records = [
            record(0.0, site="V-1", obj="a"),
            record(1.0, site="P-1", obj="b"),
            record(2.0, site="V-1", obj="c"),
        ]
        ds = TraceDataset.from_records(records)
        assert ds.site_records("V-1") == [records[0], records[2]]
        assert ds.site_records("P-1") == [records[1]]
        assert ds.site_records("S-1") == []

    def test_columnar_store_without_record_cache(self):
        # A fully columnar dataset (no LogRecord cache anywhere) must
        # materialise only the requested site's rows.
        records = [
            record(0.0, site="V-1", obj="a"),
            record(1.0, site="P-1", obj="b"),
            record(2.0, site="V-1", obj="c"),
        ]
        from repro.trace.batch import RecordBatch

        batch = RecordBatch.from_records(records)
        ds = TraceDataset.from_batches([batch])
        assert ds._records is None
        assert ds.site_records("V-1") == [records[0], records[2]]
        assert ds._records is None  # still no full-trace materialisation


class TestLazyMaterialization:
    def _columnar(self, records):
        from repro.trace.batch import RecordBatch

        return TraceDataset.from_batches([RecordBatch.from_records(records)])

    def test_views_deferred_until_first_access(self):
        ds = self._columnar([record(0.0), record(1.0, user="u2")])
        assert ds._deferred is not None
        assert ds._object_stats_map is None
        stats = ds.object_stats
        assert ds._object_stats_map is not None
        assert ds.object_stats is stats  # cached, not rebuilt

    def test_deferred_released_after_both_views(self):
        ds = self._columnar([record(0.0), record(1.0, user="u2")])
        ds.object_stats
        assert ds._deferred is not None  # user index still pending
        ds.user_timestamps("u1")
        assert ds._deferred is None

    def test_counts_available_without_materialisation(self):
        # Aggregate counters are eager; only python-object views defer.
        ds = self._columnar([record(0.0), record(1.0)])
        assert len(ds) == 2
        assert ds.sites == ["V-1"]
        assert ds.duration_seconds == 1.0
        assert ds._object_stats_map is None
