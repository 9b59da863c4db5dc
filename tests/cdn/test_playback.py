"""Tests for the streaming playback model."""

from __future__ import annotations

import pytest

from repro.cdn.playback import PlaybackModel
from repro.errors import CdnError
from repro.stats.sampling import make_rng
from repro.types import ContentCategory, TrendClass
from repro.workload.catalog import ContentObject


def make_video(size=20_000_000) -> ContentObject:
    return ContentObject(
        object_id="vid-1", site="V-1", category=ContentCategory.VIDEO, extension="mp4",
        size_bytes=size, birth_time=0.0, trend=TrendClass.DIURNAL, popularity_weight=1.0,
    )


def make_image() -> ContentObject:
    return ContentObject(
        object_id="img-1", site="P-1", category=ContentCategory.IMAGE, extension="jpg",
        size_bytes=100_000, birth_time=0.0, trend=TrendClass.DIURNAL, popularity_weight=1.0,
    )


class TestPlaybackModel:
    def test_parameter_validation(self):
        with pytest.raises(CdnError):
            PlaybackModel(segment_bytes=0)
        with pytest.raises(CdnError):
            PlaybackModel(abandon_prob=0.0)
        with pytest.raises(CdnError):
            PlaybackModel(seek_prob=1.0)
        with pytest.raises(CdnError):
            PlaybackModel(max_segments=0)

    def test_images_not_streamable(self):
        model = PlaybackModel()
        assert not model.is_streamable(make_image())
        segments = model.viewing(make_image(), make_rng(0))
        assert len(segments) == 1
        assert segments[0].intent.kind == "full"

    def test_small_video_downloads_whole(self):
        model = PlaybackModel(segment_bytes=5_000_000)
        small = make_video(size=1_000_000)
        assert not model.is_streamable(small)

    def test_first_segment_always_downloaded(self):
        model = PlaybackModel(abandon_prob=0.99)
        segments = model.viewing(make_video(), make_rng(1))
        assert len(segments) >= 1
        assert segments[0].intent.range_start == 0

    def test_segments_within_object_bounds(self):
        model = PlaybackModel(segment_bytes=3_000_000)
        video = make_video(size=10_000_000)
        for seed in range(30):
            for segment in model.viewing(video, make_rng(seed)):
                intent = segment.intent
                assert 0 <= intent.range_start < video.size_bytes
                assert intent.range_start + intent.range_length <= video.size_bytes

    def test_sequential_without_seeks(self):
        model = PlaybackModel(segment_bytes=1_000_000, abandon_prob=0.01, seek_prob=0.0)
        video = make_video(size=5_000_000)
        segments = model.viewing(video, make_rng(2))
        starts = [s.intent.range_start for s in segments]
        assert starts == sorted(starts)
        assert starts == [i * 1_000_000 for i in range(len(starts))]

    def test_seeks_jump_forward(self):
        model = PlaybackModel(segment_bytes=1_000_000, abandon_prob=0.01, seek_prob=0.9)
        video = make_video(size=50_000_000)
        segments = model.viewing(video, make_rng(3))
        starts = [s.intent.range_start for s in segments]
        assert starts == sorted(starts)  # seeks only move forward

    def test_abandonment_shortens_viewings(self):
        video = make_video(size=100_000_000)
        sticky = PlaybackModel(segment_bytes=1_000_000, abandon_prob=0.02, seek_prob=0.0)
        flighty = PlaybackModel(segment_bytes=1_000_000, abandon_prob=0.5, seek_prob=0.0)
        sticky_mean = sum(len(sticky.viewing(video, make_rng(s))) for s in range(40)) / 40
        flighty_mean = sum(len(flighty.viewing(video, make_rng(s))) for s in range(40)) / 40
        assert flighty_mean < sticky_mean

    def test_offsets_increase_with_playback(self):
        model = PlaybackModel(segment_bytes=1_000_000, abandon_prob=0.01, segment_duration_s=8.0)
        segments = model.viewing(make_video(size=10_000_000), make_rng(4))
        offsets = [s.offset_seconds for s in segments]
        assert offsets == sorted(offsets)
        if len(offsets) > 1:
            assert offsets[1] - offsets[0] == pytest.approx(8.0)

    def test_max_segments_cap(self):
        model = PlaybackModel(segment_bytes=1_000, abandon_prob=0.001, max_segments=10)
        segments = model.viewing(make_video(size=100_000_000), make_rng(5))
        assert len(segments) <= 10

    def test_expected_watch_fraction(self):
        model = PlaybackModel(abandon_prob=0.25, max_segments=8)
        assert model.expected_watch_fraction() == pytest.approx(0.5)


class TestPlaybackSimulation:
    def test_playback_mode_multiplies_video_records(self):
        from repro.cdn.simulator import CdnSimulator, SimulationConfig
        from repro.workload.generator import WorkloadGenerator
        from repro.workload.profiles import profile_v1
        from repro.workload.scale import ScaleConfig

        generator = WorkloadGenerator(profiles=(profile_v1(),), scale=ScaleConfig.tiny(), seed=21)
        workload = generator.generate_site(profile_v1())
        sample = next(generator.merged_request_batches({"V-1": workload}, batch_size=2000))

        def run(playback: bool):
            simulator = CdnSimulator(
                profiles=(profile_v1(),),
                config=SimulationConfig(seed=22, playback_mode=playback),
            )
            return [record for batch in simulator.run_batches([sample]) for record in batch.iter_records()]

        plain = run(False)
        streamed = run(True)
        assert len(streamed) > len(plain)
        share_206 = sum(r.status_code == 206 for r in streamed) / len(streamed)
        assert share_206 > 0.5  # segment downloads dominate in playback mode

    def test_playback_records_are_valid(self):
        from repro.cdn.simulator import CdnSimulator, SimulationConfig
        from repro.workload.generator import WorkloadGenerator
        from repro.workload.profiles import profile_v1
        from repro.workload.scale import ScaleConfig

        generator = WorkloadGenerator(profiles=(profile_v1(),), scale=ScaleConfig.tiny(), seed=21)
        workload = generator.generate_site(profile_v1())
        simulator = CdnSimulator(
            profiles=(profile_v1(),), config=SimulationConfig(seed=22, playback_mode=True)
        )
        head = next(generator.merged_request_batches({"V-1": workload}, batch_size=500))
        records = [record for batch in simulator.run_batches([head]) for record in batch.iter_records()]
        assert records
        assert simulator.metrics.total_requests == len(records)
        for record in records:
            assert record.status_code in (200, 204, 206, 304, 403, 416)
