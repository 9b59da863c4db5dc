"""Tests for the workload generator."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import WorkloadError
from repro.types import ContentCategory
from repro.workload.generator import WorkloadGenerator
from repro.workload.profiles import ALL_PROFILES, profile_v1, profile_v2
from repro.workload.scale import ScaleConfig


@pytest.fixture(scope="module")
def v1_workload():
    generator = WorkloadGenerator(profiles=(profile_v1(),), scale=ScaleConfig.tiny(), seed=11)
    return generator.generate_site(profile_v1())


def _object_ids(workload, rows: int | None = None) -> list[str]:
    """The ids of the objects ``workload``'s first ``rows`` requests ask for."""
    objects = workload.catalog.objects
    return [objects[index].object_id for index in workload.object_index[:rows].tolist()]


class TestGenerateSite:
    def test_requests_sorted_by_time(self, v1_workload):
        times = v1_workload.timestamps.tolist()
        assert times == sorted(times)

    def test_requests_within_trace_window(self, v1_workload):
        duration = ScaleConfig.tiny().duration_seconds
        assert ((v1_workload.timestamps >= 0.0) & (v1_workload.timestamps < duration)).all()

    def test_request_volume_near_target(self, v1_workload):
        target = ScaleConfig.tiny().requests(profile_v1().paper_request_count)
        # Binges add a small overhead on top of the session-driven volume.
        assert 0.7 * target <= v1_workload.request_count <= 1.6 * target

    def test_objects_only_requested_after_birth(self, v1_workload):
        births = np.array([obj.birth_time for obj in v1_workload.catalog.objects])
        assert (v1_workload.timestamps >= births[v1_workload.object_index] - 1e-6).all()

    def test_requests_reference_catalog_objects(self, v1_workload):
        assert v1_workload.object_index.min() >= 0
        assert v1_workload.object_index.max() < len(v1_workload.catalog)

    def test_requests_reference_population_users(self, v1_workload):
        assert v1_workload.user_index.min() >= 0
        assert v1_workload.user_index.max() < len(v1_workload.population.users)

    def test_category_request_mix_close_to_profile(self, v1_workload):
        profile = profile_v1()
        counts = {category: 0 for category in ContentCategory}
        for index in v1_workload.object_index.tolist():
            counts[v1_workload.catalog.objects[index].category] += 1
        total = sum(counts.values())
        video_share = counts[ContentCategory.VIDEO] / total
        assert video_share == pytest.approx(profile.request_mix[ContentCategory.VIDEO], abs=0.07)

    def test_repeat_requests_present(self, v1_workload):
        # Addiction: some requests are marked repeats.
        assert v1_workload.is_repeat.any()

    def test_determinism(self):
        a = WorkloadGenerator(profiles=(profile_v2(),), scale=ScaleConfig.tiny(), seed=3).generate_site(profile_v2())
        b = WorkloadGenerator(profiles=(profile_v2(),), scale=ScaleConfig.tiny(), seed=3).generate_site(profile_v2())
        assert a.request_count == b.request_count
        for column in ("timestamps", "user_index", "object_index", "is_repeat"):
            assert np.array_equal(getattr(a, column), getattr(b, column))
        assert _object_ids(a) == _object_ids(b)

    @pytest.mark.parametrize("seed", [0, 2, 4])
    def test_trace_ending_inside_an_hour(self, seed):
        # Regression: with a trace that is not a whole number of hours, an
        # OUTLIER object born in the final partial hour is alive at no hour
        # of the 36-hour grid, and its envelope used to raise
        # ``ValueError: high - low < 0``.
        duration = 36 * 3600 + 1234
        scale = ScaleConfig(object_scale=0.01, request_scale=0.004, user_scale=0.004, duration_seconds=duration)
        workload = WorkloadGenerator(profiles=(profile_v2(),), scale=scale, seed=seed).generate_site(profile_v2())
        late = {obj.object_id for obj in workload.catalog if obj.birth_time >= 36 * 3600}
        assert late
        assert workload.request_count > 0
        assert (workload.timestamps < duration).all()
        objects = workload.catalog.objects
        assert not any(objects[index].object_id in late for index in workload.object_index[~workload.is_repeat])

    def test_different_seeds_differ(self):
        a = WorkloadGenerator(profiles=(profile_v2(),), scale=ScaleConfig.tiny(), seed=3).generate_site(profile_v2())
        b = WorkloadGenerator(profiles=(profile_v2(),), scale=ScaleConfig.tiny(), seed=4).generate_site(profile_v2())
        assert _object_ids(a, 100) != _object_ids(b, 100)


class TestGenerateAll:
    def test_empty_profiles_rejected(self):
        with pytest.raises(WorkloadError):
            WorkloadGenerator(profiles=())

    def test_all_sites_generated(self):
        generator = WorkloadGenerator(scale=ScaleConfig.tiny(), seed=0)
        workloads = generator.generate_all()
        assert set(workloads) == {p.name for p in ALL_PROFILES()}

    def test_merged_stream_globally_sorted(self):
        generator = WorkloadGenerator(scale=ScaleConfig.tiny(), seed=0)
        workloads = generator.generate_all()
        times = [t for block in generator.merged_request_batches(workloads) for t in block.timestamps.tolist()]
        assert times == sorted(times)
        assert len(times) == sum(w.request_count for w in workloads.values())

    def test_v1_dominates_request_volume(self):
        # Paper: V-1 has by far the most requests (3.1M of ~5.4M total).
        generator = WorkloadGenerator(scale=ScaleConfig.tiny(), seed=0)
        workloads = generator.generate_all()
        v1 = workloads["V-1"].request_count
        for name, workload in workloads.items():
            if name != "V-1":
                assert workload.request_count < v1


class TestAddictionCalibration:
    def test_video_objects_gain_dedicated_fans(self, v1_workload):
        # Count per-(object,user) request pairs; a healthy fraction of video
        # objects must have a single user with >10 requests (Fig. 14).
        per_pair: dict[tuple[int, int], int] = {}
        objects = v1_workload.catalog.objects
        for obj, user in zip(v1_workload.object_index.tolist(), v1_workload.user_index.tolist()):
            if objects[obj].category is ContentCategory.VIDEO:
                per_pair[obj, user] = per_pair.get((obj, user), 0) + 1
        fanned_objects = {obj for (obj, _user), count in per_pair.items() if count > 10}
        requested_objects = {obj for (obj, _user) in per_pair}
        assert len(fanned_objects) / len(requested_objects) >= 0.08
