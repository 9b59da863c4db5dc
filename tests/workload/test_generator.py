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


class TestGenerateSite:
    def test_requests_sorted_by_time(self, v1_workload):
        times = [r.timestamp for r in v1_workload.requests]
        assert times == sorted(times)

    def test_requests_within_trace_window(self, v1_workload):
        duration = ScaleConfig.tiny().duration_seconds
        for request in v1_workload.requests:
            assert 0.0 <= request.timestamp < duration

    def test_request_volume_near_target(self, v1_workload):
        target = ScaleConfig.tiny().requests(profile_v1().paper_request_count)
        # Binges add a small overhead on top of the session-driven volume.
        assert 0.7 * target <= v1_workload.request_count <= 1.6 * target

    def test_objects_only_requested_after_birth(self, v1_workload):
        for request in v1_workload.requests:
            assert request.timestamp >= request.obj.birth_time - 1e-6

    def test_requests_reference_catalog_objects(self, v1_workload):
        for request in v1_workload.requests[:500]:
            assert request.obj.object_id in v1_workload.catalog

    def test_requests_reference_population_users(self, v1_workload):
        user_ids = {u.user_id for u in v1_workload.population}
        for request in v1_workload.requests[:500]:
            assert request.user.user_id in user_ids

    def test_category_request_mix_close_to_profile(self, v1_workload):
        profile = profile_v1()
        counts = {category: 0 for category in ContentCategory}
        for request in v1_workload.requests:
            counts[request.obj.category] += 1
        total = sum(counts.values())
        video_share = counts[ContentCategory.VIDEO] / total
        assert video_share == pytest.approx(profile.request_mix[ContentCategory.VIDEO], abs=0.07)

    def test_repeat_requests_present(self, v1_workload):
        # Addiction: some requests are marked repeats.
        repeats = sum(r.is_repeat for r in v1_workload.requests)
        assert repeats > 0

    def test_determinism(self):
        a = WorkloadGenerator(profiles=(profile_v2(),), scale=ScaleConfig.tiny(), seed=3).generate_site(profile_v2())
        b = WorkloadGenerator(profiles=(profile_v2(),), scale=ScaleConfig.tiny(), seed=3).generate_site(profile_v2())
        assert a.request_count == b.request_count
        assert [(r.timestamp, r.obj.object_id, r.user.user_id) for r in a.requests[:200]] == [
            (r.timestamp, r.obj.object_id, r.user.user_id) for r in b.requests[:200]
        ]

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
        assert all(r.timestamp < duration for r in workload.requests)
        assert not any(r.obj.object_id in late for r in workload.requests if not r.is_repeat)

    def test_different_seeds_differ(self):
        a = WorkloadGenerator(profiles=(profile_v2(),), scale=ScaleConfig.tiny(), seed=3).generate_site(profile_v2())
        b = WorkloadGenerator(profiles=(profile_v2(),), scale=ScaleConfig.tiny(), seed=4).generate_site(profile_v2())
        assert [r.object_id for r in (req.obj for req in a.requests[:100])] != [
            r.object_id for r in (req.obj for req in b.requests[:100])
        ]


class TestGenerateAll:
    def test_empty_profiles_rejected(self):
        with pytest.raises(WorkloadError):
            WorkloadGenerator(profiles=())

    def test_all_sites_generated(self):
        generator = WorkloadGenerator(scale=ScaleConfig.tiny(), seed=0)
        workloads = generator.generate_all()
        assert set(workloads) == {p.name for p in ALL_PROFILES()}

    def test_merged_requests_globally_sorted(self):
        generator = WorkloadGenerator(scale=ScaleConfig.tiny(), seed=0)
        workloads = generator.generate_all()
        merged = list(generator.merged_requests(workloads))
        times = [r.timestamp for r in merged]
        assert times == sorted(times)
        assert len(merged) == sum(w.request_count for w in workloads.values())

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
        per_pair: dict[tuple[str, str], int] = {}
        for request in v1_workload.requests:
            if request.obj.category is ContentCategory.VIDEO:
                key = (request.obj.object_id, request.user.user_id)
                per_pair[key] = per_pair.get(key, 0) + 1
        fanned_objects = {obj for (obj, _user), count in per_pair.items() if count > 10}
        requested_objects = {obj for (obj, _user) in per_pair}
        assert len(fanned_objects) / len(requested_objects) >= 0.08
