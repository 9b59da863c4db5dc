"""Tests for the scale configuration."""

from __future__ import annotations

import pytest

from repro.errors import ConfigError
from repro.workload.scale import SCALE_NAMES, ScaleConfig


class TestValidation:
    def test_zero_scale_rejected(self):
        with pytest.raises(ConfigError):
            ScaleConfig(object_scale=0.0)

    def test_scale_above_one_rejected(self):
        with pytest.raises(ConfigError):
            ScaleConfig(request_scale=1.5)

    def test_bad_duration_rejected(self):
        with pytest.raises(ConfigError):
            ScaleConfig(duration_seconds=0)


class TestScaling:
    def test_objects_scaled_with_floor(self):
        scale = ScaleConfig(object_scale=0.01, request_scale=0.01, user_scale=0.01)
        assert scale.objects(6_600) == 66
        assert scale.objects(100) == 20  # floor

    def test_requests_scaled_with_floor(self):
        scale = ScaleConfig(object_scale=0.01, request_scale=0.01, user_scale=0.01)
        assert scale.requests(3_200_000) == 32_000
        assert scale.requests(1_000) == 200  # floor

    def test_users_scaled_with_floor(self):
        scale = ScaleConfig(object_scale=0.01, request_scale=0.01, user_scale=0.01)
        assert scale.users(1_400_000) == 14_000
        assert scale.users(100) == 25  # floor

    def test_duration_hours(self):
        assert ScaleConfig().duration_hours == 168


class TestPresets:
    def test_presets_ordered_by_size(self):
        # SCALE_NAMES names every preset, smallest first.
        tiny, small, medium = (getattr(ScaleConfig, name)() for name in SCALE_NAMES)
        assert tiny.request_scale < small.request_scale < medium.request_scale

    def test_presets_preserve_requests_per_user_ratio(self):
        # user_scale == request_scale keeps per-user behaviour at paper scale.
        for preset in (ScaleConfig.tiny(), ScaleConfig.small(), ScaleConfig.medium()):
            assert preset.user_scale == preset.request_scale
