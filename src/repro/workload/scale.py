"""Scaling the paper's 323 TB / 80 M-user week down to laptop size.

The paper's absolute volumes are unreachable (and irrelevant — the figures
report distributions, shares and shapes).  :class:`ScaleConfig` maps the
paper's magnitudes to a configurable fraction while preserving every
relative quantity: catalog mixes, request-per-object ratios, user-per-site
ratios, and the week-long duration.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigError
from repro.types import WEEK_SECONDS

#: The preset names, smallest first; each is a :class:`ScaleConfig`
#: classmethod of the same name (``getattr(ScaleConfig, name)()``).
SCALE_NAMES = ("tiny", "small", "medium")


@dataclass(frozen=True, slots=True)
class ScaleConfig:
    """How far to scale the paper's dataset down.

    Attributes
    ----------
    object_scale:
        Multiplier on per-site catalog sizes (1.0 = paper scale; the paper's
        catalogs are 6.6K-55.6K objects per site, so 0.05 gives 330-2.8K).
    request_scale:
        Multiplier on per-site weekly request counts (paper: 0.2M-4M).
    user_scale:
        Multiplier on per-site weekly unique-visitor counts.
    duration_seconds:
        Trace length; the paper's window is exactly one week.
    """

    object_scale: float = 0.05
    request_scale: float = 0.02
    user_scale: float = 0.001
    duration_seconds: int = WEEK_SECONDS

    def __post_init__(self) -> None:
        for name in ("object_scale", "request_scale", "user_scale"):
            value = getattr(self, name)
            if not 0 < value <= 1.0:
                raise ConfigError(f"{name} must be in (0, 1], got {value}")
        if self.duration_seconds <= 0:
            raise ConfigError(f"duration_seconds must be positive, got {self.duration_seconds}")

    @property
    def duration_hours(self) -> int:
        return max(1, self.duration_seconds // 3600)

    def objects(self, paper_count: int) -> int:
        """Scaled object count (always at least 20 so distributions exist)."""
        return max(20, int(round(paper_count * self.object_scale)))

    def requests(self, paper_count: int) -> int:
        """Scaled request count (always at least 200)."""
        return max(200, int(round(paper_count * self.request_scale)))

    def users(self, paper_count: int) -> int:
        """Scaled user count (always at least 25)."""
        return max(25, int(round(paper_count * self.user_scale)))

    @classmethod
    def tiny(cls) -> "ScaleConfig":
        """Smallest useful scale — unit tests and doctests.

        ``user_scale`` matches ``request_scale`` at every preset so the
        requests-per-user ratio stays at the paper's value — the quantity
        that shapes the IAT/session/addiction analyses (Figs. 11-14).
        """
        return cls(object_scale=0.01, request_scale=0.004, user_scale=0.004)

    @classmethod
    def small(cls) -> "ScaleConfig":
        """Default scale for examples and quick experiments."""
        return cls(object_scale=0.04, request_scale=0.02, user_scale=0.02)

    @classmethod
    def medium(cls) -> "ScaleConfig":
        """Benchmark scale — big enough for stable distribution shapes."""
        return cls(object_scale=0.1, request_scale=0.06, user_scale=0.06)
