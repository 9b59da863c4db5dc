"""Shared enumerations and small value types used across the library.

These types mirror the vocabulary of the paper's HTTP logs: content is
categorised as video / image / other by file extension, requests are tagged
with a device type derived from the user agent, users live on one of four
continents, and each CDN response carries a cache status (HIT/MISS) plus an
HTTP status code.
"""

from __future__ import annotations

import enum
import functools


class ContentCategory(enum.Enum):
    """Coarse content category, derived from the object's file type.

    The paper breaks all content into exactly three buckets (Section IV-A):
    video (FLV, MP4, MPG, AVI, WMV, ...), image (JPG, PNG, GIF, TIFF,
    BMP, ...), and other (text, audio, HTML, CSS, XML, JS, ...).
    """

    VIDEO = "video"
    IMAGE = "image"
    OTHER = "other"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


#: File extensions the paper lists for each category (lower-case, no dot).
VIDEO_EXTENSIONS = frozenset({"flv", "mp4", "mpg", "mpeg", "avi", "wmv", "webm", "mov", "ts", "m4v"})
IMAGE_EXTENSIONS = frozenset({"jpg", "jpeg", "png", "gif", "tiff", "tif", "bmp", "webp", "ico"})
OTHER_EXTENSIONS = frozenset({"txt", "mp3", "aac", "ogg", "html", "htm", "css", "xml", "js", "json", "swf", "woff", "svg"})


def category_for_extension(extension: str) -> ContentCategory:
    """Map a file extension (with or without leading dot) to its category.

    Unknown extensions fall into :attr:`ContentCategory.OTHER`, matching the
    paper's definition of "other" as everything not classified as video or
    image.
    """
    ext = extension.lower().lstrip(".")
    if ext in VIDEO_EXTENSIONS:
        return ContentCategory.VIDEO
    if ext in IMAGE_EXTENSIONS:
        return ContentCategory.IMAGE
    return ContentCategory.OTHER


class DeviceType(enum.Enum):
    """Device class derived from the User-Agent header (paper Fig. 4)."""

    DESKTOP = "desktop"
    ANDROID = "android"
    IOS = "ios"
    MISC = "misc"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value

    @property
    def is_mobile(self) -> bool:
        """Whether the device counts as mobile (smartphone or misc/tablet)."""
        return self is not DeviceType.DESKTOP


class Continent(enum.Enum):
    """The four continents the paper's users span (Section III).

    The paper does not name the continents; we pick four with distinct UTC
    offsets so that local-time conversion (used for Fig. 3) is exercised.
    """

    NORTH_AMERICA = "north_america"
    SOUTH_AMERICA = "south_america"
    EUROPE = "europe"
    ASIA = "asia"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value

    @property
    def utc_offset_hours(self) -> int:
        """A representative whole-hour UTC offset for the continent."""
        return _CONTINENT_UTC_OFFSETS[self]

    @functools.cached_property
    def code(self) -> int:
        """The continent's position in definition order, a small-int key.

        The simulator's per-request routing and latency tables are lists
        indexed by it: keying a dict by the member would run the
        Python-level ``Enum.__hash__`` on every lookup.  Cached on the
        member, so each read after the first is a plain attribute load.
        """
        return list(Continent).index(self)


_CONTINENT_UTC_OFFSETS = {
    Continent.NORTH_AMERICA: -6,
    Continent.SOUTH_AMERICA: -3,
    Continent.EUROPE: 1,
    Continent.ASIA: 8,
}


class CacheStatus(enum.Enum):
    """CDN-side cache status recorded with each response (Section III)."""

    HIT = "HIT"
    MISS = "MISS"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


class SiteKind(enum.Enum):
    """The three flavours of adult website the paper studies."""

    VIDEO = "video"            # YouTube-style adult video (V-1, V-2)
    IMAGE = "image"            # image-heavy sharing site (P-1, P-2)
    SOCIAL = "social"          # adult social network (S-1)

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


class TrendClass(enum.Enum):
    """Temporal popularity trend classes found by the paper's clustering.

    Section IV-B identifies diurnal, long-lived and short-lived trends (plus
    outliers); the P-2 dendrogram additionally labels a flash-crowd cluster.
    """

    DIURNAL = "diurnal"
    LONG_LIVED = "long_lived"
    SHORT_LIVED = "short_lived"
    FLASH_CROWD = "flash_crowd"
    OUTLIER = "outlier"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


#: HTTP status codes the paper reports for adult traffic (Fig. 16).
OBSERVED_STATUS_CODES = (200, 204, 206, 304, 403, 416)

#: Seconds in one hour / one day / the one-week trace the paper analyses.
HOUR_SECONDS = 3600
DAY_SECONDS = 24 * HOUR_SECONDS
WEEK_SECONDS = 7 * DAY_SECONDS

#: Day names in trace order; the paper's medoid plots run Sat -> Fri.
TRACE_DAY_NAMES = ("Sat", "Sun", "Mon", "Tue", "Wed", "Thu", "Fri")
