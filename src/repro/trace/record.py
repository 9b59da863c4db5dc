"""The HTTP access-log record.

One :class:`LogRecord` corresponds to one request/response pair observed at
a CDN edge server, with exactly the fields the paper describes for its
dataset (Section III):

* request side: timestamp, publisher (site) identifier, hashed URL,
  object file type, object size in bytes, user agent, anonymised user id;
* response side: cache status (HIT/MISS) and HTTP status code, plus the
  number of bytes actually served (differs from the object size for range
  responses and 304s);
* serving side: the data-center identifier that handled the request.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import TraceSchemaError
from repro.types import CacheStatus, ContentCategory, category_for_extension

#: Largest value of the int64 columns a batch stores sizes and indices in.
INT64_MAX = (1 << 63) - 1


def check_fields(
    timestamp: float,
    site: str,
    object_id: str,
    object_size: int,
    bytes_served: int,
    status_code: int,
    chunk_index: int,
) -> None:
    """Raise :class:`TraceSchemaError` for the first field outside the schema.

    The one schema check: :class:`LogRecord`, :meth:`BatchBuilder.finish
    <repro.trace.batch.BatchBuilder.finish>` and the binary decoder all
    reject a bad value with this message.
    """
    if not math.isfinite(timestamp):
        raise TraceSchemaError(f"timestamp must be finite, got {timestamp}")
    if timestamp < 0:
        raise TraceSchemaError(f"timestamp must be non-negative, got {timestamp}")
    if not site:
        raise TraceSchemaError("site identifier must be non-empty")
    if not object_id:
        raise TraceSchemaError("object_id must be non-empty")
    for name, value in (("object_size", object_size), ("bytes_served", bytes_served)):
        if value < 0:
            raise TraceSchemaError(f"{name} must be non-negative, got {value}")
        if value > INT64_MAX:
            raise TraceSchemaError(f"{name} must fit in int64, got {value}")
    if not 100 <= status_code <= 599:
        raise TraceSchemaError(f"status_code must be a valid HTTP code, got {status_code}")
    if not -INT64_MAX - 1 <= chunk_index <= INT64_MAX:
        raise TraceSchemaError(f"chunk_index must fit in int64, got {chunk_index}")


@dataclass(frozen=True, slots=True)
class LogRecord:
    """A single CDN HTTP access-log line.

    Attributes
    ----------
    timestamp:
        Seconds since the start of the trace window (UTC).
    site:
        Publisher identifier, e.g. ``"V-1"``.
    object_id:
        Hashed URL of the requested object (stable per object).
    extension:
        Object file type, lower-case, without dot (``"mp4"``, ``"jpg"``).
    object_size:
        Full size of the stored object in bytes.
    user_id:
        Anonymised user identifier (stable per user).
    user_agent:
        Raw User-Agent header value.
    cache_status:
        CDN cache outcome, HIT or MISS.
    status_code:
        HTTP response status code (200, 204, 206, 304, 403, 416, ...).
    bytes_served:
        Bytes transferred in the response body.
    datacenter:
        Identifier of the serving CDN data center.
    chunk_index:
        For chunked video delivery, which chunk of the object this request
        addressed; -1 for unchunked objects.
    """

    timestamp: float
    site: str
    object_id: str
    extension: str
    object_size: int
    user_id: str
    user_agent: str
    cache_status: CacheStatus
    status_code: int
    bytes_served: int
    datacenter: str = "dc-0"
    chunk_index: int = -1

    def __post_init__(self) -> None:
        check_fields(
            self.timestamp,
            self.site,
            self.object_id,
            self.object_size,
            self.bytes_served,
            self.status_code,
            self.chunk_index,
        )

    @property
    def category(self) -> ContentCategory:
        """Content category derived from the file extension (paper §IV-A)."""
        return category_for_extension(self.extension)

    @property
    def is_hit(self) -> bool:
        return self.cache_status is CacheStatus.HIT

    @property
    def day(self) -> int:
        """Zero-based trace day (0 = Saturday in the paper's plots)."""
        return int(self.timestamp // 86400)

    @property
    def hour(self) -> int:
        """Zero-based trace hour."""
        return int(self.timestamp // 3600)
