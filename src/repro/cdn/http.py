"""HTTP request/response semantics for the simulator.

Distils the subset of HTTP the paper's logs exhibit (Fig. 16) into a small
decision procedure:

* **200 OK** — full object served.
* **206 Partial Content** — a Range request for part of a video.
* **304 Not Modified** — conditional request; the client's cached version
  is still current.
* **403 Forbidden** — access control / hotlink protection / unpublished.
* **416 Range Not Satisfiable** — a Range request beyond the object's end
  (stale players seeking into re-encoded, now-shorter videos).
* **204 No Content** — beacon/analytics endpoints in the "other" bucket.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from repro.types import ContentCategory
from repro.workload.catalog import ContentObject


@dataclass(frozen=True, slots=True)
class ClientIntent:
    """What the client asks for, decided before the edge is consulted."""

    kind: str                 # "full", "range", "conditional", "beacon"
    range_start: int = 0
    range_length: int = 0
    range_valid: bool = True
    conditional_version: int = 0


#: The plain whole-object request.  Intents are immutable, so the client
#: model hands out this one instance instead of building one per request.
FULL_INTENT = ClientIntent(kind="full")


class HttpDecision(NamedTuple):
    """Final response description (a tuple: one is built per request)."""

    status_code: int
    bytes_served: int


class ClientModel:
    """Samples what kind of HTTP request a client issues for an object.

    Parameters
    ----------
    video_range_prob:
        Probability a video request is a Range request (seek/resume) rather
        than a from-the-start progressive download.
    bad_range_prob:
        Probability a Range request is unsatisfiable (→ 416).
    beacon_prob:
        Probability an "other"-category request is a beacon (→ 204).
    """

    def __init__(
        self,
        video_range_prob: float = 0.38,
        bad_range_prob: float = 0.012,
        beacon_prob: float = 0.18,
    ):
        for name, value in (
            ("video_range_prob", video_range_prob),
            ("bad_range_prob", bad_range_prob),
            ("beacon_prob", beacon_prob),
        ):
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")
        self.video_range_prob = video_range_prob
        self.bad_range_prob = bad_range_prob
        self.beacon_prob = beacon_prob

    def intent(
        self,
        obj: ContentObject,
        cached_version: int | None,
        rng: np.random.Generator,
    ) -> ClientIntent:
        """Decide the request kind for one access to ``obj``.

        ``cached_version`` is the version in the user's browser cache, or
        ``None`` when absent; a cached copy triggers a conditional request.
        """
        if cached_version is not None:
            return ClientIntent(kind="conditional", conditional_version=cached_version)
        if obj.category is ContentCategory.OTHER and rng.random() < self.beacon_prob:
            return ClientIntent(kind="beacon")
        if obj.category is ContentCategory.VIDEO and rng.random() < self.video_range_prob:
            if rng.random() < self.bad_range_prob:
                return ClientIntent(kind="range", range_valid=False)
            start = int(rng.integers(0, max(1, obj.size_bytes)))
            # Watch between 5% and 60% of the remaining video.
            remaining = obj.size_bytes - start
            length = max(1, int(remaining * rng.uniform(0.05, 0.6)))
            return ClientIntent(kind="range", range_start=start, range_length=length)
        return FULL_INTENT


def decide_response(
    intent: ClientIntent,
    obj: ContentObject,
    allowed: bool,
    current_version: int,
) -> HttpDecision:
    """Map a client intent + origin state to the final status and bytes."""
    if not allowed:
        return HttpDecision(status_code=403, bytes_served=0)
    if intent.kind == "beacon":
        return HttpDecision(status_code=204, bytes_served=0)
    if intent.kind == "conditional":
        if intent.conditional_version == current_version:
            return HttpDecision(status_code=304, bytes_served=0)
        return HttpDecision(status_code=200, bytes_served=obj.size_bytes)
    if intent.kind == "range":
        if not intent.range_valid:
            return HttpDecision(status_code=416, bytes_served=0)
        length = min(intent.range_length, obj.size_bytes - intent.range_start)
        return HttpDecision(status_code=206, bytes_served=max(0, length))
    return HttpDecision(status_code=200, bytes_served=obj.size_bytes)
