"""Tests for the origin server, browser cache and HTTP semantics."""

from __future__ import annotations

import bisect
import dataclasses
import zlib

import numpy as np
import pytest

from repro.cdn.browser import BrowserCache
from repro.cdn.http import ClientIntent, ClientModel, decide_response
from repro.cdn.origin import FIRST_MUTATION_GAPS, OriginServer
from repro.stats.sampling import counter_rng, make_rng
from repro.types import ContentCategory, TrendClass
from repro.workload.catalog import ContentObject
from repro.workload.sessions import SESSION_TIMEOUT_SECONDS


def make_object(category=ContentCategory.VIDEO, size=10_000_000, birth=0.0) -> ContentObject:
    ext = {"video": "mp4", "image": "jpg", "other": "html"}[category.value]
    return ContentObject(
        object_id=f"{category.value}-obj",
        site="V-1",
        category=category,
        extension=ext,
        size_bytes=size,
        birth_time=birth,
        trend=TrendClass.DIURNAL,
        popularity_weight=1.0,
    )


class TestOriginServer:
    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            OriginServer(forbidden_rate=1.0)
        with pytest.raises(ValueError):
            OriginServer(mutation_rate_per_day=-1)

    def test_unpublished_object_not_served(self):
        origin = OriginServer(rng=make_rng(0))
        obj = make_object(birth=1000.0)
        response = origin.fetch(obj, 100, now=500.0)
        assert not response.allowed

    def test_fetch_accounts_bytes(self):
        origin = OriginServer(rng=make_rng(0))
        obj = make_object()
        origin.fetch(obj, 100, now=0.0)
        origin.fetch(obj, 200, now=1.0)
        assert origin.fetches == 2
        assert origin.bytes_served == 300

    def test_version_starts_at_one(self):
        origin = OriginServer(mutation_rate_per_day=0.0, rng=make_rng(0))
        assert origin.current_version(make_object(), now=0.0) == 1

    def test_version_monotone_nondecreasing(self):
        origin = OriginServer(mutation_rate_per_day=5.0, rng=make_rng(0))
        obj = make_object()
        versions = [origin.current_version(obj, now=t * 86400.0) for t in range(5)]
        assert versions == sorted(versions)

    def test_no_mutations_when_rate_zero(self):
        origin = OriginServer(mutation_rate_per_day=0.0, rng=make_rng(0))
        obj = make_object()
        assert origin.current_version(obj, now=30 * 86400.0) == 1

    def test_access_control_rate(self):
        origin = OriginServer(forbidden_rate=0.3, rng=make_rng(1))
        rng = make_rng(2)
        denials = sum(not origin.check_access(rng) for _ in range(5000)) / 5000
        assert denials == pytest.approx(0.3, abs=0.03)


class _ReferenceSchedules:
    """Mutation versions as one ``counter_rng`` generator per id draws them:
    one scalar exponential gap per event, added to the previous event time,
    from the start of the id's first query."""

    def __init__(self, seed: int, mutation_rate_per_day: float):
        self.seed = seed
        self.mean_gap = 86_400.0 / mutation_rate_per_day
        self.schedules: dict[str, tuple[np.random.Generator, list[float]]] = {}

    def version(self, obj: ContentObject, now: float) -> int:
        start = max(obj.birth_time, 0.0)
        if now <= start:
            return 1
        state = self.schedules.get(obj.object_id)
        if state is None:
            stream = counter_rng(self.seed, "origin-mutation", zlib.crc32(obj.object_id.encode("utf-8")))
            state = (stream, [start + float(stream.exponential(self.mean_gap))])
            self.schedules[obj.object_id] = state
        stream, times = state
        while times[-1] <= now:
            times.append(times[-1] + float(stream.exponential(self.mean_gap)))
        return 1 + bisect.bisect_right(times, now)


class TestMutationSchedules:
    """``current_version`` equals the scalar reference for any query order."""

    def _assert_matches(self, queries, seed=8, rate=0.5):
        origin = OriginServer(mutation_rate_per_day=rate, seed=seed)
        reference = _ReferenceSchedules(seed, rate)
        for obj, now in queries:
            assert origin.current_version(obj, now) == reference.version(obj, now), (obj.object_id, now)

    def test_many_ids_and_instants(self):
        rng = np.random.default_rng(3)
        objects = [
            dataclasses.replace(make_object(), object_id=f"V-1/video/{i:06d}", birth_time=float(birth))
            for i, birth in enumerate(rng.uniform(-5 * 86_400.0, 20 * 86_400.0, size=60))
        ]
        queries = [
            (objects[int(i)], float(now))
            for i, now in zip(rng.integers(0, len(objects), size=3000), rng.uniform(0.0, 60 * 86_400.0, size=3000))
        ]
        self._assert_matches(queries)
        self._assert_matches(sorted(queries, key=lambda query: query[1]), seed=9, rate=0.02)

    def test_query_far_past_the_first_block(self):
        obj = make_object()
        # At one event a day, a year out is ~90 first blocks of gaps.
        year = 365 * 86_400.0
        assert 365 > 50 * FIRST_MUTATION_GAPS
        self._assert_matches([(obj, year), (obj, 10.0), (obj, 3 * year), (obj, 86_400.0)], rate=1.0)

    @pytest.mark.parametrize("first_born_first", [True, False])
    def test_objects_sharing_an_id_with_other_birth_times(self, first_born_first):
        early = make_object(birth=0.0)
        late = dataclasses.replace(early, birth_time=5 * 86_400.0)
        pair = (early, late) if first_born_first else (late, early)
        queries = [(obj, now * 86_400.0) for now in (2.0, 10.0, 30.0, 90.0) for obj in pair]
        self._assert_matches(queries, rate=0.3)


class TestBrowserCache:
    def test_capacity_positive(self):
        with pytest.raises(ValueError):
            BrowserCache(capacity_bytes=0)

    def test_put_get(self):
        browser = BrowserCache()
        browser.put("a", 100, version=1, now=0.0)
        entry = browser.get("a")
        assert entry is not None
        assert entry.version == 1

    def test_lru_eviction(self):
        browser = BrowserCache(capacity_bytes=250)
        browser.put("a", 100, 1, 0.0)
        browser.put("b", 100, 1, 1.0)
        browser.get("a")
        browser.put("c", 100, 1, 2.0)  # evicts b
        assert browser.get("b") is None
        assert browser.get("a") is not None

    def test_oversized_rejected(self):
        browser = BrowserCache(capacity_bytes=100)
        assert not browser.put("big", 200, 1, 0.0)

    def test_incognito_clears_between_sessions(self):
        browser = BrowserCache(incognito=True)
        browser.observe_request_time(0.0)
        browser.put("a", 100, 1, 0.0)
        browser.observe_request_time(100.0)  # same session
        assert browser.get("a") is not None
        browser.observe_request_time(100.0 + SESSION_TIMEOUT_SECONDS + 1)  # new session
        assert browser.get("a") is None

    def test_regular_browser_keeps_cache_across_sessions(self):
        browser = BrowserCache(incognito=False)
        browser.observe_request_time(0.0)
        browser.put("a", 100, 1, 0.0)
        browser.observe_request_time(1e6)
        assert browser.get("a") is not None

    def test_reput_updates_bytes(self):
        browser = BrowserCache(capacity_bytes=300)
        browser.put("a", 100, 1, 0.0)
        browser.put("a", 200, 2, 1.0)
        assert browser.used_bytes == 200
        assert browser.get("a").version == 2


class TestClientModel:
    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            ClientModel(video_range_prob=1.5)

    def test_cached_copy_goes_conditional(self):
        model = ClientModel()
        intent = model.intent(make_object(), cached_version=3, rng=make_rng(0))
        assert intent.kind == "conditional"
        assert intent.conditional_version == 3

    def test_video_range_requests_common(self):
        model = ClientModel(video_range_prob=0.5)
        rng = make_rng(1)
        kinds = [model.intent(make_object(), None, rng).kind for _ in range(2000)]
        share = kinds.count("range") / len(kinds)
        assert share == pytest.approx(0.5, abs=0.04)

    def test_images_never_range(self):
        model = ClientModel()
        rng = make_rng(2)
        obj = make_object(ContentCategory.IMAGE, size=100_000)
        for _ in range(300):
            assert model.intent(obj, None, rng).kind == "full"

    def test_other_category_can_beacon(self):
        model = ClientModel(beacon_prob=0.5)
        rng = make_rng(3)
        obj = make_object(ContentCategory.OTHER, size=1000)
        kinds = {model.intent(obj, None, rng).kind for _ in range(100)}
        assert "beacon" in kinds

    def test_range_bounds_within_object(self):
        model = ClientModel(video_range_prob=1.0, bad_range_prob=0.0)
        rng = make_rng(4)
        obj = make_object(size=1_000_000)
        for _ in range(200):
            intent = model.intent(obj, None, rng)
            assert 0 <= intent.range_start < obj.size_bytes
            assert intent.range_length >= 1


class TestDecideResponse:
    def test_forbidden(self):
        decision = decide_response(ClientIntent(kind="full"), make_object(), allowed=False, current_version=1)
        assert decision.status_code == 403
        assert decision.bytes_served == 0

    def test_full_200(self):
        obj = make_object(size=5000)
        decision = decide_response(ClientIntent(kind="full"), obj, True, 1)
        assert decision.status_code == 200
        assert decision.bytes_served == 5000

    def test_beacon_204(self):
        decision = decide_response(ClientIntent(kind="beacon"), make_object(), True, 1)
        assert decision.status_code == 204
        assert decision.bytes_served == 0

    def test_conditional_match_304(self):
        decision = decide_response(
            ClientIntent(kind="conditional", conditional_version=4), make_object(), True, 4
        )
        assert decision.status_code == 304
        assert decision.bytes_served == 0

    def test_conditional_mismatch_200(self):
        obj = make_object(size=777)
        decision = decide_response(ClientIntent(kind="conditional", conditional_version=3), obj, True, 4)
        assert decision.status_code == 200
        assert decision.bytes_served == 777

    def test_valid_range_206(self):
        obj = make_object(size=10_000)
        intent = ClientIntent(kind="range", range_start=5_000, range_length=2_000)
        decision = decide_response(intent, obj, True, 1)
        assert decision.status_code == 206
        assert decision.bytes_served == 2_000

    def test_range_clamped_to_object_end(self):
        obj = make_object(size=10_000)
        intent = ClientIntent(kind="range", range_start=9_000, range_length=5_000)
        decision = decide_response(intent, obj, True, 1)
        assert decision.bytes_served == 1_000

    def test_bad_range_416(self):
        intent = ClientIntent(kind="range", range_valid=False)
        decision = decide_response(intent, make_object(), True, 1)
        assert decision.status_code == 416
        assert decision.bytes_served == 0
