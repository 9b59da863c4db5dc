"""The merged request stream's order, pinned against a keyed heap merge.

:meth:`WorkloadGenerator.merged_request_batches` concatenates the sites'
request columns in profile order and orders them with one stable argsort
on the timestamps.  The reference below is the merge that replaced:
``heapq.merge(..., key=timestamp)`` over each site's requests, as row
tuples read from the site's columns, which breaks timestamp ties by input
position — profile order first, then each site's own order — and numbers
the merged requests from ``start_request_id``.  The two must agree row by row (request id,
timestamp, user, object, repeat flag), whatever the block size, including
on timestamps that two sites share.
"""

from __future__ import annotations

import functools
import heapq

import numpy as np
import pytest

from repro.workload.generator import SiteWorkload, WorkloadGenerator
from repro.workload.profiles import ALL_PROFILES, profile_nonadult, profile_p1, profile_v1
from repro.workload.scale import ScaleConfig

SCALES = {
    "tiny": ScaleConfig.tiny(),
    "36h": ScaleConfig(object_scale=0.01, request_scale=0.004, user_scale=0.004, duration_seconds=36 * 3600),
}
SEEDS = (0, 1, 7, 2016)
PROFILES = ALL_PROFILES() + (profile_nonadult(),)
BATCH_SIZES = (1, 7, 8192)


@functools.lru_cache(maxsize=len(SCALES) * len(SEEDS))
def _generated(scale_name: str, seed: int) -> tuple[WorkloadGenerator, dict[str, SiteWorkload]]:
    generator = WorkloadGenerator(profiles=PROFILES, scale=SCALES[scale_name], seed=seed)
    return generator, generator.generate_all()


def _site_rows(workload: SiteWorkload) -> list[tuple]:
    """The site's requests in its own order, as (timestamp, user id,
    object id, repeat flag) tuples."""
    users, objects = workload.population.users, workload.catalog.objects
    return [
        (timestamp, users[user].user_id, objects[obj].object_id, repeat)
        for timestamp, user, obj, repeat in zip(
            workload.timestamps.tolist(),
            workload.user_index.tolist(),
            workload.object_index.tolist(),
            workload.is_repeat.tolist(),
        )
    ]


def _reference_rows(workloads: dict[str, SiteWorkload], start_request_id: int = 0) -> list[tuple]:
    merged = heapq.merge(*(_site_rows(w) for w in workloads.values()), key=lambda row: row[0])
    return [(request_id, *row) for request_id, row in enumerate(merged, start=start_request_id)]


def _merged_rows(generator, workloads, batch_size: int, start_request_id: int = 0) -> list[tuple]:
    rows = []
    for block in generator.merged_request_batches(
        workloads, batch_size=batch_size, start_request_id=start_request_id
    ):
        assert 0 < len(block) <= batch_size
        users, objects = block.tables.users, block.tables.objects
        for request_id, timestamp, user, obj, repeat in zip(
            block.request_id.tolist(),
            block.timestamps.tolist(),
            block.user_index.tolist(),
            block.object_index.tolist(),
            block.is_repeat.tolist(),
        ):
            rows.append((request_id, timestamp, users[user].user_id, objects[obj].object_id, repeat))
    return rows


def _cross_site_ties(workloads: dict[str, SiteWorkload]) -> int:
    """Timestamps that appear in more than one site."""
    seen: dict[float, int] = {}
    for workload in workloads.values():
        for timestamp in set(workload.timestamps.tolist()):
            seen[timestamp] = seen.get(timestamp, 0) + 1
    return sum(1 for count in seen.values() if count > 1)


@pytest.mark.parametrize("batch_size", BATCH_SIZES)
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("scale_name", sorted(SCALES))
def test_merge_matches_heap_merge(scale_name, seed, batch_size):
    generator, workloads = _generated(scale_name, seed)
    if scale_name == "tiny" and seed in (0, 2016):
        # These runs share timestamps across sites, so ties are exercised.
        assert _cross_site_ties(workloads) > 0
    produced = _merged_rows(generator, workloads, batch_size)
    expected = _reference_rows(workloads)
    assert len(produced) == len(expected)
    for index, (got, want) in enumerate(zip(produced, expected)):
        assert got == want, f"row {index} differs"


def _hand_built(workload: SiteWorkload, timestamps: list[float]) -> SiteWorkload:
    """``workload``'s site with one request per timestamp, each by a
    different user for a different object, so every row is identifiable."""
    count = len(timestamps)
    return SiteWorkload(
        profile=workload.profile,
        catalog=workload.catalog,
        population=workload.population,
        timestamps=np.array(timestamps, dtype=np.float64),
        user_index=np.arange(count, dtype=np.int64),
        object_index=np.arange(count, dtype=np.int64),
        is_repeat=np.arange(count) % 3 == 0,
    )


def test_shared_timestamps_keep_profile_then_site_order():
    """Two sites with runs of equal timestamps, within and across sites."""
    profiles = (profile_v1(), profile_p1())
    generator = WorkloadGenerator(profiles=profiles, scale=ScaleConfig.tiny(), seed=3)
    generated = generator.generate_all()
    first = [0.0] * 20 + [5.0] * 30 + [9.0] * 10
    second = [0.0] * 15 + [5.0] * 25 + [7.0] * 5 + [9.0] * 15
    workloads = {
        "V-1": _hand_built(generated["V-1"], first),
        "P-1": _hand_built(generated["P-1"], second),
    }
    # By hand: timestamp first, then profile order, then the site's order.
    keyed = [(t, 0, i) for i, t in enumerate(first)] + [(t, 1, i) for i, t in enumerate(second)]
    sites = (workloads["V-1"], workloads["P-1"])
    expected = [
        (
            100 + request_id,
            timestamp,
            sites[site].population.users[row].user_id,
            sites[site].catalog.objects[row].object_id,
            row % 3 == 0,
        )
        for request_id, (timestamp, site, row) in enumerate(sorted(keyed))
    ]
    assert _reference_rows(workloads, start_request_id=100) == expected
    for batch_size in BATCH_SIZES:
        assert _merged_rows(generator, workloads, batch_size, start_request_id=100) == expected


def test_batch_size_validated():
    generator = WorkloadGenerator(profiles=(profile_v1(),), scale=ScaleConfig.tiny(), seed=3)
    with pytest.raises(ValueError):
        generator.merged_request_batches(batch_size=0)


def test_blocks_are_views_of_one_stream():
    generator, workloads = _generated("tiny", 2016)
    blocks = list(generator.merged_request_batches(workloads, batch_size=8192))
    assert [len(block) for block in blocks[:-1]] == [8192] * (len(blocks) - 1)
    assert sum(len(block) for block in blocks) == sum(w.request_count for w in workloads.values())
    assert len({id(block.tables) for block in blocks}) == 1
    head = blocks[0].rows(10, 20)
    assert head.request_id.tolist() == list(range(10, 20))
