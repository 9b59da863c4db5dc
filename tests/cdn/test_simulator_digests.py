"""Committed digests of the simulator's configuration variants.

``tests/test_pipeline_digests.py`` pins the default
:class:`~repro.cdn.simulator.SimulationConfig` end to end; the other
configurations were only checked for producing records, or compared
between two paths of the same revision.  This suite pins each variant's
output itself against ``tests/fixtures/simulator_digests.json``:

* a sha256 over every emitted batch's columns — dtypes, values, string
  codes and dictionary values, batch by batch — so the batch cuts
  (``batch_size=256``, which falls inside playback viewings and across a
  request-table switch) and the first-appearance dictionary order are
  pinned along with the rows;
* the :class:`~repro.cdn.metrics.SimulationMetrics` totals, with the
  float latency sums as their ``repr``;
* ``cache_stats()`` and the origin ledger.

Each variant runs with one and with two workers, and both must equal its
one committed entry.

To refresh the fixture after an *intended* output change::

    REPRO_REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest tests/cdn/test_simulator_digests.py

(the tests then rewrite the file from the one-worker runs, still compare
both worker counts against it, and fail once, reminding you to review
and commit the diff).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.cdn.simulator import CdnSimulator, SimulationConfig
from repro.trace.batch import ALL_COLUMNS, STRING_FIELDS
from repro.workload.generator import WorkloadGenerator
from repro.workload.profiles import profile_v1, profile_v2
from repro.workload.scale import ScaleConfig
from tests.core.test_golden_report import _REGEN, _delta

DIGESTS_PATH = Path(__file__).resolve().parent.parent / "fixtures" / "simulator_digests.json"
BATCH_SIZE = 256

#: Per-data-center edge capacity of the one-stream variants.  At the
#: default 40 GB the churn empties the large tier at every request and no
#: insert ever evicts, so all five policies would emit one trace; at 1 GB
#: they emit five.
CAPACITY_BYTES = 1_000_000_000
#: One-stream variants: ``SimulationConfig`` overrides over ``seed=1`` and
#: :data:`CAPACITY_BYTES`.
CONFIG_VARIANTS = {
    **{f"policy-{policy}": {"cache_policy": policy} for policy in ("lru", "fifo", "lfu", "slru", "gdsf")},
    "unified-cache": {"split_small_object_cache": False},
    "zero-churn": {"background_churn_per_day": 0.0},
    "playback": {"playback_mode": True},
    "isp-proxies": {"isp_proxies": True},
    "push": {},
    "two-shards-per-dc": {"shards_per_dc": 2},
    "browser-cap": {"max_tracked_browsers": 50},
}
VARIANTS = sorted(CONFIG_VARIANTS) + ["two-streams", "shared-ids"]


@pytest.fixture(scope="module")
def v2_stream():
    """The first 3,000 requests of one tiny V-2 stream, and its catalog."""
    generator = WorkloadGenerator(profiles=(profile_v2(),), scale=ScaleConfig.tiny(), seed=5)
    workload = generator.generate_site(profile_v2())
    head = next(generator.merged_request_batches({"V-2": workload}, batch_size=3000))
    return head, workload.catalog


def _two_streams():
    """A block of one two-site stream, then a block of the same sites
    merged in the other order, whose indexes mean other users and objects."""
    profiles = (profile_v1(), profile_v2())
    generator = WorkloadGenerator(profiles=profiles, scale=ScaleConfig.tiny(), seed=11)
    workloads = generator.generate_all()
    block = next(generator.merged_request_batches(workloads, batch_size=2500))
    reordered = dict(reversed(list(workloads.items())))
    other = next(generator.merged_request_batches(reordered, batch_size=300, start_request_id=len(block)))
    catalogs = [w.catalog for w in workloads.values()]
    simulator = CdnSimulator(
        profiles=profiles, config=SimulationConfig(seed=12, cache_capacity_bytes=2_000_000_000)
    )
    simulator.warm(catalogs)
    return simulator, [block.rows(0, 500), other]


def _shared_ids():
    """A block of seed 11's V-1 stream, then one of seed 12's: the object
    ids repeat across the two with other sizes."""
    profiles = (profile_v1(),)
    first, second = (
        WorkloadGenerator(profiles=profiles, scale=ScaleConfig.tiny(), seed=seed) for seed in (11, 12)
    )
    head = next(first.merged_request_batches(batch_size=500))
    tail = next(second.merged_request_batches(batch_size=300, start_request_id=len(head)))
    return CdnSimulator(profiles=profiles, config=SimulationConfig(seed=12)), [head, tail]


def _setup(variant: str, v2_stream):
    if variant == "two-streams":
        return _two_streams()
    if variant == "shared-ids":
        return _shared_ids()
    head, catalog = v2_stream
    config = SimulationConfig(seed=1, cache_capacity_bytes=CAPACITY_BYTES, **CONFIG_VARIANTS[variant])
    simulator = CdnSimulator(profiles=(profile_v2(),), config=config)
    if variant == "push":
        simulator.enable_push([catalog])
    return simulator, [head]


def _columns_digest(batches) -> tuple[str, int, int]:
    """sha256 over every batch's columns in batch order, the batch count
    and the row count."""
    digest = hashlib.sha256()
    rows = 0
    for number, batch in enumerate(batches):
        rows += len(batch)
        digest.update(f"batch {number} rows {len(batch)}\n".encode("utf-8"))
        for name in ALL_COLUMNS:
            data = getattr(batch, name)
            if name in STRING_FIELDS:
                values = json.dumps(list(data.values))
                array = data.codes
            else:
                values = ""
                array = data
            digest.update(f"{name} {array.dtype.str} {values}\n".encode("utf-8"))
            digest.update(np.ascontiguousarray(array).tobytes())
    return digest.hexdigest(), len(batches), rows


def _metric_totals(metrics) -> dict:
    """Every SimulationMetrics counter, float sums as their ``repr``."""
    return {
        "sites": {
            site: {
                "requests": site_metrics.requests,
                "hits": site_metrics.hits,
                "bytes_served": site_metrics.bytes_served,
                "bytes_from_origin": site_metrics.bytes_from_origin,
                "latency_ms_total": repr(site_metrics.latency_ms_total),
                "status_codes": {str(code): count for code, count in sorted(site_metrics.status_codes.items())},
            }
            for site, site_metrics in sorted(metrics.sites.items())
        },
        "evicted_browsers": metrics.evicted_browsers,
    }


def _variant_digests(variant: str, v2_stream, workers: int) -> dict:
    simulator, blocks = _setup(variant, v2_stream)
    batches = list(simulator.run_batches(iter(blocks), batch_size=BATCH_SIZE, workers=workers))
    columns, count, rows = _columns_digest(batches)
    origin = simulator.origin
    return {
        "columns": columns,
        "batches": count,
        "rows": rows,
        "metrics": _metric_totals(simulator.metrics),
        "cache_stats": dataclasses.asdict(simulator.cache_stats()),
        "origin": {"fetches": origin.fetches, "bytes_served": origin.bytes_served},
    }


@pytest.fixture(scope="module")
def committed(v2_stream) -> dict:
    if _REGEN:
        entries = {variant: _variant_digests(variant, v2_stream, workers=1) for variant in VARIANTS}
        DIGESTS_PATH.write_text(json.dumps(entries, indent=2, sort_keys=True) + "\n")
    assert DIGESTS_PATH.exists(), (
        "simulator digest fixture missing; run with REPRO_REGEN_GOLDEN=1 to create it"
    )
    return json.loads(DIGESTS_PATH.read_text())


def test_fixture_covers_every_variant(committed):
    assert sorted(committed) == sorted(VARIANTS)


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("variant", VARIANTS)
def test_variant_matches_committed_digests(committed, v2_stream, variant, workers):
    fresh = json.loads(json.dumps(_variant_digests(variant, v2_stream, workers)))
    golden = committed[variant]
    if fresh != golden:
        delta = "\n".join(_delta(golden, fresh))
        pytest.fail(f"variant {variant} with {workers} worker(s) drifted from the committed digests:\n{delta}")
    if _REGEN:
        pytest.fail(
            "regenerated simulator digests — review the diff, commit, and rerun "
            "without REPRO_REGEN_GOLDEN"
        )
