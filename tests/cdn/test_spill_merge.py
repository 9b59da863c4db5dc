"""Frontier-merge spilling: bit-identical parallel output at any budget.

Extends the shard-parallel equivalence contract
(``tests/cdn/test_shard_parallel.py``) under a memory budget: with a
:class:`~repro.spill.SpillPool` attached, buffered result blocks past the
budget are evicted to disk and streamed back in frontier order — and the
emitted record stream, the merged metrics, and every cache counter stay
exactly the sequential run's.  The `_FrontierMerger` unit tests pin the
eviction policy itself: largest non-head block first, the head never.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cdn.simulator import CdnSimulator, SimulationConfig, _FrontierMerger
from repro.spill import MemoryBudget, SpillPool
from repro.trace.batch import RecordBatch
from repro.workload.generator import WorkloadGenerator
from repro.workload.profiles import profile_v1, profile_v2
from repro.workload.scale import ScaleConfig

from tests.trace.test_batch import varied_records

SEED = 17
N_REQUESTS = 2000


@pytest.fixture(scope="module")
def workload():
    profiles = (profile_v1(), profile_v2())
    generator = WorkloadGenerator(profiles=profiles, scale=ScaleConfig.tiny(), seed=SEED)
    workloads = generator.generate_all()
    block = next(generator.merged_request_batches(workloads, batch_size=N_REQUESTS))
    catalogs = [w.catalog for w in workloads.values()]
    return profiles, block, catalogs


def _simulator(profiles, catalogs) -> CdnSimulator:
    config = SimulationConfig(seed=SEED + 1, cache_capacity_bytes=2_000_000_000)
    simulator = CdnSimulator(profiles=profiles, config=config)
    simulator.warm(catalogs)
    return simulator


@pytest.fixture(scope="module")
def reference(workload):
    profiles, block, catalogs = workload
    simulator = _simulator(profiles, catalogs)
    records = [record for batch in simulator.run_batches([block]) for record in batch.iter_records()]
    return simulator, records


class TestBudgetedParallelEquivalence:
    @pytest.mark.parametrize(
        ("workers", "batch_size", "queue_depth", "budget"),
        [
            (2, 128, 64, 1),
            (3, 64, 32, 1),
            (4, 256, 512, 50_000),
            (2, 512, 1024, 1 << 30),
        ],
    )
    def test_records_bit_identical(
        self, workload, reference, workers, batch_size, queue_depth, budget, tmp_path
    ):
        profiles, block, catalogs = workload
        _, expected = reference
        simulator = _simulator(profiles, catalogs)
        with SpillPool(MemoryBudget(budget), spill_dir=str(tmp_path)) as pool:
            batches = list(
                simulator.run_batches(
                    iter([block]),
                    batch_size=batch_size,
                    workers=workers,
                    queue_depth=queue_depth,
                    spill_pool=pool,
                )
            )
            records = [record for batch in batches for record in batch.iter_records()]
        assert records == expected
        stats = simulator.sim_stats
        assert stats is not None
        assert stats.bytes_spilled == stats.bytes_restored
        if budget == 1:
            assert stats.spill_files > 0
            assert stats.bytes_spilled > 0
        if budget >= 1 << 30:
            assert stats.spill_files == 0
        assert list(tmp_path.iterdir()) == []

    def test_metrics_match_sequential(self, workload, reference, tmp_path):
        profiles, block, catalogs = workload
        ref_sim, _ = reference
        simulator = _simulator(profiles, catalogs)
        with SpillPool(MemoryBudget(1), spill_dir=str(tmp_path)) as pool:
            for _ in simulator.run_batches(
                iter([block]), batch_size=128, workers=3, spill_pool=pool
            ):
                pass
        assert simulator.metrics == ref_sim.metrics
        assert simulator.cache_stats() == ref_sim.cache_stats()
        assert simulator.origin == ref_sim.origin

    def test_no_pool_means_no_spill_telemetry(self, workload):
        profiles, block, catalogs = workload
        simulator = _simulator(profiles, catalogs)
        for _ in simulator.run_batches(iter([block.rows(0, 500)]), batch_size=128, workers=2):
            pass
        stats = simulator.sim_stats
        assert stats is not None
        assert stats.spill_files == 0
        assert stats.bytes_spilled == 0
        assert stats.spill_seconds == 0.0


def _block(offset: int, rows: int = 12):
    """A RecordBatch block with one record per rid, rids consecutive."""
    records = varied_records(rows)
    batch = RecordBatch.from_records(records)
    rids = np.arange(offset, offset + rows, dtype=np.int64)
    return rids, batch, records


class TestMergerEviction:
    def test_non_head_block_spills_and_restores_in_order(self, tmp_path):
        key = ("dc", 0)
        merger = _FrontierMerger([key])
        with SpillPool(MemoryBudget(1), spill_dir=str(tmp_path)) as pool:
            merger.attach_spill(pool)
            rids_a, batch_a, records_a = _block(0)
            rids_b, batch_b, records_b = _block(12)
            merger.push(key, rids_a, batch_a)
            merger.push(key, rids_b, batch_b)
            buffer = merger._buffers[key]
            # The head stays resident; the second block went to disk.
            assert buffer[0].segment is None
            assert buffer[1].segment is not None
            assert len(pool.live_segments) == 1
            emitted = merger.emit(23)
            assert emitted.to_records() == records_a + records_b
            assert merger.buffered == 0
            # Restoring consumed (and deleted) the segment.
            assert pool.live_segments == ()
        stats = pool.stats()
        assert stats.spill_files == 1
        assert stats.bytes_spilled == stats.bytes_restored > 0

    def test_head_block_is_never_evicted(self, tmp_path):
        key = ("dc", 0)
        merger = _FrontierMerger([key])
        with SpillPool(MemoryBudget(1), spill_dir=str(tmp_path)) as pool:
            merger.attach_spill(pool)
            rids, batch, _ = _block(0)
            merger.push(key, rids, batch)
            assert merger._buffers[key][0].segment is None
            assert merger.evictable_bytes() == 0

    def test_largest_block_evicted_first(self, tmp_path):
        keys = [("dc", 0), ("dc", 1)]
        merger = _FrontierMerger(keys)
        pool = SpillPool(spill_dir=str(tmp_path))  # unlimited: evict manually
        merger.attach_spill(pool)
        small_rids, small_batch, _ = _block(0, rows=4)
        big_rids, big_batch, _ = _block(100, rows=40)
        for key, rids, batch in [
            (keys[0], small_rids, small_batch),
            (keys[0], big_rids, big_batch),
            (keys[1], small_rids, small_batch),
            (keys[1], big_rids, big_batch),
        ]:
            merger.push(key, rids, batch)
        merger.spill_blocks()
        spilled = [
            (key, index)
            for key, buffer in merger._buffers.items()
            for index, block in enumerate(buffer)
            if block.segment is not None
        ]
        assert len(spilled) == 1
        assert spilled[0][1] == 1  # a non-head slot
        pool.close()

    def test_partial_emission_keeps_cursor_state(self, tmp_path):
        key = ("dc", 0)
        merger = _FrontierMerger([key])
        with SpillPool(MemoryBudget(1), spill_dir=str(tmp_path)) as pool:
            merger.attach_spill(pool)
            rids_a, batch_a, records_a = _block(0)
            rids_b, batch_b, records_b = _block(12)
            merger.push(key, rids_a, batch_a)
            merger.push(key, rids_b, batch_b)
            # Emit only half the first block, then push more (triggering
            # enforcement with the head mid-consumption), then drain.
            first = merger.emit(5)
            assert first.to_records() == records_a[:6]
            rids_c, batch_c, records_c = _block(24)
            merger.push(key, rids_c, batch_c)
            rest = merger.emit(35)
            assert rest.to_records() == records_a[6:] + records_b + records_c
            assert merger.buffered == 0

    def test_resident_bytes_drop_on_eviction(self, tmp_path):
        key = ("dc", 0)
        merger = _FrontierMerger([key])
        pool = SpillPool(spill_dir=str(tmp_path))
        merger.attach_spill(pool)
        rids_a, batch_a, _ = _block(0)
        rids_b, batch_b, _ = _block(12)
        merger.push(key, rids_a, batch_a)
        merger.push(key, rids_b, batch_b)
        before = merger._resident_bytes
        freed = merger.spill_blocks()
        assert freed > 0
        assert merger._resident_bytes == before - freed
        pool.close()
