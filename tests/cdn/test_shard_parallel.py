"""Shard-parallel simulation equivalence: bit-identical output, merged metrics.

The sharded simulator's contract (mirroring
``tests/core/test_streaming_equivalence.py`` for the ingest engines):
``run_batches(workers=N)`` must produce *exactly* the record stream of the
sequential path — every ``LogRecord`` field, in the same global order —
for any worker count, request-block size and batch size, and the merged
``SimulationMetrics`` / ``CacheStats`` / origin / push / proxy counters
must match the sequential run's exactly.  The reference is the
sequential path over the same requests as one block.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cdn.routing import user_partition
from repro.cdn.simulator import CdnSimulator, SimulationConfig
from repro.stats.sampling import counter_rng
from repro.trace.batch import ALL_COLUMNS, STRING_FIELDS, BatchBuilder
from repro.workload.generator import RequestBlock, RequestTables, WorkloadGenerator
from repro.workload.profiles import profile_v1, profile_v2
from repro.workload.scale import ScaleConfig

SEED = 11
N_REQUESTS = 2500
#: Rows per request block fed to ``run_batches`` unless a test says otherwise.
BLOCK_ROWS = 1024


@pytest.fixture(scope="module")
def workload():
    """The first rows of two sites' merged request stream, as one block,
    plus their catalogs."""
    profiles = (profile_v1(), profile_v2())
    generator = WorkloadGenerator(profiles=profiles, scale=ScaleConfig.tiny(), seed=SEED)
    workloads = generator.generate_all()
    block = next(generator.merged_request_batches(workloads, batch_size=N_REQUESTS))
    catalogs = [w.catalog for w in workloads.values()]
    return profiles, block, catalogs


def _blocks(block, rows):
    """``block`` cut into consecutive blocks of ``rows`` rows."""
    return [block.rows(start, start + rows) for start in range(0, len(block), rows)]


def _simulator(profiles, catalogs, **overrides) -> CdnSimulator:
    config = SimulationConfig(seed=SEED + 1, cache_capacity_bytes=2_000_000_000, **overrides)
    simulator = CdnSimulator(profiles=profiles, config=config)
    simulator.warm(catalogs)
    return simulator


def _run_sequential(profiles, block, catalogs, **overrides):
    simulator = _simulator(profiles, catalogs, **overrides)
    records = [record for batch in simulator.run_batches([block]) for record in batch.iter_records()]
    return simulator, records


def _joined(blocks):
    """The rows of ``blocks`` as one block, over one table that lists each
    block's users and objects in turn."""
    users, objects, user_index, object_index = [], [], [], []
    for block in blocks:
        user_index.append(block.user_index + len(users))
        object_index.append(block.object_index + len(objects))
        users.extend(block.tables.users)
        objects.extend(block.tables.objects)
    return RequestBlock(
        RequestTables(tuple(users), tuple(objects)),
        np.concatenate([block.timestamps for block in blocks]),
        np.concatenate(user_index),
        np.concatenate(object_index),
        np.concatenate([block.is_repeat for block in blocks]),
        np.concatenate([block.request_id for block in blocks]),
    )


def _run_batched(
    profiles, block, catalogs, workers, batch_size, queue_depth=None, block_rows=BLOCK_ROWS,
    **overrides,
):
    simulator = _simulator(profiles, catalogs, **overrides)
    batches = list(
        simulator.run_batches(
            iter(_blocks(block, block_rows)),
            batch_size=batch_size,
            workers=workers,
            queue_depth=queue_depth,
        )
    )
    records = [record for batch in batches for record in batch.iter_records()]
    return simulator, records, batches


@pytest.fixture(scope="module")
def reference(workload):
    """The sequential run every parallel configuration must reproduce."""
    profiles, block, catalogs = workload
    return _run_sequential(profiles, block, catalogs)


class TestBitIdentity:
    @pytest.mark.parametrize("workers", [1, 2, 7])
    @pytest.mark.parametrize("batch_size", [1, 64, 10**9])
    def test_run_batches_matches_sequential(self, workload, reference, workers, batch_size):
        profiles, block, catalogs = workload
        _, expected = reference
        _, records, batches = _run_batched(
            profiles, block, catalogs, workers=workers, batch_size=batch_size
        )
        assert len(records) == len(expected)
        assert records == expected  # every LogRecord field, field by field
        if batch_size < 10**9:
            assert all(len(batch) <= batch_size for batch in batches)

    def test_global_order_is_sequential_order(self, workload, reference):
        profiles, block, catalogs = workload
        _, expected = reference
        _, records, _ = _run_batched(profiles, block, catalogs, workers=3, batch_size=128)
        assert [r.timestamp for r in records] == [r.timestamp for r in expected]
        assert [r.timestamp for r in records] == sorted(r.timestamp for r in records)


def _columns(batches):
    """Every batch column by column: numeric dtype and values, string
    code dtype, codes and dictionary values, in batch order."""

    def column(batch, name):
        data = getattr(batch, name)
        if name in STRING_FIELDS:
            return name, data.codes.dtype.str, data.codes.tolist(), list(data.values)
        return name, data.dtype.str, data.tolist()

    return [[column(batch, name) for name in ALL_COLUMNS] for batch in batches]


class TestBatchIdentity:
    """DESIGN §8's invariant on the parallel path: the merged rows are cut
    into the sequential path's exact batches, each with its dictionaries
    in first-appearance order over its own rows."""

    @pytest.mark.parametrize("playback_mode", [False, True])
    @pytest.mark.parametrize("batch_size", [1, 64, 700])
    def test_parallel_batches_equal_sequential_column_for_column(
        self, workload, batch_size, playback_mode
    ):
        profiles, block, catalogs = workload
        prefix = block.rows(0, 1200)

        def batches(workers):
            return _run_batched(
                profiles, prefix, catalogs, workers=workers, batch_size=batch_size,
                playback_mode=playback_mode,
            )[2]

        expected = _columns(batches(1))
        for workers in (2, 3):
            assert _columns(batches(workers)) == expected


class TestBlockSize:
    """Where the request stream is cut into blocks changes nothing: the
    sequential and the 2-worker path emit the same batches, column for
    column, as one block holding the whole stream does."""

    @pytest.fixture(scope="class")
    def one_block_batches(self, workload):
        profiles, block, catalogs = workload
        _, _, batches = _run_batched(
            profiles, block, catalogs, workers=1, batch_size=300, block_rows=len(block)
        )
        return _columns(batches)

    @pytest.mark.parametrize("block_rows", [1, 7, 8192])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_block_size_does_not_change_batches(
        self, workload, one_block_batches, workers, block_rows
    ):
        profiles, block, catalogs = workload
        _, _, batches = _run_batched(
            profiles, block, catalogs, workers=workers, batch_size=300, block_rows=block_rows
        )
        assert _columns(batches) == one_block_batches

    def test_blocks_from_two_streams(self, workload):
        """A later block may index into other request tables — here the
        same sites merged in the other order, so every index means another
        user and object, its ids continuing past the first stream's: both
        paths serve it as the sequential path serves the same rows over
        one table."""
        profiles, block, catalogs = workload
        generator = WorkloadGenerator(profiles=profiles, scale=ScaleConfig.tiny(), seed=SEED)
        workloads = generator.generate_all()
        reordered = dict(reversed(list(workloads.items())))
        other = next(
            generator.merged_request_batches(reordered, batch_size=300, start_request_id=len(block))
        )
        assert other.tables.users[0].site != block.tables.users[0].site
        blocks = [block.rows(0, 500), other]
        _, expected = _run_sequential(profiles, _joined(blocks), catalogs)
        for workers in (1, 2):
            simulator = _simulator(profiles, catalogs)
            batches = list(simulator.run_batches(iter(blocks), batch_size=128, workers=workers))
            assert [record for batch in batches for record in batch.iter_records()] == expected

    def test_objects_sharing_ids_across_seeds(self):
        """Object ids repeat across seeds with other sizes
        (``V-1/video/000000`` is 816,910 bytes at seed 11 and 7,060,190
        bytes at seed 12): one run over a block of each seed's stream
        serves every object from its own chunk plan on both paths."""
        profiles = (profile_v1(),)
        first, second = (
            WorkloadGenerator(profiles=profiles, scale=ScaleConfig.tiny(), seed=seed) for seed in (11, 12)
        )
        head = next(first.merged_request_batches(batch_size=500))
        tail = next(second.merged_request_batches(batch_size=300, start_request_id=len(head)))
        shared = {obj.object_id for obj in head.tables.objects} & {obj.object_id for obj in tail.tables.objects}
        sizes = {obj.object_id: obj.size_bytes for obj in head.tables.objects}
        assert any(sizes[obj.object_id] != obj.size_bytes for obj in tail.tables.objects if obj.object_id in shared)
        runs = []
        for workers in (1, 2):
            simulator = CdnSimulator(profiles=profiles, config=SimulationConfig(seed=12))
            runs.append(_columns(simulator.run_batches(iter([head, tail]), batch_size=256, workers=workers)))
        assert runs[0] == runs[1]


class TestMergedMetrics:
    def test_metrics_match_sequential_exactly(self, workload, reference):
        profiles, block, catalogs = workload
        seq_sim, _ = reference
        par_sim, _, _ = _run_batched(profiles, block, catalogs, workers=4, batch_size=512)
        assert par_sim.metrics == seq_sim.metrics  # includes float latency totals
        assert par_sim.cache_stats() == seq_sim.cache_stats()
        assert par_sim.origin == seq_sim.origin

    def test_per_edge_cache_state_matches(self, workload, reference):
        profiles, block, catalogs = workload
        seq_sim, _ = reference
        par_sim, _, _ = _run_batched(profiles, block, catalogs, workers=2, batch_size=256)
        for dc_id, seq_edge in seq_sim.edges.items():
            par_edge = par_sim.edges[dc_id]
            for seq_cache, par_cache in zip(seq_edge.caches(), par_edge.caches()):
                assert seq_cache.stats == par_cache.stats
                assert seq_cache.used_bytes == par_cache.used_bytes
                assert len(seq_cache) == len(par_cache)

    def test_push_and_proxy_stats_match(self, workload):
        profiles, block, catalogs = workload

        def run(workers):
            simulator = _simulator(profiles, catalogs, isp_proxies=True)
            simulator.enable_push(catalogs)
            batches = list(simulator.run_batches(iter([block]), batch_size=512, workers=workers))
            records = [record for batch in batches for record in batch.iter_records()]
            return simulator, records

        seq_sim, seq_records = run(workers=1)
        par_sim, par_records = run(workers=3)
        assert par_records == seq_records
        assert par_sim.push_stats == seq_sim.push_stats
        seq_proxies, par_proxies = seq_sim.proxies, par_sim.proxies
        assert (seq_proxies.total_hits, seq_proxies.total_lookups) == (
            par_proxies.total_hits,
            par_proxies.total_lookups,
        )

    def test_playback_mode_matches(self, workload):
        profiles, block, catalogs = workload
        seq_sim, seq_records = _run_sequential(
            profiles, block.rows(0, 800), catalogs, playback_mode=True
        )
        par_sim, par_records, _ = _run_batched(
            profiles, block.rows(0, 800), catalogs, workers=2, batch_size=64, playback_mode=True
        )
        assert par_records == seq_records
        assert par_sim.metrics == seq_sim.metrics


class TestShardsPerDc:
    def test_partitioned_dc_still_bit_identical(self, workload):
        profiles, block, catalogs = workload
        seq_sim, seq_records = _run_sequential(profiles, block, catalogs, shards_per_dc=2)
        par_sim, par_records, _ = _run_batched(
            profiles, block, catalogs, workers=5, batch_size=256, shards_per_dc=2
        )
        assert par_records == seq_records
        assert par_sim.metrics == seq_sim.metrics
        assert par_sim.cache_stats() == seq_sim.cache_stats()

    def test_partition_count_validated(self):
        with pytest.raises(ValueError):
            CdnSimulator(config=SimulationConfig(shards_per_dc=0))


class TestSimStats:
    def test_stats_populated_after_exhaustion(self, workload):
        profiles, block, catalogs = workload
        for workers in (1, 2):
            simulator, records, _ = _run_batched(
                profiles, block, catalogs, workers=workers, batch_size=512
            )
            stats = simulator.sim_stats
            assert stats is not None
            assert stats.requests == len(block)
            assert stats.records == len(records)
            assert sum(s.records for s in stats.shards) == stats.records
            assert sum(s.queue_depth for s in stats.shards) == stats.requests
            assert stats.wall_seconds > 0
            assert stats.records_per_sec > 0
            assert stats.ideal_speedup >= 1.0


class TestWarmDeterminism:
    def test_warm_identical_across_topology_sizes(self, workload):
        """The warm admission draw is keyed per object, so the set of
        objects an edge warms with cannot depend on how many other edges
        exist or on edge iteration order."""
        from repro.cdn.geo import DataCenter, Topology
        from repro.types import Continent

        profiles, _, catalogs = workload
        full = _simulator(profiles, catalogs)
        solo_topology = Topology(
            datacenters=(
                DataCenter(
                    dc_id="dc-north_america",
                    continent=Continent.NORTH_AMERICA,
                    cache_capacity_bytes=2_000_000_000,
                ),
            )
        )
        solo = CdnSimulator(
            profiles=profiles,
            topology=solo_topology,
            config=SimulationConfig(seed=SEED + 1, cache_capacity_bytes=2_000_000_000),
        )
        solo.warm(catalogs)
        full_edge = full.edges["dc-north_america"]
        solo_edge = solo.edges["dc-north_america"]
        for full_cache, solo_cache in zip(full_edge.caches(), solo_edge.caches()):
            assert set(full_cache.keys()) == set(solo_cache.keys())

    def test_warm_repeatable(self, workload):
        profiles, _, catalogs = workload
        first = _simulator(profiles, catalogs)
        second = _simulator(profiles, catalogs)
        for edge_a, edge_b in zip(first.edges.values(), second.edges.values()):
            for cache_a, cache_b in zip(edge_a.caches(), edge_b.caches()):
                assert set(cache_a.keys()) == set(cache_b.keys())


class TestBrowserEviction:
    def test_cap_bounds_tracked_browsers(self, workload, reference):
        profiles, block, catalogs = workload
        capped, records = _run_sequential(
            profiles, block, catalogs, max_tracked_browsers=5
        )
        assert capped.metrics.evicted_browsers > 0
        for shard in capped._shards.values():
            assert len(shard.browsers) <= 5
        # The uncapped reference saw no evictions.
        assert reference[0].metrics.evicted_browsers == 0

    def test_cap_still_bit_identical_across_workers(self, workload):
        profiles, block, catalogs = workload
        _, seq_records = _run_sequential(
            profiles, block, catalogs, max_tracked_browsers=5
        )
        par_sim, par_records, _ = _run_batched(
            profiles, block, catalogs, workers=3, batch_size=128, max_tracked_browsers=5
        )
        assert par_records == seq_records
        assert par_sim.metrics.evicted_browsers > 0


class TestCounterRng:
    def test_streams_are_order_independent(self):
        a_then_b = (counter_rng(3, "request", 1).random(), counter_rng(3, "request", 2).random())
        b_then_a = (counter_rng(3, "request", 2).random(), counter_rng(3, "request", 1).random())
        assert a_then_b == tuple(reversed(b_then_a))

    def test_streams_differ_by_key(self):
        assert counter_rng(3, "request", 1).random() != counter_rng(3, "request", 2).random()
        assert counter_rng(3, "request", 1).random() != counter_rng(4, "request", 1).random()
        assert counter_rng(3, "request", 1).random() != counter_rng(3, "warm", 1).random()


class TestStreamingDispatch:
    """The producer/consumer dispatcher: bounded windows, identical output."""

    @pytest.mark.parametrize("workers", [2, 5])
    @pytest.mark.parametrize("queue_depth", [1, 17, 100_000])
    def test_queue_depth_grid_bit_identical(self, workload, workers, queue_depth):
        profiles, block, catalogs = workload
        prefix = block.rows(0, 400 if queue_depth == 1 else 1200)
        _, expected = _run_sequential(profiles, prefix, catalogs)
        # batch_size 64 > queue_depth 1/17 exercises a dispatch window
        # smaller than one output batch.
        _, records, _ = _run_batched(
            profiles, prefix, catalogs, workers=workers, batch_size=64, queue_depth=queue_depth
        )
        assert records == expected

    def test_peak_resident_bounded_by_queue_depth(self, workload, reference):
        profiles, block, catalogs = workload
        _, expected = reference
        simulator, records, _ = _run_batched(
            profiles, block, catalogs, workers=3, batch_size=256, queue_depth=32, block_rows=100
        )
        assert records == expected
        stats = simulator.sim_stats
        n_shards = len(simulator._shards)
        # At most one staged producer block plus a full window per shard.
        assert 0 < stats.peak_resident_requests <= 32 * n_shards + 100
        assert stats.peak_resident_requests < len(block)
        assert all(shard.queue_peak <= 32 for shard in stats.shards)
        assert any(shard.queue_peak > 0 for shard in stats.shards)
        assert stats.generate_seconds > 0
        assert 0.0 <= stats.overlap_fraction <= 1.0
        # The big-window run keeps everything in flight at once.
        big, _, _ = _run_batched(
            profiles, block, catalogs, workers=3, batch_size=256, queue_depth=100_000
        )
        assert stats.peak_resident_requests < big.sim_stats.peak_resident_requests

    def test_queue_depth_validated(self, workload):
        profiles, block, catalogs = workload
        simulator = _simulator(profiles, catalogs)
        with pytest.raises(ValueError):
            simulator.run_batches(iter([block]), workers=2, queue_depth=0)


class TestStaleStats:
    def test_abandoned_iterator_leaves_stats_none(self, workload):
        profiles, block, catalogs = workload
        for workers in (1, 3):
            simulator = _simulator(profiles, catalogs)
            full = list(simulator.run_batches(iter([block]), batch_size=128, workers=workers))
            assert full and simulator.sim_stats is not None
            previous = simulator.sim_stats
            iterator = simulator.run_batches(iter([block]), batch_size=128, workers=workers)
            # The new run resets the stats before producing anything …
            assert simulator.sim_stats is None
            next(iterator)
            iterator.close()
            # … and an abandoned iterator never resurrects the old run's.
            assert simulator.sim_stats is None
            assert previous is not simulator.sim_stats


class TestWorkerFailure:
    def _expect_consistent_failure(self, workload, env_name, monkeypatch):
        from repro.errors import SimulationError

        profiles, block, catalogs = workload
        simulator = _simulator(profiles, catalogs)
        victim = block.rows(120, 121)
        monkeypatch.setenv(env_name, str(int(victim.request_id[0])))
        before = dict(simulator._shards)
        with pytest.raises(SimulationError) as excinfo:
            list(simulator.run_batches(iter([block]), batch_size=128, workers=3, queue_depth=64))
        # No shard state was adopted: every shard object is the parent's
        # own pre-run instance, so a retry starts from consistent state.
        assert all(simulator._shards[key] is before[key] for key in before)
        assert simulator.sim_stats is None
        assert "no shard state was adopted" in str(excinfo.value)
        return simulator, victim, str(excinfo.value)

    def test_raising_worker_wrapped_named_and_consistent(self, workload, monkeypatch):
        from repro.cdn import simulator as sim_module

        simulator, victim, message = self._expect_consistent_failure(
            workload, sim_module._FAIL_RID_ENV, monkeypatch
        )
        assert self._shard_id(simulator, victim) in message
        assert "injected worker failure" in message

    def test_killed_worker_named_and_consistent(self, workload, monkeypatch):
        from repro.cdn import simulator as sim_module

        simulator, victim, message = self._expect_consistent_failure(
            workload, sim_module._KILL_RID_ENV, monkeypatch
        )
        assert "died" in message
        assert self._shard_id(simulator, victim) in message

    @staticmethod
    def _shard_id(simulator, victim) -> str:
        """The id of the shard serving ``victim``'s one request: its user's
        data center, through the router, and cache partition."""
        user = victim.tables.users[victim.user_index[0]]
        partitions = simulator.config.shards_per_dc
        position = simulator.router.route_positions[user.continent.code] * partitions + user_partition(
            user.user_id, partitions
        )
        return list(simulator._shards.values())[position].shard_id


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_hypothesis_frontier_merge_order(data):
    """Property: for any shard assignment, chunking, and FIFO-per-shard
    acknowledgement interleaving, the frontier merge emits every record in
    global request-id order, never past the emission bound, with a
    request's multi-record run kept contiguous."""
    from repro.cdn.simulator import _FrontierMerger, _ShardChannel

    n_shards = data.draw(st.integers(1, 4))
    n_rids = data.draw(st.integers(1, 50))
    keys = [("dc", index) for index in range(n_shards)]
    shard_of = {
        rid: keys[data.draw(st.integers(0, n_shards - 1))] for rid in range(n_rids)
    }
    tokens_of = {rid: data.draw(st.integers(1, 3)) for rid in range(n_rids)}

    channels = {key: _ShardChannel(key, 0) for key in keys}
    merger = _FrontierMerger(keys)
    produced_through = n_rids - 1

    def tagged(rids):
        """A block whose rows carry (rid, token) in two columns."""
        builder = BatchBuilder()
        for token, rid in enumerate(rids):
            builder.append(float(rid), "V-1", "o", "mp4", token, "u", "ua", False, 200, 0, "dc", -1)
        return builder.finish()

    def pairs(batch):
        return list(zip(batch.timestamp.astype(np.int64).tolist(), batch.object_size.tolist()))

    # Chunk each shard's rid sequence (order preserved) and dispatch.
    chunks = {key: [] for key in keys}
    for key in keys:
        rids = [rid for rid in range(n_rids) if shard_of[rid] is key]
        while rids:
            take = data.draw(st.integers(1, len(rids)))
            chunk = rids[:take]
            rids = rids[take:]
            channels[key].dispatch(chunk[0], len(chunk))
            chunks[key].append(chunk)

    def bound():
        return min(channel.frontier(produced_through) for channel in channels.values())

    emitted = []
    pending_keys = [key for key in keys if chunks[key]]
    while pending_keys:
        key = data.draw(st.sampled_from(pending_keys))
        chunk = chunks[key].pop(0)  # FIFO within a shard, any order across
        seq = channels[key].pending[0][0]
        channels[key].ack(seq, len(chunk))
        rids = [rid for rid in chunk for _ in range(tokens_of[rid])]
        merger.push(key, np.asarray(rids), tagged(rids))
        head = bound()
        for record in pairs(merger.emit(head)):
            assert record[0] <= head  # never emits past the bound
            emitted.append(record)
        pending_keys = [key for key in keys if chunks[key]]

    emitted.extend(pairs(merger.emit(produced_through)))
    assert merger.buffered == 0
    expected = [
        (rid, token)
        for rid in range(n_rids)
        for token in range(tokens_of[rid])
    ]
    # Global id order with each rid's records contiguous and in order —
    # but token indices restart per chunk, so compare (rid, rank) shape.
    assert [record[0] for record in emitted] == [pair[0] for pair in expected]
    last_token: dict[int, int] = {}
    for rid, token in emitted:
        if rid in last_token:
            assert token == last_token[rid] + 1  # within-request order kept
        last_token[rid] = token


@settings(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)
@given(
    workers=st.sampled_from([1, 2, 7]),
    batch_size=st.sampled_from([1, 64, 10**9]),
    slice_len=st.sampled_from([150, 400]),
)
def test_hypothesis_grid_bit_identical(workload, workers, batch_size, slice_len):
    """Property: any (workers, batch_size, stream prefix) combination
    reproduces the sequential records exactly."""
    profiles, block, catalogs = workload
    prefix = block.rows(0, slice_len)
    _, expected = _run_sequential(profiles, prefix, catalogs)
    _, records, _ = _run_batched(
        profiles, prefix, catalogs, workers=workers, batch_size=batch_size
    )
    assert records == expected
