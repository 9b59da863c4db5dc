"""Executor spill plumbing: pool lifecycle, use_spill dispatch, telemetry.

The executor owns the run's one :class:`~repro.spill.SpillPool`: it is
created only when the config carries a ``memory_budget``, handed to every
stage implementing ``use_spill`` *before* ``connect``, and closed —
deleting every leftover segment — after the drain, even when a stage
raises mid-stream.  The StageStats spill clause is pinned here too since
CI greps the rendered table for ``bytes_spilled``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.dataflow import Plan, RunConfig, StageStats
from repro.dataflow.stage import render_stage_stats
from repro.trace.batch import RecordBatch

from tests.trace.test_batch import varied_records


def _config(**overrides) -> RunConfig:
    return RunConfig.resolve(env={}, **overrides)


def _batches(n: int = 2):
    records = varied_records(24)
    half = len(records) // 2
    return [
        RecordBatch.from_records(records[:half]),
        RecordBatch.from_records(records[half:]),
    ][:n]


class _SpillAwareSink:
    """A pass-through sink recording the pool the executor hands it."""

    name = "spy"

    def __init__(self, explode_after: int | None = None):
        self.pool = None
        self.connect_order = []
        self._explode_after = explode_after

    def use_spill(self, pool) -> None:
        self.pool = pool
        self.connect_order.append("use_spill")

    def connect(self, upstream, config):
        self.connect_order.append("connect")

        def stream():
            for index, block in enumerate(upstream):
                if self._explode_after is not None and index >= self._explode_after:
                    raise RuntimeError("sink exploded")
                yield block

        return stream()


class TestPoolLifecycle:
    def test_no_budget_means_no_pool(self):
        sink = _SpillAwareSink()
        plan = Plan(_config()).source_batches(_batches())
        plan.add(sink, requires="batches", produces="batches")
        plan.run()
        assert sink.pool is None

    def test_use_spill_called_before_connect(self):
        sink = _SpillAwareSink()
        plan = Plan(_config(memory_budget=1 << 30)).source_batches(_batches())
        plan.add(sink, requires="batches", produces="batches")
        plan.run()
        assert sink.pool is not None
        assert sink.connect_order == ["use_spill", "connect"]
        assert sink.pool.budget.limit_bytes == 1 << 30

    def test_pool_closed_after_successful_run(self):
        sink = _SpillAwareSink()
        plan = Plan(_config(memory_budget=1 << 30)).source_batches(_batches())
        plan.add(sink, requires="batches", produces="batches")
        plan.run()
        assert sink.pool._closed

    def test_pool_closed_and_segments_removed_on_stage_error(self, tmp_path):
        spill_dir = tmp_path / "spill"
        sink = _SpillAwareSink(explode_after=1)
        plan = Plan(
            _config(memory_budget=1 << 30, spill_dir=str(spill_dir))
        ).source_batches(_batches())
        plan.add(sink, requires="batches", produces="batches")

        class _Leaker:
            """A stage that writes a segment and never restores it."""

            name = "leaker"

            def use_spill(self, pool) -> None:
                self.handle = pool.register("leaker")

            def connect(self, upstream, config):
                def stream():
                    for block in upstream:
                        self.handle.write_run([{"x": np.arange(4, dtype=np.int64)}])
                        yield block

                return stream()

        leaker = _Leaker()
        plan.add(leaker, requires="batches", produces="batches")
        with pytest.raises(RuntimeError, match="sink exploded"):
            plan.run()
        assert sink.pool._closed
        assert sink.pool.live_segments == ()
        assert not spill_dir.exists() or list(spill_dir.iterdir()) == []

    def test_spill_dir_config_reaches_the_pool(self, tmp_path):
        sink = _SpillAwareSink()
        target = tmp_path / "segments"
        plan = Plan(
            _config(memory_budget=1 << 30, spill_dir=str(target))
        ).source_batches(_batches())
        plan.add(sink, requires="batches", produces="batches")
        plan.run()
        assert sink.pool._spill_dir == str(target)


class TestStageStatsRender:
    def test_spill_clause_rendered_when_active(self):
        stats = StageStats(
            name="ingest",
            rows=10,
            spill_files=3,
            bytes_spilled=2048,
            bytes_restored=2048,
            spill_seconds=0.25,
        )
        line = stats.render()
        assert "spill_files 3" in line
        assert "bytes_spilled 2,048" in line
        assert "bytes_restored 2,048" in line
        assert "spill 0.250s" in line

    def test_spill_clause_absent_when_idle(self):
        assert "bytes_spilled" not in StageStats(name="ingest", rows=10).render()

    def test_table_keeps_alignment_with_spill_columns(self):
        table = render_stage_stats(
            [
                StageStats(name="simulate", rows=5, bytes_spilled=10, spill_files=1),
                StageStats(name="ingest", rows=5),
            ]
        )
        lines = table.splitlines()
        assert lines[0] == "dataflow plan:"
        assert "bytes_spilled 10" in lines[1]
        assert "bytes_spilled" not in lines[2]


class TestConfigValidation:
    def test_memory_budget_must_be_positive(self):
        from repro.errors import ConfigError

        with pytest.raises(ConfigError, match="memory_budget"):
            RunConfig(memory_budget=0)
        with pytest.raises(ConfigError, match="memory_budget"):
            RunConfig(memory_budget=-5)
        with pytest.raises(ConfigError, match="memory_budget"):
            RunConfig(memory_budget=True)

    def test_spill_dir_must_be_nonempty(self):
        from repro.errors import ConfigError

        with pytest.raises(ConfigError, match="spill_dir"):
            RunConfig(spill_dir="")

    def test_defaults_are_off(self):
        config = RunConfig()
        assert config.memory_budget is None
        assert config.spill_dir is None
