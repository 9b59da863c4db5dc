"""Spilled ≡ unspilled: bit-identical results at any memory budget.

The subsystem's core promise: a run under any ``memory_budget`` —
including a pathological 1-byte budget that forces every spillable
participant to disk — produces *exactly* the artefacts of the unlimited
run: identical study reports, identical aggregates, byte-identical trace
files.  Spilling must also be visible (``bytes_spilled`` > 0 in the
telemetry) and must actually lower the ingest's peak resident footprint.
"""

from __future__ import annotations

import pytest
from hypothesis import given, note, settings
from hypothesis import strategies as st

from repro.core.dataset import TraceDataset
from repro.dataflow import Plan, RunConfig

from tests.core.test_streaming_equivalence import _chunk, _study_outcome
from tests.trace.test_io import record_strategy

record_lists = st.lists(record_strategy, min_size=0, max_size=40)
batch_sizes = st.integers(min_value=1, max_value=64)
budgets = st.sampled_from([1, 64, 4096, 1 << 20])


class TestIngestEquivalence:
    """TraceDataset.from_batches under a budget vs. without one."""

    @settings(max_examples=25, deadline=None)
    @given(
        records=record_lists,
        batch_size=batch_sizes,
        budget=budgets,
        keep_store=st.booleans(),
    )
    def test_hypothesis_grid_budget_batchsize_keepstore(
        self, records, batch_size, budget, keep_store
    ):
        note(f"batch_size={batch_size} budget={budget} keep_store={keep_store}")
        reference = _study_outcome(
            TraceDataset.from_batches(_chunk(records, batch_size), keep_store=keep_store)
        )
        spilled = _study_outcome(
            TraceDataset.from_batches(
                _chunk(records, batch_size), keep_store=keep_store, memory_budget=budget
            )
        )
        assert spilled == reference

    def test_one_byte_budget_forces_timeline_spill(self, pipeline_result):
        batches = list(pipeline_result.batches)
        baseline = TraceDataset.from_batches(batches, keep_store=False)
        spilled = TraceDataset.from_batches(batches, keep_store=False, memory_budget=1)
        stats = spilled.ingest_stats
        assert stats is not None
        assert stats.spill_files > 0
        assert stats.bytes_spilled > 0
        assert stats.bytes_spilled == stats.bytes_restored
        base_stats = baseline.ingest_stats
        assert base_stats is not None
        assert base_stats.bytes_spilled == 0
        # Evicting the timestamp packs lowers the resident high-water mark.
        assert stats.peak_resident_bytes <= base_stats.peak_resident_bytes
        # And the aggregates still come out bit-identical.
        assert _study_outcome(spilled) == _study_outcome(baseline)

    def test_generous_budget_never_spills(self, pipeline_result):
        batches = list(pipeline_result.batches)
        dataset = TraceDataset.from_batches(
            batches, keep_store=False, memory_budget=1 << 40
        )
        stats = dataset.ingest_stats
        assert stats is not None
        assert stats.spill_files == 0
        assert stats.bytes_spilled == 0

    def test_env_variable_fallback(self, pipeline_result, monkeypatch, tmp_path):
        # The ingest reads no environment: a budget in REPRO_MEMORY_BUDGET
        # is ignored, and only the explicit kwargs enable spilling.
        batches = list(pipeline_result.batches)
        baseline = _study_outcome(TraceDataset.from_batches(batches, keep_store=False))
        monkeypatch.setenv("REPRO_MEMORY_BUDGET", "1")
        unbudgeted = TraceDataset.from_batches(batches, keep_store=False)
        assert unbudgeted.ingest_stats.bytes_spilled == 0
        spill_dir = tmp_path / "spill"
        spilled = TraceDataset.from_batches(
            batches, keep_store=False, memory_budget=1, spill_dir=str(spill_dir)
        )
        assert spilled.ingest_stats.bytes_spilled > 0
        assert _study_outcome(spilled) == baseline
        # Every segment was consumed or cleaned up at pool close.
        assert not spill_dir.exists() or list(spill_dir.iterdir()) == []


@pytest.fixture(scope="module")
def baseline_study():
    """The unlimited-budget study every budgeted run must reproduce."""
    config = RunConfig.resolve(seed=29, scale="tiny", keep_store=False, sim_workers=2)
    report = Plan(config).generate().simulate().ingest().analyze().run().report
    return report.render_text(), report.to_summary_dict()


class TestFullStudyEquivalence:
    """The whole study: budgeted runs reproduce the unlimited report."""

    @pytest.mark.parametrize(
        ("budget", "keep_store", "workers", "queue_depth"),
        [
            (1, False, 2, 64),  # pathological: everything spills
            (1, True, 2, 256),  # row store kept, aggregates still spill
            (200_000, False, 3, 128),  # tight but realistic
            (1 << 30, False, 2, 64),  # generous: must not spill at all
        ],
    )
    def test_budget_grid_reproduces_report(
        self, baseline_study, budget, keep_store, workers, queue_depth, tmp_path
    ):
        config = RunConfig.resolve(
            seed=29,
            scale="tiny",
            keep_store=keep_store,
            sim_workers=workers,
            sim_queue_depth=queue_depth,
            memory_budget=budget,
            spill_dir=str(tmp_path / "spill"),
        )
        result = Plan(config).generate().simulate().ingest().analyze().run()
        report = result.report
        assert (report.render_text(), report.to_summary_dict()) == baseline_study
        by_name = {stats.name: stats for stats in result.stage_stats}
        if budget == 1:
            # A 1-byte budget must force both consumers to disk ...
            assert by_name["simulate"].bytes_spilled > 0
            assert by_name["ingest"].bytes_spilled > 0
        if budget >= 1 << 30:
            # ... and a generous one must not spill anything.
            assert all(stats.bytes_spilled == 0 for stats in result.stage_stats)
        for stats in result.stage_stats:
            assert stats.bytes_spilled == stats.bytes_restored
        # No segment survives the run.
        spill_dir = tmp_path / "spill"
        assert not spill_dir.exists() or list(spill_dir.iterdir()) == []


class TestTraceByteIdentity:
    def test_spilled_trace_file_is_byte_identical(self, tmp_path):
        base_path = tmp_path / "base.bin"
        spill_path = tmp_path / "spilled.bin"
        config = RunConfig.resolve(seed=31, scale="tiny", sim_workers=2)
        base = Plan(config).generate().simulate().write_trace(base_path).run()
        budgeted = config.replacing(memory_budget=1, spill_dir=str(tmp_path / "spill"))
        spilled = Plan(budgeted).generate().simulate().write_trace(spill_path).run()
        assert base.rows_written == spilled.rows_written
        assert base_path.read_bytes() == spill_path.read_bytes()
        assert sum(stats.bytes_spilled for stats in spilled.stage_stats) > 0
        assert sum(stats.bytes_spilled for stats in base.stage_stats) == 0
