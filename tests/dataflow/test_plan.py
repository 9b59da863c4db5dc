"""Plan composition, execution equivalence, and per-stage telemetry.

The equivalence tests pin the refactor's core promise: a streaming plan
produces byte-identical traces and value-identical study reports to the
manual subsystem-by-subsystem composition the pipeline used before the
dataflow layer, for any worker count, queue depth, or keep_store setting.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cdn.simulator import CdnSimulator, sized_simulation_config
from repro.core.dataset import TraceDataset
from repro.core.report import Study
from repro.dataflow import Plan, RunConfig, StageStats, render_stage_stats
from repro.errors import ConfigError, PlanError
from repro.trace.writer import write_trace_batches
from repro.workload.generator import WorkloadGenerator
from repro.workload.profiles import profile_p1, profile_v1
from repro.workload.scale import ScaleConfig

PROFILES = (profile_v1(), profile_p1())


def tiny_config(**overrides) -> RunConfig:
    return RunConfig.resolve(env={}, scale=ScaleConfig.tiny(), **overrides)


def legacy_batches(seed: int, batch_size: int | None = None):
    """The pre-dataflow composition: each subsystem driven by hand."""
    generator = WorkloadGenerator(profiles=PROFILES, scale=ScaleConfig.tiny(), seed=seed)
    workloads = generator.generate_all()
    catalogs = {name: workload.catalog for name, workload in workloads.items()}
    sim_config = sized_simulation_config(catalogs.values(), seed)
    simulator = CdnSimulator(profiles=generator.profiles, config=sim_config)
    simulator.warm(catalogs.values())
    kwargs = {} if batch_size is None else {"batch_size": batch_size}
    batches = list(
        simulator.run_batches(generator.merged_request_batches(workloads), **kwargs)
    )
    return catalogs, batches


def legacy_report(seed: int):
    catalogs, batches = legacy_batches(seed)
    dataset = TraceDataset.from_batches(batches)
    return Study(run_clustering=False).run(dataset, catalogs=catalogs)


class TestComposition:
    def test_two_sources_rejected(self):
        with pytest.raises(PlanError, match="already has one"):
            Plan(tiny_config()).generate().generate()

    def test_transform_before_source_rejected(self):
        with pytest.raises(PlanError, match="no source yet"):
            Plan(tiny_config()).simulate()

    def test_stream_kind_mismatch_rejected(self):
        # ingest consumes columnar batches, generate emits request blocks.
        with pytest.raises(PlanError, match="'requests' stream"):
            Plan(tiny_config()).generate().ingest()

    def test_write_trace_needs_batches(self, tmp_path):
        with pytest.raises(PlanError):
            Plan(tiny_config()).generate().write_trace(tmp_path / "t.bin")

    def test_analyze_without_ingest_rejected(self):
        with pytest.raises(PlanError, match="ingest"):
            Plan(tiny_config()).generate().simulate().analyze()

    def test_empty_plan_rejected(self):
        with pytest.raises(PlanError, match="empty plan"):
            Plan(tiny_config()).run()

    def test_plan_error_is_a_config_error(self):
        assert issubclass(PlanError, ConfigError)

    def test_default_config_resolves_from_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_SEED", "23")
        assert Plan().config.seed == 23


class TestEquivalence:
    def test_trace_bytes_identical_to_manual_composition(self, tmp_path):
        seed = 11
        plan_path = tmp_path / "plan.bin"
        manual_path = tmp_path / "manual.bin"
        result = (
            Plan(tiny_config(seed=seed, keep_store=False, sim_workers=2, sim_queue_depth=256))
            .generate(PROFILES)
            .simulate()
            .write_trace(plan_path)
            .run()
        )
        _, batches = legacy_batches(seed)
        write_trace_batches(batches, manual_path)
        assert plan_path.read_bytes() == manual_path.read_bytes()
        assert result.rows_written == sum(len(batch) for batch in batches)

    def test_batch_boundaries_do_not_change_the_trace(self, tmp_path):
        default_path = tmp_path / "default.bin"
        small_path = tmp_path / "small.bin"
        for path, batch_size in ((default_path, None), (small_path, 512)):
            plan = Plan(
                tiny_config(seed=3, keep_store=False, batch_size=batch_size)
            )
            plan.generate(PROFILES).simulate().write_trace(path).run()
        assert default_path.read_bytes() == small_path.read_bytes()

    @settings(max_examples=5, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2),
        sim_workers=st.integers(min_value=1, max_value=3),
        sim_queue_depth=st.sampled_from([64, 512, 8192]),
        keep_store=st.booleans(),
    )
    def test_report_matches_manual_study_across_grid(
        self, seed, sim_workers, sim_queue_depth, keep_store
    ):
        config = tiny_config(
            seed=seed,
            keep_store=keep_store,
            sim_workers=sim_workers,
            sim_queue_depth=sim_queue_depth,
            run_clustering=False,
        )
        result = Plan(config).generate(PROFILES).simulate().ingest().analyze().run()
        assert result.report is not None
        expected = _manual_reports.setdefault(seed, legacy_report(seed))
        assert result.report.to_summary_dict() == expected.to_summary_dict()

    def test_read_trace_plan_matches_direct_ingest(self, tmp_path):
        path = tmp_path / "trace.bin"
        _, batches = legacy_batches(seed=5)
        write_trace_batches(batches, path)
        result = Plan(tiny_config()).read_trace(path).ingest().run()
        expected = TraceDataset.from_batches(batches)
        assert result.dataset is not None
        assert len(result.dataset) == len(expected)
        assert result.dataset.sites == expected.sites
        assert result.trace_path == path

    def test_source_batches_plan_matches_from_batches(self):
        _, batches = legacy_batches(seed=5)
        result = Plan(tiny_config()).source_batches(batches).ingest().run()
        expected = TraceDataset.from_batches(batches)
        assert result.dataset is not None
        assert len(result.dataset) == len(expected)
        assert result.dataset.sites == expected.sites
        assert result.dataset.site_extents() == expected.site_extents()


#: Manual (pre-dataflow) reports memoised per seed so the hypothesis grid
#: recomputes only the plan side per example.
_manual_reports: dict[int, object] = {}


class TestTelemetry:
    @pytest.fixture(scope="class")
    def run_result(self):
        config = tiny_config(seed=7, run_clustering=False)
        return Plan(config).generate(PROFILES).simulate().ingest().analyze().run()

    def test_one_stats_entry_per_stage_in_plan_order(self, run_result):
        assert [s.name for s in run_result.stage_stats] == [
            "generate",
            "simulate",
            "ingest",
            "analyze",
        ]

    def test_streaming_stages_counted(self, run_result):
        for stats in run_result.stage_stats[:3]:
            assert stats.rows > 0
            assert stats.batches >= 1
            assert stats.wall_seconds >= 0.0
            assert stats.peak_resident_rows > 0

    def test_rows_conserved_between_simulate_and_ingest(self, run_result):
        by_name = {s.name: s for s in run_result.stage_stats}
        assert by_name["simulate"].rows == by_name["ingest"].rows
        assert by_name["ingest"].rows == len(run_result.dataset)
        assert run_result.total_rows == max(s.rows for s in run_result.stage_stats)

    def test_render_stats_table(self, run_result):
        text = run_result.render_stats()
        lines = text.splitlines()
        assert lines[0] == "dataflow plan:"
        assert len(lines) == 1 + len(run_result.stage_stats)
        for stage in ("generate", "simulate", "ingest", "analyze"):
            assert f"  stage {stage}" in text
        assert "rows/s" in text and "peak resident" in text

    def test_rows_per_sec_handles_zero_wall(self):
        assert StageStats(name="x").rows_per_sec == 0.0
        assert StageStats(name="x", rows=100, wall_seconds=2.0).rows_per_sec == 50.0

    def test_long_stage_names_stay_aligned(self):
        stats = [
            StageStats(name="x", rows=1, batches=1, wall_seconds=1.0),
            StageStats(
                name="a_stage_name_far_beyond_twelve_chars",
                rows=1_000_000,
                batches=9,
                wall_seconds=2.0,
            ),
        ]
        lines = render_stage_stats(stats).splitlines()
        assert lines[0] == "dataflow plan:"
        offsets = {line.index(" rows ") for line in lines[1:]}
        assert len(offsets) == 1  # the row-count column starts at one offset
        batch_offsets = {line.index(" batches ") for line in lines[1:]}
        assert len(batch_offsets) == 1

    def test_short_names_keep_the_legacy_width(self):
        # A table of short names must render exactly as before the fix
        # (12-char name column), so existing telemetry greps keep working.
        line = StageStats(name="simulate", rows=5, batches=1, wall_seconds=1.0).render()
        assert line.startswith("stage simulate     ")

    def test_storeless_peak_resident_stays_bounded(self):
        config = tiny_config(seed=7, keep_store=False, batch_size=512)
        result = Plan(config).generate(PROFILES).simulate().ingest().run()
        by_name = {s.name: s for s in result.stage_stats}
        total = by_name["ingest"].rows
        assert total > 2048  # enough rows that boundedness is meaningful
        assert by_name["ingest"].peak_resident_rows <= 512
        assert by_name["ingest"].batches >= total // 512
