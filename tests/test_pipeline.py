"""End-to-end plans: generate → simulate → [write trace] → ingest → analyze."""

from __future__ import annotations

import pytest

from repro.cdn.simulator import SimulationConfig
from repro.core.report import Study
from repro.dataflow import Plan, RunConfig
from repro.errors import StorelessDatasetError
from repro.trace.reader import TraceReader
from repro.workload.profiles import profile_v1


def _v1_plan(seed: int = 1, **knobs) -> Plan:
    """A tiny single-site plan with its generate stage added."""
    config = RunConfig.resolve(seed=seed, scale="tiny", **knobs)
    return Plan(config).generate((profile_v1(),))


class TestRunPipeline:
    def test_produces_all_components(self, pipeline_result):
        records = pipeline_result.dataset.records
        assert len(records) > 1000
        assert set(pipeline_result.workloads) == {"V-1", "V-2", "P-1", "P-2", "S-1"}
        assert len(pipeline_result.dataset) == len(records)
        assert set(pipeline_result.catalogs) == set(pipeline_result.workloads)

    def test_capacity_derived_from_catalogs(self, pipeline_result):
        catalog_bytes = sum(c.total_bytes() for c in pipeline_result.catalogs.values())
        edge = next(iter(pipeline_result.simulator.edges.values()))
        total_capacity = sum(c.capacity_bytes for c in edge.caches())
        assert 0.1 * catalog_bytes < total_capacity < catalog_bytes

    def test_single_site_pipeline(self):
        result = _v1_plan().simulate().ingest().run()
        assert set(result.workloads) == {"V-1"}
        assert result.dataset.sites == ["V-1"]

    def test_deterministic(self):
        a = _v1_plan(seed=3).simulate().ingest().run()
        b = _v1_plan(seed=3).simulate().ingest().run()
        assert a.dataset.records == b.dataset.records

    def test_explicit_sim_config_respected(self):
        config = SimulationConfig(seed=9, cache_policy="fifo", cache_capacity_bytes=10**9, warm_caches=False)
        result = _v1_plan().simulate(config).ingest().run()
        edge = next(iter(result.simulator.edges.values()))
        assert edge.large_cache.policy.name == "fifo"


class TestRunStudy:
    def test_returns_report(self):
        result = _v1_plan().simulate().ingest().analyze(Study(run_clustering=False)).run()
        text = result.report.render_text()
        assert "V-1" in text


class TestGenerateTraceFile:
    def test_writes_readable_trace(self, tmp_path):
        path = tmp_path / "trace.csv"
        written = _v1_plan().simulate().write_trace(path).run().rows_written
        assert written > 0
        count = sum(len(batch) for batch in TraceReader(path).iter_batches())
        assert count == written


class TestStorelessPipeline:
    def test_storeless_study_matches_eager_report(self):
        study = Study(run_clustering=False)
        eager = _v1_plan().simulate().ingest().analyze(study).run()
        storeless_plan = _v1_plan(keep_store=False, sim_workers=2).simulate()
        storeless = storeless_plan.ingest().analyze(study).run()
        assert storeless.report.to_summary_dict() == eager.report.to_summary_dict()
        assert not storeless.dataset.has_store

    def test_row_level_access_raises_storeless_error(self):
        result = _v1_plan(keep_store=False).simulate().ingest().run()
        assert result.batches is None
        with pytest.raises(StorelessDatasetError):
            result.dataset.records

    def test_row_level_access_works_when_store_kept(self, pipeline_result):
        assert pipeline_result.batches
        assert len(pipeline_result.dataset.records) == len(pipeline_result.dataset)

    def test_sim_worker_knobs_threaded_through(self):
        result = _v1_plan(sim_workers=2, sim_queue_depth=256).simulate().ingest().run()
        stats = result.simulator.sim_stats
        assert stats is not None and stats.workers == 2

    def test_result_carries_stage_telemetry(self, pipeline_result):
        names = [s.name for s in pipeline_result.stage_stats]
        assert names == ["generate", "simulate", "ingest"]
        assert pipeline_result.render_stats().startswith("dataflow plan:")

    def test_env_knobs_apply_when_kwargs_omitted(self, monkeypatch):
        explicit = _v1_plan(seed=4).simulate().ingest().run()
        monkeypatch.setenv("REPRO_SEED", "4")
        monkeypatch.setenv("REPRO_SCALE", "tiny")
        # Plan() resolves its config from the environment alone.
        env_only = Plan().generate((profile_v1(),)).simulate().ingest().run()
        assert env_only.dataset.records == explicit.dataset.records


class TestGenerateTracePlan:
    def test_streams_to_disk_with_bounded_resident_rows(self, tmp_path):
        path = tmp_path / "trace.bin"
        config = RunConfig.resolve(seed=1, scale="tiny", batch_size=512)
        result = Plan(config).generate().simulate().write_trace(path).run()
        assert result.rows_written == sum(len(batch) for batch in TraceReader(path).iter_batches())
        assert result.rows_written > 2048
        by_name = {s.name: s for s in result.stage_stats}
        # The tee holds at most one batch resident: the trace never
        # materialises as a list on the way to disk.
        assert by_name["write_trace"].peak_resident_rows <= 512
        assert by_name["write_trace"].batches >= result.rows_written // 512
