"""Tests for the command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_generate_args(self):
        args = build_parser().parse_args(["generate", "--out", "x.csv", "--seed", "3", "--scale", "tiny"])
        assert args.command == "generate"
        assert args.seed == 3
        assert args.scale == "tiny"

    def test_unknown_scale_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["generate", "--out", "x.csv", "--scale", "huge"])

    def test_unknown_policy_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["simulate", "--policy", "belady"])


class TestCommands:
    def test_generate_then_analyze(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "tiny")
        trace = tmp_path / "trace.csv"
        assert main(["generate", "--out", str(trace), "--seed", "1", "--scale", "tiny"]) == 0
        out = capsys.readouterr().out
        assert "wrote" in out
        assert trace.exists()

        assert main(["analyze", "--trace", str(trace), "--no-clustering"]) == 0
        out = capsys.readouterr().out
        assert "Fig 1" in out
        assert "Fig 16" in out

    def test_simulate_prints_hit_ratios(self, capsys):
        assert main(["simulate", "--seed", "1", "--scale", "tiny", "--policy", "lru"]) == 0
        out = capsys.readouterr().out
        assert "hit_ratio" in out
        assert "overall hit ratio" in out

    def test_reproduce_prints_full_report(self, capsys):
        assert main(["reproduce", "--seed", "1", "--scale", "tiny", "--no-clustering"]) == 0
        out = capsys.readouterr().out
        for figure in ("Fig 1", "Fig 7", "Fig 15", "Fig 16"):
            assert figure in out

    def test_compare_prints_baseline_table(self, capsys):
        assert main(["compare", "--seed", "1", "--scale", "tiny"]) == 0
        out = capsys.readouterr().out
        assert "N-1" in out
        assert "V-1" in out

    def test_compare_honours_memory_flags(self, tmp_path, monkeypatch, capsys):
        from repro.dataflow import Plan

        configs = []
        run = Plan.run

        def recording_run(plan):
            configs.append(plan.config)
            return run(plan)

        monkeypatch.setattr(Plan, "run", recording_run)
        spill_dir = str(tmp_path / "spill")
        assert main([
            "compare", "--seed", "1", "--scale", "tiny",
            "--memory-budget", "4096", "--spill-dir", spill_dir,
        ]) == 0
        assert "N-1" in capsys.readouterr().out
        # The adult plan, then the control one seed later; both budgeted.
        assert [config.seed for config in configs] == [1, 2]
        assert [(c.memory_budget, c.spill_dir) for c in configs] == [(4096, spill_dir)] * 2

    def test_trace_tooling_commands(self, tmp_path, capsys):
        trace = tmp_path / "trace.csv"
        assert main(["generate", "--out", str(trace), "--seed", "1", "--scale", "tiny"]) == 0
        capsys.readouterr()

        assert main(["summarize", "--trace", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "records:" in out
        assert "per-site records:" in out

        out_dir = tmp_path / "shards"
        assert main(["split", "--trace", str(trace), "--out-dir", str(out_dir), "--by", "site"]) == 0
        capsys.readouterr()
        shards = sorted(out_dir.glob("*.csv"))
        assert shards

        merged = tmp_path / "merged.csv"
        assert main(["merge", "--out", str(merged)] + [str(s) for s in shards]) == 0
        out = capsys.readouterr().out
        assert "merged" in out
        assert merged.exists()

    def test_export_dir_option(self, tmp_path, capsys):
        target = tmp_path / "figures"
        assert main([
            "reproduce", "--seed", "1", "--scale", "tiny", "--no-clustering",
            "--export-dir", str(target),
        ]) == 0
        out = capsys.readouterr().out
        assert "figure CSVs" in out
        assert any(target.glob("fig*.csv"))


class TestDataflowCli:
    def test_analyze_in_process_streaming_with_telemetry(self, capsys):
        assert main([
            "analyze", "--seed", "1", "--scale", "tiny", "--no-clustering",
            "--no-keep-store", "--sim-workers", "2",
        ]) == 0
        out = capsys.readouterr().out
        assert "Fig 1" in out
        assert "dataflow plan:" in out
        for stage in ("generate", "simulate", "ingest", "analyze"):
            assert f"stage {stage}" in out

    def test_analyze_trace_prints_telemetry(self, tmp_path, capsys):
        trace = tmp_path / "trace.csv"
        assert main(["generate", "--out", str(trace), "--seed", "1", "--scale", "tiny"]) == 0
        out = capsys.readouterr().out
        assert "dataflow plan:" in out  # generate streams through the plan too
        assert "stage write_trace" in out

        assert main(["analyze", "--trace", str(trace), "--no-clustering"]) == 0
        out = capsys.readouterr().out
        assert "stage read_trace" in out
        assert "stage ingest" in out

    def test_scale_flag_beats_environment(self, monkeypatch, capsys):
        # REPRO_SCALE would pick small; the explicit flag must win.
        monkeypatch.setenv("REPRO_SCALE", "small")
        assert main(["simulate", "--seed", "1", "--scale", "tiny"]) == 0
        out = capsys.readouterr().out
        assert "overall hit ratio" in out


class TestSpillCli:
    def test_memory_budget_and_spill_dir_parsed(self):
        args = build_parser().parse_args(
            ["analyze", "--memory-budget", "1048576", "--spill-dir", "/tmp/Spill-X"]
        )
        assert args.memory_budget == 1048576
        assert args.spill_dir == "/tmp/Spill-X"

    def test_flags_default_to_unset(self):
        args = build_parser().parse_args(["analyze"])
        assert args.memory_budget is None
        assert args.spill_dir is None

    def test_analyze_with_budget_prints_spill_telemetry(self, tmp_path, capsys):
        spill_dir = tmp_path / "segments"
        assert main([
            "analyze", "--seed", "1", "--scale", "tiny", "--no-clustering",
            "--no-keep-store", "--sim-workers", "2",
            "--memory-budget", "1", "--spill-dir", str(spill_dir),
        ]) == 0
        out = capsys.readouterr().out
        assert "Fig 1" in out
        assert "bytes_spilled" in out
        assert "spill_files" in out
        # Every segment was consumed or removed when the plan closed its pool.
        assert not spill_dir.exists() or list(spill_dir.iterdir()) == []

    def test_budgeted_report_matches_unbudgeted(self, capsys):
        base_args = [
            "analyze", "--seed", "1", "--scale", "tiny", "--no-clustering",
            "--no-keep-store",
        ]
        assert main(base_args) == 0
        base = capsys.readouterr().out
        assert main(base_args + ["--memory-budget", "1"]) == 0
        budgeted = capsys.readouterr().out
        # The figure battery (everything before the telemetry table) is
        # bit-identical; only the telemetry lines may differ.
        assert base.split("dataflow plan:")[0] == budgeted.split("dataflow plan:")[0]

    def test_memory_budget_env_fallback(self, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_MEMORY_BUDGET", "1")
        assert main([
            "analyze", "--seed", "1", "--scale", "tiny", "--no-clustering",
            "--no-keep-store",
        ]) == 0
        assert "bytes_spilled" in capsys.readouterr().out
