"""Command-line interface.

The subcommands mirror the library's dataflow plan::

    repro generate  --out trace.csv --seed 0 --scale small
    repro simulate  --policy lru --capacity-gb 40 --seed 0 --scale small
    repro analyze   --trace trace.csv            # or in-process: no --trace
    repro reproduce --seed 0 --scale small       # end to end, full report

Every knob flag layers over its ``REPRO_*`` environment variable with the
:class:`~repro.dataflow.config.RunConfig` precedence (default < env <
flag); flags therefore default to "unset" and the resolved value is what
runs.  Plan-driven commands print the per-stage telemetry table
(rows, batches, wall seconds, rows/s, peak resident rows) after their
output.
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Sequence

from repro.cdn.simulator import SimulationConfig
from repro.cdn.policies import policy_names
from repro.dataflow import Plan, RunConfig
from repro.workload.scale import SCALE_NAMES


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--seed", type=int, default=None, help="master seed (default: REPRO_SEED, else 0)"
    )
    parser.add_argument(
        "--scale",
        choices=SCALE_NAMES,
        default=None,
        help=(
            "workload scale relative to the paper's 323 TB week "
            "(default: REPRO_SCALE, else small)"
        ),
    )
    parser.add_argument(
        "--memory-budget",
        type=int,
        default=None,
        help=(
            "global resident-byte budget; past it spillable stage state is "
            "evicted to disk segments and streamed back, output bit-identical "
            "(default: REPRO_MEMORY_BUDGET, else unlimited)"
        ),
    )
    parser.add_argument(
        "--spill-dir",
        default=None,
        help=(
            "directory for spill segments (default: REPRO_SPILL_DIR, else a "
            "per-run tempdir removed at plan close)"
        ),
    )


def _add_sim_workers(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--sim-workers",
        type=int,
        default=None,
        help=(
            "simulation shard worker processes (default: REPRO_SIM_WORKERS, "
            "else 1); output is bit-identical for any value"
        ),
    )
    parser.add_argument(
        "--sim-queue-depth",
        type=int,
        default=None,
        help=(
            "max in-flight requests per simulation shard before the "
            "producer blocks (default: REPRO_SIM_QUEUE_DEPTH, else 8192); "
            "bounds peak resident requests, output is bit-identical for "
            "any value"
        ),
    )


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    """The run's :class:`RunConfig`: env < CLI flags the command defines."""
    no_clustering = getattr(args, "no_clustering", False)
    cli = {
        "seed": getattr(args, "seed", None),
        "scale": getattr(args, "scale", None),
        "batch_size": getattr(args, "batch_size", None),
        "keep_store": getattr(args, "keep_store", None),
        "sim_workers": getattr(args, "sim_workers", None),
        "sim_queue_depth": getattr(args, "sim_queue_depth", None),
        "run_clustering": False if no_clustering else None,
        "memory_budget": getattr(args, "memory_budget", None),
        "spill_dir": getattr(args, "spill_dir", None),
    }
    return RunConfig.resolve(cli=cli)


def _print_sim_stats(simulator) -> None:
    stats = simulator.sim_stats
    if stats is None:
        return
    print(
        f"simulate: {stats.records} records in {stats.wall_seconds:.2f}s "
        f"({stats.records_per_sec:,.0f} records/s, workers={stats.workers}, "
        f"ideal speedup {stats.ideal_speedup:.2f}x)"
    )
    if stats.workers > 1:
        print(
            f"  overlap: generation {stats.generate_seconds:.2f}s, "
            f"{stats.overlap_fraction:.0%} overlapped with simulation, "
            f"peak resident {stats.peak_resident_requests} requests"
        )
    for shard in stats.shards:
        if shard.queue_depth == 0:
            continue
        line = (
            f"  shard {shard.shard_id}: {shard.queue_depth} queued, "
            f"{shard.records} records, {shard.wall_seconds:.2f}s busy"
        )
        if shard.queue_peak:
            line += f", queue peak {shard.queue_peak}"
        print(line)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'The Internet is for Porn: Measurement and Analysis "
            "of Online Adult Traffic' (ICDCS 2016)."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="generate a synthetic CDN trace file")
    _add_common(gen)
    _add_sim_workers(gen)
    gen.add_argument("--out", required=True, help="output path (.csv / .jsonl / .bin)")

    sim = sub.add_parser("simulate", help="run the CDN simulator and print cache metrics")
    _add_common(sim)
    _add_sim_workers(sim)
    sim.add_argument("--policy", choices=policy_names(), default="lru", help="edge cache policy")
    sim.add_argument("--capacity-gb", type=float, default=40.0, help="edge cache capacity per DC")
    sim.add_argument("--no-ttl", action="store_true", help="disable trend-aware TTL revalidation")

    ana = sub.add_parser(
        "analyze",
        help=(
            "run the full analysis: over an existing trace file (--trace) or, "
            "without one, over an in-process generate→simulate→ingest streaming plan"
        ),
    )
    _add_common(ana)
    _add_sim_workers(ana)
    ana.add_argument(
        "--trace",
        help=(
            "trace file written by `repro generate`; omit to generate and "
            "simulate in-process as one streaming plan"
        ),
    )
    ana.add_argument("--no-clustering", action="store_true", help="skip the O(n^2) DTW clustering")
    ana.add_argument("--export-dir", help="also write one CSV per figure into this directory")
    ana.add_argument(
        "--batch-size",
        type=int,
        default=None,
        help="rows per columnar batch (default: REPRO_BATCH_SIZE, else 65536)",
    )
    ana.add_argument(
        "--keep-store",
        action=argparse.BooleanOptionalAction,
        default=None,
        help=(
            "retain the columnar row store after ingest (default); "
            "--no-keep-store streams batches through the accumulators and "
            "keeps only aggregates, bounding memory by one dispatch window"
        ),
    )

    rep = sub.add_parser("reproduce", help="end-to-end: generate, simulate, analyze, report")
    _add_common(rep)
    rep.add_argument("--no-clustering", action="store_true", help="skip the O(n^2) DTW clustering")
    rep.add_argument("--export-dir", help="also write one CSV per figure into this directory")

    cmp_parser = sub.add_parser(
        "compare", help="contrast the adult sites with a non-adult control site"
    )
    _add_common(cmp_parser)

    summarize = sub.add_parser("summarize", help="print headline statistics of a trace file")
    summarize.add_argument("--trace", required=True)

    merge = sub.add_parser("merge", help="merge time-ordered trace shards into one file")
    merge.add_argument("--out", required=True)
    merge.add_argument("inputs", nargs="+", help="trace files to merge")

    split = sub.add_parser("split", help="split a trace into per-site or per-day shards")
    split.add_argument("--trace", required=True)
    split.add_argument("--out-dir", required=True)
    split.add_argument("--by", choices=("site", "day"), default="site")
    return parser


def _maybe_export(report, export_dir: str | None) -> None:
    if not export_dir:
        return
    from repro.core.export import export_report

    paths = export_report(report, export_dir)
    print(f"wrote {len(paths)} figure CSVs to {export_dir}")


def _analyze(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    plan = Plan(config)
    if args.trace:
        plan.read_trace(args.trace)
    else:
        plan.generate().simulate()
    result = plan.ingest().analyze().run()
    assert result.report is not None
    print(result.report.render_text())
    print(result.render_stats())
    _maybe_export(result.report, args.export_dir)
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)

    if args.command == "generate":
        config = _config_from_args(args)
        result = Plan(config).generate().simulate().write_trace(args.out).run()
        print(f"wrote {result.rows_written} records to {args.out}")
        print(result.render_stats())
        return 0

    if args.command == "simulate":
        config = _config_from_args(args)
        sim_config = SimulationConfig(
            cache_policy=args.policy,
            cache_capacity_bytes=int(args.capacity_gb * 1e9),
            trend_aware_ttl=not args.no_ttl,
            seed=config.seed + 1,
        )
        result = Plan(config).generate().simulate(sim_config).run()
        assert result.simulator is not None
        metrics = result.simulator.metrics
        print(f"policy={args.policy} capacity={args.capacity_gb:.0f}GB requests={metrics.total_requests}")
        for site, site_metrics in sorted(metrics.sites.items()):
            print(f"  {site}: hit_ratio={site_metrics.hit_ratio:6.1%} requests={site_metrics.requests}")
        print(f"  overall hit ratio: {metrics.overall_hit_ratio:6.1%}")
        _print_sim_stats(result.simulator)
        print(result.render_stats())
        return 0

    if args.command == "analyze":
        return _analyze(args)

    if args.command == "reproduce":
        config = _config_from_args(args)
        result = Plan(config).generate().simulate().ingest().analyze().run()
        assert result.report is not None
        print(result.report.render_text())
        print(result.render_stats())
        _maybe_export(result.report, args.export_dir)
        return 0

    if args.command == "compare":
        from repro.core.comparison import compare_to_baseline, render_comparison
        from repro.workload.profiles import profile_nonadult

        config = _config_from_args(args)
        adult = Plan(config).generate().simulate().ingest().run()
        baseline = (
            Plan(config.replacing(seed=config.seed + 1))
            .generate((profile_nonadult(),))
            .simulate()
            .ingest()
            .run()
        )
        comparison = compare_to_baseline(adult.dataset, baseline.dataset)
        print(render_comparison(comparison))
        return 0

    if args.command == "summarize":
        from repro.trace.tools import summarize_trace

        print(summarize_trace(args.trace).render())
        return 0

    if args.command == "merge":
        from repro.trace.tools import merge_traces

        written = merge_traces(args.inputs, args.out)
        print(f"merged {len(args.inputs)} files into {args.out} ({written} records)")
        return 0

    if args.command == "split":
        from repro.trace.tools import split_trace_by_day, split_trace_by_site

        if args.by == "site":
            parts = split_trace_by_site(args.trace, args.out_dir)
        else:
            parts = split_trace_by_day(args.trace, args.out_dir)
        print(f"wrote {len(parts)} shards to {args.out_dir}")
        return 0

    return 1  # pragma: no cover - argparse enforces the choices


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
