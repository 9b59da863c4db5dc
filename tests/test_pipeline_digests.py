"""Whole-pipeline oracle: committed digests of the emitted trace and report.

Every other bit-identity suite compares two code paths of the same
revision (sequential vs sharded, spilled vs unspilled), so a change that
moved the trace itself would pass them all.  This test re-runs the whole
plan — generate → simulate → write_trace → ingest → analyze — at
``tiny`` scale and compares what it produced against
``tests/fixtures/pipeline_digests.json``: per seed, the sha256 of the
trace file, the sha256 of the canonical ``to_summary_dict()`` JSON, and
the integer :class:`~repro.cdn.metrics.SimulationMetrics` totals.

Two corners run per seed, and between them every execution axis runs
both ways: corner ``A`` is one worker, ``keep_store`` on, no memory
budget; corner ``B`` is two shard workers, ``keep_store`` off and a
1-byte budget (everything spillable spills).  Both must equal the seed's
one committed entry.

The read path is pinned too: seed 2016's trace, read back as written and
gzipped, then ingested and analysed, must give the summary digest of
perfbench's ``reanalyze`` workload.

To refresh the fixture after an *intended* output change::

    REPRO_REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest tests/test_pipeline_digests.py

(the tests then rewrite the file from corner ``A``, still compare both
corners against it, and fail once, reminding you to review and commit
the diff).  Seed 2016's entry must also equal ``perfbench/reference.json``.
"""

from __future__ import annotations

import gzip
import hashlib
import json
from pathlib import Path

import pytest

from repro.dataflow import Plan, RunConfig
from tests.core.test_golden_report import _REGEN, _delta

ROOT = Path(__file__).resolve().parent.parent
DIGESTS_PATH = ROOT / "tests" / "fixtures" / "pipeline_digests.json"
PERFBENCH_REFERENCE = ROOT / "perfbench" / "reference.json"

SCALE = "tiny"
SEEDS = (2016, 7)
CORNERS = {
    "A": {"sim_workers": 1, "keep_store": True, "memory_budget": None},
    "B": {"sim_workers": 2, "keep_store": False, "memory_budget": 1},
}
#: Re-analysis configs of the read-path pin.
READ_CONFIGS = {
    "store": {"keep_store": True},
    "storeless": {"keep_store": False, "memory_budget": 1},
}


def _sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _metric_totals(metrics) -> dict:
    """The integer SimulationMetrics counters, JSON-shaped."""
    return {
        "sites": {
            site: {
                "requests": site_metrics.requests,
                "hits": site_metrics.hits,
                "bytes_served": site_metrics.bytes_served,
                "bytes_from_origin": site_metrics.bytes_from_origin,
            }
            for site, site_metrics in sorted(metrics.sites.items())
        },
        "status_codes": {
            str(code): count for code, count in sorted(metrics.status_code_totals().items())
        },
        "evicted_browsers": metrics.evicted_browsers,
    }


def _summary_digest(report) -> str:
    summary = json.dumps(report.to_summary_dict(), sort_keys=True)
    return hashlib.sha256(summary.encode("utf-8")).hexdigest()


def _pipeline_digests(seed: int, corner: dict, workdir: Path) -> dict:
    config = RunConfig.resolve(env={}, seed=seed, scale=SCALE, **corner)
    trace_path = workdir / "trace.bin"
    result = Plan(config).generate().simulate().write_trace(trace_path).ingest().analyze().run()
    return {
        "trace": _sha256_file(trace_path),
        "summary": _summary_digest(result.report),
        "metrics": _metric_totals(result.simulator.metrics),
    }


@pytest.fixture(scope="module")
def committed(tmp_path_factory) -> dict:
    if _REGEN:
        entries = {
            str(seed): _pipeline_digests(seed, CORNERS["A"], tmp_path_factory.mktemp(f"regen{seed}"))
            for seed in SEEDS
        }
        DIGESTS_PATH.write_text(json.dumps(entries, indent=2, sort_keys=True) + "\n")
    assert DIGESTS_PATH.exists(), (
        "pipeline digest fixture missing; run with REPRO_REGEN_GOLDEN=1 to create it"
    )
    return json.loads(DIGESTS_PATH.read_text())


@pytest.mark.parametrize("corner", sorted(CORNERS))
@pytest.mark.parametrize("seed", SEEDS)
def test_pipeline_matches_committed_digests(committed, seed, corner, tmp_path):
    fresh = _pipeline_digests(seed, CORNERS[corner], tmp_path)
    golden = committed[str(seed)]
    if fresh != golden:
        delta = "\n".join(_delta(golden, fresh))
        pytest.fail(f"seed {seed} corner {corner} drifted from the committed digests:\n{delta}")
    if _REGEN:
        pytest.fail(
            "regenerated pipeline digests — review the diff, commit, and rerun "
            "without REPRO_REGEN_GOLDEN"
        )


def test_seed_2016_agrees_with_perfbench_reference(committed):
    # The benchmark pins the same run's digests; the two committed oracles
    # must not drift apart.  A null reference digest marks a deliberate
    # output change awaiting a new reference, so it is skipped.
    reference = json.loads(PERFBENCH_REFERENCE.read_text())
    assert (reference["seed"], reference["scale"]) == (2016, SCALE)
    entry = committed["2016"]
    for ours, theirs in (("trace", "trace"), ("summary", "study")):
        if reference[theirs] is not None:
            assert entry[ours] == reference[theirs], f"{ours} digest differs from perfbench's {theirs!r}"


@pytest.fixture(scope="module")
def seed_2016_trace(tmp_path_factory) -> Path:
    """Seed 2016's corner-A ``trace.bin``, with a gzipped copy beside it."""
    path = tmp_path_factory.mktemp("reread") / "trace.bin"
    config = RunConfig.resolve(env={}, seed=2016, scale=SCALE, **CORNERS["A"])
    Plan(config).generate().simulate().write_trace(path).run()
    path.with_suffix(".bin.gz").write_bytes(gzip.compress(path.read_bytes()))
    return path


@pytest.mark.parametrize("config_name", sorted(READ_CONFIGS))
@pytest.mark.parametrize("suffix", [".bin", ".bin.gz"])
def test_read_trace_matches_perfbench_reanalyze(committed, seed_2016_trace, suffix, config_name):
    assert _sha256_file(seed_2016_trace) == committed["2016"]["trace"]
    reference = json.loads(PERFBENCH_REFERENCE.read_text())
    if reference["reanalyze"] is None:
        pytest.skip("perfbench's reanalyze digest awaits a new reference")
    config = RunConfig.resolve(env={}, seed=2016, scale=SCALE, **READ_CONFIGS[config_name])
    result = Plan(config).read_trace(seed_2016_trace.with_suffix(suffix)).ingest().analyze().run()
    assert _summary_digest(result.report) == reference["reanalyze"]
