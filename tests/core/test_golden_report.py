"""Golden-report regression: the full figure battery, frozen to disk.

A small fixed-seed trace lives in ``tests/fixtures/golden_trace.csv``;
the fig. 1–16 analysis summary it produces
(:meth:`~repro.core.report.StudyReport.to_summary_dict`) is frozen in
``tests/fixtures/golden_report.json``.  The test regenerates the report
from the trace and diffs it against the golden copy *field by field*,
so an unintended analysis change fails with a readable delta (the exact
paths that moved, golden vs regenerated values) instead of a wall of
JSON.

The trace is a frozen analysis input: it was simulated once (seed
1609, ``tiny``) and is never rebuilt, because today's simulator no
longer reproduces it.  What
the simulator emits is pinned by ``tests/test_pipeline_digests.py``
instead.

To refresh the report after an *intended* analysis change::

    REPRO_REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest tests/core/test_golden_report.py

(the test then rewrites ``golden_report.json`` from the committed trace
and fails once, reminding you to review and commit the diff).
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from repro.core.dataset import TraceDataset
from repro.core.report import Study

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
TRACE_PATH = FIXTURES / "golden_trace.csv"
REPORT_PATH = FIXTURES / "golden_report.json"

GOLDEN_RECORDS = 1500

_REGEN = os.environ.get("REPRO_REGEN_GOLDEN") == "1"


def _build_summary() -> dict:
    """The frozen quantity: the summary of a streaming-ingested study."""
    dataset = TraceDataset.from_file(TRACE_PATH, batch_size=256, keep_store=False)
    report = Study(run_clustering=False).run(dataset)
    return report.to_summary_dict()


def _flatten(value, path: str = ""):
    """Depth-first (path, leaf) pairs of a nested dict/list structure."""
    if isinstance(value, dict):
        for key, child in value.items():
            yield from _flatten(child, f"{path}.{key}" if path else str(key))
    elif isinstance(value, list):
        for index, child in enumerate(value):
            yield from _flatten(child, f"{path}[{index}]")
    else:
        yield path, value


def _delta(golden: dict, regenerated: dict, limit: int = 25) -> list[str]:
    """Readable field-by-field differences between two summaries."""
    golden_flat = dict(_flatten(golden))
    fresh_flat = dict(_flatten(regenerated))
    lines = []
    for path in golden_flat.keys() - fresh_flat.keys():
        lines.append(f"missing from regenerated: {path} (golden={golden_flat[path]!r})")
    for path in fresh_flat.keys() - golden_flat.keys():
        lines.append(f"new in regenerated: {path} (value={fresh_flat[path]!r})")
    for path in sorted(golden_flat.keys() & fresh_flat.keys()):
        if golden_flat[path] != fresh_flat[path]:
            lines.append(
                f"changed: {path}: golden={golden_flat[path]!r} "
                f"regenerated={fresh_flat[path]!r}"
            )
    if len(lines) > limit:
        lines = lines[:limit] + [f"... and {len(lines) - limit} more differences"]
    return lines


def _regenerate_report() -> None:
    """Rewrite the golden report from the committed trace (never the trace)."""
    REPORT_PATH.write_text(json.dumps(_build_summary(), indent=2, sort_keys=True) + "\n")


class TestGoldenReport:
    def test_report_matches_golden(self):
        if _REGEN:
            _regenerate_report()
            pytest.fail(
                "regenerated the golden report — review the diff, commit, and rerun "
                "without REPRO_REGEN_GOLDEN"
            )
        assert TRACE_PATH.exists() and REPORT_PATH.exists(), (
            "golden fixtures missing; run with REPRO_REGEN_GOLDEN=1 to create them"
        )
        golden = json.loads(REPORT_PATH.read_text())
        regenerated = json.loads(json.dumps(_build_summary()))  # same JSON round-trip
        if regenerated != golden:
            delta = "\n".join(_delta(golden, regenerated))
            pytest.fail(f"analysis summary drifted from the golden report:\n{delta}")

    def test_golden_trace_unchanged(self):
        # The trace fixture itself is part of the contract: a silent edit
        # would let the report "pass" against moved goalposts.
        if not TRACE_PATH.exists():
            pytest.skip("fixtures not generated yet")
        lines = TRACE_PATH.read_text().splitlines()
        assert len(lines) == GOLDEN_RECORDS + 1  # header + rows
