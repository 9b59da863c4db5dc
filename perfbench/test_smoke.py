"""Smoke test of the benchmark at ``tiny`` scale.

    PYTHONPATH=src python -m pytest perfbench -q

Each workload runs once with ``--trace 0`` and once with ``--trace 1``;
every metric named in ``BENCHMARK.json`` must appear with its unit, and a
wrong reference digest must turn every repetition into a failed operation.
"""

from __future__ import annotations

import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
REFERENCE = json.loads((HERE / "reference.json").read_text())

_spec = importlib.util.spec_from_file_location("perfbench_run", HERE / "run.py")
run = sys.modules[_spec.name] = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(run)


def bench(*args: str, cwd: Path = ROOT) -> tuple[int, list[str]]:
    completed = subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=600,
    )
    return completed.returncode, completed.stdout.splitlines()


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_reported_with_its_unit(workload):
    # One second of measuring gives the fewest repetitions: MIN_REPS
    # untraced ones, or one untraced and the traced one.
    for trace, kind, attempted in ((0, "end_to_end", run.MIN_REPS), (1, "per_layer", 2)):
        code, lines = bench(
            "--workload", workload, "--seed", str(REFERENCE["seed"]), "--seconds", "1",
            "--trace", str(trace),
        )
        assert code == 0, lines
        outcome = json.loads(lines[-1])
        assert set(outcome) == {"correct", "attempted", "failed", "metrics"}
        assert outcome["correct"] is True
        assert outcome["failed"] == 0
        assert outcome["attempted"] == attempted
        assert outcome["metrics"] == {
            metric["name"]: {"value": outcome["metrics"][metric["name"]]["value"], "unit": metric["unit"]}
            for metric in SPEC[kind]
        }
        if kind == "end_to_end":
            assert all(entry["value"] > 0 for entry in outcome["metrics"].values())
        elif workload == "tracegen-sharded":
            assert outcome["metrics"]["spill.bytes"]["value"] > 0


def timed_reps(**outcome: str) -> list:
    return [run.Rep("timed", REFERENCE["seed"], outcome=dict(outcome)) for _ in range(3)]


@pytest.mark.parametrize(
    "workload, outcome, wrong",
    [
        ("study", {"digest": REFERENCE["study"]}, "study"),
        ("reanalyze", {"digest": REFERENCE["reanalyze"], "input_digest": REFERENCE["trace"]}, "reanalyze"),
        ("reanalyze", {"digest": REFERENCE["reanalyze"], "input_digest": REFERENCE["trace"]}, "trace"),
        ("tracegen-sharded", {"digest": REFERENCE["trace"]}, "trace"),
    ],
)
def test_wrong_reference_digest_fails_every_repetition(workload, outcome, wrong):
    reps = timed_reps(**outcome)
    run.check_outputs(workload, reps, REFERENCE, {})
    assert not any(rep.problems for rep in reps)
    run.check_outputs(workload, reps, dict(REFERENCE, **{wrong: "0" * 64}), {})
    assert all(rep.problems for rep in reps)


def test_repetitions_of_one_seed_must_agree():
    reps = [run.Rep("timed", 5, outcome={"digest": digest}) for digest in ("a", "a", "b")]
    reps.append(run.Rep("timed", 6, outcome={"digest": "c"}))
    run.check_outputs("study", reps, REFERENCE, {})
    assert [bool(rep.problems) for rep in reps] == [False, False, True, False]


def test_sharded_trace_must_equal_the_sequential_trace():
    reps = timed_reps(digest=REFERENCE["trace"])
    run.check_outputs("tracegen-sharded", reps, REFERENCE, {REFERENCE["seed"]: "0" * 64})
    assert all(rep.problems for rep in reps)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    code, lines = bench("--workload", "study", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert code != 0
    assert not any(line.startswith("{") for line in lines)
