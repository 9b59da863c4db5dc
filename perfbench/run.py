"""The reproduction's benchmark: one workload, timed end to end and per layer.

    python3 perfbench/run.py --workload study --seed 5 --seconds 30 --trace 0

Run from the root of a checkout.  Each repetition runs in a fresh
interpreter (``child.py``) started with every ``REPRO_*`` variable removed
from its environment and a fixed ``PYTHONHASHSEED``; set-up (imports, the
DTW kernel, and for ``reanalyze`` writing the input trace) is timed from
process start until the child is ready, then the timed phase runs the plan.
One untimed warm-up and the repetitions (at least ``MIN_REPS``) fill
``--seconds`` seconds.  The repetitions cycle through ``SUB_SEEDS``
workload seeds derived from ``--seed`` (the first is ``--seed`` itself);
the end-to-end metrics are medians over the repetitions, with times
rescaled to the reference host speed (see ``child.reference_loop``,
``reference_start`` and ``README.md``).

With ``--trace 1`` the benchmark runs untraced repetitions, then one
repetition of ``--seed`` with the span tracer installed (``tracer.py``),
prints its per-layer table and reports the per-layer metrics named in
``BENCHMARK.json``; the spans are written to
``.bench_build/perfbench/out/``.

Every repetition is one operation.  It fails if it raises, if its output
digest differs from the stored reference (``reference.json``, at the
reference seed and scale) or from the other repetitions of its seed, or if
it leaves a spill segment or a live worker process behind.  The last line
of standard output is the JSON result the ``BENCHMARK.json`` contract
defines.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
STATE = ROOT / ".bench_build" / "perfbench"
PROTOCOL = "@@perfbench"

WORKLOADS = ("study", "tracegen-sharded", "reanalyze")
#: Workload seeds one run cycles through.  At the benchmark's scale the
#: heavy tails of object size and popularity make some seeds' simulation
#: cost far more than others' (the edge serves every request chunk by
#: chunk), so a run's medians cover several workloads rather than one.
#: The stride keeps the seeds of runs with nearby ``--seed`` apart.
SUB_SEEDS = 3
SEED_STRIDE = 1_000_003
#: Enough untraced repetitions to run every seed once and ``--seed`` twice,
#: so that its outputs are checked against each other.
MIN_REPS = SUB_SEEDS + 1
#: Every invocation ends within this many seconds: a repetition still
#: running then is killed and counted failed.
RUN_LIMIT_S = 170.0
#: Headroom for the traced repetition: tracing the serve loop slows it.
TRACED_SLOWDOWN = 1.5
#: Seconds a fresh interpreter takes to start and import numpy at the
#: reference host speed (the build host's fast state, as for
#: ``child.REFERENCE_LOOP_S``).  The shared host slows this start unlike
#: computation, so the start timed right before each repetition
#: (``reference_start``) is taken out of its set-up and counted at this
#: value; the rest of set-up is rescaled by the host factor.
REFERENCE_START_S = 0.17
#: Units of the quantities printed beside the gated metrics of BENCHMARK.json.
UNITS = {
    "setup_measured_s": "s",
    "start_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "records_per_s": "records/s",
    "host_factor": "ratio",
}


@dataclass
class Rep:
    """One child process: a warm-up, or a timed or traced repetition."""

    mode: str
    seed: int
    setup_s: float | None = None
    elapsed_s: float = 0.0
    outcome: dict | None = None
    problems: list[str] = field(default_factory=list)
    #: ``reference_start`` timed right before the repetition.
    start_s: float = 0.0

    @property
    def completed(self) -> bool:
        """The timed phase ran to the end (its output may still be wrong)."""
        return self.outcome is not None and "error" not in self.outcome


def child_env(tmpdir: Path) -> dict[str, str]:
    env = {key: value for key, value in os.environ.items() if not key.startswith("REPRO_")}
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = str(ROOT / "src")
    # The DTW kernel's build cache and any library temp files stay in the
    # checkout, shared by every repetition so the kernel is built once.
    env["TMPDIR"] = str(tmpdir)
    return env


def _group_alive(pgid: int) -> bool:
    try:
        os.killpg(pgid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    return True


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def run_child(
    workload: str, seed: int, scale: str, mode: str, env: dict[str, str], kill_at: float
) -> Rep:
    """Start ``child.py`` in its own process group and collect what it reports;
    the group is killed if the child still runs at ``kill_at``."""
    workdir = Path(tempfile.mkdtemp(prefix=f"{mode}-", dir=STATE / "runs"))
    try:
        rep = _supervise(workload, seed, scale, mode, env, kill_at, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return rep


def reference_start(env: dict[str, str]) -> float:
    """Seconds a fresh interpreter takes to start and import numpy now."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], cwd=ROOT, env=env, check=True)
    return time.perf_counter() - start


def _supervise(
    workload: str, seed: int, scale: str, mode: str, env: dict[str, str], kill_at: float, workdir: Path
) -> Rep:
    rep = Rep(mode, seed)
    if mode == "timed":
        rep.start_s = reference_start(env)
    command = [sys.executable, str(HERE / "child.py"), workload, str(seed), scale, str(workdir), mode]
    start = time.perf_counter()
    process = subprocess.Popen(
        command, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, start_new_session=True
    )
    watchdog = threading.Timer(max(0.0, kill_at - start), _kill_group, (process.pid,))
    watchdog.start()
    try:
        assert process.stdout is not None
        for line in process.stdout:
            if not line.startswith(PROTOCOL):
                sys.stderr.write(line)
                continue
            _, kind, payload = line.rstrip("\n").split(" ", 2)
            if kind == "ready":
                rep.setup_s = time.perf_counter() - start
            elif kind == "result":
                rep.outcome = json.loads(payload)
        process.wait()
    finally:
        watchdog.cancel()
        if process.poll() is None:
            _kill_group(process.pid)
            process.wait()
    rep.elapsed_s = time.perf_counter() - start

    if rep.outcome is None:
        rep.problems.append(f"exited with code {process.returncode} before reporting")
    elif "error" in rep.outcome:
        rep.problems.append(f"raised {rep.outcome['error']}")
    elif rep.outcome.get("live_children"):
        rep.problems.append(f"worker processes {rep.outcome['live_children']} alive after the plan")
    if _group_alive(process.pid):
        rep.problems.append("left live processes behind")
        _kill_group(process.pid)
    spill_dir = workdir / "spill"
    if spill_dir.is_dir():
        segments = [path for path in spill_dir.rglob("*") if path.is_file()]
        if segments:
            rep.problems.append(f"left {len(segments)} spill segment(s) behind")
    return rep


def workload_seeds(seed: int) -> list[int]:
    """The workload seeds of one run: ``seed`` and ``SUB_SEEDS - 1`` derived from it."""
    return [seed + i * SEED_STRIDE for i in range(SUB_SEEDS)]


def repetitions(
    workload: str,
    seeds: list[int],
    traced: bool,
    scale: str,
    env: dict[str, str],
    deadline: float,
    kill_at: float,
) -> list[Rep]:
    """Untraced repetitions, cycling through ``seeds``, until ``deadline``;
    then, when ``traced``, the traced one on ``seeds[0]``.  Without tracing
    at least ``MIN_REPS`` run; with it, at least one, and the last untraced
    one starts only if the traced one still fits before ``deadline``."""
    reps: list[Rep] = []
    while True:
        if reps:
            longest = max(rep.elapsed_s for rep in reps)
            needed = longest * (1 + TRACED_SLOWDOWN if traced else 1)
            left = deadline - time.perf_counter()
            if (traced or len(reps) >= MIN_REPS) and left < needed:
                break
        seed = seeds[len(reps) % len(seeds)]
        reps.append(run_child(workload, seed, scale, "timed", env, kill_at))
    if traced:
        reps.append(run_child(workload, seeds[0], scale, "traced", env, kill_at))
    return reps


def check_outputs(workload: str, reps: list[Rep], stored: dict, sequential: dict[int, str]) -> None:
    """Mark repetitions whose output digests are wrong as failed.

    Repetitions of the reference seed must reproduce the digests stored in
    ``stored`` (``reference.json``); the repetitions of any other seed must
    agree, and those differing from their seed's most common digest fail.
    Sharded traces must also equal, byte for byte, the trace written
    sequentially for their seed, where ``sequential`` holds one.
    """
    keys = {"digest": "trace" if workload == "tracegen-sharded" else workload}
    if workload == "reanalyze":
        keys["input_digest"] = "trace"
    for seed in {rep.seed for rep in reps}:
        completed = [rep for rep in reps if rep.seed == seed and rep.completed]
        for key, stored_key in keys.items():
            digest = stored.get(stored_key) if seed == stored["seed"] else None
            if digest is None and completed:
                digest = Counter(rep.outcome[key] for rep in completed).most_common(1)[0][0]
            for rep in completed:
                if rep.outcome[key] != digest:
                    rep.problems.append(f"{key} {rep.outcome[key][:16]} differs from {digest[:16]}")
        if seed in sequential:
            for rep in completed:
                if rep.outcome["digest"] != sequential[seed]:
                    rep.problems.append(
                        f"sharded trace {rep.outcome['digest'][:16]} differs from the "
                        f"sequential trace {sequential[seed][:16]}"
                    )


def git_revision() -> str | None:
    """The checkout's commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return None
    return None


def samples_of(reps: list[Rep]) -> dict[str, list[float]]:
    """Every end-to-end metric's samples, one per completed untraced repetition.

    ``setup_measured_s``, ``start_s``, ``wall_s``, ``cpu_s`` and
    ``records_per_s`` are as measured.  ``setup_s`` and the ``_ref``
    variants are at the reference host speed: the timed phase is divided
    by the repetition's host factor (``child.reference_loop``); set-up
    counts the interpreter start and numpy import at
    ``REFERENCE_START_S`` and divides the rest (the program's imports, the
    DTW kernel, ``reanalyze``'s input trace) by the host factor.
    """
    done = [rep for rep in reps if rep.completed]
    samples: dict[str, list[float]] = {
        "setup_s": [
            REFERENCE_START_S + (rep.setup_s - rep.start_s) / rep.outcome["host_factor"]
            for rep in done
        ],
        "setup_measured_s": [rep.setup_s for rep in done],
        "start_s": [rep.start_s for rep in done],
    }
    for name in ("wall_s", "cpu_s", "peak_rss_mb", "host_factor"):
        samples[name] = [rep.outcome[name] for rep in done]
    samples["records_per_s"] = [rep.outcome["records"] / rep.outcome["wall_s"] for rep in done]
    for name in ("wall", "cpu"):
        samples[f"{name}_ref_s"] = [
            rep.outcome[f"{name}_s"] / rep.outcome["host_factor"] for rep in done
        ]
    samples["records_per_ref_s"] = [
        rep.outcome["records"] / wall for rep, wall in zip(done, samples["wall_ref_s"])
    ]
    return samples


def layer_table(trace: dict, wall_s: float, unattributed_s: float) -> list[str]:
    rows = [
        (entry["self_s"], entry["name"], entry["calls"])
        for entry in trace["aggregates"]
        if entry["calls"]
    ]
    rows.append((unattributed_s, "dataflow.unattributed", 0))
    lines = [f"  {'layer':<24}{'self_s':>10}{'calls':>10}{'share':>8}"]
    for self_s, name, calls in sorted(rows, reverse=True):
        lines.append(f"  {name:<24}{self_s:>10.4f}{calls:>10}{self_s / wall_s:>8.1%}")
    lines.append(f"  {'traced wall_s':<24}{wall_s:>10.4f}")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="how long to measure")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.perf_counter()
    # A terminated benchmark still kills the repetition it is running
    # (``run_child``'s ``finally``).
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure: {ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    stored = json.loads((HERE / "reference.json").read_text())
    scale = stored["scale"]
    seeds = workload_seeds(args.seed)

    (STATE / "runs").mkdir(parents=True, exist_ok=True)
    (STATE / "tmp").mkdir(parents=True, exist_ok=True)
    (STATE / "out").mkdir(parents=True, exist_ok=True)
    env = child_env(STATE / "tmp")

    # The warm-up counts against --seconds, so a run lasts about that long.
    deadline = started + args.seconds
    kill_at = started + RUN_LIMIT_S
    warmup = run_child(args.workload, seeds[0], scale, "warmup", env, kill_at)
    if warmup.problems:
        print(f"perfbench: warm-up failed: {'; '.join(warmup.problems)}", file=sys.stderr)
        return 1
    reps = repetitions(args.workload, seeds, args.trace == 1, scale, env, deadline, kill_at)
    sequential = warmup.outcome.get("sequential_digest")
    check_outputs(args.workload, reps, stored, {seeds[0]: sequential} if sequential else {})
    traced = next((rep for rep in reps if rep.mode == "traced"), None)
    samples = samples_of([rep for rep in reps if rep.mode == "timed"])
    if not samples["wall_s"] or (traced is not None and not traced.completed):
        for rep in reps:
            print(f"perfbench: {rep.mode} repetition: {'; '.join(rep.problems)}", file=sys.stderr)
        print("perfbench: a timed phase did not complete; no result", file=sys.stderr)
        return 1
    medians = {name: statistics.median(values) for name, values in samples.items()}

    inputs: dict[int, dict] = {}
    for rep in reps:
        if rep.completed and rep.seed not in inputs:
            inputs[rep.seed] = {
                key: rep.outcome[key] for key in ("requests", "records", "trace_bytes", "digest")
            }
    facts = {
        "workload": args.workload,
        "seeds": seeds,
        "scale": scale,
        "git_revision": git_revision(),
        **next(rep.outcome["facts"] for rep in reps if rep.completed),
        "inputs": inputs,
        "reference_checked": stored["seed"] in inputs,
    }
    failed = sum(1 for rep in reps if rep.problems)
    print(f"perfbench {args.workload}: seeds {seeds}, scale {scale}, {args.seconds:g} s")
    print("facts: " + json.dumps(facts))
    for rep in reps:
        if rep.problems:
            print(f"failed {rep.mode} repetition: {'; '.join(rep.problems)}")
    units = {metric["name"]: metric["unit"] for metric in spec["end_to_end"]}
    print(f"  {'metric':<20}{'median':>14}  {'unit':<10}{'samples':>7}  gated")
    for name, values in samples.items():
        unit = units.get(name) or UNITS[name]
        gated = "yes" if name in units else "no"
        print(f"  {name:<20}{medians[name]:>14.6g}  {unit:<10}{len(values):>7}  {gated}")
    print(f"operations: {len(reps)} attempted, {failed} failed")

    record = {
        "facts": facts,
        "medians": medians,
        "samples": samples,
        "repetitions": [
            {"mode": rep.mode, "seed": rep.seed, "setup_s": rep.setup_s, "problems": rep.problems,
             **{k: v for k, v in (rep.outcome or {}).items() if k not in ("trace", "facts", "layers")}}
            for rep in reps
        ],
    }
    if traced is None:
        metrics = {name: {"value": medians[name], "unit": unit} for name, unit in units.items()}
    else:
        outcome = traced.outcome
        layers = dict(outcome["layers"])
        # The untraced median of the traced seed, rescaled to the traced
        # repetition's host speed.
        untraced = [
            rep.outcome["wall_s"] / rep.outcome["host_factor"]
            for rep in reps
            if rep.mode == "timed" and rep.seed == traced.seed and rep.completed
        ]
        untraced_s = statistics.median(untraced or samples["wall_ref_s"])
        layers["tracing.overhead_s"] = outcome["wall_s"] - untraced_s * outcome["host_factor"]
        print(f"per-layer self time of the traced repetition (run {outcome['trace']['run_id']}):")
        for line in layer_table(outcome["trace"], outcome["wall_s"], layers["dataflow.unattributed_s"]):
            print(line)
        print(f"  tracing.overhead_s {layers['tracing.overhead_s']:.4f} s")
        metrics = {
            metric["name"]: {"value": layers[metric["name"]], "unit": metric["unit"]}
            for metric in spec["per_layer"]
        }
        record["per_layer"] = layers
        record["trace"] = outcome["trace"]
    out = STATE / "out" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(f"results written to {out.relative_to(ROOT)}")
    print(json.dumps({"correct": failed == 0, "attempted": len(reps), "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
