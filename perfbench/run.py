"""Benchmark entry point: one workload, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload url-continuous --seed 7 \\
        --seconds 25 --trace 0

Load is one closed loop from one process and thread: the deployment
loop pulls the next chunk only after the previous test-then-train step
returns, so ``rows_per_s`` is the highest stream rate the platform
sustains without a backlog.

``--trace 0`` runs the workload in ``reps`` fresh worker processes
(one per ``SECONDS_PER_REP`` of ``--seconds``, at least two, so both
sides of a comparison do the same work and every run checks that fresh
processes agree on the outputs) and reports the end-to-end metrics with
tracing off. ``--trace 1`` runs it once untraced and once
traced and reports the per-layer metrics. The last stdout line is one
JSON object: ``correct``, ``attempted``, ``failed`` (chunks) and
``metrics``.

Exits non-zero without a result when the program under ``src/`` is
missing or a worker process fails to report.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
TMP_ROOT = ROOT / ".perfbench_tmp"

WORKLOAD_NAMES = ("url-continuous", "url-periodical", "taxi-bounded-ckpt")

#: Seconds of ``--seconds`` per repetition. A 25-second run makes 2, 2
#: and 5 repetitions, which take about 30, 50 and 30 seconds of wall
#: time on the reference machine (2 vCPU x86-64 KVM guest, Python 3.11,
#: NumPy 2.4). The count is fixed, not timed, so a parent and a child
#: commit do the same work whatever their speed.
SECONDS_PER_REP = {
    "url-continuous": 12.5,
    "url-periodical": 12.5,
    "taxi-bounded-ckpt": 5.0,
}

#: Wall-clock budget of one benchmark run, all workers together.
RUN_BUDGET_S = 170.0

#: Pipeline components of the URL and taxi pipelines (by name), and
#: the stateful ones whose ``update`` is timed as well.
COMPONENTS = (
    "input_parser", "imputer", "scaler", "hasher",
    "haversine", "bearing", "hour", "weekday", "delta_lat", "delta_lon",
    "anomaly_detector", "assembler",
)
STATEFUL_COMPONENTS = ("imputer", "scaler")

#: Self-time keys of the wrappers around the deployment loop and the
#: routing between layers. Their self time is code that no layer
#: wrapper covers, so it counts as unattributed.
UNNAMED_KEYS = ("core.loop", "core.dispatch", "core.proactive_run")

END_TO_END_UNITS = {
    "setup_s": "s",
    "rows_per_s": "rows/s",
    "predict_ms_p50": "ms",
    "predict_ms_tail": "ms",
    "observe_ms_p50": "ms",
    "observe_ms_tail": "ms",
    "train_event_ms_p50": "ms",
    "peak_rss_mb": "MB",
}


def per_layer_units() -> Dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units: Dict[str, str] = {}
    for component in COMPONENTS:
        prefix = f"pipeline.{component}."
        units[prefix + "transform_s"] = "s"
        units[prefix + "transform_calls"] = "count"
        units[prefix + "rows_in"] = "count"
        units[prefix + "rows_out"] = "count"
        if component in STATEFUL_COMPONENTS:
            units[prefix + "update_s"] = "s"
    units["pipeline.chain_self_s"] = "s"
    for name, unit in (
        ("ml.gradient_s", "s"),
        ("ml.gradient_calls", "count"),
        ("ml.gradient_values", "count"),
        ("ml.optimizer_step_s", "s"),
        ("ml.train_step_s", "s"),
        ("ml.predict_s", "s"),
        ("ml.predict_calls", "count"),
        ("ml.train_full_s", "s"),
        ("ml.train_full_iterations", "count"),
        ("execution.engine_self_s", "s"),
        ("execution.engine_ops", "count"),
        ("core.online_step_self_s", "s"),
        ("core.combine_s", "s"),
        ("core.full_retrain_self_s", "s"),
        ("core.loop_self_s", "s"),
        ("core.dispatch_self_s", "s"),
        ("core.train_events", "count"),
        ("data.ingest_s", "s"),
        ("data.store_features_s", "s"),
        ("data.sample_s", "s"),
        ("data.get_raw_s", "s"),
        ("data.hit_ratio", "ratio"),
        ("data.rematerializations", "count"),
        ("data.evictions", "count"),
        ("reliability.checkpoint_write_s", "s"),
        ("reliability.checkpoint_writes", "count"),
        ("reliability.checkpoint_bytes", "B"),
        ("reliability.file_write_s", "s"),
        ("reliability.file_writes", "count"),
        ("run.traced_wall_s", "s"),
        ("run.calibration_s", "s"),
        ("run.unattributed_s", "s"),
        ("run.unattributed_share", "ratio"),
        ("run.tracing_overhead", "ratio"),
        ("run.failed_chunk_share", "ratio"),
    ):
        units[name] = unit
    return units


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile (NumPy's default method)."""
    ordered = sorted(values)
    position = (len(ordered) - 1) * q / 100.0
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def tail_percentile(count: int) -> float:
    """Highest percentile with at least ten samples beyond it.

    That is the 11th-largest sample, at position ``count - 11`` of
    ``count - 1`` in :func:`percentile`'s interpolation.
    """
    if count <= 11:
        return 50.0
    return 100.0 * (count - 11) / (count - 1)


# ----------------------------------------------------------------------
# Workers
# ----------------------------------------------------------------------
def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    for name in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
        "NUMEXPR_NUM_THREADS",
    ):
        env[name] = "1"
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env.pop("PYTHONPATH", None)
    return env


def run_worker(
    workload: str,
    seed: int,
    scale: str,
    tmp: Path,
    traced: bool,
    deadline: float,
) -> dict:
    """Run one ``worker.py`` process and return its JSON report."""
    command = [
        sys.executable, str(WORKER),
        "--workload", workload,
        "--seed", str(seed),
        "--scale", scale,
        "--tmp", str(tmp),
    ]
    if traced:
        command.append("--traced")
    completed = subprocess.run(
        command,
        cwd=ROOT,
        env=child_env(),
        stdout=subprocess.PIPE,
        timeout=max(deadline - time.monotonic(), 1.0),
        text=True,
    )
    lines = completed.stdout.strip().splitlines()
    if completed.returncode != 0 or not lines:
        raise RuntimeError(
            f"worker exited with code {completed.returncode}"
        )
    return json.loads(lines[-1])


def outcome(reports: List[dict]) -> Tuple[bool, int, int, List[str]]:
    """(correct, attempted, failed, problems) over a run's workers.

    Every worker must pass its own output check and all must produce
    the same output digest; otherwise every chunk counts as failed.
    """
    attempted = sum(r["chunks"] for r in reports)
    failed = sum(r["failed_chunks"] for r in reports)
    problems = [p for r in reports for p in r["problems"]]
    digests = {json.dumps(r["digest"], sort_keys=True) for r in reports}
    if len(digests) != 1:
        problems.append(f"workers disagree on the output digest: {digests}")
    correct = not problems and failed == 0
    if not correct:
        failed = attempted
    return correct, attempted, failed, problems


def fastest(reports: List[dict], key: str) -> List[float]:
    """Each sample's fastest time over the repetitions.

    Repetitions replay the same inputs through the same deterministic
    program, so sample ``i`` is the same work in each of them (the
    output check enforces it). Interference from the shared host only
    adds time, so the fastest repetition of a sample is its best
    estimate; a change to the program moves it in every repetition.
    """
    return [min(samples) for samples in zip(*(r[key] for r in reports))]


def end_to_end(reports: List[dict]) -> Tuple[Dict[str, float], List[str]]:
    """End-to-end metric values and a note on each tail's samples."""
    runs = len(reports)
    setups = [t for r in reports for t in r["setup_s"]]
    events = fastest(reports, "train_event_s")
    values = {
        "setup_s": statistics.median(setups),
        "rows_per_s": statistics.median(
            r["rows"] / r["steps_s"] for r in reports
        ),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reports),
        "train_event_ms_p50": 1e3 * statistics.median(events),
    }
    notes = []
    for name, key in (("predict_ms", "predict_s"), ("observe_ms", "observe_s")):
        chunks = fastest(reports, key)
        q = tail_percentile(len(chunks))
        values[name + "_p50"] = 1e3 * percentile(chunks, 50.0)
        values[name + "_tail"] = 1e3 * percentile(chunks, q)
        notes.append(
            f"{name}_tail = p{q:.2f} of {len(chunks)} chunks, each the "
            f"fastest of {runs} runs"
        )
    notes.append(f"setup_s = median of {len(setups)} set-ups")
    notes.append(
        f"train_event_ms_p50 = median of {len(events)} training events, "
        f"each the fastest of {runs} runs"
    )
    notes.append(
        f"rows_per_s = median of {len(reports)} runs (raw wall: "
        + ", ".join(f"{r['rows'] / r['run_wall_s']:.1f}" for r in reports)
        + ")"
    )
    notes.append(
        "checkpoint file writes left out: "
        + ", ".join(
            f"{r['file_s']:.3f} s in {r['file_writes']}" for r in reports
        )
    )
    factors = [f for r in reports for f in r["slowdowns"]]
    notes.append(
        f"host slowdown: median {statistics.median(factors):.3f} "
        f"over {len(factors)} calibrations"
    )
    return values, notes


def per_layer(untraced: dict, traced: dict) -> Dict[str, float]:
    """Per-layer metrics from one traced run and its untraced twin."""
    self_s = traced["self_s"]
    counts = traced["counts"]

    def s(key: str) -> float:
        return self_s.get(key, 0.0)

    def c(key: str) -> int:
        return counts.get(key, 0)

    values: Dict[str, float] = {}
    for component in COMPONENTS:
        key = f"pipeline.{component}.transform"
        prefix = f"pipeline.{component}."
        values[prefix + "transform_s"] = s(key)
        values[prefix + "transform_calls"] = c(key + ".calls")
        values[prefix + "rows_in"] = c(key + ".rows_in")
        values[prefix + "rows_out"] = c(key + ".rows_out")
        if component in STATEFUL_COMPONENTS:
            values[prefix + "update_s"] = s(prefix + "update")
    storage = traced["storage"]
    lookups = storage["hits"] + storage["misses"]
    wall = traced["run_wall_s"]
    unattributed = wall - sum(
        t for key, t in self_s.items() if key not in UNNAMED_KEYS
    )
    values.update({
        "pipeline.chain_self_s": s("pipeline.chain"),
        "ml.gradient_s": s("ml.gradient"),
        "ml.gradient_calls": c("ml.gradient.calls"),
        "ml.gradient_values": c("ml.gradient.values"),
        "ml.optimizer_step_s": s("ml.optimizer_step"),
        "ml.train_step_s": s("ml.train_step"),
        "ml.predict_s": s("ml.predict"),
        "ml.predict_calls": c("ml.predict.calls"),
        "ml.train_full_s": s("ml.train_full"),
        "ml.train_full_iterations": c("ml.train_full.iterations"),
        "execution.engine_self_s": s("execution.engine") + s("execution.cost"),
        "execution.engine_ops": c("execution.engine.calls"),
        "core.online_step_self_s": s("core.online_step"),
        "core.combine_s": s("core.combine"),
        "core.full_retrain_self_s": s("core.full_retrain"),
        "core.loop_self_s": s("core.loop"),
        "core.dispatch_self_s": s("core.dispatch") + s("core.proactive_run"),
        "core.train_events": c("core.proactive_run.calls")
        + c("core.full_retrain.calls"),
        "data.ingest_s": s("data.ingest"),
        "data.store_features_s": s("data.store_features"),
        "data.sample_s": s("data.sample"),
        "data.get_raw_s": s("data.get_raw"),
        "data.hit_ratio": storage["hits"] / lookups if lookups else 0.0,
        "data.rematerializations": storage["misses"],
        "data.evictions": storage["evictions"],
        "reliability.checkpoint_write_s": s("reliability.checkpoint_write"),
        "reliability.checkpoint_writes": c(
            "reliability.checkpoint_write.calls"
        ),
        "reliability.checkpoint_bytes": c("reliability.checkpoint_bytes"),
        "reliability.file_write_s": s("reliability.file_write"),
        "reliability.file_writes": c("reliability.file_write.calls"),
        "run.traced_wall_s": wall,
        "run.calibration_s": s("run.calibration"),
        "run.unattributed_s": unattributed,
        "run.unattributed_share": unattributed / wall,
        "run.tracing_overhead": traced["steps_s"] / untraced["steps_s"] - 1.0,
    })
    return values


# ----------------------------------------------------------------------
def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale", choices=("bench", "test"), default="bench",
        help="'test' runs the tiny scenarios the benchmark's tests use",
    )
    args = parser.parse_args()
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + RUN_BUDGET_S
    TMP_ROOT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=TMP_ROOT))
    try:
        if args.trace:
            traced_flags = [False, True]
        else:
            reps = max(2, int(args.seconds // SECONDS_PER_REP[args.workload]))
            traced_flags = [False] * reps
        reports = [
            run_worker(
                args.workload, args.seed, args.scale, tmp, traced, deadline
            )
            for traced in traced_flags
        ]
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as error:
        print(f"benchmark failed: {error}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            TMP_ROOT.rmdir()
        except OSError:
            pass  # another run still uses it

    correct, attempted, failed, problems = outcome(reports)
    for problem in problems:
        print(f"output check: {problem}", file=sys.stderr)
    if args.trace:
        values = per_layer(*reports)
        values["run.failed_chunk_share"] = failed / attempted
        units = per_layer_units()
    else:
        values, notes = end_to_end(reports)
        units = END_TO_END_UNITS
        for note in notes:
            print(note)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": values[name], "unit": unit}
            for name, unit in units.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
