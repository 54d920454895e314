"""Tests of the benchmark itself, at the tiny ``test`` scale.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import worker  # noqa: E402
from layers import LayerTracer  # noqa: E402
from repro.datasets.taxi import make_taxi_pipeline  # noqa: E402
from repro.datasets.url import make_url_pipeline  # noqa: E402
from workloads import WORKLOADS, check_outputs  # noqa: E402

# Initial fits stop at their iteration cap by design.
pytestmark = pytest.mark.filterwarnings(
    "ignore::repro.exceptions.ConvergenceWarning"
)


def run_benchmark(workload: str, trace: int, cwd: Path = ROOT):
    return subprocess.run(
        [
            sys.executable, "perfbench/run.py",
            "--workload", workload,
            "--seed", str(WORKLOADS[workload].default_seed),
            "--seconds", "1",
            "--trace", str(trace),
            "--scale", "test",
        ],
        cwd=cwd,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        timeout=170,
    )


def result_of(completed) -> dict:
    assert completed.returncode == 0, completed.stderr
    return json.loads(completed.stdout.strip().splitlines()[-1])


def test_benchmark_json_matches_what_the_benchmark_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert set(run.WORKLOAD_NAMES) == set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == (
        run.END_TO_END_UNITS
    )
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == (
        run.per_layer_units()
    )


def test_component_list_covers_both_pipelines():
    pipelines = (make_url_pipeline(), make_taxi_pipeline())
    names = {n for p in pipelines for n in p.component_names}
    stateful = {c.name for p in pipelines for c in p.stateful_components}
    assert names == set(run.COMPONENTS)
    assert stateful == set(run.STATEFUL_COMPONENTS)


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_smoke_run_prints_every_end_to_end_metric(workload):
    result = result_of(run_benchmark(workload, trace=0))
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] > 0
    metrics = result["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == run.END_TO_END_UNITS
    assert all(v["value"] > 0 for v in metrics.values())


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_traced_run_prints_every_layer_and_matches_untraced(workload):
    # ``correct`` requires the traced and untraced output digests to
    # be equal (run.outcome compares every worker's digest).
    result = result_of(run_benchmark(workload, trace=1))
    assert result["correct"] is True
    metrics = result["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == run.per_layer_units()
    assert metrics["run.unattributed_share"]["value"] < 0.05
    assert metrics["ml.gradient_calls"]["value"] > 0


def test_end_to_end_takes_each_chunks_fastest_repetition():
    chunks = [1e-3 * (1 + i % 7) for i in range(40)]
    burst = list(chunks)
    burst[5] = 1.0  # one repetition hit by host interference
    report = {
        "setup_s": [0.1], "rows": 400, "steps_s": 1.0, "run_wall_s": 1.0,
        "peak_rss_mb": 60.0, "file_s": 0.0, "file_writes": 0,
        "slowdowns": [1.0],
    }
    values, __ = run.end_to_end([
        dict(report, predict_s=burst, observe_s=chunks,
             train_event_s=[0.5, 0.9]),
        dict(report, predict_s=chunks, observe_s=[2 * t for t in chunks],
             train_event_s=[0.7, 0.8]),
    ])
    tail = run.percentile(chunks, run.tail_percentile(len(chunks)))
    assert values["predict_ms_tail"] == values["observe_ms_tail"] == 1e3 * tail
    assert values["predict_ms_p50"] == 1e3 * run.percentile(chunks, 50.0)
    assert values["train_event_ms_p50"] == pytest.approx(650.0)


def test_tracer_restores_originals_and_keeps_outputs(tmp_path):
    untraced = worker.run_once(
        "taxi-bounded-ckpt", 3, "test", traced=False, tmp=tmp_path
    )
    tracer = LayerTracer().install()
    patched = list(tracer.patched)
    tracer.uninstall()
    assert len(patched) > 40
    for owner, name, original in patched:
        assert owner.__dict__[name] is original, (owner, name)

    traced = worker.run_once(
        "taxi-bounded-ckpt", 3, "test", traced=True, tmp=tmp_path
    )
    assert traced["digest"] == untraced["digest"]
    assert traced["problems"] == untraced["problems"] == []
    # Checkpoint writes pickle the pipeline while wrappers are live.
    assert traced["counts"]["reliability.checkpoint_write.calls"] >= 1
    # The tracer's file-layer wrapper sits on top of the probe's; both
    # must see every file write.
    assert traced["counts"]["reliability.file_write.calls"] == (
        traced["file_writes"]
    ) > 0
    for owner, name, original in patched:
        assert owner.__dict__[name] is original, (owner, name)


def test_inherited_transform_is_timed_once_per_call(tmp_path):
    traced = worker.run_once(
        "taxi-bounded-ckpt", 3, "test", traced=True, tmp=tmp_path
    )
    counts = traced["counts"]
    # hour and weekday share ColumnExtractor.transform; each must see
    # exactly the calls the parser (one per pipeline pass) sees.
    parser_calls = counts["pipeline.input_parser.transform.calls"]
    assert counts["pipeline.hour.transform.calls"] == parser_calls
    assert counts["pipeline.weekday.transform.calls"] == parser_calls


def test_output_check_rejects_a_changed_prediction(tmp_path):
    workload = WORKLOADS["url-continuous"]
    scenario = workload.scenario(7, "test")
    deployment = workload.build(scenario, None)
    deployment.initial_fit(
        scenario.make_initial_data(),
        seed=scenario.seed,
        **scenario.initial_fit_kwargs,
    )
    with worker.ChunkProbe([]) as probe:
        result = deployment.run(scenario.make_stream())
    args = ("test", 7, scenario.metric)
    tail = (probe.labels, result, scenario.num_chunks)
    assert check_outputs(workload, *args, probe.predictions, *tail) == []
    changed = [p.copy() for p in probe.predictions]
    changed[3][0] = -changed[3][0]
    assert check_outputs(workload, *args, changed, *tail)
    changed[3][0] = np.nan
    assert check_outputs(workload, *args, changed, *tail)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        HERE, tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    completed = run_benchmark("url-continuous", trace=0, cwd=tmp_path)
    assert completed.returncode != 0
    assert '"correct"' not in completed.stdout
