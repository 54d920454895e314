"""Point-at-a-time SGD: raw-array row step vs scipy one-row slices.

The paper's online update visits each incoming point once with one
SGD step. On a CSR chunk the shared online loop
(:meth:`LocalExecutionEngine.online_update` with ``batch_rows=1``)
steps on the chunk's ``indptr``/``indices``/``data`` arrays. Before,
every point paid for a one-row ``csr_matrix`` slice, its transpose
and the scipy products. This benchmark prices the difference on real
machinery — the same 100 url-bench feature chunks (1024 hashed
features, Adam, L2), consumed twice by fresh trainers:

1. sliced: one ``engine.train_step`` per ``matrix[r:r + 1]``;
2. row kernel: one ``engine.online_update(..., batch_rows=1)`` per
   chunk.

It asserts that both leave byte-identical weights, intercept,
optimizer state and cost breakdown, and reports the wall-clock ratio
measured in one process, so the ratio holds on any machine.

Baseline workflow: by default the run appends a record to the
``BENCH_row_step.json`` trajectory. With ``REPRO_BENCH_CHECK`` set
(``make bench-check``), the fresh run is gated against the committed
trajectory instead (exact-match counts, ±400% wall budget) and the
ratio must be at least :data:`MIN_SPEEDUP`.
"""

from __future__ import annotations

import itertools
import os
import time

import numpy as np

from benchmarks.conftest import BASELINE_DIR, run_once
from repro.execution.engine import LocalExecutionEngine
from repro.experiments.common import url_scenario
from repro.ml.sgd import SGDTrainer

SEED = 7
NUM_CHUNKS = 100
#: Timed passes per path; each path's fastest pass counts.
PASSES = 3
#: Same-process speedup the row kernel must keep under the gate.
MIN_SPEEDUP = 1.5


def _build_chunks(scenario):
    pipeline = scenario.make_pipeline()
    return [
        pipeline.update_transform_to_features(table)
        for table in itertools.islice(scenario.make_stream(), NUM_CHUNKS)
    ]


def _sliced(engine, trainer, chunks):
    for features in chunks:
        for row in range(features.num_rows):
            engine.train_step(
                trainer,
                features.matrix[row:row + 1],
                features.labels[row:row + 1],
            )


def _row_kernel(engine, trainer, chunks):
    for features in chunks:
        engine.online_update(trainer, features, batch_rows=1)


def _timed_pass(scenario, chunks, update):
    engine = LocalExecutionEngine()
    trainer = SGDTrainer(scenario.make_model(), scenario.make_optimizer())
    started = time.perf_counter()
    update(engine, trainer, chunks)
    return time.perf_counter() - started, engine, trainer


def _state(engine, trainer):
    model, optimizer = trainer.model, trainer.optimizer.state_dict()
    return {
        "weights": model.weights.tobytes(),
        "intercept": np.float64(model.intercept).tobytes(),
        "updates": model.updates_applied,
        "optimizer": {
            key: value.tobytes() if isinstance(value, np.ndarray) else value
            for key, value in optimizer["state"].items()
        },
        "cost": engine.tracker.breakdown(),
    }


def _measure(scenario, chunks):
    """Alternate the two paths ``PASSES`` times; keep each one's best."""
    best = {"sliced": float("inf"), "row": float("inf")}
    states = {}
    for __ in range(PASSES):
        for key, update in (("sliced", _sliced), ("row", _row_kernel)):
            wall, engine, trainer = _timed_pass(scenario, chunks, update)
            best[key] = min(best[key], wall)
            states[key] = _state(engine, trainer)
    return best, states


def test_row_step(benchmark, report, bench_record):
    scenario = url_scenario("bench", seed=SEED)
    chunks = _build_chunks(scenario)
    rows = sum(f.num_rows for f in chunks)
    values = sum(int(f.matrix.nnz) for f in chunks)

    best, states = run_once(benchmark, lambda: _measure(scenario, chunks))
    speedup = best["sliced"] / best["row"]
    report(
        "row_step",
        "\n".join(
            [
                "point-at-a-time SGD step: row kernel vs scipy slices",
                f"chunks: {len(chunks)} ({rows} rows, {values} values), "
                f"best of {PASSES} passes per path",
                f"sliced:     {best['sliced'] * 1e3:.1f} ms "
                f"({rows / best['sliced']:.0f} rows/s)",
                f"row kernel: {best['row'] * 1e3:.1f} ms "
                f"({rows / best['row']:.0f} rows/s)",
                f"speedup: {speedup:.2f}x",
                "final state byte-identical: "
                f"{states['row'] == states['sliced']}",
            ]
        ),
    )

    # The contract, not a tolerance: the kernel must not change a byte.
    assert states["row"] == states["sliced"]
    assert states["row"]["updates"] == rows

    count = {"chunks": len(chunks), "rows": rows, "values": values}
    wall = {"sliced_s": best["sliced"], "row_kernel_s": best["row"]}
    params = {
        "scenario": scenario.name,
        "num_chunks": NUM_CHUNKS,
        "passes": PASSES,
    }

    if os.environ.get("REPRO_BENCH_CHECK"):
        from repro.obs import (
            BaselineStore,
            MetricValue,
            TolerancePolicy,
            check_record,
            make_record,
        )
        from repro.obs.perf import format_report

        metrics = {
            key: MetricValue(float(value), "count")
            for key, value in count.items()
        }
        metrics.update(
            {
                key: MetricValue(float(value), "wall")
                for key, value in wall.items()
            }
        )
        fresh = make_record(
            name="row_step", metrics=metrics, seed=SEED, params=params
        )
        history = BaselineStore(BASELINE_DIR).load("row_step")
        verdict = check_record(
            fresh, history, TolerancePolicy(wall_budget=4.0)
        )
        report("row_step_gate", format_report(verdict))
        assert verdict.ok, (
            "row step regressed against "
            f"{BASELINE_DIR}/BENCH_row_step.json"
        )
        assert speedup >= MIN_SPEEDUP, (
            f"row kernel is {speedup:.2f}x the sliced step, "
            f"below the {MIN_SPEEDUP}x gate"
        )
    else:
        bench_record(
            "row_step", count=count, wall=wall, seed=SEED, params=params
        )
