"""URL preprocessing: columnar sparse chain vs per-value dict chain.

Every URL chunk goes through parse → impute → scale → hash twice in
the prequential loop: once to answer its queries (transform only) and
once on the online path (update, then transform). This benchmark runs
the same 100 url-bench chunks through both passes of two chains, each
fresh:

1. reference: the dict-row implementation kept in
   ``tests/pipeline/sparse_reference.py`` — one ``{index: value}``
   dict per row, per-value imputer, scaler and hasher loops, and every
   component run on both passes;
2. live: the URL pipeline as deployed — ``SparseRows`` columns, the
   vectorized imputer/scaler/hasher, and the pipeline's stateless-head
   memo, which parses each chunk once for both passes.

It asserts byte-identical ``Features``, statistics and cost charges,
and reports the wall-clock ratio measured in one process, so the ratio
holds on any machine.

Baseline workflow: by default the run appends a record to the
``BENCH_sparse_chain.json`` trajectory. With ``REPRO_BENCH_CHECK`` set
(``make bench-check``), the fresh run is gated against the committed
trajectory instead (exact-match counts and cost, ±400% wall budget)
and the ratio must be at least :data:`MIN_SPEEDUP`.
"""

from __future__ import annotations

import hashlib
import itertools
import os
import time

import numpy as np

from benchmarks.conftest import BASELINE_DIR, run_once
from repro.execution.cost import CostTracker
from repro.experiments.common import url_scenario
from tests.pipeline.sparse_reference import ReferenceChain

SEED = 7
NUM_CHUNKS = 100
#: Timed passes per chain; each chain's fastest pass counts.
PASSES = 3
#: Same-process speedup the live chain must keep under the gate.
MIN_SPEEDUP = 1.5


def _live(scenario):
    pipeline = scenario.make_pipeline()
    return (
        pipeline.transform_to_features,
        pipeline.update_transform_to_features,
        pipeline.component("imputer")._moments,
        pipeline.component("scaler")._moments,
    )


def _reference(scenario):
    width = scenario.make_pipeline().component("hasher").num_features
    chain = ReferenceChain(num_features=width)
    return (
        chain.transform,
        chain.update_transform,
        chain.imputer.moments,
        chain.scaler.moments,
    )


def _timed_pass(scenario, tables, build):
    predict, observe, imputer, scaler = build(scenario)
    tracker = CostTracker()
    outputs = []
    started = time.perf_counter()
    for table in tables:
        outputs.append(predict(table, tracker))
        outputs.append(observe(table, tracker))
    wall = time.perf_counter() - started
    return wall, _state(outputs, imputer, scaler, tracker)


def _moments_bytes(moments) -> bytes:
    store = moments._stats
    return b"".join(
        np.int64(index).tobytes()
        + np.array(store[index], dtype=np.float64).tobytes()
        for index in moments.indices()
    )


def _state(outputs, imputer, scaler, tracker):
    body = hashlib.sha256()
    for features in outputs:
        for array in (
            features.matrix.data,
            features.matrix.indices,
            features.matrix.indptr,
            features.labels,
        ):
            body.update(array.dtype.str.encode("ascii"))
            body.update(array.tobytes())
    return {
        "features": body.hexdigest(),
        "hashed_values": sum(int(f.matrix.nnz) for f in outputs),
        "imputer": _moments_bytes(imputer),
        "scaler": _moments_bytes(scaler),
        "total_cost": tracker.total(),
        "cost": tracker.breakdown(),
    }


def _measure(scenario, tables):
    """Alternate the two chains ``PASSES`` times; keep each one's best."""
    best = {"reference": float("inf"), "live": float("inf")}
    states = {}
    for __ in range(PASSES):
        for key, build in (("reference", _reference), ("live", _live)):
            wall, state = _timed_pass(scenario, tables, build)
            best[key] = min(best[key], wall)
            states[key] = state
    return best, states


def test_sparse_chain(benchmark, report, bench_record):
    scenario = url_scenario("bench", seed=SEED)
    tables = list(itertools.islice(scenario.make_stream(), NUM_CHUNKS))
    rows = sum(table.num_rows for table in tables)
    values = sum(table.num_values for table in tables)

    best, states = run_once(benchmark, lambda: _measure(scenario, tables))
    speedup = best["reference"] / best["live"]
    report(
        "sparse_chain",
        "\n".join(
            [
                "URL preprocessing, predict + online pass per chunk: "
                "columnar chain vs dict chain",
                f"chunks: {len(tables)} ({rows} rows, {values} raw "
                f"values), best of {PASSES} passes per chain",
                f"dict reference: {best['reference'] * 1e3:.1f} ms "
                f"({rows / best['reference']:.0f} rows/s)",
                f"columnar live:  {best['live'] * 1e3:.1f} ms "
                f"({rows / best['live']:.0f} rows/s)",
                f"speedup: {speedup:.2f}x",
                "features, statistics and cost byte-identical: "
                f"{states['live'] == states['reference']}",
            ]
        ),
    )

    # The contract, not a tolerance: the kernels must not change a byte.
    assert states["live"] == states["reference"]

    count = {
        "chunks": len(tables),
        "rows": rows,
        "values": values,
        "hashed_values": states["live"]["hashed_values"],
    }
    cost = {"total_cost": states["live"]["total_cost"]}
    wall = {"reference_s": best["reference"], "live_s": best["live"]}
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
                key: MetricValue(float(value), "cost")
                for key, value in cost.items()
            }
        )
        metrics.update(
            {
                key: MetricValue(float(value), "wall")
                for key, value in wall.items()
            }
        )
        fresh = make_record(
            name="sparse_chain", metrics=metrics, seed=SEED, params=params
        )
        history = BaselineStore(BASELINE_DIR).load("sparse_chain")
        verdict = check_record(
            fresh, history, TolerancePolicy(wall_budget=4.0)
        )
        report("sparse_chain_gate", format_report(verdict))
        assert verdict.ok, (
            "sparse chain regressed against "
            f"{BASELINE_DIR}/BENCH_sparse_chain.json"
        )
        assert speedup >= MIN_SPEEDUP, (
            f"columnar chain is {speedup:.2f}x the dict chain, "
            f"below the {MIN_SPEEDUP}x gate"
        )
    else:
        bench_record(
            "sparse_chain",
            count=count,
            cost=cost,
            wall=wall,
            seed=SEED,
            params=params,
        )
