"""The benchmark's three deployment workloads and their output check.

Each workload is one scenario from :mod:`repro.experiments.common`
driven through the public ``Deployment.run`` loop:

* ``url-continuous`` — the paper's headline configuration: sparse URL
  stream, continuous deployment, point-at-a-time Adam, proactive
  training every 5 chunks on 80 time-sampled chunks, unbounded
  materialization (every sample is a cache hit, no checkpoints).
* ``url-periodical`` — the same stream under the periodical approach:
  12 warm-started full retrains that replay the whole raw history
  through the sparse pipeline and run full-batch SGD.
* ``taxi-bounded-ckpt`` — the dense taxi stream, continuous, with at
  most 40 materialized chunks (so sampling re-materializes evicted
  chunks from raw) and a checkpoint every 20 chunks (keep 2).

The output check digests the per-chunk prediction stream, the final
prequential error and the total virtual cost, and compares them with
``reference.json`` when one is recorded for the seed.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.core.deployment.base import Deployment, DeploymentResult
from repro.experiments.common import (
    Scenario,
    make_deployment,
    taxi_scenario,
    url_scenario,
)
from repro.reliability.checkpoint import CheckpointConfig

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: a scenario, an approach and its options."""

    name: str
    dataset: str
    approach: str
    default_seed: int
    max_materialized_chunks: Optional[int] = None
    checkpoint_every: Optional[int] = None

    def scenario(self, seed: int, scale: str = "bench") -> Scenario:
        make = url_scenario if self.dataset == "url" else taxi_scenario
        scenario = make(scale, seed=seed)
        if self.max_materialized_chunks is not None:
            scenario = scenario.with_continuous(
                max_materialized_chunks=self.max_materialized_chunks
            )
        return scenario

    def build(
        self, scenario: Scenario, checkpoint_dir: Optional[Path]
    ) -> Deployment:
        """``make_deployment`` for this workload (not yet fitted)."""
        checkpoint = None
        if self.checkpoint_every is not None:
            checkpoint = CheckpointConfig(
                directory=checkpoint_dir,
                cadence_chunks=self.checkpoint_every,
                keep=2,
            )
        return make_deployment(scenario, self.approach, checkpoint=checkpoint)


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("url-continuous", "url", "continuous", default_seed=7),
        Workload("url-periodical", "url", "periodical", default_seed=7),
        Workload(
            "taxi-bounded-ckpt",
            "taxi",
            "continuous",
            default_seed=3,
            max_materialized_chunks=40,
            checkpoint_every=20,
        ),
    )
}


def recomputed_error(
    metric: str, predictions: Sequence[np.ndarray], labels: Sequence[np.ndarray]
) -> float:
    """Final prequential error recomputed from the served predictions.

    Mirrors the deployment loop's accumulation order (one float sum
    per chunk, chunks with no surviving rows skipped) so it matches
    the reported value on a correct run.
    """
    total = 0.0
    rows = 0
    for predicted, truth in zip(predictions, labels):
        if not len(truth):
            continue
        if metric == "classification":
            total += float(np.sum(predicted != truth))
        else:
            residual = predicted - truth
            total += float(np.sum(residual * residual))
        rows += len(truth)
    if metric == "classification":
        return total / rows
    return math.sqrt(total / rows)


def output_digest(
    predictions: Sequence[np.ndarray], result: DeploymentResult
) -> Dict[str, str]:
    """What a later change must reproduce bit for bit."""
    hasher = hashlib.sha256()
    for chunk in predictions:
        array = np.ascontiguousarray(chunk, dtype=np.float64)
        hasher.update(len(array).to_bytes(8, "little"))
        hasher.update(array.tobytes())
    return {
        "predictions_sha256": hasher.hexdigest(),
        "final_error": repr(result.final_error),
        "total_cost": repr(result.total_cost),
    }


def load_reference() -> Dict[str, Dict[str, str]]:
    with open(REFERENCE_PATH) as handle:
        return json.load(handle)


def reference_key(workload: str, scale: str, seed: int) -> str:
    return f"{workload}/{scale}/seed={seed}"


def check_outputs(
    workload: Workload,
    scale: str,
    seed: int,
    metric: str,
    predictions: List[np.ndarray],
    labels: List[np.ndarray],
    result: DeploymentResult,
    chunks_expected: int,
) -> List[str]:
    """Return the failed checks (empty when the run is correct)."""
    problems = []
    if result.chunks_processed != chunks_expected:
        problems.append(
            f"processed {result.chunks_processed} of {chunks_expected} chunks"
        )
    if len(predictions) != chunks_expected:
        problems.append(
            f"answered {len(predictions)} of {chunks_expected} chunks"
        )
    if not all(np.all(np.isfinite(p)) for p in predictions):
        problems.append("non-finite prediction")
    if problems:
        return problems
    recomputed = recomputed_error(metric, predictions, labels)
    if not math.isclose(recomputed, result.final_error, rel_tol=1e-12):
        problems.append(
            f"final error {result.final_error!r} != recomputed {recomputed!r}"
        )
    expected = load_reference().get(reference_key(workload.name, scale, seed))
    if expected is not None:
        actual = output_digest(predictions, result)
        for field, value in expected.items():
            if actual[field] != value:
                problems.append(
                    f"{field} {actual[field]} != reference {value}"
                )
    return problems
