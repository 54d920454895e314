"""End to end, the raw-array row step changes nothing observable.

The url-test continuous and online deployments update point at a time
(``online_batch_rows=1``) on sparse chunks, so they take the row
kernel. Each run is repeated with the kernel swapped for the scipy
one-row slices it replaces; the prediction stream, the virtual cost,
and the traced span sequence (names, attributes, virtual times) must
be identical, and the prediction digest must equal the one recorded
before the kernel existed.
"""

import hashlib

import numpy as np
import pytest

from repro.execution.engine import LocalExecutionEngine
from repro.experiments.common import make_deployment, url_scenario
from repro.ml.sgd import SGDTrainer
from repro.obs import Telemetry

pytestmark = pytest.mark.filterwarnings(
    "ignore::repro.exceptions.ConvergenceWarning"
)

#: SHA-256 of the url-test (seed 7) prediction stream, recorded with
#: one ``train_step`` per scipy row slice.
GOLDEN = {
    "continuous": (
        "175b68e394566598896273d3f0b7510dad55d01a7007c8d12f695213aabe575c"
    ),
    "online": (
        "b0ec7167c82733700dc68172873030f47afed4508c6d323445dc850b25c6bbcc"
    ),
}


def sliced_rows(self, trainer, matrix, labels):
    objective = 0.0
    for row in range(matrix.shape[0]):
        objective = self.train_step(
            trainer, matrix[row:row + 1], labels[row:row + 1]
        )
    return objective


def run(approach):
    scenario = url_scenario("test", seed=7)
    assert scenario.online_batch_rows == 1
    telemetry = Telemetry()
    deployment = make_deployment(scenario, approach, telemetry=telemetry)
    deployment.initial_fit(
        scenario.make_initial_data(),
        seed=scenario.seed,
        **scenario.initial_fit_kwargs,
    )
    predictions = []
    predict = deployment._predict

    def recording(table):
        answered, labels = predict(table)
        predictions.append(np.array(answered, dtype=np.float64))
        return answered, labels

    deployment._predict = recording
    result = deployment.run(scenario.make_stream())
    digest = hashlib.sha256(
        b"".join(p.tobytes() for p in predictions)
    ).hexdigest()
    spans = [
        (e["kind"], e["name"], e["attrs"], e["t"], e.get("dur"))
        for e in telemetry.events
        if e["kind"] in ("span", "point")
    ]
    return digest, result.total_cost, spans


@pytest.mark.parametrize("approach", sorted(GOLDEN))
def test_row_kernel_run_matches_sliced_run(approach, monkeypatch):
    steps = []
    step_row = SGDTrainer.step_row

    def counting(self, *args, **kwargs):
        steps.append(1)
        return step_row(self, *args, **kwargs)

    monkeypatch.setattr(SGDTrainer, "step_row", counting)
    digest, cost, spans = run(approach)
    assert steps, "the row kernel did not run"
    monkeypatch.setattr(LocalExecutionEngine, "_train_rows", sliced_rows)
    steps.clear()
    reference = run(approach)
    assert not steps
    assert digest == reference[0] == GOLDEN[approach]
    assert cost == reference[1]
    train_steps = [s for s in spans if s[1] == "engine.train_step"]
    assert len(train_steps) > 500
    assert spans == reference[2]
