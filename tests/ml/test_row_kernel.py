"""Bit-identity of the raw-array row step with the scipy-sliced step.

Point-at-a-time online SGD on a CSR chunk runs on the chunk's
``indptr``/``indices``/``data`` arrays
(:meth:`LocalExecutionEngine.online_update` with ``batch_rows=1``)
instead of one ``trainer.step`` per ``matrix[r:r + 1]`` slice. The two
must agree to the byte: weights, intercept, optimizer state, update
count, virtual cost, and the objective returned for the last row.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest
import scipy.sparse as sp

from repro.execution.engine import LocalExecutionEngine
from repro.ml import optim
from repro.ml.losses import HingeLoss, LogisticLoss, SquaredLoss
from repro.ml.models.base import LinearSGDModel
from repro.ml.regularizers import L1, L2
from repro.ml.sgd import SGDTrainer
from repro.pipeline.component import Features

NUM_FEATURES = 48

LOSSES = {
    "hinge": HingeLoss,
    "logistic": LogisticLoss,
    "squared": SquaredLoss,
}
REGULARIZERS = {
    "none": lambda: None,
    "l1": lambda: L1(0.01),
    "l2": lambda: L2(0.01),
}
#: Every concrete optimizer the package exports.
OPTIMIZERS = sorted(
    name
    for name in optim.__all__
    if isinstance(getattr(optim, name), type)
    and issubclass(getattr(optim, name), optim.Optimizer)
    and getattr(optim, name) is not optim.Optimizer
)


def make_chunks(seed, loss, num_chunks, rows=25, density=0.08):
    """CSR chunks with empty rows, negative values and 0-valued labels.

    A label of ``0.0`` makes the classification losses return a
    ``-0.0`` derivative, which the row kernel must turn into ``+0.0``
    exactly as the sliced path does.
    """
    rng = np.random.default_rng(seed)
    chunks = []
    for __ in range(num_chunks):
        matrix = sp.random(
            rows,
            NUM_FEATURES,
            density=density,
            format="csr",
            random_state=rng,
            data_rvs=lambda size: rng.normal(0.0, 2.0, size),
        )
        empty = rng.random(rows) < 0.15
        matrix = sp.csr_matrix(sp.diags((~empty).astype(float)) @ matrix)
        matrix.eliminate_zeros()
        if loss == "squared":
            labels = rng.normal(0.5, 1.5, rows)
        else:
            labels = rng.choice([-1.0, 1.0, 0.0], rows, p=[0.45, 0.45, 0.1])
        chunks.append(Features(matrix=matrix, labels=labels))
    return chunks


def make_trainer(loss, regularizer, fit_intercept, optimizer):
    model = LinearSGDModel(
        NUM_FEATURES,
        LOSSES[loss](),
        REGULARIZERS[regularizer](),
        fit_intercept=fit_intercept,
    )
    return SGDTrainer(model, getattr(optim, optimizer)())


def sliced_update(engine, trainer, features):
    """The reference: one ``train_step`` per one-row scipy slice."""
    objective = 0.0
    for row in range(features.num_rows):
        objective = engine.train_step(
            trainer,
            features.matrix[row:row + 1],
            features.labels[row:row + 1],
        )
    return objective


def state_bytes(engine, trainer):
    model, state = trainer.model, trainer.optimizer.state_dict()
    optimizer_state = {
        key: value.tobytes() if isinstance(value, np.ndarray) else value
        for key, value in state["state"].items()
    }
    return {
        "weights": model.weights.tobytes(),
        "intercept": np.float64(model.intercept).tobytes(),
        "updates": model.updates_applied,
        "optimizer_dim": state["dim"],
        "optimizer_state": optimizer_state,
        "total_cost": engine.tracker.total(),
        "breakdown": engine.tracker.breakdown(),
    }


def assert_bit_identical(
    loss, regularizer, fit_intercept, optimizer, num_chunks, seed
):
    chunks = make_chunks(seed, loss, num_chunks)
    reference_engine = LocalExecutionEngine()
    row_engine = LocalExecutionEngine()
    reference = make_trainer(loss, regularizer, fit_intercept, optimizer)
    rows = make_trainer(loss, regularizer, fit_intercept, optimizer)
    for features in chunks:
        expected = sliced_update(reference_engine, reference, features)
        actual = row_engine.online_update(rows, features, batch_rows=1)
        assert np.float64(actual).tobytes() == (
            np.float64(expected).tobytes()
        )
    assert state_bytes(row_engine, rows) == (
        state_bytes(reference_engine, reference)
    )
    steps = sum(f.num_rows for f in chunks)
    assert rows.model.updates_applied == steps
    return steps


@pytest.mark.parametrize("fit_intercept", [True, False])
@pytest.mark.parametrize("regularizer", sorted(REGULARIZERS))
@pytest.mark.parametrize("loss", sorted(LOSSES))
@pytest.mark.parametrize("optimizer", OPTIMIZERS)
def test_every_combination_is_bit_identical(
    optimizer, loss, regularizer, fit_intercept
):
    assert_bit_identical(
        loss, regularizer, fit_intercept, optimizer, num_chunks=3, seed=11
    )


def _covering_cases():
    """Long runs whose axes cover every pair of axis values.

    ``k = optimizer index + loss index`` picks the regularizer
    (``k % 3``) and the intercept (``k % 2``); over all 21
    optimizer/loss pairs every pair of values of any two axes occurs.
    """
    regularizers = sorted(REGULARIZERS)
    for (o, optimizer), (l, loss) in itertools.product(
        enumerate(OPTIMIZERS), enumerate(sorted(LOSSES))
    ):
        k = o + l
        yield optimizer, loss, regularizers[k % 3], k % 2 == 0


@pytest.mark.parametrize(
    "optimizer, loss, regularizer, fit_intercept", list(_covering_cases())
)
def test_long_runs_stay_bit_identical(
    optimizer, loss, regularizer, fit_intercept
):
    steps = assert_bit_identical(
        loss, regularizer, fit_intercept, optimizer, num_chunks=44, seed=5
    )
    assert steps >= 1000


def test_covering_cases_cover_every_pair():
    cases = list(_covering_cases())
    values = [sorted(set(axis)) for axis in zip(*cases)]
    assert values[0] == OPTIMIZERS and len(OPTIMIZERS) >= 7
    for a, b in itertools.combinations(range(4), 2):
        pairs = {(case[a], case[b]) for case in cases}
        assert len(pairs) == len(values[a]) * len(values[b])


def test_duplicate_indices_accumulate_in_csr_order():
    # Unsummed duplicates: both products must land in order, as the
    # scipy matvec kernels add them.
    matrix = sp.csr_matrix(
        (
            np.array([1.5, -0.25, 3.0, 0.125, 2.0]),
            np.array([4, 4, 7, 1, 1]),
            np.array([0, 3, 3, 5]),
        ),
        shape=(3, NUM_FEATURES),
    )
    assert not matrix.has_canonical_format
    features = Features(matrix=matrix, labels=np.array([1.0, -1.0, 1.0]))
    reference_engine = LocalExecutionEngine()
    row_engine = LocalExecutionEngine()
    reference = make_trainer("hinge", "l2", True, "Adam")
    rows = make_trainer("hinge", "l2", True, "Adam")
    for __ in range(50):
        sliced_update(reference_engine, reference, features)
        row_engine.online_update(rows, features, batch_rows=1)
    assert state_bytes(row_engine, rows) == (
        state_bytes(reference_engine, reference)
    )


def test_row_gradient_matches_gradient_on_the_one_row_matrix():
    features = make_chunks(3, "logistic", 1)[0]
    model = LinearSGDModel(NUM_FEATURES, LogisticLoss(), L1(0.05))
    model.weights = np.random.default_rng(0).normal(size=NUM_FEATURES)
    model.intercept = -0.3
    matrix = features.matrix
    for row in range(features.num_rows):
        start, stop = matrix.indptr[row], matrix.indptr[row + 1]
        grad, objective = model.row_gradient(
            matrix.data[start:stop],
            matrix.indices[start:stop],
            features.labels[row],
            with_objective=True,
        )
        expected, expected_objective = model.gradient(
            matrix[row:row + 1], features.labels[row:row + 1]
        )
        assert grad.tobytes() == expected.tobytes()
        assert objective == expected_objective
        assert model.row_gradient(
            matrix.data[start:stop],
            matrix.indices[start:stop],
            features.labels[row],
        )[1] is None


def test_dense_and_wider_slices_keep_the_sliced_path(monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("row kernel used")

    monkeypatch.setattr(SGDTrainer, "step_row", fail)
    sparse = make_chunks(2, "squared", 1)[0]
    dense = Features(matrix=sparse.matrix.toarray(), labels=sparse.labels)
    engine = LocalExecutionEngine()
    trainer = make_trainer("squared", "l2", True, "Adam")
    engine.online_update(trainer, dense, batch_rows=1)
    engine.online_update(trainer, sparse, batch_rows=2)
    assert trainer.model.updates_applied == (
        dense.num_rows + -(-sparse.num_rows // 2)
    )
