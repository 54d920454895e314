"""Local execution engine.

The paper's architecture (§4.5) delegates "the actual data
transformation and model training" to an execution engine (Spark in
the prototype). :class:`LocalExecutionEngine` plays that role here:
every pipeline transform, statistics update, gradient step, and
prediction flows through it so that cost-model charges and wall-clock
timers are applied uniformly, whichever deployment approach is
running.

When a :class:`~repro.obs.telemetry.Telemetry` bundle is attached,
every operation additionally becomes a traced span carrying the
values-scanned count; the disabled default costs a single attribute
check per call (``self._obs is None``), guarded by
``benchmarks/bench_obs_overhead.py``.
"""

from __future__ import annotations

from typing import Optional

import numpy as np
import scipy.sparse as sp

from repro.exceptions import PipelineError
from repro.execution.cost import CostModel, CostTracker
from repro.ml.models.base import LinearSGDModel, Matrix
from repro.ml.sgd import SGDTrainer, TrainingResult
from repro.obs import names
from repro.obs.telemetry import NULL_TELEMETRY, Telemetry
from repro.pipeline.component import Batch, Features, PipelineComponent
from repro.pipeline.pipeline import Pipeline
from repro.utils.rng import SeedLike
from repro.utils.timer import Timer


def _matrix_values(features: Matrix) -> int:
    """Value count of a feature matrix (nnz for sparse, size dense)."""
    if sp.issparse(features):
        return int(features.nnz)
    return int(np.asarray(features).size)


class LocalExecutionEngine:
    """Runs pipeline and training work with uniform cost accounting.

    Parameters
    ----------
    cost_model:
        Prices for the deterministic cost tracker; defaults apply.
    telemetry:
        Optional observability bundle; when enabled, the engine binds
        the run's virtual clock to it and emits one span per
        executed operation.
    """

    def __init__(
        self,
        cost_model: Optional[CostModel] = None,
        telemetry: Optional[Telemetry] = None,
    ) -> None:
        self.tracker = CostTracker(cost_model)
        self.wall = Timer()
        self.telemetry = (
            telemetry if telemetry is not None else NULL_TELEMETRY
        )
        #: Fast-path guard: ``None`` when telemetry is disabled.
        self._obs = self.telemetry if self.telemetry.enabled else None
        if self._obs is not None:
            self._obs.bind_clock(self.total_cost)

    # ------------------------------------------------------------------
    # Pipeline execution
    # ------------------------------------------------------------------
    def online_pass(self, pipeline: Pipeline, batch: Batch) -> Features:
        """Online path: update statistics then transform (training data)."""
        if self._obs is None:
            with self.wall:
                return pipeline.update_transform_to_features(
                    batch, self.tracker
                )
        with self._obs.tracer.span(
            names.ENGINE_ONLINE_PASS,
            values=PipelineComponent.batch_num_values(batch),
        ):
            with self.wall:
                return pipeline.update_transform_to_features(
                    batch, self.tracker
                )

    def transform_only(self, pipeline: Pipeline, batch: Batch) -> Features:
        """Serving / re-materialization path (no statistics writes)."""
        if self._obs is None:
            with self.wall:
                return pipeline.transform_to_features(batch, self.tracker)
        with self._obs.tracer.span(
            names.ENGINE_TRANSFORM_ONLY,
            values=PipelineComponent.batch_num_values(batch),
        ):
            with self.wall:
                return pipeline.transform_to_features(batch, self.tracker)

    def serve_transform(self, pipeline: Pipeline, batch: Batch) -> Batch:
        """Transform a prediction-query batch (may stop mid-pipeline
        for pipelines whose terminal stage needs labels)."""
        if self._obs is None:
            with self.wall:
                return pipeline.transform(batch, self.tracker)
        with self._obs.tracer.span(
            names.ENGINE_SERVE_TRANSFORM,
            values=PipelineComponent.batch_num_values(batch),
        ):
            with self.wall:
                return pipeline.transform(batch, self.tracker)

    # ------------------------------------------------------------------
    # Training execution
    # ------------------------------------------------------------------
    def train_step(
        self,
        trainer: SGDTrainer,
        features: Matrix,
        targets: np.ndarray,
    ) -> float:
        """One SGD iteration (online update or proactive training)."""
        if self._obs is None:
            with self.wall:
                return trainer.step(features, targets, self.tracker)
        with self._obs.tracer.span(
            names.ENGINE_TRAIN_STEP, values=_matrix_values(features)
        ):
            with self.wall:
                return trainer.step(features, targets, self.tracker)

    def train_row(
        self,
        trainer: SGDTrainer,
        data: np.ndarray,
        indices: np.ndarray,
        target: float,
        with_objective: bool = False,
    ) -> Optional[float]:
        """:meth:`train_step` on one CSR row given as its raw arrays.

        Same charge and, when traced, the same ``engine.train_step``
        span as a one-row :meth:`train_step`.
        """
        if self._obs is None:
            with self.wall:
                return trainer.step_row(
                    data, indices, target, self.tracker, with_objective
                )
        with self._obs.tracer.span(
            names.ENGINE_TRAIN_STEP, values=len(data)
        ):
            with self.wall:
                return trainer.step_row(
                    data, indices, target, self.tracker, with_objective
                )

    def online_update(
        self,
        trainer: SGDTrainer,
        features: Features,
        batch_rows: Optional[int] = None,
    ) -> float:
        """Online SGD on a freshly arrived chunk; returns the last objective.

        ``batch_rows=None`` takes one mini-batch step over the whole
        chunk. ``batch_rows=k`` consumes the chunk in consecutive
        slices of ``k`` rows, one SGD step each — ``k=1`` is classic
        point-at-a-time online gradient descent, the noisy baseline
        the paper's online deployment uses ("visits every incoming
        training data point only once").

        A CSR chunk with ``k=1`` steps on its raw row arrays
        (:meth:`train_row`) instead of slicing a one-row matrix per
        point; the weights, optimizer state, charges and spans are
        bit-identical. Dense chunks and ``k>1`` slices take
        :meth:`train_step`.
        """
        matrix, labels = features.matrix, features.labels
        rows = features.num_rows
        if batch_rows is None or batch_rows >= rows:
            return self.train_step(trainer, matrix, labels)
        if batch_rows < 1:
            raise PipelineError(
                f"batch_rows must be >= 1, got {batch_rows}"
            )
        if batch_rows == 1 and sp.issparse(matrix) and matrix.format == "csr":
            return self._train_rows(trainer, matrix, labels)
        objective = 0.0
        for start in range(0, rows, batch_rows):
            stop = start + batch_rows
            objective = self.train_step(
                trainer, matrix[start:stop], labels[start:stop]
            )
        return objective

    def _train_rows(
        self, trainer: SGDTrainer, matrix: sp.csr_matrix, labels
    ) -> float:
        trainer.model.check_features(matrix)
        targets = np.asarray(labels, dtype=np.float64).tolist()
        bounds = matrix.indptr.tolist()
        data, indices = matrix.data, matrix.indices
        last = len(targets) - 1
        objective = 0.0
        for row, target in enumerate(targets):
            start, stop = bounds[row], bounds[row + 1]
            objective = self.train_row(
                trainer,
                data[start:stop],
                indices[start:stop],
                target,
                with_objective=row == last,
            )
        return objective

    def train_full(
        self,
        trainer: SGDTrainer,
        features: Matrix,
        targets: np.ndarray,
        batch_size: Optional[int] = None,
        max_iterations: int = 100,
        tolerance: float = 1e-4,
        seed: SeedLike = None,
    ) -> TrainingResult:
        """A complete (re)training run — the periodical baseline."""
        if self._obs is None:
            with self.wall:
                return trainer.train(
                    features,
                    targets,
                    batch_size=batch_size,
                    max_iterations=max_iterations,
                    tolerance=tolerance,
                    seed=seed,
                    tracker=self.tracker,
                )
        with self._obs.tracer.span(
            names.ENGINE_TRAIN_FULL, values=_matrix_values(features)
        ) as span:
            with self.wall:
                result = trainer.train(
                    features,
                    targets,
                    batch_size=batch_size,
                    max_iterations=max_iterations,
                    tolerance=tolerance,
                    seed=seed,
                    tracker=self.tracker,
                )
            span.set(
                iterations=result.iterations, converged=result.converged
            )
            return result

    # ------------------------------------------------------------------
    # Prediction
    # ------------------------------------------------------------------
    def predict(
        self, model: LinearSGDModel, features: Matrix
    ) -> np.ndarray:
        """Score a batch, charging prediction cost.

        The charge happens inside the timed block, like every other
        engine operation, so wall-clock and cost accounting stay
        aligned (see ``tests/execution/test_engine.py``).
        """
        values = _matrix_values(features)
        if self._obs is None:
            with self.wall:
                predictions = model.predict(features)
                self.tracker.charge_prediction(values, "predict")
            return predictions
        with self._obs.tracer.span(names.ENGINE_PREDICT, values=values):
            with self.wall:
                predictions = model.predict(features)
                self.tracker.charge_prediction(values, "predict")
        return predictions

    def predict_batch(self, model, matrices) -> "list[np.ndarray]":
        """Score many feature blocks with one vectorized kernel.

        The micro-batched serving path: a single ``model.predict``
        over the stacked blocks, one prediction charge for the total
        value count, and per-block results that are bit-identical to
        per-block :meth:`predict` calls (row-independent kernels; see
        :mod:`repro.ml.batch`).
        """
        from repro.ml.batch import predict_batch

        values = sum(_matrix_values(m) for m in matrices)
        if self._obs is None:
            with self.wall:
                predictions = predict_batch(model, matrices)
                self.tracker.charge_prediction(values, "predict")
            return predictions
        with self._obs.tracer.span(
            names.ENGINE_PREDICT, values=values, blocks=len(matrices)
        ):
            with self.wall:
                predictions = predict_batch(model, matrices)
                self.tracker.charge_prediction(values, "predict")
        return predictions

    # ------------------------------------------------------------------
    # Simulated storage I/O
    # ------------------------------------------------------------------
    def read_chunk(self, values: int, label: str) -> None:
        """Charge a simulated disk read of one chunk of ``values``."""
        self.tracker.charge_disk_read(values, chunks=1, label=label)
        if self._obs is not None:
            self._obs.tracer.point(
                names.ENGINE_READ_CHUNK, values=values, label=label
            )

    def total_cost(self) -> float:
        """Virtual-clock total in cost units."""
        return self.tracker.total()

    def reset(self) -> None:
        """Zero both accounting clocks (cost tracker and wall timer).

        Lets a caller reuse one engine across runs without carrying
        charges over — the counterpart of :meth:`CostTracker.reset`
        that previously left the wall clock running its old total.
        """
        self.tracker.reset()
        self.wall.reset()

    def __repr__(self) -> str:
        return (
            f"LocalExecutionEngine(cost={self.total_cost():.4f}, "
            f"wall={self.wall.elapsed:.3f}s)"
        )
