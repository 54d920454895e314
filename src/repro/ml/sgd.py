"""Mini-batch SGD training loop (Algorithm 1 of the paper).

:class:`SGDTrainer` binds a model to an optimizer and provides two
entry points:

* :meth:`SGDTrainer.step` — **one** iteration of mini-batch SGD on a
  given batch. This is exactly what proactive training executes per
  trigger (§3.3): sample → gradient → optimizer update.
* :meth:`SGDTrainer.train` — a full training run: repeated iterations
  with random mini-batches until convergence or an iteration cap.
  Used for initial training and for the periodical baseline's
  retraining.

Because the optimizer owns all cross-iteration state, iterations are
conditionally independent given (model parameters, optimizer state) —
the property §3.3 uses to justify running them at arbitrary times.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List, Optional

import numpy as np
import scipy.sparse as sp

from repro.exceptions import ConvergenceWarning, ValidationError
from repro.ml.models.base import LinearSGDModel, Matrix
from repro.ml.optim.base import Optimizer
from repro.utils.rng import SeedLike, ensure_rng

if TYPE_CHECKING:  # pragma: no cover - typing-only import
    from repro.execution.cost import CostTracker


@dataclass
class TrainingResult:
    """Outcome of a :meth:`SGDTrainer.train` run."""

    iterations: int
    converged: bool
    final_objective: float
    objective_history: List[float] = field(default_factory=list)


class SGDTrainer:
    """Mini-batch SGD driver for a :class:`LinearSGDModel`.

    Parameters
    ----------
    model:
        The model to train (updated in place).
    optimizer:
        Update rule; its state persists across calls, enabling warm
        starting and proactive training.
    """

    def __init__(self, model: LinearSGDModel, optimizer: Optimizer) -> None:
        self.model = model
        self.optimizer = optimizer

    # ------------------------------------------------------------------
    def step(
        self,
        features: Matrix,
        targets: np.ndarray,
        tracker: Optional["CostTracker"] = None,
    ) -> float:
        """One SGD iteration on the given batch; returns the objective.

        The batch *is* the mini-batch — sampling happens upstream (the
        data manager for proactive training, the chunk itself for the
        online update).
        """
        grad, objective = self.model.gradient(features, targets)
        self._apply(grad, _batch_values(features), tracker)
        return objective

    def step_row(
        self,
        data: np.ndarray,
        indices: np.ndarray,
        target: float,
        tracker: Optional["CostTracker"] = None,
        with_objective: bool = False,
    ) -> Optional[float]:
        """:meth:`step` on one CSR row given as its raw arrays.

        Bit-identical to :meth:`step` on the one-row matrix (see
        :meth:`LinearSGDModel.row_gradient`), with the same optimizer
        update and training charge. Returns the objective only
        ``with_objective``, else ``None``.
        """
        grad, objective = self.model.row_gradient(
            data, indices, target, with_objective
        )
        self._apply(grad, len(data), tracker)
        return objective

    def _apply(
        self,
        grad: np.ndarray,
        values: int,
        tracker: Optional["CostTracker"],
    ) -> None:
        new_params = self.optimizer.step(self.model.params_vector(), grad)
        self.model.set_params_vector(new_params)
        self.model.updates_applied += 1
        if tracker is not None:
            tracker.charge_training(values, "sgd_step")

    def train(
        self,
        features: Matrix,
        targets: np.ndarray,
        batch_size: Optional[int] = None,
        max_iterations: int = 100,
        tolerance: float = 1e-4,
        seed: SeedLike = None,
        tracker: Optional["CostTracker"] = None,
    ) -> TrainingResult:
        """Run mini-batch SGD until convergence or ``max_iterations``.

        Parameters
        ----------
        batch_size:
            Mini-batch size; ``None`` uses the full batch each
            iteration (batch gradient descent, the paper's initial-
            training setting of sampling ratio 1.0).
        tolerance:
            Converged when the parameter-vector change (L2 norm,
            relative to ``1 + ‖params‖``) falls below this.
        """
        targets = np.asarray(targets, dtype=np.float64)
        count = features.shape[0]
        if count != len(targets):
            raise ValidationError(
                f"features have {count} rows, targets {len(targets)}"
            )
        if count == 0:
            raise ValidationError("cannot train on an empty dataset")
        if batch_size is not None and batch_size < 1:
            raise ValidationError(
                f"batch_size must be >= 1, got {batch_size}"
            )
        if max_iterations < 1:
            raise ValidationError(
                f"max_iterations must be >= 1, got {max_iterations}"
            )
        rng = ensure_rng(seed)
        history: List[float] = []
        converged = False
        iterations = 0
        for iterations in range(1, max_iterations + 1):
            if batch_size is None or batch_size >= count:
                batch_x, batch_y = features, targets
            else:
                chosen = rng.choice(count, size=batch_size, replace=False)
                batch_x = features[chosen]
                batch_y = targets[chosen]
            before = self.model.params_vector()
            objective = self.step(batch_x, batch_y, tracker)
            history.append(objective)
            after = self.model.params_vector()
            change = float(np.linalg.norm(after - before))
            scale = 1.0 + float(np.linalg.norm(after))
            if change / scale < tolerance:
                converged = True
                break
        if not converged:
            warnings.warn(
                f"SGD stopped at max_iterations={max_iterations} without "
                f"converging (tolerance={tolerance})",
                ConvergenceWarning,
                stacklevel=2,
            )
        return TrainingResult(
            iterations=iterations,
            converged=converged,
            final_objective=history[-1],
            objective_history=history,
        )


def _batch_values(features: Matrix) -> int:
    if sp.issparse(features):
        return int(features.nnz)
    return int(np.asarray(features).size)
