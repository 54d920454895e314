"""Base class for SGD-trainable linear models.

A linear model keeps a weight vector and intercept and exposes the
``update``-style gradient interface the paper requires of deployed
models (§4.4: "the machine learning model component of the deployed
pipeline must implement an update method, which is responsible for
computing the gradient").

Parameters are also exposed as a single packed vector
(``[weights…, intercept]``) so an :class:`~repro.ml.optim.Optimizer`
can treat the model as one coordinate array — which is exactly what the
per-coordinate adaptation methods need.

Feature matrices may be dense ``ndarray`` or ``scipy.sparse`` CSR; all
the algebra below works for both.
"""

from __future__ import annotations

import copy
from typing import Dict, Optional, Tuple, Union

import numpy as np
import scipy.sparse as sp

from repro.exceptions import NotFittedError, ValidationError
from repro.ml.losses import Loss
from repro.ml.regularizers import NoRegularizer, Regularizer
from repro.utils.validation import check_positive_int

Matrix = Union[np.ndarray, sp.csr_matrix]


class LinearSGDModel:
    """A linear model ``z = X w + b`` trained by (mini-batch) SGD.

    Parameters
    ----------
    num_features:
        Dimensionality of the weight vector. Fixed at construction —
        the pipelines guarantee a stable feature width (hashing /
        assembly), matching the deployment setting.
    loss:
        The per-example loss driving the gradient.
    regularizer:
        Penalty on the weights (never the intercept).
    fit_intercept:
        Learn a bias term (default true).
    """

    #: Task flavour, set by subclasses ("regression" / "classification").
    task: str = "regression"

    def __init__(
        self,
        num_features: int,
        loss: Loss,
        regularizer: Optional[Regularizer] = None,
        fit_intercept: bool = True,
    ) -> None:
        self.num_features = check_positive_int(num_features, "num_features")
        self.loss = loss
        self.regularizer = (
            regularizer if regularizer is not None else NoRegularizer()
        )
        self.fit_intercept = fit_intercept
        self.weights = np.zeros(self.num_features, dtype=np.float64)
        self.intercept = 0.0
        #: Number of SGD updates applied so far.
        self.updates_applied = 0

    # ------------------------------------------------------------------
    # Inference
    # ------------------------------------------------------------------
    def decision_function(self, features: Matrix) -> np.ndarray:
        """Raw decision values ``X w + b``.

        The dense path reduces each row independently (elementwise
        product, then a per-row sum) instead of calling BLAS ``X @ w``:
        gemv kernels block over *rows*, so the low bits of a row's
        score would depend on how many rows share the call — breaking
        the serving guarantee that a micro-batched prediction is
        bit-identical to the same row served alone. The per-row
        reduction order depends only on ``num_features``.
        """
        self.check_features(features)
        if sp.issparse(features):
            scores = features.dot(self.weights)
            scores = np.asarray(scores).ravel()
        else:
            dense = np.asarray(features, dtype=np.float64)
            scores = np.add.reduce(dense * self.weights, axis=1)
        return scores + self.intercept

    def predict(self, features: Matrix) -> np.ndarray:
        """Task-specific predictions; subclasses refine."""
        return self.decision_function(features)

    # ------------------------------------------------------------------
    # Training interface
    # ------------------------------------------------------------------
    def gradient(
        self, features: Matrix, targets: np.ndarray
    ) -> tuple[np.ndarray, float]:
        """Mean-gradient of loss+penalty on a batch, packed, plus loss.

        Returns ``(grad, objective)`` where ``grad`` has length
        ``num_features + 1`` when an intercept is fitted (intercept
        slot last, zero otherwise excluded) — aligned with
        :meth:`params_vector`.
        """
        targets = np.asarray(targets, dtype=np.float64)
        decision = self.decision_function(features)
        dloss = self.loss.dvalue(decision, targets)
        count = len(targets)
        if sp.issparse(features):
            grad_w = np.asarray(features.T.dot(dloss)).ravel() / count
        else:
            grad_w = (
                np.asarray(features, dtype=np.float64).T @ dloss
            ) / count
        grad_w = grad_w + self.regularizer.gradient(self.weights)
        objective = self.loss.value(decision, targets) + (
            self.regularizer.penalty(self.weights)
        )
        if self.fit_intercept:
            grad_b = float(dloss.mean())
            return np.concatenate([grad_w, [grad_b]]), objective
        return grad_w, objective

    def row_gradient(
        self,
        data: np.ndarray,
        indices: np.ndarray,
        target: float,
        with_objective: bool = False,
    ) -> Tuple[np.ndarray, Optional[float]]:
        """:meth:`gradient` of one CSR row, straight from its raw arrays.

        ``data`` and ``indices`` are the row's slices of a CSR matrix's
        ``data``/``indices``. The result is bit-identical to
        :meth:`gradient` on the one-row ``csr_matrix``, without
        building it, its transpose, or a CSC copy, because every
        reduction repeats scipy's order:

        * the decision value is a sequential sum from ``0.0`` in CSR
          order, as ``csr_matvec`` computes ``X w``;
        * the weight gradient scatters ``value * dloss`` into a zeroed
          vector, as ``csc_matvec`` computes ``Xᵀ dloss``, and only
          then adds the regularizer gradient;
        * the intercept gradient is ``0.0 + dloss``: numpy's one-value
          mean (a ``-0.0`` becomes ``0.0``).

        The objective needs an O(``num_features``) penalty, so it is
        only computed ``with_objective``; otherwise it is ``None``.
        """
        weights = self.weights
        decision = 0.0
        for product in (data * weights[indices]).tolist():
            decision += product
        decisions = np.array([decision + self.intercept])
        targets = np.array([target], dtype=np.float64)
        dloss = self.loss.dvalue(decisions, targets)
        grad = np.zeros(self.num_params, dtype=np.float64)
        grad_w = grad[: self.num_features]
        np.add.at(grad_w, indices, data * dloss[0])
        grad_w += self.regularizer.gradient(weights)
        if self.fit_intercept:
            grad[-1] = 0.0 + dloss[0]
        objective = None
        if with_objective:
            objective = self.loss.value(decisions, targets) + (
                self.regularizer.penalty(weights)
            )
        return grad, objective

    def objective(self, features: Matrix, targets: np.ndarray) -> float:
        """Regularized loss on a batch (no gradient)."""
        targets = np.asarray(targets, dtype=np.float64)
        decision = self.decision_function(features)
        return self.loss.value(decision, targets) + (
            self.regularizer.penalty(self.weights)
        )

    # ------------------------------------------------------------------
    # Parameter packing (optimizer interface)
    # ------------------------------------------------------------------
    @property
    def num_params(self) -> int:
        return self.num_features + (1 if self.fit_intercept else 0)

    def params_vector(self) -> np.ndarray:
        """Packed parameters ``[w…, b?]`` (a copy)."""
        if self.fit_intercept:
            return np.concatenate([self.weights, [self.intercept]])
        return self.weights.copy()

    def set_params_vector(self, params: np.ndarray) -> None:
        """Install packed parameters produced by an optimizer step."""
        params = np.asarray(params, dtype=np.float64)
        if params.shape != (self.num_params,):
            raise ValidationError(
                f"expected {self.num_params} packed parameters, "
                f"got shape {params.shape}"
            )
        if self.fit_intercept:
            self.weights = params[:-1].copy()
            self.intercept = float(params[-1])
        else:
            self.weights = params.copy()

    # ------------------------------------------------------------------
    # Persistence / warm starting
    # ------------------------------------------------------------------
    def state_dict(self) -> Dict[str, object]:
        """Deep copy of the learned state (for warm starting)."""
        return {
            "weights": self.weights.copy(),
            "intercept": self.intercept,
            "updates_applied": self.updates_applied,
        }

    def load_state_dict(self, payload: Dict[str, object]) -> None:
        weights = np.asarray(payload["weights"], dtype=np.float64)
        if weights.shape != (self.num_features,):
            raise ValidationError(
                f"state has {weights.shape} weights, expected "
                f"({self.num_features},)"
            )
        self.weights = weights.copy()
        self.intercept = float(payload["intercept"])
        self.updates_applied = int(payload["updates_applied"])

    def clone(self) -> "LinearSGDModel":
        """Fresh, untrained copy with the same configuration."""
        duplicate = copy.deepcopy(self)
        duplicate.weights = np.zeros(self.num_features, dtype=np.float64)
        duplicate.intercept = 0.0
        duplicate.updates_applied = 0
        return duplicate

    def reset(self) -> None:
        """Zero the parameters in place."""
        self.weights = np.zeros(self.num_features, dtype=np.float64)
        self.intercept = 0.0
        self.updates_applied = 0

    # ------------------------------------------------------------------
    def check_features(self, features: Matrix) -> None:
        """Raise unless ``features`` is 2-D and ``num_features`` wide."""
        if features.ndim != 2:
            raise ValidationError(
                f"features must be 2-D, got shape {features.shape}"
            )
        if features.shape[1] != self.num_features:
            raise ValidationError(
                f"features have {features.shape[1]} columns, model "
                f"expects {self.num_features}"
            )

    def _require_trained(self) -> None:
        if self.updates_applied == 0:
            raise NotFittedError(
                f"{type(self).__name__} has never been updated"
            )

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(num_features={self.num_features}, "
            f"loss={self.loss.name}, reg={self.regularizer.name}, "
            f"updates={self.updates_applied})"
        )
