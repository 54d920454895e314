"""Pipeline manager (§4.3) — the platform's central component.

Owns the deployed pipeline and model and mediates every data movement:

* training chunks take the *online* path (``update`` then
  ``transform`` per component — online statistics computation) and the
  resulting feature chunks go to the data manager for storage;
* prediction queries take the *transform-only* path through the very
  same components, then the model scores them (train/serve
  consistency);
* proactive training asks the data manager for a sample, supplying the
  re-materialization callback for evicted chunks;
* periodical retraining replays the stored raw history through the
  pipeline and runs a full SGD training, warm-started or cold.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.data.chunk import FeatureChunk, RawChunk
from repro.data.manager import DataManager, SampledChunk, SampleRequest
from repro.data.table import Table
from repro.execution.engine import LocalExecutionEngine
from repro.exceptions import PipelineError
from repro.ml.models.base import LinearSGDModel
from repro.ml.optim.base import Optimizer
from repro.ml.sgd import SGDTrainer, TrainingResult
from repro.pipeline.component import Features, union_features
from repro.pipeline.pipeline import Pipeline


class PipelineManager:
    """Wires pipeline, model, optimizer, data manager, and engine.

    Parameters
    ----------
    pipeline:
        The deployed preprocessing pipeline.
    model:
        The deployed model (updated in place).
    optimizer:
        SGD update rule; shared by online updates, proactive training,
        and retraining so its state is one continuous stream.
    data_manager:
        Chunk storage and sampling front-end.
    engine:
        Execution engine (cost accounting + wall clock).
    """

    def __init__(
        self,
        pipeline: Pipeline,
        model: LinearSGDModel,
        optimizer: Optimizer,
        data_manager: DataManager,
        engine: LocalExecutionEngine,
    ) -> None:
        self.pipeline = pipeline
        self.model = model
        self.optimizer = optimizer
        self.data_manager = data_manager
        self.engine = engine
        self.trainer = SGDTrainer(model, optimizer)

    def replace_artifacts(
        self,
        pipeline: Pipeline,
        model: LinearSGDModel,
        optimizer: Optimizer,
    ) -> None:
        """Swap in a different (pipeline, model, optimizer) triple.

        Used by crash recovery (installing checkpointed artifacts) and
        rollbacks. The trainer is rebuilt so it references the new
        model/optimizer pair; anything else holding a reference to the
        manager keeps working unchanged.
        """
        self.pipeline = pipeline
        self.model = model
        self.optimizer = optimizer
        self.trainer = SGDTrainer(model, optimizer)

    # ------------------------------------------------------------------
    # Initial training (pre-deployment)
    # ------------------------------------------------------------------
    def initial_fit(
        self,
        tables: List[Table],
        batch_size: Optional[int] = None,
        max_iterations: int = 200,
        tolerance: float = 1e-4,
        seed=None,
        store: bool = False,
    ) -> TrainingResult:
        """Fit pipeline statistics and train the initial model.

        Every table takes the online path (fitting statistics), the
        features are unioned, and a full SGD run trains the model —
        the paper's batch-gradient initial training. With ``store``
        the chunks also enter the data manager (so deployment starts
        with the initial data as history, as in the paper).
        """
        if not tables:
            raise PipelineError("initial_fit needs at least one table")
        parts: List[Features] = []
        for table in tables:
            if store:
                raw = self.data_manager.ingest(table)
                features = self.engine.online_pass(self.pipeline, table)
                self._store_features(raw, features)
            else:
                features = self.engine.online_pass(self.pipeline, table)
            parts.append(features)
        batch = union_features(parts)
        return self.engine.train_full(
            self.trainer,
            batch.matrix,
            batch.labels,
            batch_size=batch_size,
            max_iterations=max_iterations,
            tolerance=tolerance,
            seed=seed,
        )

    # ------------------------------------------------------------------
    # Deployment-time training data
    # ------------------------------------------------------------------
    def process_training_chunk(
        self,
        table: Table,
        online_statistics: bool = True,
        store: bool = True,
    ) -> Tuple[RawChunk, Features]:
        """Ingest one raw training chunk and preprocess it.

        With ``online_statistics`` the chunk takes the online path and
        the statistics of every stateful component advance; without it
        (the NoOptimization ablation) only the transform runs. With
        ``store`` the resulting feature chunk is materialized in the
        data manager.
        """
        raw = self.data_manager.ingest(table)
        if online_statistics:
            features = self.engine.online_pass(self.pipeline, table)
        else:
            features = self.engine.transform_only(self.pipeline, table)
        if store:
            self._store_features(raw, features)
        return raw, features

    def _store_features(self, raw: RawChunk, features: Features) -> None:
        chunk = FeatureChunk(
            timestamp=raw.timestamp,
            raw_reference=raw.timestamp,
            features=features.matrix,
            labels=features.labels,
        )
        self.data_manager.store_features(chunk)

    # ------------------------------------------------------------------
    # Online model update
    # ------------------------------------------------------------------
    def online_step(
        self, features: Features, batch_rows: Optional[int] = None
    ) -> float:
        """Online SGD on a freshly arrived chunk; returns the last objective.

        ``batch_rows`` as in :meth:`LocalExecutionEngine.online_update`
        (``None`` = one step on the whole chunk, ``1`` = point at a
        time).
        """
        return self.engine.online_update(self.trainer, features, batch_rows)

    # ------------------------------------------------------------------
    # Prediction serving
    # ------------------------------------------------------------------
    def answer_queries(
        self, table: Table
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Serve a batch of prediction queries.

        Returns ``(predictions, true_labels)`` for the surviving rows
        (row filters may drop anomalies), enabling prequential
        evaluation by the caller.
        """
        features = self.engine.transform_only(self.pipeline, table)
        predictions = self.engine.predict(self.model, features.matrix)
        return predictions, np.asarray(features.labels)

    # ------------------------------------------------------------------
    # Proactive training support
    # ------------------------------------------------------------------
    def sample_for_training(
        self,
        sample_size: int,
        recompute_statistics: bool = False,
    ) -> List[SampledChunk]:
        """Draw a proactive-training sample, re-materializing as needed.

        Re-materialization reads the raw chunk from (simulated) disk
        and re-runs the pipeline transform. With
        ``recompute_statistics`` (the NoOptimization ablation) a
        statistics scan per stateful component is charged as well,
        modelling the paper's "recomputes the required statistics of
        every component by scanning the data".
        """

        def materialize(raw: RawChunk) -> FeatureChunk:
            self.engine.read_chunk(raw.table.num_values, "rematerialize")
            if recompute_statistics:
                for component in self.pipeline.stateful_components:
                    self.engine.tracker.charge_statistics(
                        raw.table.num_values,
                        f"recompute:{component.name}",
                    )
            features = self.engine.transform_only(self.pipeline, raw.table)
            return FeatureChunk(
                timestamp=raw.timestamp,
                raw_reference=raw.timestamp,
                features=features.matrix,
                labels=features.labels,
            )

        return self.data_manager.sample(
            SampleRequest(size=sample_size), materialize
        )

    # ------------------------------------------------------------------
    # Periodical retraining (baseline)
    # ------------------------------------------------------------------
    def full_retrain(
        self,
        batch_size: Optional[int] = None,
        max_iterations: int = 200,
        tolerance: float = 1e-4,
        warm_start: bool = True,
        seed=None,
    ) -> TrainingResult:
        """Retrain on the entire stored raw history (§5.2 baseline).

        Every stored raw chunk is read back from (simulated) disk and
        re-transformed — the repeated preprocessing that dominates the
        periodical approach's cost. With ``warm_start`` the current
        pipeline statistics, model weights, and optimizer state carry
        over (TFX-style); without it everything resets and statistics
        are recomputed from scratch over the history.
        """
        timestamps = self.data_manager.storage.raw_timestamps
        if not timestamps:
            raise PipelineError("no stored history to retrain on")
        if not warm_start:
            self.pipeline.reset()
            self.model.reset()
            self.optimizer.reset()
        parts: List[Features] = []
        for timestamp in timestamps:
            raw = self.data_manager.storage.get_raw(timestamp)
            self.engine.read_chunk(raw.table.num_values, "retrain_read")
            if warm_start:
                features = self.engine.transform_only(
                    self.pipeline, raw.table
                )
            else:
                features = self.engine.online_pass(
                    self.pipeline, raw.table
                )
            parts.append(features)
        batch = union_features(parts)
        return self.engine.train_full(
            self.trainer,
            batch.matrix,
            batch.labels,
            batch_size=batch_size,
            max_iterations=max_iterations,
            tolerance=tolerance,
            seed=seed,
        )

