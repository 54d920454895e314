"""Dict-row reference implementation of the URL pipeline's sparse chain.

These are the per-value implementations the live components replaced:
``{index: value}`` dicts in an object column, parsed, imputed, scaled
and hashed one value at a time, with the statistics' scalar Welford
update. They are kept only as an oracle. The live columnar chain must
reproduce their output, statistics and cost charges bit for bit
(``tests/pipeline/test_sparse_chain_identity.py``,
``benchmarks/bench_sparse_chain.py``).

:class:`ReferenceChain` also replays the pipeline loop without the
stateless-head memo, so every chunk runs every component.
"""

from __future__ import annotations

import zlib
from typing import Dict, List, Optional

import numpy as np
import scipy.sparse as sp

from repro.data.table import Table
from repro.exceptions import PipelineError
from repro.execution.cost import CostTracker
from repro.pipeline.component import Batch, Features, PipelineComponent


class ReferenceMoments:
    """Per-index scalar Welford accumulator over dict rows."""

    def __init__(self) -> None:
        # index -> [count, mean, M2]
        self._stats: Dict[int, List[float]] = {}

    def update(self, rows) -> None:
        stats = self._stats
        for row in rows:
            for index, value in row.items():
                if value != value:
                    continue
                entry = stats.get(index)
                if entry is None:
                    stats[index] = [1.0, float(value), 0.0]
                    continue
                entry[0] += 1.0
                delta = value - entry[1]
                entry[1] += delta / entry[0]
                entry[2] += delta * (value - entry[1])

    def mean(self, index: int, default: float = 0.0) -> float:
        entry = self._stats.get(index)
        return entry[1] if entry is not None else default

    def std(self, index: int, default: float = 1.0) -> float:
        entry = self._stats.get(index)
        if entry is None or entry[0] < 1:
            return default
        variance = entry[2] / entry[0]
        if variance <= 0.0:
            return default
        return float(np.sqrt(variance))

    def indices(self) -> List[int]:
        return list(self._stats)

    def entries(self) -> Dict[int, tuple]:
        """``index -> (count, mean, m2)`` in insertion order."""
        return {index: tuple(entry) for index, entry in self._stats.items()}


class ReferenceParser(PipelineComponent):
    """svmlight lines → label column + object column of dicts."""

    is_stateful = False

    def __init__(self, name: str = "input_parser") -> None:
        super().__init__(name)

    def update(self, batch: Batch) -> None:
        """Stateless."""

    def transform(self, batch: Batch) -> Batch:
        lines = batch.column("line")
        labels = np.empty(len(lines), dtype=np.float64)
        features = np.empty(len(lines), dtype=object)
        for position, line in enumerate(lines):
            labels[position], features[position] = self._parse_line(
                str(line)
            )
        return (
            batch.without_columns(["line"])
            .with_column("label", labels)
            .with_column("features", features)
        )

    def _parse_line(self, line: str):
        parts = line.split()
        if not parts:
            raise PipelineError(f"{self.name}: empty input line")
        label = float(parts[0])
        row: Dict[int, float] = {}
        for token in parts[1:]:
            index_text, separator, value_text = token.partition(":")
            if not separator:
                raise PipelineError(f"{self.name}: bad token {token!r}")
            row[int(index_text)] = float(value_text)
        return label, row


class ReferenceImputer(PipelineComponent):
    def __init__(self, fill_value: float = 0.0, name: str = "imputer"):
        super().__init__(name)
        self.fill_value = float(fill_value)
        self.moments = ReferenceMoments()

    def update(self, batch: Batch) -> None:
        self.moments.update(batch.column("features"))

    def transform(self, batch: Batch) -> Batch:
        rows = batch.column("features")
        moments = self.moments
        fill = self.fill_value
        imputed = np.empty(len(rows), dtype=object)
        for position, row in enumerate(rows):
            if any(v != v for v in row.values()):
                imputed[position] = {
                    index: (
                        value
                        if value == value
                        else moments.mean(index, default=fill)
                    )
                    for index, value in row.items()
                }
            else:
                imputed[position] = row
        return batch.with_column("features", imputed)


class ReferenceScaler(PipelineComponent):
    def __init__(self, name: str = "scaler") -> None:
        super().__init__(name)
        self.moments = ReferenceMoments()

    def update(self, batch: Batch) -> None:
        self.moments.update(batch.column("features"))

    def transform(self, batch: Batch) -> Batch:
        rows = batch.column("features")
        moments = self.moments
        scaled = np.empty(len(rows), dtype=object)
        for position, row in enumerate(rows):
            scaled[position] = {
                index: value / moments.std(index, default=1.0)
                for index, value in row.items()
            }
        return batch.with_column("features", scaled)


def reference_hash_index(index: int, num_features: int):
    digest = zlib.crc32(b"%d" % index)
    bucket = digest % num_features
    sign = 1.0 if digest & 0x80000000 == 0 else -1.0
    return bucket, sign


class ReferenceHasher(PipelineComponent):
    is_stateful = False

    def __init__(
        self, num_features: int, signed: bool = True, name: str = "hasher"
    ) -> None:
        super().__init__(name)
        self.num_features = int(num_features)
        self.signed = signed

    def update(self, batch: Batch) -> None:
        """Stateless."""

    def transform(self, batch: Batch) -> Features:
        rows = batch.column("features")
        labels = np.asarray(batch.column("label"), dtype=np.float64)
        data: list = []
        indices: list = []
        indptr = np.zeros(len(rows) + 1, dtype=np.int64)
        width = self.num_features
        for position, row in enumerate(rows):
            bucket_values: dict = {}
            for index, value in row.items():
                bucket, sign = reference_hash_index(index, width)
                contribution = value * sign if self.signed else value
                bucket_values[bucket] = (
                    bucket_values.get(bucket, 0.0) + contribution
                )
            ordered = sorted(bucket_values.items())
            indices.extend(bucket for bucket, __ in ordered)
            data.extend(value for __, value in ordered)
            indptr[position + 1] = len(indices)
        matrix = sp.csr_matrix(
            (
                np.asarray(data, dtype=np.float64),
                np.asarray(indices, dtype=np.int64),
                indptr,
            ),
            shape=(len(rows), width),
        )
        return Features(matrix=matrix, labels=labels)


class ReferenceChain:
    """parse → impute → scale → hash over dict rows, no memo."""

    def __init__(
        self,
        num_features: int = 1024,
        signed: bool = True,
        fill_value: float = 0.0,
    ) -> None:
        self.imputer = ReferenceImputer(fill_value)
        self.scaler = ReferenceScaler()
        self.components = [
            ReferenceParser(),
            self.imputer,
            self.scaler,
            ReferenceHasher(num_features, signed),
        ]

    def update_transform(
        self, batch: Table, tracker: Optional[CostTracker] = None
    ) -> Features:
        current = batch
        for component in self.components:
            values = PipelineComponent.batch_num_values(current)
            if component.is_stateful:
                component.update(current)
                if tracker is not None:
                    tracker.charge_statistics(values, component.name)
            current = component.transform(current)
            if tracker is not None:
                tracker.charge_transform(values, component.name)
        return current

    def transform(
        self, batch: Table, tracker: Optional[CostTracker] = None
    ) -> Features:
        current = batch
        for component in self.components:
            values = PipelineComponent.batch_num_values(current)
            current = component.transform(current)
            if tracker is not None:
                tracker.charge_transform(values, component.name)
        return current
