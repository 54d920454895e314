"""Feature hashing (the hashing trick).

Terminal component of the URL pipeline: maps sparse rows into a
fixed-width :class:`scipy.sparse.csr_matrix` by hashing each feature
index into one of ``num_features`` buckets. Signed hashing
(sign drawn from a hash bit) keeps collisions unbiased in expectation.

Hashing is stateless and deterministic — independent of
``PYTHONHASHSEED`` — via CRC-32, so a model trained before a restart
keeps meaning after it. §3.2.1 of the paper notes that hashing output
must be stored sparse to preserve the O(p) materialization bound; this
component emits CSR accordingly.
"""

from __future__ import annotations

import zlib
from typing import Tuple

import numpy as np
import scipy.sparse as sp

from repro.data.sparse_rows import SparseRows
from repro.data.table import Table
from repro.exceptions import PipelineError, ValidationError
from repro.pipeline.component import (
    Batch,
    ComponentKind,
    Features,
    StatelessComponent,
)


def hash_index(index: int, num_features: int) -> Tuple[int, float]:
    """Map a feature index to ``(bucket, sign)`` deterministically.

    The bucket comes from CRC-32 of the decimal index modulo
    ``num_features``; the sign from the hash's top bit. This is the
    scalar definition; :class:`FeatureHasher` applies it to a chunk's
    distinct indices at once.
    """
    digest = zlib.crc32(b"%d" % index)
    bucket = digest % num_features
    sign = 1.0 if digest & 0x80000000 == 0 else -1.0
    return bucket, sign


class FeatureHasher(StatelessComponent):
    """Hash sparse rows into a fixed-width CSR matrix + labels.

    Parameters
    ----------
    num_features:
        Output dimensionality (buckets). Powers of two are customary
        but not required.
    features_column, label_column:
        Input columns (as produced by the URL parser).
    signed:
        Use signed hashing (recommended); unsigned accumulates positive
        collision bias.
    """

    kind = ComponentKind.FEATURE_EXTRACTION

    def __init__(
        self,
        num_features: int,
        features_column: str = "features",
        label_column: str = "label",
        signed: bool = True,
        name: str | None = None,
    ) -> None:
        super().__init__(name)
        if num_features < 1:
            raise ValidationError(
                f"num_features must be >= 1, got {num_features}"
            )
        self.num_features = int(num_features)
        self.features_column = features_column
        self.label_column = label_column
        self.signed = signed

    def transform(self, batch: Batch) -> Features:
        if not isinstance(batch, Table):
            raise PipelineError(
                f"{self.name} expects a Table, got {type(batch).__name__}"
            )
        rows = SparseRows.of(batch.column(self.features_column))
        labels = np.asarray(
            batch.column(self.label_column), dtype=np.float64
        )
        width = self.num_features
        num_rows = len(rows)
        # Hash each distinct index once.
        distinct, inverse = np.unique(rows.indices, return_inverse=True)
        crc32 = zlib.crc32
        digests = np.array(
            [crc32(b"%d" % index) for index in distinct.tolist()],
            dtype=np.int64,
        )
        buckets = (digests % width)[inverse]
        contributions = rows.values
        if self.signed:
            signs = np.where(digests & 0x80000000, -1.0, 1.0)
            contributions = contributions * signs[inverse]
        # Colliding values of one row sum into one cell so the CSR stays
        # canonical. bincount adds each cell's contributions in input
        # order starting from 0.0, as a per-row dict accumulation does.
        row_of = np.repeat(
            np.arange(num_rows, dtype=np.int64), np.diff(rows.indptr)
        )
        cells, cell_of = np.unique(
            row_of * width + buckets, return_inverse=True
        )
        data = np.bincount(
            cell_of, weights=contributions, minlength=len(cells)
        ).astype(np.float64, copy=False)
        indptr = np.zeros(num_rows + 1, dtype=np.int64)
        np.cumsum(
            np.bincount(cells // width, minlength=num_rows),
            out=indptr[1:],
        )
        matrix = sp.csr_matrix(
            (data, cells % width, indptr),
            shape=(num_rows, width),
        )
        return Features(matrix=matrix, labels=labels)
