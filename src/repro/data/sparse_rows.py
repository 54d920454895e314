"""Columnar sparse feature rows.

The URL pipeline's rows are sparse ``{index: value}`` maps of varying
length. :class:`SparseRows` keeps a whole column of them as one CSR
triplet — ``indptr`` (row boundaries), ``indices`` and ``values`` — so
the imputer, scaler and hasher run over flat numpy arrays instead of
one Python dict per row.

This module is the only place that knows the format. Components take
their input through :meth:`SparseRows.of`, which also accepts the
older object column of dicts, and callers that index a row get a dict
back, so both shapes keep working through one code path.
"""

from __future__ import annotations

from itertools import chain
from typing import Dict, Iterable, Iterator, Sequence

import numpy as np


class SparseRows:
    """A column of sparse rows in CSR form.

    Row ``i`` holds the pairs ``indices[k], values[k]`` for
    ``indptr[i] <= k < indptr[i + 1]``, in the order they were given
    (a parsed line's first-seen order). Like every :class:`Table`
    column the arrays are never copied and must not be mutated.

    Parameters
    ----------
    indptr:
        ``int64`` row boundaries, length ``rows + 1``, starting at 0.
    indices:
        ``int64`` feature index per stored value.
    values:
        ``float64`` stored values (``NaN`` marks a missing value).
    """

    __slots__ = ("indptr", "indices", "values")

    def __init__(
        self, indptr: np.ndarray, indices: np.ndarray, values: np.ndarray
    ) -> None:
        self.indptr = indptr
        self.indices = indices
        self.values = values

    @classmethod
    def of(cls, column: Iterable[Dict[int, float]]) -> "SparseRows":
        """``column`` as :class:`SparseRows`; a no-op when it already is.

        Any other iterable is read as one ``{index: value}`` dict per
        row, keeping each dict's own order.
        """
        if isinstance(column, SparseRows):
            return column
        rows = list(column)
        indptr = np.zeros(len(rows) + 1, dtype=np.int64)
        np.cumsum(
            np.fromiter(map(len, rows), dtype=np.int64, count=len(rows)),
            out=indptr[1:],
        )
        total = int(indptr[-1])
        indices = np.fromiter(
            chain.from_iterable(rows), dtype=np.int64, count=total
        )
        values = np.fromiter(
            chain.from_iterable(row.values() for row in rows),
            dtype=np.float64,
            count=total,
        )
        return cls(indptr, indices, values)

    # ------------------------------------------------------------------
    @property
    def nnz(self) -> int:
        """Number of stored values."""
        return len(self.indices)

    @property
    def nbytes(self) -> int:
        """Bytes held by the three arrays."""
        return self.indptr.nbytes + self.indices.nbytes + self.values.nbytes

    def __len__(self) -> int:
        return len(self.indptr) - 1

    def _row(self, position: int) -> Dict[int, float]:
        """Row ``position`` as a fresh ``{index: value}`` dict."""
        start, end = self.indptr[position], self.indptr[position + 1]
        return dict(
            zip(
                self.indices[start:end].tolist(),
                self.values[start:end].tolist(),
            )
        )

    def __getitem__(self, key):
        """An int gives one row as a dict; a slice, boolean mask or
        index array gives the selected rows as :class:`SparseRows`."""
        if isinstance(key, (int, np.integer)):
            position = int(key)
            if position < 0:
                position += len(self)
            if not 0 <= position < len(self):
                raise IndexError(
                    f"row {key} out of range for {len(self)} rows"
                )
            return self._row(position)
        if isinstance(key, slice) and key.step in (None, 1):
            start, stop, __ = key.indices(len(self))
            stop = max(start, stop)
            low, high = self.indptr[start], self.indptr[stop]
            return SparseRows(
                self.indptr[start:stop + 1] - low,
                self.indices[low:high],
                self.values[low:high],
            )
        return self._gather(np.arange(len(self))[key])

    def _gather(self, positions: np.ndarray) -> "SparseRows":
        """The rows at non-negative ``positions``, in that order."""
        starts = self.indptr[positions]
        counts = self.indptr[positions + 1] - starts
        indptr = np.zeros(len(positions) + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        gather = np.repeat(starts - indptr[:-1], counts) + np.arange(
            indptr[-1], dtype=np.int64
        )
        return SparseRows(indptr, self.indices[gather], self.values[gather])

    @staticmethod
    def concat(parts: Sequence["SparseRows"]) -> "SparseRows":
        """Stack row sets end to end."""
        offsets = np.cumsum([0] + [part.nnz for part in parts[:-1]])
        indptr = np.concatenate(
            [np.zeros(1, dtype=np.int64)]
            + [
                part.indptr[1:] + offset
                for part, offset in zip(parts, offsets)
            ]
        )
        return SparseRows(
            indptr,
            np.concatenate(
                [np.empty(0, dtype=np.int64)] + [p.indices for p in parts]
            ),
            np.concatenate(
                [np.empty(0, dtype=np.float64)] + [p.values for p in parts]
            ),
        )

    def __iter__(self) -> Iterator[Dict[int, float]]:
        for position in range(len(self)):
            yield self._row(position)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SparseRows):
            return NotImplemented
        return (
            np.array_equal(self.indptr, other.indptr)
            and np.array_equal(self.indices, other.indices)
            and np.array_equal(self.values, other.values)
        )

    def __repr__(self) -> str:
        return f"SparseRows({len(self)} rows, {self.nnz} values)"
