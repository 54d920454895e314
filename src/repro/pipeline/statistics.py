"""Incremental (online) statistics.

§3.1 of the paper restricts online statistics computation to statistics
that can be updated incrementally — mean, standard deviation, hash
tables — and this module provides exactly those primitives:

* :class:`RunningMoments` — per-coordinate mean/variance via a batched
  Welford / Chan et al. update, NaN-aware so the missing-value imputer
  can learn means from incomplete data.
* :class:`RunningMinMax` — per-coordinate extrema.
* :class:`CategoryTable` — an insertion-ordered incremental vocabulary
  (the "hash table" statistic backing one-hot encoding).

All three support ``merge`` so statistics computed on separate chunks
can be combined, mirroring distributed execution.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, List, Optional, Sequence

import numpy as np

from repro.data.sparse_rows import SparseRows
from repro.exceptions import NotFittedError, ValidationError


class RunningMoments:
    """Per-coordinate streaming mean and variance.

    Uses the numerically stable pairwise/batched form of Welford's
    algorithm (Chan, Golub & LeVeque): each :meth:`update` folds a whole
    batch into the running moments in O(batch) without catastrophic
    cancellation. ``NaN`` observations are skipped per coordinate, so
    every coordinate keeps its own observation count.

    Parameters
    ----------
    dim:
        Number of coordinates. ``None`` (default) infers it from the
        first batch.
    """

    def __init__(self, dim: Optional[int] = None) -> None:
        if dim is not None and dim < 1:
            raise ValidationError(f"dim must be >= 1, got {dim}")
        self._dim = dim
        self._count: Optional[np.ndarray] = None
        self._mean: Optional[np.ndarray] = None
        self._m2: Optional[np.ndarray] = None
        if dim is not None:
            self._allocate(dim)

    def _allocate(self, dim: int) -> None:
        self._dim = dim
        self._count = np.zeros(dim, dtype=np.float64)
        self._mean = np.zeros(dim, dtype=np.float64)
        self._m2 = np.zeros(dim, dtype=np.float64)

    # ------------------------------------------------------------------
    @property
    def dim(self) -> Optional[int]:
        return self._dim

    @property
    def count(self) -> np.ndarray:
        """Per-coordinate number of non-NaN observations."""
        self._require_seen()
        return self._count.copy()

    @property
    def total_count(self) -> int:
        """Largest per-coordinate count (rows seen, NaN or not aside)."""
        if self._count is None:
            return 0
        return int(self._count.max()) if self._count.size else 0

    def update(self, batch: np.ndarray) -> None:
        """Fold a batch of observations into the moments.

        ``batch`` is ``(n,)`` for one coordinate or ``(n, dim)``.
        """
        array = np.asarray(batch, dtype=np.float64)
        if array.ndim == 1:
            array = array[:, None]
        if array.ndim != 2:
            raise ValidationError(
                f"batch must be 1-D or 2-D, got shape {array.shape}"
            )
        if self._count is None:
            self._allocate(array.shape[1])
        elif array.shape[1] != self._dim:
            raise ValidationError(
                f"batch has {array.shape[1]} coordinates, "
                f"expected {self._dim}"
            )
        if array.shape[0] == 0:
            return
        valid = ~np.isnan(array)
        batch_count = valid.sum(axis=0).astype(np.float64)
        filled = np.where(valid, array, 0.0)
        safe_count = np.maximum(batch_count, 1.0)
        batch_mean = filled.sum(axis=0) / safe_count
        deviations = np.where(valid, array - batch_mean, 0.0)
        batch_m2 = np.sum(deviations * deviations, axis=0)
        self._merge_moments(batch_count, batch_mean, batch_m2)

    def _merge_moments(
        self,
        other_count: np.ndarray,
        other_mean: np.ndarray,
        other_m2: np.ndarray,
    ) -> None:
        new_count = self._count + other_count
        # Coordinates with no new observations keep their state; guard
        # the divisions with a safe denominator.
        safe_total = np.maximum(new_count, 1.0)
        delta = other_mean - self._mean
        self._mean = np.where(
            other_count > 0,
            self._mean + delta * (other_count / safe_total),
            self._mean,
        )
        self._m2 = np.where(
            other_count > 0,
            self._m2
            + other_m2
            + delta * delta * (self._count * other_count / safe_total),
            self._m2,
        )
        self._count = new_count

    def merge(self, other: "RunningMoments") -> None:
        """Fold another moments accumulator into this one."""
        if other._count is None:
            return
        if self._count is None:
            self._allocate(other._dim)
        if self._dim != other._dim:
            raise ValidationError(
                f"cannot merge moments of dim {other._dim} into "
                f"dim {self._dim}"
            )
        self._merge_moments(
            other._count.copy(), other._mean.copy(), other._m2.copy()
        )

    # ------------------------------------------------------------------
    def mean(self) -> np.ndarray:
        """Per-coordinate mean; 0 for coordinates never observed."""
        self._require_seen()
        return np.where(self._count > 0, self._mean, 0.0)

    def variance(self) -> np.ndarray:
        """Per-coordinate population variance (ddof=0)."""
        self._require_seen()
        safe = np.maximum(self._count, 1.0)
        return np.where(self._count > 0, self._m2 / safe, 0.0)

    def std(self) -> np.ndarray:
        """Per-coordinate population standard deviation."""
        return np.sqrt(self.variance())

    def _require_seen(self) -> None:
        if self._count is None:
            raise NotFittedError(
                "RunningMoments has not observed any data"
            )

    def __repr__(self) -> str:
        if self._count is None:
            return "RunningMoments(unseen)"
        return (
            f"RunningMoments(dim={self._dim}, "
            f"rows~{self.total_count})"
        )


class RunningMinMax:
    """Per-coordinate streaming minimum and maximum (NaN-aware)."""

    def __init__(self, dim: Optional[int] = None) -> None:
        if dim is not None and dim < 1:
            raise ValidationError(f"dim must be >= 1, got {dim}")
        self._dim = dim
        self._min: Optional[np.ndarray] = None
        self._max: Optional[np.ndarray] = None
        if dim is not None:
            self._allocate(dim)

    def _allocate(self, dim: int) -> None:
        self._dim = dim
        self._min = np.full(dim, np.inf)
        self._max = np.full(dim, -np.inf)

    @property
    def dim(self) -> Optional[int]:
        return self._dim

    def update(self, batch: np.ndarray) -> None:
        array = np.asarray(batch, dtype=np.float64)
        if array.ndim == 1:
            array = array[:, None]
        if array.ndim != 2:
            raise ValidationError(
                f"batch must be 1-D or 2-D, got shape {array.shape}"
            )
        if self._min is None:
            self._allocate(array.shape[1])
        elif array.shape[1] != self._dim:
            raise ValidationError(
                f"batch has {array.shape[1]} coordinates, "
                f"expected {self._dim}"
            )
        if array.shape[0] == 0:
            return
        with np.errstate(invalid="ignore"):
            self._min = np.fmin(self._min, np.nanmin(array, axis=0))
            self._max = np.fmax(self._max, np.nanmax(array, axis=0))

    def merge(self, other: "RunningMinMax") -> None:
        if other._min is None:
            return
        if self._min is None:
            self._allocate(other._dim)
        if self._dim != other._dim:
            raise ValidationError(
                f"cannot merge min-max of dim {other._dim} into "
                f"dim {self._dim}"
            )
        self._min = np.fmin(self._min, other._min)
        self._max = np.fmax(self._max, other._max)

    def minimum(self) -> np.ndarray:
        self._require_seen()
        return self._min.copy()

    def maximum(self) -> np.ndarray:
        self._require_seen()
        return self._max.copy()

    def span(self) -> np.ndarray:
        """``max - min`` per coordinate (0 where nothing was observed)."""
        self._require_seen()
        span = self._max - self._min
        return np.where(np.isfinite(span), span, 0.0)

    def _require_seen(self) -> None:
        if self._min is None:
            raise NotFittedError("RunningMinMax has not observed any data")


class SparseMoments:
    """Streaming mean/variance keyed by feature index.

    Backs the sparse (URL-style) imputer and scaler: the set of feature
    indices grows over time, so statistics are kept in a dictionary
    rather than a dense vector. Each index gets a scalar Welford
    accumulator, updated value by value in row-major order: a
    vectorized update would reorder the additions and move low bits.
    """

    __slots__ = ("_stats",)

    def __init__(self) -> None:
        # index -> [count, mean, M2]
        self._stats: Dict[int, List[float]] = {}

    def update(self, rows: Iterable[Dict[int, float]]) -> None:
        """Fold sparse rows (``SparseRows`` or dicts) into the moments.

        NaN values are skipped (they are what the imputer must fill).
        """
        rows = SparseRows.of(rows)
        stats = self._stats
        for index, value in zip(rows.indices.tolist(), rows.values.tolist()):
            if value != value:  # NaN check without np call per value
                continue
            entry = stats.get(index)
            if entry is None:
                stats[index] = [1.0, value, 0.0]
                continue
            entry[0] += 1.0
            delta = value - entry[1]
            entry[1] += delta / entry[0]
            entry[2] += delta * (value - entry[1])

    def merge(self, other: "SparseMoments") -> None:
        """Fold another accumulator into this one (Chan merge per key)."""
        for index, (o_count, o_mean, o_m2) in other._stats.items():
            entry = self._stats.get(index)
            if entry is None:
                self._stats[index] = [o_count, o_mean, o_m2]
                continue
            count, mean, m2 = entry
            total = count + o_count
            delta = o_mean - mean
            entry[0] = total
            entry[1] = mean + delta * o_count / total
            entry[2] = m2 + o_m2 + delta * delta * count * o_count / total

    def mean(self, index: int, default: float = 0.0) -> float:
        """Mean of feature ``index`` (``default`` if never observed)."""
        entry = self._stats.get(index)
        return entry[1] if entry is not None else default

    def std(self, index: int, default: float = 1.0) -> float:
        """Population std of ``index`` (``default`` if unseen or zero)."""
        return float(self.stds([index], default)[0])

    def stds(self, indices: Sequence[int], default: float = 1.0) -> np.ndarray:
        """:meth:`std` of each index in ``indices``, as one array.

        The variances are gathered as Python floats, then one
        ``np.sqrt`` runs over them. IEEE square root is correctly
        rounded, so each entry has the bits of a scalar square root.
        A NaN variance gives NaN, since ``NaN <= 0`` is false.
        """
        get = self._stats.get
        entries = [get(index) for index in indices]
        variances = [
            0.0 if entry is None or entry[0] < 1 else entry[2] / entry[0]
            for entry in entries
        ]
        variance = np.array(variances, dtype=np.float64)
        fallback = variance <= 0.0
        return np.where(
            fallback, default, np.sqrt(np.where(fallback, 1.0, variance))
        )

    def count(self, index: int) -> int:
        entry = self._stats.get(index)
        return int(entry[0]) if entry is not None else 0

    def indices(self) -> List[int]:
        """All feature indices observed so far."""
        return list(self._stats)

    def __len__(self) -> int:
        return len(self._stats)

    def __repr__(self) -> str:
        return f"SparseMoments({len(self)} indices)"


class CategoryTable:
    """Insertion-ordered incremental vocabulary.

    Maps each distinct value to a stable dense index in first-seen
    order. This is the incrementally updatable "hash table" statistic
    that the paper names as backing one-hot encoding (§3.1).
    """

    def __init__(self) -> None:
        self._index: Dict[Hashable, int] = {}

    def update(self, values: Iterable[Hashable]) -> None:
        """Register every value in ``values``."""
        index = self._index
        for value in values:
            if value not in index:
                index[value] = len(index)

    def merge(self, other: "CategoryTable") -> None:
        """Register the other table's categories (first-seen order kept)."""
        self.update(other.categories())

    def lookup(self, value: Hashable) -> Optional[int]:
        """Dense index for ``value``, or ``None`` if unseen."""
        return self._index.get(value)

    def encode(self, values: Iterable[Hashable]) -> np.ndarray:
        """Vector of indices (-1 for unseen values)."""
        index = self._index
        return np.array(
            [index.get(v, -1) for v in values], dtype=np.int64
        )

    def categories(self) -> List[Hashable]:
        """All known categories in first-seen order."""
        return list(self._index)

    def __len__(self) -> int:
        return len(self._index)

    def __contains__(self, value: Hashable) -> bool:
        return value in self._index

    def __repr__(self) -> str:
        return f"CategoryTable({len(self)} categories)"
