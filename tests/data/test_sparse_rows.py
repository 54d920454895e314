"""Tests for the columnar sparse row format and its Table support."""

import math
import pickle

import numpy as np
import pytest

from repro.data.sparse_rows import SparseRows
from repro.data.table import Table
from repro.exceptions import SchemaError

DICTS = [{3: 1.5, 0: -2.0}, {}, {7: float("nan")}, {1: 4.0, 2: 0.25}]


def dict_column(rows=DICTS):
    column = np.empty(len(rows), dtype=object)
    for position, row in enumerate(rows):
        column[position] = row
    return column


def same(left, right):
    """Bitwise equality of two ``SparseRows`` (NaN equal to itself)."""
    return all(
        getattr(left, name).tobytes() == getattr(right, name).tobytes()
        for name in ("indptr", "indices", "values")
    )


def sparse_table():
    return Table(
        {"label": np.arange(4.0), "features": SparseRows.of(DICTS)}
    )


def dict_table():
    return Table({"label": np.arange(4.0), "features": dict_column()})


class TestSparseRows:
    def test_of_keeps_row_order_and_dict_order(self):
        rows = SparseRows.of(DICTS)
        assert rows.indptr.tolist() == [0, 2, 2, 3, 5]
        assert rows.indices.tolist() == [3, 0, 7, 1, 2]
        assert rows.indptr.dtype == rows.indices.dtype == np.int64
        assert rows.values.dtype == np.float64
        assert len(rows) == 4 and rows.nnz == 5

    def test_of_is_a_no_op_for_sparse_rows(self):
        rows = SparseRows.of(DICTS)
        assert SparseRows.of(rows) is rows

    def test_rows_read_back_as_dicts(self):
        rows = SparseRows.of(dict_column())
        assert rows[0] == {3: 1.5, 0: -2.0}
        assert list(rows[0]) == [3, 0]
        assert rows[1] == {}
        assert math.isnan(rows[-2][7])
        assert [type(k) for k in rows[3]] == [int, int]
        assert [type(v) for v in rows[3].values()] == [float, float]
        with pytest.raises(IndexError):
            rows[4]

    def test_iterates_as_dicts(self):
        assert list(SparseRows.of([{1: 2.0}, {}])) == [{1: 2.0}, {}]

    def test_empty(self):
        rows = SparseRows.of([])
        assert len(rows) == 0 and rows.nnz == 0
        assert rows.indptr.tolist() == [0]

    def test_selection_matches_dict_selection(self):
        rows = SparseRows.of(DICTS)
        column = dict_column()
        mask = np.array([True, False, True, True])
        for key in (mask, [3, 0, 0], slice(1, 3), slice(None, None, 2)):
            assert same(SparseRows.of(column[key]), rows[key])

    def test_concat(self):
        left, right = SparseRows.of(DICTS[:2]), SparseRows.of(DICTS[2:])
        assert same(SparseRows.concat([left, right]), SparseRows.of(DICTS))
        assert len(SparseRows.concat([])) == 0

    def test_equality_is_exact(self):
        assert SparseRows.of([{1: 1.0}]) == SparseRows.of([{1: 1.0}])
        assert SparseRows.of([{1: 1.0}]) != SparseRows.of([{2: 1.0}])
        assert SparseRows.of([{1: 1.0}]) != SparseRows.of([{1: 2.0}])

    def test_pickles(self):
        rows = SparseRows.of(DICTS[:2])
        assert pickle.loads(pickle.dumps(rows)) == rows


class TestTableWithSparseRows:
    def test_stored_as_is(self):
        rows = SparseRows.of(DICTS)
        table = Table({"features": rows})
        assert table["features"] is rows
        assert table.with_column("again", rows)["again"] is rows

    def test_length_checked(self):
        with pytest.raises(SchemaError):
            Table({"x": np.zeros(3), "features": SparseRows.of(DICTS)})
        with pytest.raises(SchemaError):
            Table({"x": np.zeros(3)}).with_column(
                "features", SparseRows.of(DICTS)
            )

    def test_num_values_counts_nnz_like_dicts(self):
        assert sparse_table().num_values == dict_table().num_values == 9

    def test_digest_matches_dict_cells(self):
        assert sparse_table().digest() == dict_table().digest()
        changed = Table(
            {
                "label": np.arange(4.0),
                "features": SparseRows.of(DICTS[:3] + [{1: 4.0}]),
            }
        )
        assert changed.digest() != sparse_table().digest()

    def test_row_operations(self):
        table, reference = sparse_table(), dict_table()
        mask = [True, False, False, True]
        pairs = [
            (table.filter_rows(mask), reference.filter_rows(mask)),
            (table.take([2, 0]), reference.take([2, 0])),
            (table.head(3), reference.head(3)),
        ]
        for got, expected in pairs:
            assert got.num_rows == expected.num_rows
            assert got.digest() == expected.digest()
            assert isinstance(got["features"], SparseRows)

    def test_concat(self):
        head, tail = sparse_table().head(2), sparse_table().take([2, 3])
        assert Table.concat([head, tail]).digest() == sparse_table().digest()
        assert isinstance(
            Table.concat([head, tail])["features"], SparseRows
        )
        mixed = Table.concat([head, dict_table().take([2, 3])])
        assert mixed.digest() == dict_table().digest()

    def test_equality(self):
        rows = [{1: 2.0}, {}, {3: -1.0, 0: 0.5}]
        table = Table({"features": SparseRows.of(rows)})
        assert table == Table({"features": SparseRows.of(rows)})
        assert table == Table({"features": dict_column(rows)})
        assert table != Table({"features": SparseRows.of([{}, {}, {}])})
        # Like a float column, a NaN value never compares equal.
        nan_table = Table({"features": SparseRows.of([{1: math.nan}])})
        assert nan_table != nan_table.head(1)

    def test_nbytes_counts_the_arrays(self):
        rows = SparseRows.of(DICTS)
        table = Table({"features": rows})
        assert table.nbytes() == rows.nbytes == 5 * 8 + 5 * 8 + 5 * 8

    def test_functional_updates_keep_row_count(self):
        table = sparse_table()
        assert table.without_columns(["label"]).num_rows == 4
        assert table.select(["features"]).num_rows == 4
        assert table.select([]).num_rows == 0
        assert table.without_columns(["label", "features"]).num_rows == 0
        assert table.filter_rows([False] * 4).num_rows == 0
