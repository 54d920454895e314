"""Tests for pipeline-component fingerprints."""

import numpy as np

from repro.data.table import Table
from repro.pipeline import (
    Pipeline,
    component_fingerprint,
    pipeline_fingerprint,
)
from repro.pipeline.components.scaler import MinMaxScaler, StandardScaler
from repro.pipeline.fingerprint import _canonical, code_digest


def scaler(**kwargs):
    return StandardScaler(["a", "b"], **kwargs)


def batch():
    return Table({"a": [1.0, 2.0, 3.0], "b": [4.0, 5.0, 6.0]})


class TestComponentFingerprint:
    def test_identical_instances_identical_digest(self):
        assert component_fingerprint(scaler()) == component_fingerprint(
            scaler()
        )

    def test_has_all_digest_fields(self):
        fp = component_fingerprint(scaler())
        for key in ("name", "kind", "stateful", "code", "config",
                    "stats", "digest"):
            assert key in fp

    def test_config_change_moves_config_digest_only(self):
        base = component_fingerprint(scaler())
        changed = component_fingerprint(scaler(with_mean=False))
        assert changed["code"] == base["code"]
        assert changed["config"] != base["config"]
        assert changed["digest"] != base["digest"]

    def test_fitting_moves_stats_digest_only(self):
        fitted = scaler()
        fitted.update(batch())
        base = component_fingerprint(scaler())
        after = component_fingerprint(fitted)
        assert after["code"] == base["code"]
        assert after["config"] == base["config"]
        assert after["stats"] != base["stats"]
        assert after["digest"] != base["digest"]

    def test_same_fit_same_digest(self):
        first, second = scaler(), scaler()
        first.update(batch())
        second.update(batch())
        assert component_fingerprint(first) == component_fingerprint(
            second
        )

    def test_code_digest_distinguishes_classes(self):
        assert code_digest(scaler()) != code_digest(
            MinMaxScaler(["a"])
        )
        assert code_digest(scaler()) == code_digest(scaler())


class TestPipelineFingerprint:
    def test_chain_order_preserved(self):
        pipeline = Pipeline(
            [StandardScaler(["a"], name="first"),
             MinMaxScaler(["a"], name="second")]
        )
        prints = pipeline_fingerprint(pipeline)
        assert [fp["name"] for fp in prints] == ["first", "second"]

    def test_reordering_changes_sequence(self):
        forward = pipeline_fingerprint(
            Pipeline([StandardScaler(["a"]), MinMaxScaler(["a"])])
        )
        backward = pipeline_fingerprint(
            Pipeline([MinMaxScaler(["a"]), StandardScaler(["a"])])
        )
        assert [fp["digest"] for fp in forward] != [
            fp["digest"] for fp in backward
        ]


class TestCanonical:
    def test_scalars_pass_through(self):
        assert _canonical(True) is True
        assert _canonical(None) is None
        assert _canonical(3) == 3
        assert _canonical("x") == "x"

    def test_float_uses_repr(self):
        assert _canonical(0.1) == {"__float__": "0.1"}
        assert _canonical(np.float64(0.1)) == {"__float__": "0.1"}

    def test_ndarray_includes_dtype_and_shape(self):
        ints = _canonical(np.array([1, 2], dtype=np.int32))
        longs = _canonical(np.array([1, 2], dtype=np.int64))
        assert ints != longs
        assert _canonical(np.zeros((2, 3)))["__ndarray__"][1] == [2, 3]

    def test_dict_sorted_by_key(self):
        assert _canonical({"b": 1, "a": 2}) == _canonical(
            dict([("a", 2), ("b", 1)])
        )

    def test_nested_object_recurses(self):
        rendered = _canonical(scaler())
        assert rendered["__obj__"] == "StandardScaler"

    def test_recursion_guard(self):
        loop = []
        loop.append(loop)
        rendered = _canonical(loop)
        # Terminates; the innermost level is the guard marker.
        text = str(rendered)
        assert "__deep__" in text


def sparse_rows_table(*values):
    from repro.data.sparse_rows import SparseRows

    return Table(
        {
            "label": np.ones(len(values)),
            "features": SparseRows.of([{0: value} for value in values]),
        }
    )


class TestSparseStatisticsFingerprint:
    """Slotted ``SparseMoments`` must reach the ``stats`` digest."""

    def fitted(self, *values):
        from repro.pipeline.components.scaler import SparseStandardScaler

        component = SparseStandardScaler(name="scaler")
        component.update(sparse_rows_table(*values))
        return component

    def test_different_statistics_different_digests(self):
        narrow, wide = self.fitted(1.0, 3.0), self.fitted(1.0, 300.0)
        assert narrow.std(0) == 1.0 and wide.std(0) == 149.5
        narrow_fp = component_fingerprint(narrow)
        wide_fp = component_fingerprint(wide)
        assert narrow_fp["stats"] != wide_fp["stats"]
        assert narrow_fp["digest"] != wide_fp["digest"]
        assert narrow_fp["code"] == wide_fp["code"]
        assert narrow_fp["config"] == wide_fp["config"]

    def test_equal_statistics_equal_digests(self):
        assert component_fingerprint(
            self.fitted(1.0, 3.0)
        ) == component_fingerprint(self.fitted(1.0, 3.0))

    def test_imputer_statistics_reach_the_digest(self):
        from repro.pipeline.components.imputer import SparseMeanImputer

        first, second = SparseMeanImputer(), SparseMeanImputer()
        first.update(sparse_rows_table(1.0))
        second.update(sparse_rows_table(2.0))
        assert (
            component_fingerprint(first)["stats"]
            != component_fingerprint(second)["stats"]
        )

    def test_slots_are_rendered(self):
        from repro.pipeline.statistics import SparseMoments

        moments = SparseMoments()
        moments.update([{4: 2.0}])
        rendered = _canonical(moments)
        assert rendered["__obj__"] == "SparseMoments"
        assert [key for key, __ in rendered["attrs"]] == ["_stats"]

    def test_hasher_fingerprint_unchanged_by_transforms(self):
        from repro.pipeline.components.hasher import FeatureHasher

        hasher = FeatureHasher(num_features=16, name="hasher")
        before = component_fingerprint(hasher)
        for values in ((1.0, 2.0), (5.0,), ()):
            hasher.transform(sparse_rows_table(*values))
        assert component_fingerprint(hasher) == before
