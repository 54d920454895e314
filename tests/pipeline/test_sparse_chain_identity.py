"""Bit-identity of the columnar sparse chain against the dict reference.

The live URL chain (``SparseRows`` through the parser, imputer, scaler
and hasher, plus the pipeline's stateless-head memo) must reproduce the
per-value dict implementation in :mod:`tests.pipeline.sparse_reference`
exactly: the bytes of every ``Features`` batch, every per-index
``(count, mean, m2)`` with its insertion order, and every cost charge.
"""

from __future__ import annotations

import copy
import itertools
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.table import Table
from repro.execution.cost import CostTracker
from repro.experiments.common import url_scenario
from repro.pipeline.components.hasher import FeatureHasher
from repro.pipeline.components.imputer import SparseMeanImputer
from repro.pipeline.components.parser import SvmLightParser
from repro.pipeline.components.scaler import SparseStandardScaler
from repro.pipeline.pipeline import Pipeline
from repro.pipeline.statistics import SparseMoments
from tests.pipeline.sparse_reference import (
    ReferenceChain,
    ReferenceMoments,
    ReferenceParser,
)


def live_chain(
    num_features: int = 1024, signed: bool = True, fill_value: float = 0.0
) -> Pipeline:
    return Pipeline(
        [
            SvmLightParser(name="input_parser"),
            SparseMeanImputer(fill_value=fill_value, name="imputer"),
            SparseStandardScaler(name="scaler"),
            FeatureHasher(num_features, signed=signed, name="hasher"),
        ]
    )


def lines_table(lines) -> Table:
    return Table({"line": np.array(list(lines), dtype=object)})


def features_bytes(features):
    matrix = features.matrix
    return tuple(
        (array.dtype.str, array.tobytes())
        for array in (
            matrix.data,
            matrix.indices,
            matrix.indptr,
            np.asarray(features.labels),
        )
    ) + (matrix.shape,)


def moments_bits(moments):
    """``[(index, count/mean/m2 bytes)]`` in insertion order."""
    store = moments._stats
    return [
        (index, np.array(store[index], dtype=np.float64).tobytes())
        for index in moments.indices()
    ]


def assert_same_state(live: Pipeline, reference: ReferenceChain):
    assert moments_bits(
        live.component("imputer")._moments
    ) == moments_bits(reference.imputer.moments)
    assert moments_bits(
        live.component("scaler")._moments
    ) == moments_bits(reference.scaler.moments)


def run_both(chunks, **chain_args):
    """Predict pass then online pass per chunk, on both chains."""
    live, reference = live_chain(**chain_args), ReferenceChain(**chain_args)
    live_cost, reference_cost = CostTracker(), CostTracker()
    for table in chunks:
        for live_path, reference_path in (
            (live.transform_to_features, reference.transform),
            (
                live.update_transform_to_features,
                reference.update_transform,
            ),
        ):
            assert features_bytes(
                live_path(table, live_cost)
            ) == features_bytes(reference_path(table, reference_cost))
        assert_same_state(live, reference)
    assert live_cost.total() == reference_cost.total()
    assert live_cost.breakdown() == reference_cost.breakdown()
    return live, reference


class TestUrlStream:
    def test_url_test_stream_chunk_by_chunk(self):
        scenario = url_scenario("test", seed=7)
        chunks = list(scenario.make_initial_data()) + list(
            itertools.islice(scenario.make_stream(), 40)
        )
        live, __ = run_both(chunks, num_features=256)
        assert live.component("scaler").num_indices_seen > 400


#: A token value: ordinary, extreme and special floats.
token_values = st.one_of(
    st.floats(-1e6, 1e6, allow_nan=False, width=64),
    # Mixed magnitudes make any change in summation order visible.
    st.sampled_from(
        [0.0, -0.0, math.inf, -math.inf, math.nan, 1e300, -1e-300, 2.5]
        + [1e16, -1e16, 0.1, 1.0]
    ),
)
#: Few distinct indices (so statistics repeat and buckets collide),
#: plus negative and very large ones.
token_indices = st.one_of(
    st.integers(0, 12),
    st.integers(-(2**40), 2**40),
    st.sampled_from([-1, 2**62, -(2**62)]),
)
lines = st.builds(
    lambda label, tokens: " ".join(
        [repr(label)] + [f"{index}:{value!r}" for index, value in tokens]
    ),
    st.sampled_from([1.0, -1.0]),
    st.lists(st.tuples(token_indices, token_values), max_size=6),
)
chunks = st.lists(st.lists(lines, max_size=5), min_size=1, max_size=5)


class TestPropertyIdentity:
    @given(
        chunks,
        st.sampled_from([1, 7, 64]),
        st.booleans(),
        st.sampled_from([0.0, 0.5]),
    )
    @settings(max_examples=80, deadline=None)
    def test_chain_matches_reference(
        self, chunk_lines, num_features, signed, fill_value
    ):
        with np.errstate(invalid="ignore", over="ignore"):
            run_both(
                [lines_table(chunk) for chunk in chunk_lines],
                num_features=num_features,
                signed=signed,
                fill_value=fill_value,
            )


class TestEdgeCases:
    @pytest.mark.parametrize(
        "chunk_lines",
        [
            # NaN values, including an index whose first value is NaN.
            [["1 3:nan 4:1.0", "-1 3:2.0 4:nan"], ["1 4:nan 3:nan"]],
            # A duplicate index in one line: first position, last value.
            [["1 5:1.0 2:3.0 5:-4.0", "-1 2:1.0"]],
            # An empty feature row and a 0-row chunk.
            [["1", "-1 0:1.0"], [], ["1"]],
            # Negative and very large indices.
            [["1 -7:1.0 4611686018427387904:2.0", "-1 -7:3.0"]],
            # -0.0, ±inf and a zero-variance index.
            [["1 0:-0.0 1:inf 2:5.0", "-1 0:-0.0 1:-inf 2:5.0"]],
        ],
    )
    @pytest.mark.parametrize("signed", [True, False])
    @pytest.mark.parametrize("num_features", [1, 16])
    def test_edge_chunks(self, chunk_lines, signed, num_features):
        with np.errstate(invalid="ignore"):
            run_both(
                [lines_table(chunk) for chunk in chunk_lines],
                num_features=num_features,
                signed=signed,
            )

    def test_duplicate_index_keeps_first_position_last_value(self):
        line = "1 5:1.0 2:3.0 5:-4.0"
        table = SvmLightParser().transform(lines_table([line]))
        rows = table["features"]
        assert rows[0] == {5: -4.0, 2: 3.0}
        assert list(rows[0]) == [5, 2]
        reference = ReferenceParser().transform(lines_table([line]))
        assert list(reference["features"][0].items()) == list(
            rows[0].items()
        )

    def test_every_value_collides_into_one_bucket(self):
        table = SvmLightParser().transform(
            lines_table(["1 0:1.0 1:2.0 2:4.0"])
        )
        matrix = FeatureHasher(1, signed=False).transform(table).matrix
        assert matrix.shape == (1, 1)
        assert matrix.toarray().tolist() == [[7.0]]

    def test_dict_rows_still_accepted(self, sparse_table):
        """Components read an object column of dicts as before."""
        live = live_chain(num_features=32)
        reference = ReferenceChain(num_features=32)
        stem = sparse_table
        for component in live.components[1:]:
            if component.is_stateful:
                component.update(stem)
            stem = component.transform(stem)
        expected = sparse_table
        for component in reference.components[1:]:
            if component.is_stateful:
                component.update(expected)
            expected = component.transform(expected)
        assert features_bytes(stem) == features_bytes(expected)
        assert_same_state(live, reference)


class TestSparseMomentsUpdate:
    def test_update_from_dicts_matches_reference(self):
        rows = [{0: 1.0, 3: float("nan")}, {3: 2.0, 0: -0.0}, {}, {0: 5.5}]
        live, reference = SparseMoments(), ReferenceMoments()
        live.update(rows)
        reference.update(rows)
        assert moments_bits(live) == moments_bits(reference)

    def test_stds_match_scalar_reference(self):
        rows = [
            {0: 1.0, 1: 2.0, 2: math.inf},
            {0: 4.0, 1: 2.0, 2: -math.inf},
        ]
        live, reference = SparseMoments(), ReferenceMoments()
        with np.errstate(invalid="ignore"):
            live.update(rows)
            reference.update(rows)
            stds = live.stds([0, 1, 2, 99])
        expected = [reference.std(index) for index in (0, 1, 2, 99)]
        assert stds.tobytes() == np.array(expected).tobytes()
        assert math.isnan(stds[2]) and stds[1] == 1.0 and stds[3] == 1.0


class CountingParser(SvmLightParser):
    def __init__(self, name=None):
        super().__init__(name=name)
        self.calls = 0

    def transform(self, batch):
        self.calls += 1
        return super().transform(batch)


def counting_chain():
    parser = CountingParser(name="input_parser")
    pipeline = Pipeline(
        [
            parser,
            SparseMeanImputer(name="imputer"),
            SparseStandardScaler(name="scaler"),
            FeatureHasher(64, name="hasher"),
        ]
    )
    return pipeline, parser


CHUNK = ["1 0:1.0 2:nan", "-1 1:3.0 2:4.0"]


class TestStatelessHeadMemo:
    def test_same_batch_parses_once(self):
        pipeline, parser = counting_chain()
        table = lines_table(CHUNK)
        pipeline.transform(table)
        pipeline.update_transform(table)
        assert parser.calls == 1
        pipeline.transform(lines_table(CHUNK))
        assert parser.calls == 2

    def test_hit_charges_the_same_lines_as_a_miss(self):
        hit_pipeline, __ = counting_chain()
        miss_pipeline, __ = counting_chain()
        hit_cost, miss_cost = CostTracker(), CostTracker()
        table = lines_table(CHUNK)
        hit_outputs = [
            hit_pipeline.transform(table, hit_cost),
            hit_pipeline.update_transform(table, hit_cost),
        ]
        miss_outputs = [
            miss_pipeline.transform(lines_table(CHUNK), miss_cost),
            miss_pipeline.update_transform(lines_table(CHUNK), miss_cost),
        ]
        assert hit_cost.breakdown() == miss_cost.breakdown()
        assert hit_cost.total() == miss_cost.total()
        for hit, miss in zip(hit_outputs, miss_outputs):
            assert features_bytes(hit) == features_bytes(miss)

    def test_head_stops_at_first_stateful_component(self):
        pipeline, parser = counting_chain()
        table = lines_table(CHUNK)
        before = pipeline.transform_to_features(table)
        pipeline.update_transform(table)
        after = pipeline.transform_to_features(table)
        assert parser.calls == 1
        # The scaler's new statistics still reach the memoized chunk.
        assert features_bytes(before) != features_bytes(after)

    def test_terminal_component_always_runs(self):
        hasher = FeatureHasher(8, name="hasher")
        pipeline = Pipeline([SvmLightParser(name="parser"), hasher])
        table = lines_table(CHUNK)
        first = pipeline.transform(table)
        second = pipeline.transform(table)
        assert first is not second
        assert features_bytes(first) == features_bytes(second)

    def test_pickle_carries_no_memo(self):
        used = live_chain()
        used.transform(lines_table(CHUNK))
        assert used._memo is not None
        assert pickle.dumps(used) == pickle.dumps(live_chain())
        assert pickle.loads(pickle.dumps(used))._memo is None

    def test_deepcopy_carries_no_memo(self):
        used, __ = counting_chain()
        table = lines_table(CHUNK)
        used.transform(table)
        clone = copy.deepcopy(used)
        assert clone._memo is None
        clone.transform(table)
        assert clone.component("input_parser").calls == 2
