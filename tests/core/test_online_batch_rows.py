"""``online_batch_rows`` is checked once, when a deployment is built.

Every deployment that takes the option applies ``ContinuousConfig``'s
rule: ``None`` or an integer >= 1, else :class:`ValidationError`.
Before, ``-1`` made the online deployment skip every SGD step while
still counting ``online_updates``, ``0`` raised a bare ``ValueError``
from ``range()``, and the periodical and threshold deployments only
failed on the first observed chunk.
"""

import pytest

from repro.core.config import ContinuousConfig, check_online_batch_rows
from repro.core.deployment import (
    OnlineDeployment,
    PeriodicalDeployment,
    ThresholdRetrainingDeployment,
)
from repro.exceptions import ValidationError
from repro.ml.models import LinearRegression
from repro.ml.optim import Adam
from repro.pipeline.components.assembler import FeatureAssembler
from repro.pipeline.pipeline import Pipeline

DEPLOYMENTS = [
    OnlineDeployment,
    PeriodicalDeployment,
    ThresholdRetrainingDeployment,
]


def build(cls, online_batch_rows):
    pipeline = Pipeline([FeatureAssembler(["x"], "y", name="assembler")])
    return cls(
        pipeline,
        LinearRegression(num_features=1),
        Adam(0.05),
        metric="regression",
        online_batch_rows=online_batch_rows,
    )


@pytest.mark.parametrize("cls", DEPLOYMENTS, ids=lambda c: c.__name__)
@pytest.mark.parametrize("rows", [0, -1])
def test_rejected_at_construction(cls, rows):
    with pytest.raises(ValidationError, match="online_batch_rows"):
        build(cls, rows)


@pytest.mark.parametrize("cls", DEPLOYMENTS, ids=lambda c: c.__name__)
@pytest.mark.parametrize("rows", [None, 1, 7])
def test_valid_values_are_kept(cls, rows):
    assert build(cls, rows).online_batch_rows == rows


def test_same_rule_as_continuous_config():
    for rows in (None, 1, 3):
        assert check_online_batch_rows(rows) == rows
        ContinuousConfig(online_batch_rows=rows)
    for rows in (0, -1):
        with pytest.raises(ValidationError) as from_helper:
            check_online_batch_rows(rows)
        with pytest.raises(ValidationError) as from_config:
            ContinuousConfig(online_batch_rows=rows)
        assert str(from_helper.value) == str(from_config.value)
