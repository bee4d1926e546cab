"""Strict report and churn validation on every observe path.

A report must be exactly one of ``0 .. q-1`` and a churn declaration an
exact integer.  A float or NaN report, a fractional entrant count, or a
float, string or bool exit id is rejected with ``DataValidationError``
before any state moves: never truncated into a different stream, and
never left to fail inside ``bincount`` after the clock and the ledger
have already advanced.
"""

import math

import numpy as np
import pytest

from repro.core import (
    CategoricalWindowSynthesizer,
    CumulativeSynthesizer,
    FixedWindowSynthesizer,
    MultiAttributeSynthesizer,
)
from repro.core.population import validate_column
from repro.data.categorical import CategoricalDataset
from repro.exceptions import DataValidationError
from repro.serve import ShardedService

N = 6
GOOD = np.array([0, 1, 2, 2, 1, 0])
BAD_REPORTS = {
    "fractional": np.array([0.5, 1.7, 2.9, 0.0, 1.0, 2.0]),
    "nan": np.array([0.0, 1.0, np.nan, 2.0, 1.0, 0.0]),
}


def test_validate_column_accepts_exactly_the_alphabet():
    for column in (
        np.array([0, 1, 2]),
        np.array([0, 2], dtype=np.uint8),
        np.array([0.0, 1.0, 2.0]),
        np.array([True, False]),
        np.zeros(0),
    ):
        validate_column(column, 3)
    for column in (
        np.array([0, 3]),
        np.array([-1, 0]),
        np.array([3], dtype=np.uint8),
        np.array([0.5]),
        np.array([np.nan]),
        np.array([np.inf]),
        np.array(["0", "1"]),
    ):
        with pytest.raises(DataValidationError, match=r"\[0, 3\)"):
            validate_column(column, 3)
    # q = 2 keeps the binary message.
    with pytest.raises(DataValidationError, match="must be 0 or 1"):
        validate_column(np.array([0.0, 0.5]), 2)


@pytest.mark.parametrize("bad", sorted(BAD_REPORTS))
class TestCategoricalReports:
    def test_window_engine(self, bad):
        synth = CategoricalWindowSynthesizer(
            horizon=4, window=2, alphabet=3, rho=0.5, seed=8
        )
        synth.observe(GOOD)
        with pytest.raises(DataValidationError, match=r"\[0, 3\)"):
            synth.observe(BAD_REPORTS[bad])
        assert synth.t == 1
        synth.observe(GOOD)
        assert synth.t == 2 and synth.release.population(2) == N

    def test_multi_attribute_synthesizer(self, bad):
        synth = MultiAttributeSynthesizer(
            4,
            2,
            0.5,
            attributes=[
                {"name": "employment", "alphabet": 3},
                {"name": "poverty", "alphabet": 2},
            ],
            seed=1,
        )
        poverty = GOOD % 2
        synth.observe({"employment": GOOD, "poverty": poverty})
        with pytest.raises(DataValidationError, match="'employment'"):
            synth.observe({"employment": BAD_REPORTS[bad], "poverty": poverty})
        assert synth.t == 1
        synth.observe({"employment": GOOD, "poverty": poverty})
        assert synth.t == 2

    def test_sharded_service(self, bad):
        service = ShardedService(
            2,
            algorithm="categorical_window",
            horizon=4,
            window=2,
            alphabet=3,
            rho=0.5,
            seed=3,
        )
        service.observe(GOOD)
        with pytest.raises(DataValidationError, match=r"\[0, 3\)"):
            service.observe(BAD_REPORTS[bad])
        assert service.t == 1
        # Rejected before dispatch: the service is not poisoned.
        service.observe(GOOD)
        assert [shard.t for shard in service.shards] == [2, 2]
        service.close()

    def test_categorical_dataset(self, bad):
        with pytest.raises(DataValidationError, match=r"panel entries"):
            CategoricalDataset(np.column_stack([GOOD, BAD_REPORTS[bad]]), 3)


def _window_engine():
    return FixedWindowSynthesizer(4, 2, math.inf, seed=0)


def _cumulative():
    return CumulativeSynthesizer(4, math.inf, seed=0)


def _sharded():
    return ShardedService(2, algorithm="cumulative", horizon=4, rho=math.inf, seed=0)


OBSERVE_PATHS = {
    "window_engine": _window_engine,
    "cumulative": _cumulative,
    "sharded": _sharded,
}

#: (churn keyword arguments, reports in the round) that must be rejected.
BAD_CHURN = {
    "float-exit": (dict(exits=[1.9]), N - 1),
    "float-array-exit": (dict(exits=np.array([2.5])), N - 1),
    "string-exit": (dict(exits=["0"]), N - 1),
    "bool-exit": (dict(exits=[True]), N - 1),
    "fractional-entrants": (dict(entrants=2.7), N + 2),
    "bool-entrants": (dict(entrants=True), N + 1),
}


@pytest.mark.parametrize("declaration", sorted(BAD_CHURN))
@pytest.mark.parametrize("path", sorted(OBSERVE_PATHS))
def test_churn_declarations_are_not_truncated(path, declaration):
    synth = OBSERVE_PATHS[path]()
    synth.observe(np.ones(N, dtype=np.int64))
    churn, n_reports = BAD_CHURN[declaration]
    with pytest.raises(DataValidationError, match="integer"):
        synth.observe(np.ones(n_reports, dtype=np.int64), **churn)
    assert synth.t == 1
    # Nobody left and nobody entered: ids 0-2 are still active, so they
    # can exit now, and an empty exit list stays valid.
    synth.observe(np.ones(N - 3, dtype=np.int64), exits=[0, 1, 2])
    synth.observe(np.ones(N - 3, dtype=np.int64), exits=[])
    assert synth.t == 3
