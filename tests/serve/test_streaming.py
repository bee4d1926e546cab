"""Streaming equivalence: online observe == offline run()."""

import math

import numpy as np
import pytest

from oracles.scalar import fallback_reference
from repro import (
    AtLeastMOnes,
    CumulativeSynthesizer,
    FixedWindowSynthesizer,
    HammingAtLeast,
    HammingExactly,
)
from repro.data import iid_bernoulli
from repro.exceptions import ConfigurationError, DataValidationError
from repro.serve import StreamingSynthesizer

HORIZON = 10
N = 300


@pytest.fixture(scope="module")
def panel():
    return iid_bernoulli(N, HORIZON, p=0.3, seed=11)


def _cumulative(engine, *args, **kwargs):
    """A cumulative synthesizer; ``"scalar"`` runs it on per-threshold counters."""
    synth = CumulativeSynthesizer(*args, **kwargs)
    return fallback_reference(synth) if engine == "scalar" else synth


@pytest.mark.parametrize("engine", ["vectorized", "scalar"])
def test_cumulative_online_matches_offline_noiseless(panel, engine):
    online = StreamingSynthesizer(_cumulative(engine, HORIZON, math.inf, seed=4))
    for column in panel.columns():
        release = online.observe(column)
        assert release.t == online.t
    offline = _cumulative(engine, HORIZON, math.inf, seed=4)
    offline.run(panel)

    assert np.array_equal(
        online.release.threshold_table(), offline.release.threshold_table()
    )
    assert np.array_equal(
        online.release.synthetic_data().matrix,
        offline.release.synthetic_data().matrix,
    )
    for t in (1, HORIZON // 2, HORIZON):
        for query in (HammingAtLeast(2), HammingExactly(1)):
            assert online.release.answer(query, t) == offline.release.answer(query, t)


def test_fixed_window_online_matches_offline_noiseless(panel):
    online = StreamingSynthesizer.fixed_window(
        horizon=HORIZON, window=3, rho=math.inf, seed=4
    )
    for column in panel.columns():
        online.observe(column)
    offline = FixedWindowSynthesizer(HORIZON, 3, math.inf, seed=4)
    offline.run(panel)

    assert online.release.released_times() == offline.release.released_times()
    for t in online.release.released_times():
        assert np.array_equal(online.release.histogram(t), offline.release.histogram(t))
    assert np.array_equal(
        online.release.synthetic_data().matrix,
        offline.release.synthetic_data().matrix,
    )
    query = AtLeastMOnes(3, 2)
    assert online.release.answer(query, HORIZON) == offline.release.answer(query, HORIZON)


@pytest.mark.parametrize("engine", ["vectorized", "scalar"])
def test_cumulative_online_matches_offline_under_noise(panel, engine):
    """Same seed, same columns => identical noisy releases (run() is the loop)."""
    online = StreamingSynthesizer(_cumulative(engine, HORIZON, 0.02, seed=4))
    for column in panel.columns():
        online.observe(column)
    offline = _cumulative(engine, HORIZON, 0.02, seed=4)
    offline.run(panel)
    assert np.array_equal(
        online.release.threshold_table(), offline.release.threshold_table()
    )
    assert online.synthesizer.accountant.charges == offline.accountant.charges


def test_round_bookkeeping(panel):
    service = StreamingSynthesizer.cumulative(horizon=HORIZON, rho=math.inf, seed=0)
    assert service.t == 0
    assert service.rounds_remaining == HORIZON
    assert service.algorithm == "cumulative"
    columns = list(panel.columns())
    service.observe(columns[0])
    assert service.t == 1
    assert service.rounds_remaining == HORIZON - 1
    assert "cumulative" in repr(service)


def test_exhausted_horizon_rejected(panel):
    service = StreamingSynthesizer.cumulative(horizon=2, rho=math.inf, seed=0)
    columns = list(panel.columns())
    service.observe(columns[0])
    service.observe(columns[1])
    with pytest.raises(DataValidationError):
        service.observe(columns[2])


def test_wrapper_rejects_foreign_objects():
    with pytest.raises(ConfigurationError):
        StreamingSynthesizer(object())


def test_fixed_window_algorithm_tag():
    service = StreamingSynthesizer.fixed_window(horizon=6, window=2, rho=math.inf, seed=0)
    assert service.algorithm == "fixed_window"
    assert isinstance(service.synthesizer, FixedWindowSynthesizer)
