"""Categorical serving: streaming, checkpointing, and sharding at q > 2.

The categorical synthesizer is a first-class citizen of the serving
stack: :class:`StreamingSynthesizer.categorical` streams one
``{0, ..., q-1}`` column per round, checkpoints round-trip
byte-identically under noise (tampering fails closed), and
:class:`ShardedService` composes per-shard budgets in parallel over
disjoint sub-populations.
"""

import contextlib
import io
import math
import zipfile

import numpy as np
import pytest

from oracles.scalar import scalar_loops
from repro.core.categorical_window import CategoricalWindowSynthesizer
from repro.data.categorical import employment_status_panel
from repro.exceptions import DataValidationError, SerializationError
from repro.queries.categorical import CategoryAtLeastM
from repro.serve import ShardedService, StreamingSynthesizer

HORIZON, WINDOW, ALPHABET, RHO = 8, 2, 3, 0.1


@pytest.fixture(scope="module")
def panel():
    return employment_status_panel(300, HORIZON, alphabet=ALPHABET, seed=6)


def _service(seed=0, rho=RHO, **kwargs):
    return StreamingSynthesizer.categorical_window(
        HORIZON, WINDOW, ALPHABET, rho, seed=seed, **kwargs
    )


def _loops(engine):
    """``"scalar"`` runs the block on the reference projection/extension loops."""
    return scalar_loops() if engine == "scalar" else contextlib.nullcontext()


def _compare(a, b):
    assert a.released_times() == b.released_times()
    for t in a.released_times():
        assert (a.histogram(t) == b.histogram(t)).all()
    assert a.synthetic_data() == b.synthetic_data()


@pytest.mark.parametrize("engine", ["vectorized", "scalar"])
def test_online_matches_offline(panel, engine):
    with _loops(engine):
        service = _service(seed=1)
        for column in panel.columns():
            service.observe(column)
        offline = CategoricalWindowSynthesizer(HORIZON, WINDOW, ALPHABET, RHO, seed=1)
        _compare(service.release, offline.run(panel))
    assert service.algorithm == "categorical_window"


@pytest.mark.parametrize("cut", [1, 3, HORIZON - 1])
@pytest.mark.parametrize("engine", ["vectorized", "scalar"])
def test_checkpoint_byte_identity_under_noise(panel, cut, engine):
    columns = list(panel.columns())
    with _loops(engine):
        uninterrupted = _service(seed=2)
        for column in columns:
            uninterrupted.observe(column)

        resumed = _service(seed=2)
        for column in columns[:cut]:
            resumed.observe(column)
        buffer = io.BytesIO()
        resumed.checkpoint(buffer)
        buffer.seek(0)
        restored = StreamingSynthesizer.restore(buffer)
        assert restored.t == cut
        assert restored.synthesizer.alphabet == ALPHABET
        for column in columns[cut:]:
            restored.observe(column)
        _compare(uninterrupted.release, restored.release)
    assert (
        uninterrupted.synthesizer.accountant.charges
        == restored.synthesizer.accountant.charges
    )


def test_mid_churn_checkpoint_byte_identity(panel):
    matrix = panel.matrix
    n = matrix.shape[0] - 2  # rows n, n+1 enter at round 2; ids 3, 7 exit at 3
    keep = np.setdiff1d(np.arange(matrix.shape[0]), [3, 7])

    def drive(service, start, stop):
        for t in range(start, stop):
            if t == 0:
                service.observe(matrix[:n, 0])
            elif t == 1:
                service.observe(matrix[:, 1], entrants=2)
            elif t == 2:
                service.observe(matrix[keep, 2], exits=[3, 7])
            else:
                service.observe(matrix[keep, t])

    uninterrupted = _service(seed=3)
    drive(uninterrupted, 0, HORIZON)

    resumed = _service(seed=3)
    drive(resumed, 0, 4)  # checkpoint lands mid-churn
    buffer = io.BytesIO()
    resumed.checkpoint(buffer)
    buffer.seek(0)
    restored = StreamingSynthesizer.restore(buffer)
    drive(restored, 4, HORIZON)
    _compare(uninterrupted.release, restored.release)
    assert (restored.lifespans() == uninterrupted.lifespans()).all()


def test_tampered_categorical_bundle_rejected(panel):
    service = _service(seed=4)
    for column in list(panel.columns())[:3]:
        service.observe(column)
    buffer = io.BytesIO()
    service.checkpoint(buffer)
    raw = bytearray(buffer.getvalue())

    with zipfile.ZipFile(io.BytesIO(bytes(raw))) as bundle:
        names = bundle.namelist()
        members = {name: bundle.read(name) for name in names}
    victim = next(name for name in names if name.startswith("arrays/"))
    corrupted = bytearray(members[victim])
    corrupted[len(corrupted) // 2] ^= 0xFF
    members[victim] = bytes(corrupted)
    tampered = io.BytesIO()
    with zipfile.ZipFile(tampered, "w") as bundle:
        for name in names:
            bundle.writestr(name, members[name])
    tampered.seek(0)
    with pytest.raises(SerializationError):
        StreamingSynthesizer.restore(tampered)


class TestShardedCategorical:
    def test_noiseless_merge_equals_truth(self, panel):
        service = ShardedService(
            3,
            algorithm="categorical_window",
            seed=5,
            horizon=HORIZON,
            window=WINDOW,
            alphabet=ALPHABET,
            rho=math.inf,
        )
        for column in panel.columns():
            service.observe(column)
        query = CategoryAtLeastM(WINDOW, ALPHABET, category=1, m=1)
        for t in (WINDOW, HORIZON):
            assert service.answer(query, t) == pytest.approx(
                query.evaluate(panel, t)
            )

    def test_budget_composes_in_parallel(self, panel):
        service = ShardedService(
            4,
            algorithm="categorical_window",
            seed=6,
            horizon=HORIZON,
            window=WINDOW,
            alphabet=ALPHABET,
            rho=RHO,
        )
        for column in panel.columns():
            service.observe(column)
        # Every shard spends its full per-shard budget; parallel
        # composition makes the service-wide spend the max, not the sum.
        assert service.zcdp_spent() == pytest.approx(RHO)
        for spent, remaining in service.shard_ledgers():
            assert spent == pytest.approx(RHO)
            assert remaining == pytest.approx(0.0, abs=1e-12)

    def test_checkpoint_roundtrip(self, panel):
        columns = list(panel.columns())
        service = ShardedService(
            2,
            algorithm="categorical_window",
            seed=7,
            horizon=HORIZON,
            window=WINDOW,
            alphabet=ALPHABET,
            rho=RHO,
        )
        for column in columns[:4]:
            service.observe(column)
        buffer = io.BytesIO()
        service.checkpoint(buffer)
        buffer.seek(0)
        restored = ShardedService.restore(buffer)
        assert restored.algorithm == "categorical_window"
        for column in columns[4:]:
            service.observe(column)
            restored.observe(column)
        query = CategoryAtLeastM(WINDOW, ALPHABET, category=0, m=WINDOW)
        assert service.answer(query, HORIZON) == restored.answer(query, HORIZON)

    def test_out_of_alphabet_column_rejected_before_any_shard_advances(self, panel):
        service = ShardedService(
            2,
            algorithm="categorical_window",
            seed=8,
            horizon=HORIZON,
            window=WINDOW,
            alphabet=ALPHABET,
            rho=RHO,
        )
        service.observe(panel.column(1))
        bad = panel.column(2).copy()
        bad[0] = ALPHABET
        with pytest.raises(DataValidationError):
            service.observe(bad)
        # All-or-nothing: the rejected round left every shard's clock alone.
        assert service.t == 1
        service.observe(panel.column(2))
        assert service.t == 2

    def test_binary_sharded_validation_message_unchanged(self):
        service = ShardedService(
            2, algorithm="fixed_window", seed=9, horizon=4, window=2, rho=0.5
        )
        with pytest.raises(DataValidationError, match="must be 0 or 1"):
            service.observe(np.array([0, 1, 2, 0]))
