"""Churn through the serving layer: streaming passthrough and sharded routing."""

import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles.routing import route_entrants_loop
from repro.core.cumulative import CumulativeSynthesizer
from repro.data.generators import churn_two_state_markov
from repro.exceptions import DataValidationError, SerializationError
from repro.queries import HammingAtLeast
from repro.serve import ShardedService, StreamingSynthesizer
from repro.serve.checkpoint import write_bundle
from repro.serve.sharded import _route_entrants


@pytest.fixture(scope="module")
def churned_panel():
    return churn_two_state_markov(
        60, 10, 0.85, 0.2, entry_rate=0.25, exit_hazard=0.08, seed=4
    )


class TestStreamingChurn:
    def test_observe_accepts_churn_and_serializes_lifespans(self, churned_panel):
        service = StreamingSynthesizer.cumulative(horizon=10, rho=0.4, seed=11)
        twin = StreamingSynthesizer.cumulative(horizon=10, rho=0.4, seed=11)
        buffer = io.BytesIO()
        for index, (column, entrants, exits) in enumerate(churned_panel.rounds()):
            service.observe(column, entrants=entrants, exits=exits)
            twin.observe(column, entrants=entrants, exits=exits)
            if index == 4:
                service.checkpoint(buffer)
                buffer.seek(0)
                service = StreamingSynthesizer.restore(buffer)
        assert (
            service.release.threshold_table() == twin.release.threshold_table()
        ).all()
        assert service.release.synthetic_data() == twin.release.synthetic_data()
        assert (service.lifespans() == twin.lifespans()).all()
        assert (service.lifespans()[:, 0] == churned_panel.entry_round).all()

    def test_fixed_window_streaming_churn(self, churned_panel):
        service = StreamingSynthesizer.fixed_window(horizon=10, window=3, rho=0.4, seed=2)
        for column, entrants, exits in churned_panel.rounds():
            service.observe(column, entrants=entrants, exits=exits)
        assert service.release.n_original == churned_panel.n_ever

    def test_bundle_with_shuffled_entry_rounds_is_rejected(self, churned_panel):
        # Round lookups binary-search the entry rounds, so a bundle whose
        # lifespan table is out of admission order must fail closed.
        service = StreamingSynthesizer.fixed_window(horizon=10, window=3, rho=0.4, seed=2)
        for column, entrants, exits in churned_panel.rounds():
            service.observe(column, entrants=entrants, exits=exits)
        synth = service.synthesizer
        state = synth.state_dict()
        entry = state["ledger"]["entry_round"]
        assert entry[-1] > entry[0]
        np.random.default_rng(0).shuffle(entry)
        assert (np.diff(entry) < 0).any()
        buffer = io.BytesIO()
        write_bundle(buffer, kind="streaming", config=synth.config_dict(), state=state)
        buffer.seek(0)
        with pytest.raises(SerializationError, match="non-decreasing"):
            StreamingSynthesizer.restore(buffer)


class TestShardedChurn:
    def test_merged_answers_equal_unsharded_noiseless(self, churned_panel):
        single = CumulativeSynthesizer(10, math.inf, seed=0)
        release = single.run(churned_panel)
        service = ShardedService(
            3, algorithm="cumulative", horizon=10, rho=math.inf, seed=5
        )
        for column, entrants, exits in churned_panel.rounds():
            service.observe(column, entrants=entrants, exits=exits)
        query = HammingAtLeast(2)
        for t in range(1, 11):
            assert service.answer(query, t) == pytest.approx(
                release.answer(query, t), abs=1e-12
            )

    def test_entrants_route_to_least_loaded_shard(self):
        service = ShardedService(
            3, algorithm="cumulative", horizon=6, rho=math.inf, seed=0
        )
        # Unbalanced initial split: 4 / 3 / 3.
        service.observe(np.ones(10, dtype=np.int64))
        assert service.shard_loads().tolist() == [4, 3, 3]
        # Two entrants fill the two lightest shards (ties to lowest index).
        service.observe(
            np.ones(12, dtype=np.int64), entrants=2
        )
        assert service.shard_loads().tolist() == [4, 4, 4]
        members = service.shard_members()
        assert sorted(np.concatenate(members).tolist()) == list(range(12))
        # Exits free capacity and the next entrant lands there.
        service.observe(np.ones(10, dtype=np.int64), exits=[0, 1])
        assert service.shard_loads().tolist() == [2, 4, 4]
        service.observe(np.ones(11, dtype=np.int64), entrants=1)
        assert service.shard_loads().tolist() == [3, 4, 4]
        assert service.n == 11 and service.n_ever == 13

    @given(
        loads=st.integers(1, 16).flatmap(
            lambda k: st.lists(
                st.one_of(st.integers(0, 3), st.sampled_from([0, 9, 9]), st.integers(0, 5000)),
                min_size=k,
                max_size=k,
            )
        ),
        entrants=st.integers(0, 2000),
    )
    @settings(max_examples=60, deadline=None)
    def test_closed_form_routing_equals_the_argmin_loop(self, loads, entrants):
        """Water-filling reproduces one-at-a-time least-loaded routing."""
        shards, after = _route_entrants(np.asarray(loads, dtype=np.int64), entrants)
        expected_shards, expected_after = route_entrants_loop(loads, entrants)
        assert shards.dtype == np.int64 and after.dtype == np.int64
        assert np.array_equal(shards, expected_shards)
        assert np.array_equal(after, expected_after)

    def test_sharded_churn_checkpoint_restore_continues_identically(
        self, churned_panel
    ):
        service = ShardedService(3, algorithm="cumulative", horizon=10, rho=0.3, seed=6)
        events = list(churned_panel.rounds())
        for column, entrants, exits in events[:6]:
            service.observe(column, entrants=entrants, exits=exits)
        buffer = io.BytesIO()
        service.checkpoint(buffer)
        buffer.seek(0)
        restored = ShardedService.restore(buffer)
        assert restored.n == service.n and restored.n_ever == service.n_ever
        assert restored.shard_loads().tolist() == service.shard_loads().tolist()
        query = HammingAtLeast(2)
        for column, entrants, exits in events[6:]:
            service.observe(column, entrants=entrants, exits=exits)
            restored.observe(column, entrants=entrants, exits=exits)
        for t in range(1, 11):
            assert restored.answer(query, t) == service.answer(query, t)

    def test_round_one_entrants_validated(self):
        service = ShardedService(2, algorithm="cumulative", horizon=4, rho=math.inf, seed=0)
        with pytest.raises(DataValidationError, match="round 1 declares"):
            service.observe(np.ones(6, dtype=np.int64), entrants=7)

    def test_sharded_exit_validation(self):
        service = ShardedService(2, algorithm="cumulative", horizon=4, rho=math.inf, seed=0)
        service.observe(np.ones(6, dtype=np.int64))
        with pytest.raises(DataValidationError, match="nobody can exit"):
            ShardedService(
                2, algorithm="cumulative", horizon=4, rho=math.inf, seed=0
            ).observe(np.ones(6, dtype=np.int64), exits=[0])
        service.observe(np.ones(5, dtype=np.int64), exits=[2])
        with pytest.raises(DataValidationError, match="already departed"):
            service.observe(np.ones(4, dtype=np.int64), exits=[2])
        with pytest.raises(DataValidationError, match="must lie in"):
            service.observe(np.ones(4, dtype=np.int64), exits=[99])
        with pytest.raises(DataValidationError, match="expected"):
            service.observe(np.ones(9, dtype=np.int64), entrants=1)
        # All rejections left the clocks untouched.
        assert service.t == 2
