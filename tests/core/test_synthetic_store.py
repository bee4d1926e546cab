"""Tests for the synthetic record stores."""

import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.consistency import apply_overlap_correction
from repro.core.synthetic_store import (
    CumulativeSyntheticStore,
    WindowSyntheticStore,
    _check_window_records,
    _code_histogram,
)
from repro.exceptions import ConfigurationError, ConsistencyError, SerializationError
from repro.rng import as_generator


class TestWindowSyntheticStore:
    def make_store(self, counts, window=2, horizon=6, seed=0):
        return WindowSyntheticStore(
            np.asarray(counts, dtype=np.int64), window, horizon, as_generator(seed)
        )

    def test_initial_counts_materialized(self):
        store = self.make_store([3, 1, 0, 2])
        assert store.m == 6
        assert store.counts().tolist() == [3, 1, 0, 2]

    def test_initial_panel_matches_patterns(self):
        store = self.make_store([0, 0, 0, 4])
        panel = store.as_dataset(2)
        assert (panel.matrix == 1).all()  # pattern 11 for everyone

    def test_extend_reaches_target(self, rng):
        store = self.make_store([2, 2, 2, 2], seed=1)
        previous = store.counts()
        noisy = np.array([3, 1, 2, 2], dtype=np.int64)
        target, _ = apply_overlap_correction(previous, noisy, rng)
        store.extend(target)
        assert store.counts().tolist() == target.tolist()

    def test_extend_rejects_inconsistent_target(self):
        store = self.make_store([2, 2, 2, 2])
        bad = np.array([5, 5, 5, 5], dtype=np.int64)  # wrong pair sums
        with pytest.raises(ConsistencyError):
            store.extend(bad)

    def test_extend_rejects_negative_target(self):
        store = self.make_store([2, 2, 2, 2])
        bad = np.array([-1, 5, 2, 2], dtype=np.int64)
        with pytest.raises(ConsistencyError):
            store.extend(bad)

    def test_records_never_rewritten(self, rng):
        store = self.make_store([4, 4, 4, 4], horizon=8, seed=2)
        before = store.as_dataset(2).matrix.copy()
        previous = store.counts()
        noisy = previous + rng.integers(-2, 3, size=4)
        target, _ = apply_overlap_correction(previous, noisy, rng)
        store.extend(target)
        after = store.as_dataset(3).matrix[:, :2]
        assert (before == after).all()

    def test_horizon_exhaustion(self, rng):
        store = self.make_store([1, 1], window=1, horizon=2, seed=3)
        target, _ = apply_overlap_correction(
            store.counts(), np.array([1, 1], dtype=np.int64), rng
        )
        store.extend(target)
        with pytest.raises(ConsistencyError):
            store.extend(target)

    def test_k1_store(self, rng):
        store = self.make_store([5, 5], window=1, horizon=4, seed=4)
        target, _ = apply_overlap_correction(
            store.counts(), np.array([7, 3], dtype=np.int64), rng
        )
        store.extend(target)
        assert store.counts().tolist() == target.tolist()
        assert store.counts().sum() == 10

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            self.make_store([1, 2, 3])  # wrong length for k=2
        with pytest.raises(ConfigurationError):
            self.make_store([-1, 2, 3, 4])
        with pytest.raises(ConfigurationError):
            WindowSyntheticStore(
                np.array([1, 1], dtype=np.int64), 1, 0, as_generator(0)
            )

    @given(
        seed=st.integers(0, 50),
        initial=st.lists(st.integers(0, 12), min_size=8, max_size=8),
        steps=st.integers(1, 4),
    )
    @settings(max_examples=40, deadline=None)
    def test_property_counts_always_match_records(self, seed, initial, steps):
        generator = as_generator(seed)
        store = WindowSyntheticStore(
            np.asarray(initial, dtype=np.int64), 3, 3 + steps, generator
        )
        for _ in range(steps):
            previous = store.counts()
            noisy = previous + generator.integers(-3, 4, size=8)
            target, _ = apply_overlap_correction(previous, noisy, generator)
            store.extend(target)
            # The record census must equal the target histogram exactly.
            panel = store.as_dataset()
            assert (
                panel.suffix_histogram(panel.horizon, 3) == store.counts()
            ).all()
            assert (store.counts() == target).all()


def _extend_at_random(store, generator):
    """Extend ``store`` one round to a random overlap-consistent target."""
    q = store.alphabet
    suffixes = store.state_dict()["codes"] % q ** (store.window - 1)
    groups = np.bincount(suffixes, minlength=q ** (store.window - 1))
    store.extend(np.stack([generator.multinomial(g, [1 / q] * q) for g in groups]).ravel())


def _grown_store(alphabet=3, window=2, horizon=7, rounds=3, seed=0):
    """A categorical store after ``rounds`` extensions, with entrants."""
    generator = as_generator(seed)
    store = WindowSyntheticStore(
        generator.integers(0, 4, size=alphabet**window),
        window,
        horizon,
        generator,
        alphabet=alphabet,
    )
    for round_index in range(rounds):
        store.admit(round_index + 1)
        _extend_at_random(store, generator)
    return store


def _column_digest(matrix):
    """The record-matrix leaf rule, spelled out."""
    columns = b"".join(
        hashlib.sha256(matrix[:, j].tobytes()).digest() for j in range(matrix.shape[1])
    )
    return hashlib.sha256(columns).digest()


class TestWindowStoreDigestAndRestore:
    """The cached matrix digest, and restores that fail closed."""

    def test_matrix_digest_follows_appends(self):
        store = _grown_store(rounds=0)
        assert store.matrix_digest() == _column_digest(store.state_dict()["matrix"])
        generator = as_generator(9)
        for count in (0, 3, 1):
            store.admit(count)
            store.retire(1)
            _extend_at_random(store, generator)
            assert store.matrix_digest() == _column_digest(store.state_dict()["matrix"])
        restored = WindowSyntheticStore.from_state(store.state_dict(), as_generator(0))
        assert restored.matrix_digest() == store.matrix_digest()

    def test_valid_state_restores(self):
        store = _grown_store()
        restored = WindowSyntheticStore.from_state(store.state_dict(), as_generator(0))
        assert np.array_equal(restored.state_dict()["matrix"], store.state_dict()["matrix"])

    @pytest.mark.parametrize("symbol", [3, 7, 255])
    def test_symbol_outside_alphabet_rejected(self, symbol):
        state = _grown_store(rounds=3).state_dict()
        state["matrix"][0, 0] = symbol  # round 1 is outside every window now
        with pytest.raises(SerializationError, match="outside the alphabet"):
            WindowSyntheticStore.from_state(state, as_generator(0))

    def test_symbol_wrapping_the_record_dtype_rejected(self):
        state = _grown_store(rounds=3).state_dict()
        state["matrix"] = state["matrix"].astype(np.int64)
        state["matrix"][0, 0] = 256  # would wrap to 0 in uint8
        with pytest.raises(SerializationError, match="symbol 256 outside"):
            WindowSyntheticStore.from_state(state, as_generator(0))

    def test_symbol_in_unwritten_round_rejected(self):
        store = _grown_store(rounds=2)
        state = store.state_dict()
        state["matrix"][2, store.t] = 1
        with pytest.raises(SerializationError, match=f"round {store.t + 1}"):
            WindowSyntheticStore.from_state(state, as_generator(0))

    def test_code_disagreeing_with_records_rejected(self):
        state = _grown_store().state_dict()
        state["codes"][1] = (state["codes"][1] + 1) % 9
        with pytest.raises(SerializationError, match="code .* of record 1 disagrees"):
            WindowSyntheticStore.from_state(state, as_generator(0))

    def test_code_check_holds_about_two_bytes_per_record(self):
        # The expected codes are built in the codes' narrow dtype, so the
        # check holds them and the comparison mask (a byte per record
        # each) plus NumPy's fixed-size cast buffers.
        m, horizon, t = 100_000, 12, 9
        matrix = np.zeros((m, horizon), dtype=np.uint8)
        matrix[:, :t] = np.random.default_rng(5).integers(0, 3, size=(m, t))
        codes = matrix[:, t - 3 : t].astype(np.int64) @ np.array([9, 3, 1])
        tracemalloc.start()
        try:
            _check_window_records(matrix, codes, 3, t, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * m + 128 * 1024
        codes[-1] = (codes[-1] + 1) % 27
        with pytest.raises(SerializationError, match=f"of record {m - 1} disagrees"):
            _check_window_records(matrix.astype(np.int64), codes, 3, t, 3)


class TestKeptHistogram:
    """``counts()`` is kept in step with the codes; it must equal a recount."""

    @given(
        alphabet=st.integers(2, 4),
        window=st.integers(1, 3),
        initial=st.lists(st.integers(0, 6), min_size=64, max_size=64),
        steps=st.lists(
            st.tuples(
                st.sampled_from(["admit", "retire", "extend", "restore"]), st.integers(0, 5)
            ),
            max_size=12,
        ),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_counts_equal_a_recount_after_every_step(
        self, alphabet, window, initial, steps, seed
    ):
        n_bins = alphabet**window
        generator = as_generator(seed)
        horizon = window + sum(step == "extend" for step, _ in steps)
        store = WindowSyntheticStore(
            np.asarray(initial[:n_bins]), window, horizon, generator, alphabet=alphabet
        )

        def assert_counts_match():
            counts = store.counts()
            assert counts.dtype == np.int64
            recount = np.bincount(store.state_dict()["codes"], minlength=n_bins)
            assert counts.tolist() == recount.tolist()

        assert_counts_match()
        for step, count in steps:
            if step == "admit":
                store.admit(count)
            elif step == "retire":
                store.retire(min(count, store.n_active))
            elif step == "extend":
                _extend_at_random(store, generator)
            else:
                store = WindowSyntheticStore.from_state(store.state_dict(), generator)
            assert_counts_match()

    def test_admitted_records_must_be_in_the_next_target(self):
        store = _grown_store(rounds=1)
        before = store.counts()
        store.admit(2)
        assert store.counts()[0] == before[0] + 2
        # A target consistent with the pre-admission histogram misses them.
        groups = before.reshape(3, 3).sum(axis=0)
        stale = np.zeros((3, 3), dtype=np.int64)
        stale[:, 0] = groups
        with pytest.raises(ConsistencyError, match="overlap-consistency"):
            store.extend(stale.ravel())
        assert store.counts()[0] == before[0] + 2

    def test_counts_is_a_copy(self):
        store = _grown_store(rounds=1)
        store.counts()[:] = 0
        assert store.counts().sum() == store.m


class TestCodeHistogram:
    """The pair counter behind the engine's true histogram and restores."""

    @pytest.mark.parametrize(
        "n", [0, 1, 2, 3, 65_535, 65_536, 65_537, 100_003, 131_071]
    )
    @pytest.mark.parametrize("n_bins", [27, 256])
    def test_pair_counter_matches_bincount(self, n, n_bins):
        codes = np.random.default_rng(n).integers(0, n_bins, size=n).astype(np.uint8)
        if n:
            codes[0], codes[-1] = 0, n_bins - 1  # the odd code left over at odd n
        if n > 2:
            codes[1], codes[-2] = n_bins - 1, 0
        counts = _code_histogram(codes, n_bins)
        assert counts.dtype == np.int64
        assert counts.tolist() == np.bincount(codes, minlength=n_bins).tolist()

    def test_wider_codes_are_counted_as_they_are(self):
        codes = np.random.default_rng(4).integers(0, 729, size=70_001).astype(np.uint16)
        counts = _code_histogram(codes, 729)
        assert counts.dtype == np.int64
        assert counts.tolist() == np.bincount(codes, minlength=729).tolist()


class TestCumulativeSyntheticStore:
    def test_starts_all_zero(self):
        store = CumulativeSyntheticStore(10, 5, as_generator(0))
        assert store.threshold_census()[0] == 10
        assert (store.threshold_census()[1:] == 0).all()

    def test_extend_updates_weights(self):
        store = CumulativeSyntheticStore(10, 5, as_generator(1))
        store.extend(np.array([4]))  # 4 records with weight 0 get a 1
        census = store.threshold_census()
        assert census[1] == 4

    def test_extend_by_weight_group(self):
        store = CumulativeSyntheticStore(10, 5, as_generator(2))
        store.extend(np.array([6]))
        # Next round: 3 of the weight-1 records and 2 of the weight-0 ones.
        store.extend(np.array([2, 3]))
        census = store.threshold_census()
        assert census[1] == 8  # 6 + 2 new entrants
        assert census[2] == 3

    def test_request_exceeding_group_rejected(self):
        store = CumulativeSyntheticStore(5, 4, as_generator(3))
        with pytest.raises(ConsistencyError):
            store.extend(np.array([6]))  # only 5 records exist

    def test_request_for_impossible_weight_rejected(self):
        store = CumulativeSyntheticStore(5, 4, as_generator(4))
        with pytest.raises(ConsistencyError):
            store.extend(np.array([1, 1]))  # nobody has weight 1 at t=0

    def test_negative_request_rejected(self):
        store = CumulativeSyntheticStore(5, 4, as_generator(5))
        with pytest.raises(ConsistencyError):
            store.extend(np.array([-1]))

    def test_horizon_exhaustion(self):
        store = CumulativeSyntheticStore(3, 2, as_generator(6))
        store.extend(np.array([1]))
        store.extend(np.array([0, 1]))
        with pytest.raises(ConsistencyError):
            store.extend(np.array([0]))

    def test_panel_weights_match_census(self):
        store = CumulativeSyntheticStore(20, 6, as_generator(7))
        store.extend(np.array([10]))
        store.extend(np.array([3, 5]))
        store.extend(np.array([1, 2, 4]))
        panel = store.as_dataset()
        weights = panel.hamming_weights(3)
        by_weight = np.bincount(weights, minlength=7)
        census = store.threshold_census()
        assert (by_weight[::-1].cumsum()[::-1][:7] == census[:7]).all()

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            CumulativeSyntheticStore(0, 5, as_generator(0))
        with pytest.raises(ConfigurationError):
            CumulativeSyntheticStore(5, 0, as_generator(0))


def _cumulative_after_two_rounds():
    """A 6-record, T=5 cumulative store after two rounds, and its snapshot."""
    store = CumulativeSyntheticStore(6, 5, as_generator(3))
    store.extend(np.array([3]))
    store.extend(np.array([1, 2]))
    return store, store.state_dict()


class TestCumulativeStoreRestore:
    """Restores that fail closed on records Algorithm 2 cannot produce."""

    def test_valid_state_restores_and_continues(self):
        store, state = _cumulative_after_two_rounds()
        twin = as_generator(0)
        twin.bit_generator.state = store._generator.bit_generator.state
        restored = CumulativeSyntheticStore.from_state(state, twin)
        store.extend(np.array([1, 1, 1]))
        restored.extend(np.array([1, 1, 1]))
        assert np.array_equal(restored.state_dict()["matrix"], store.state_dict()["matrix"])
        assert np.array_equal(restored.weights(), store.weights())

    def test_symbol_wrapping_the_record_dtype_rejected(self):
        _, state = _cumulative_after_two_rounds()
        state["matrix"] = state["matrix"].astype(np.int64)
        state["matrix"][0, 0] = 256  # would wrap to 0 in uint8
        with pytest.raises(SerializationError, match="symbol 256 outside"):
            CumulativeSyntheticStore.from_state(state, as_generator(0))

    def test_symbol_outside_the_binary_alphabet_rejected(self):
        _, state = _cumulative_after_two_rounds()
        state["matrix"][1, 1] = 2
        with pytest.raises(SerializationError, match="symbol 2 outside"):
            CumulativeSyntheticStore.from_state(state, as_generator(0))

    def test_one_in_an_unwritten_round_rejected(self):
        _, state = _cumulative_after_two_rounds()
        state["matrix"][2, 3] = 1
        state["weights"][2] += 1  # the weight agrees; the round does not exist yet
        with pytest.raises(SerializationError, match="record 2 .* round 4"):
            CumulativeSyntheticStore.from_state(state, as_generator(0))

    def test_weight_disagreeing_with_the_records_rejected(self):
        _, state = _cumulative_after_two_rounds()
        record = int(np.flatnonzero(state["matrix"].sum(axis=1) == 0)[0])
        state["weights"][record] = 5
        with pytest.raises(SerializationError, match=f"weight 5 of record {record}"):
            CumulativeSyntheticStore.from_state(state, as_generator(0))

    def test_fractional_weights_rejected(self):
        _, state = _cumulative_after_two_rounds()
        state["weights"] = state["weights"] + 0.5
        with pytest.raises(SerializationError, match="weights must hold integers"):
            CumulativeSyntheticStore.from_state(state, as_generator(0))
