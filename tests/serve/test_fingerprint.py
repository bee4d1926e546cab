"""The fingerprint contract: cached Merkle roots equal the from-scratch oracle.

Window shards keep their record-matrix column digests and their ledger's
entry-round digest between rounds and hand them to
:func:`~repro.serve.checkpoint.state_fingerprint`.  The stateful test
below drives sharded services through random interleavings of churn,
checkpoint→restore and shard disablement, and after every step checks
each live shard's fingerprint against :func:`oracles.fingerprint.oracle_root`
over the shard's state — and that flipping any byte of any leaf moves
the root.  The process-executor profile keeps the digest caches in the
workers and kills and restores one.
"""

import io
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from oracles.fingerprint import SCHEME, oracle_root
from repro.data import iid_bernoulli
from repro.serve import ShardedService, StreamingSynthesizer
from repro.serve.checkpoint import FINGERPRINT_SCHEME, read_bundle, state_fingerprint
from repro.testing.faults import FaultInjector

HORIZON = 12  # beyond every run's step count, so observe is always enabled

#: Stateful-test targets: binary k=3 and ternary k=3 windows.
CONFIGS = {
    "binary": dict(algorithm="fixed_window", window=3),
    "ternary": dict(algorithm="categorical_window", window=3, alphabet=3),
}


# ----------------------------------------------------------------------
# The definition, pinned
# ----------------------------------------------------------------------

TINY_CONFIG = {"algorithm": "tiny", "rho": math.inf, "window": 2}


def _tiny_state():
    return {
        "t": 3,
        "released_times": [2, 3],
        "histograms": np.array([[1, 0, 0, 1], [0, 1, 1, 0]], dtype=np.int64),
        "ledger": {
            "entry_round": np.array([1, 1, 3], dtype=np.int64),
            "exit_round": np.array([0, 2, 0], dtype=np.int64),
        },
        "store": {
            "codes": np.array([2, 1], dtype=np.int64),
            "matrix": np.array([[1, 1, 0, 0], [0, 0, 1, 0]], dtype=np.uint8),
            "active": np.array([True, False]),
        },
    }


def test_tiny_state_root_is_pinned():
    """Changing the definition must be deliberate: this literal moves too."""
    pinned = (
        "merkle-sha256-v1:371f7c9751b9b7dc9f8f5388f2a8d989d7ef5040c2bd88d071ec55b29d11ee53"
    )
    assert FINGERPRINT_SCHEME == SCHEME
    assert oracle_root(TINY_CONFIG, _tiny_state()) == pinned
    assert state_fingerprint(TINY_CONFIG, _tiny_state()) == pinned


@pytest.mark.parametrize("algorithm", ["cumulative", "multi_attribute"])
def test_from_scratch_synthesizers_match_the_oracle(algorithm):
    """Synthesizers without cached digests take the generic path."""
    columns = iid_bernoulli(40, 6, p=0.4, seed=2).matrix.T
    if algorithm == "cumulative":
        service = StreamingSynthesizer.cumulative(horizon=6, rho=0.5, seed=1)
    else:
        service = StreamingSynthesizer.multi_attribute(
            6, 2, 0.5, seed=1, attributes=["a", "b"]
        )
        columns = [np.stack([column, 1 - column], axis=1) for column in columns]
    for column in columns:
        service.observe(column)
        synthesizer = service.synthesizer
        assert service.fingerprint() == oracle_root(
            synthesizer.config_dict(), synthesizer.state_dict()
        )


# ----------------------------------------------------------------------
# Stateful: cached roots under churn, restores and degradation
# ----------------------------------------------------------------------


class FingerprintMachine(RuleBasedStateMachine):
    """A sharded window service whose shard roots must equal the oracle's."""

    executor = "serial"

    def __init__(self):
        super().__init__()
        self.service = None

    def teardown(self):
        if self.service is not None:
            self.service.close()

    @initialize(
        kind=st.sampled_from(sorted(CONFIGS)),
        n_shards=st.integers(1, 3),
        population=st.integers(3, 16),
        seed=st.integers(0, 2**16),
    )
    def start(self, kind, n_shards, population, seed):
        config = CONFIGS[kind]
        self.alphabet = config.get("alphabet", 2)
        self.rng = np.random.default_rng(seed)
        self.active = np.ones(population, dtype=bool)
        self.disabled: set[int] = set()
        self.checks = 0
        self.service = ShardedService(
            n_shards,
            seed=seed,
            executor=self.executor,
            horizon=HORIZON,
            rho=2.0,
            n_pad=2,
            **config,
        )

    @precondition(lambda self: self.service.t < HORIZON)
    @rule(data=st.data())
    def observe(self, data):
        exits: list[int] = []
        entrants = 0
        if self.service.t:
            present = np.flatnonzero(self.active).tolist()
            exits = sorted(
                data.draw(
                    st.sets(st.sampled_from(present), max_size=min(3, len(present) - 1)),
                    label="exits",
                )
            )
            entrants = data.draw(st.integers(0, 4), label="entrants")
        self.active[exits] = False
        self.active = np.concatenate([self.active, np.ones(entrants, dtype=bool)])
        column = self.rng.integers(0, self.alphabet, size=int(self.active.sum()))
        self.service.observe(column, entrants=entrants, exits=exits)

    @precondition(lambda self: not self.disabled)
    @rule()
    def checkpoint_and_restore(self):
        self._restore_from(self._bundle())

    @precondition(lambda self: len(self.disabled) < self.service.n_shards - 1)
    @rule(data=st.data())
    def disable_shard(self, data):
        live = [i for i in range(self.service.n_shards) if i not in self.disabled]
        index = data.draw(st.sampled_from(live), label="disabled shard")
        self.service.disable_shard(index, "stateful test")
        self.disabled.add(index)

    def _bundle(self) -> bytes:
        buffer = io.BytesIO()
        self.service.checkpoint(buffer)
        return buffer.getvalue()

    def _restore_from(self, bundle: bytes) -> None:
        self.service.close()
        self.service = ShardedService.restore(io.BytesIO(bundle), executor=self.executor)

    def _snapshots(self) -> list:
        """Per live shard, the ``(config, state)`` its fingerprint covers."""
        return [
            None
            if index in self.disabled
            else (shard.synthesizer.config_dict(), shard.synthesizer.state_dict())
            for index, shard in enumerate(self.service.shards)
        ]

    @invariant()
    def roots_match_the_oracle(self):
        if self.service is None:
            return
        fingerprints = self.service.state_fingerprints()
        snapshots = self._snapshots()
        for fingerprint, snapshot in zip(fingerprints, snapshots, strict=True):
            if snapshot is None:
                assert fingerprint is None
                continue
            assert fingerprint == oracle_root(*snapshot)
        self._check_single_byte_flips(fingerprints, snapshots)

    def _check_single_byte_flips(self, fingerprints, snapshots) -> None:
        """Flipping one byte of any leaf of one live shard moves its root."""
        live = [index for index, snapshot in enumerate(snapshots) if snapshot]
        index = live[self.checks % len(live)]
        self.checks += 1
        config, state = snapshots[index]
        for leaf in _leaves(state):
            assert leaf.flags.c_contiguous  # so the byte view aliases the leaf
            raw = leaf.reshape(-1).view(np.uint8)
            if not raw.size:
                continue
            offset = int(self.rng.integers(raw.size))
            raw[offset] ^= 0xFF
            assert state_fingerprint(config, state) != fingerprints[index]
            raw[offset] ^= 0xFF


def _leaves(node):
    if isinstance(node, np.ndarray):
        yield node
    elif isinstance(node, dict):
        for value in node.values():
            yield from _leaves(value)


class ProcessFingerprintMachine(FingerprintMachine):
    """The same contract with each shard's digest cache in its worker."""

    executor = "process"

    def _snapshots(self) -> list:
        snapshots = []
        for index, blob in enumerate(self.service._executor.checkpoint_blobs()):
            if index in self.disabled:
                snapshots.append(None)
                continue
            config, state = read_bundle(io.BytesIO(blob), kind="streaming")
            snapshots.append((config, state))
        return snapshots

    @precondition(lambda self: not self.disabled and self.service.t > 0)
    @rule(data=st.data())
    def kill_worker_and_restore(self, data):
        bundle = self._bundle()
        victim = data.draw(st.integers(0, self.service.n_shards - 1), label="victim")
        FaultInjector().kill_worker(self.service, victim)
        self._restore_from(bundle)


TestFingerprintMachine = FingerprintMachine.TestCase
TestFingerprintMachine.settings = settings(
    max_examples=30,
    stateful_step_count=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

TestProcessFingerprintMachine = ProcessFingerprintMachine.TestCase
TestProcessFingerprintMachine.settings = settings(
    max_examples=2,
    stateful_step_count=6,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
