"""Chaos suite: every injected fault ends in recovery, degradation, or
a clean refusal — never a silently wrong answer, never a leaked segment.

Each scenario drives a real service through the seeded
:class:`repro.testing.FaultInjector` and asserts the full fault-
tolerance contract:

* killed and hung workers are detected (liveness probe, RPC timeout),
  torn down with kill-escalation, and recovered byte-identically;
* corrupted checkpoints and truncated journals fall back to older
  durable state and replay to the same bytes;
* shared-memory starvation fails the round cleanly and the service
  resumes — byte-identically — once the resource returns;
* a persistently failing shard either fails closed (default) or, with
  ``degraded_ok=True``, is disabled and flagged while survivors serve;
* an autouse audit fails any test that leaves an orphaned
  ``/dev/shm`` segment behind.
"""

import multiprocessing as mp
import os
import time
import warnings

import numpy as np
import pytest

from repro.data.generators import churn_two_state_markov
from repro.exceptions import DegradedServiceWarning, RecoveryError
from repro.queries import HammingAtLeast
from repro.serve import RetryPolicy, ShardedService, SupervisedService
from repro.testing import FaultInjector, starve_shared_memory

HORIZON = 8
K = 3
SEED = 11
QUERY = HammingAtLeast(2)
KWARGS = dict(algorithm="cumulative", horizon=HORIZON, rho=0.3)

HAS_FORK = "fork" in mp.get_all_start_methods()
needs_fork = pytest.mark.skipif(
    not HAS_FORK, reason="worker faults need the fork start method"
)

_SHM_DIR = "/dev/shm"


def _shm_segments() -> set:
    """Names of live multiprocessing shared-memory segments."""
    if not os.path.isdir(_SHM_DIR):
        return set()
    return {name for name in os.listdir(_SHM_DIR) if name.startswith("psm_")}


@pytest.fixture(autouse=True)
def shm_leak_audit():
    """Fail any chaos scenario that orphans a shared-memory segment."""
    before = _shm_segments()
    yield
    leaked = _shm_segments() - before
    assert not leaked, f"chaos scenario leaked shared-memory segments: {leaked}"


@pytest.fixture(scope="module")
def events():
    panel = churn_two_state_markov(
        60, HORIZON, 0.85, 0.2, entry_rate=0.25, exit_hazard=0.08, seed=4
    )
    return list(panel.rounds())


@pytest.fixture(scope="module")
def reference(events):
    """The undisturbed run every chaos scenario must reproduce."""
    service = ShardedService(K, seed=SEED, **KWARGS)
    for column, entrants, exits in events:
        service.observe(column, entrants=entrants, exits=exits)
    expected = {
        "fingerprints": service.state_fingerprints(),
        "spent": service.zcdp_spent(),
        "answers": [service.answer(QUERY, t) for t in range(1, HORIZON + 1)],
    }
    service.close()
    return expected


def _policy(**overrides):
    defaults = dict(
        max_retries=2, backoff_base=0.0, checkpoint_every=3, checkpoint_retain=2
    )
    defaults.update(overrides)
    return RetryPolicy(**defaults)


def _drive(service, events):
    for column, entrants, exits in events:
        service.observe(column, entrants=entrants, exits=exits)


def _assert_matches_reference(service, reference):
    assert service.service.state_fingerprints() == reference["fingerprints"]
    assert service.zcdp_spent() == reference["spent"]
    assert [
        service.answer(QUERY, t) for t in range(1, HORIZON + 1)
    ] == reference["answers"]


# ---------------------------------------------------------------------------
# Worker faults
# ---------------------------------------------------------------------------


@needs_fork
def test_killed_worker_is_recovered_byte_identically(events, reference, tmp_path):
    injector = FaultInjector(seed=1)
    with SupervisedService(
        str(tmp_path / "svc"), n_shards=K, seed=SEED, executor="process",
        policy=_policy(), **KWARGS,
    ) as service:
        _drive(service, events[:3])
        injector.kill_worker(service, injector.pick_shard(K))
        _drive(service, events[3:])
        _assert_matches_reference(service, reference)
        assert any("recovered" in event for event in service.events), service.events


@needs_fork
def test_hung_worker_detected_by_rpc_timeout(events, reference, tmp_path):
    injector = FaultInjector(seed=2)
    with SupervisedService(
        str(tmp_path / "svc"), n_shards=K, seed=SEED, executor="process",
        policy=_policy(rpc_timeout=1.0), **KWARGS,
    ) as service:
        _drive(service, events[:4])
        injector.hang_worker(service, injector.pick_shard(K))
        # The stopped worker is alive (the liveness probe passes) but
        # silent; only the RPC timeout can catch it.  Recovery's
        # kill-escalated teardown disposes of it (SIGKILL fires even on
        # a SIGSTOPped process; SIGTERM would stay pending forever).
        _drive(service, events[4:])
        _assert_matches_reference(service, reference)
        assert any("did not respond" in event for event in service.events), (
            service.events
        )


@needs_fork
def test_teardown_escalates_to_kill_for_hung_workers(events):
    injector = FaultInjector(seed=3)
    service = ShardedService(K, seed=SEED, executor="process", **KWARGS)
    _drive(service, events[:2])
    victim = injector.pick_shard(K)
    injector.hang_worker(service, victim)
    process = service._executor._processes[victim]
    started = time.monotonic()
    service.close()  # kills the stopped worker instead of waiting on it
    assert time.monotonic() - started < 3.0
    process.join(timeout=5.0)
    assert not process.is_alive()


# ---------------------------------------------------------------------------
# Storage faults
# ---------------------------------------------------------------------------


@needs_fork
@pytest.mark.parametrize("region", ["tail", "any"])
def test_corrupted_checkpoint_falls_back_to_older_state(
    events, reference, tmp_path, region
):
    injector = FaultInjector(seed=4)
    directory = str(tmp_path / "svc")
    with SupervisedService(
        directory, n_shards=K, seed=SEED, executor="process",
        policy=_policy(), **KWARGS,
    ) as service:
        _drive(service, events)
    checkpoints = sorted(os.listdir(os.path.join(directory, "checkpoints")))
    assert len(checkpoints) >= 2  # rounds 3 and 6 at checkpoint_every=3
    injector.corrupt_bytes(
        os.path.join(directory, "checkpoints", checkpoints[-1]), 64, region=region
    )
    with SupervisedService.attach(
        directory, executor="process", policy=_policy()
    ) as resumed:
        assert resumed.t == HORIZON
        _assert_matches_reference(resumed, reference)
        assert any("unreadable" in event for event in resumed.events), resumed.events


@needs_fork
def test_truncated_journal_drops_only_unacknowledged_rounds(
    events, reference, tmp_path
):
    injector = FaultInjector(seed=5)
    directory = str(tmp_path / "svc")
    with SupervisedService(
        directory, n_shards=K, seed=SEED, executor="process",
        policy=_policy(), **KWARGS,
    ) as service:
        _drive(service, events)
    # Tear the last frame: round 8's ack record is cut short, exactly a
    # crash between the write and the fsync reaching the platter.
    injector.truncate_tail(os.path.join(directory, "journal.log"), 30)
    with SupervisedService.attach(
        directory, executor="process", policy=_policy()
    ) as resumed:
        assert resumed.t == HORIZON - 1  # the torn round was never acked
        # Resubmitting it draws the identical noise a crash-free run
        # would have — the final state matches the reference exactly.
        _drive(resumed, events[HORIZON - 1:])
        _assert_matches_reference(resumed, reference)


def test_all_checkpoints_corrupt_fails_closed(events, tmp_path):
    injector = FaultInjector(seed=6)
    directory = str(tmp_path / "svc")
    with SupervisedService(
        directory, n_shards=K, seed=SEED, executor="serial",
        policy=_policy(), **KWARGS,
    ) as service:
        _drive(service, events)
    checkpoint_dir = os.path.join(directory, "checkpoints")
    for name in os.listdir(checkpoint_dir):
        injector.corrupt_bytes(os.path.join(checkpoint_dir, name), 64)
    # The journal was compacted past round 1, so no full replay exists:
    # the service must refuse rather than re-noise published rounds.
    with pytest.raises(RecoveryError, match="fail closed"):
        SupervisedService.attach(directory, executor="serial", policy=_policy())


# ---------------------------------------------------------------------------
# Resource faults
# ---------------------------------------------------------------------------


@needs_fork
def test_shm_starvation_fails_cleanly_then_resumes(events, reference, tmp_path):
    injector = FaultInjector(seed=7)
    with SupervisedService(
        str(tmp_path / "svc"), n_shards=K, seed=SEED, executor="process",
        policy=_policy(max_retries=1), **KWARGS,
    ) as service:
        column, entrants, exits = events[0]
        with injector.starve_shared_memory():
            with pytest.raises((RecoveryError, OSError)):
                service.observe(column, entrants=entrants, exits=exits)
        assert service.t == 0  # nothing was published during the outage
        _drive(service, events)  # the identical rounds, resubmitted
        _assert_matches_reference(service, reference)


def test_starve_shared_memory_restores_the_real_class():
    from multiprocessing import shared_memory

    original = shared_memory.SharedMemory
    with starve_shared_memory():
        with pytest.raises(OSError):
            shared_memory.SharedMemory(create=True, size=64)
    assert shared_memory.SharedMemory is original


# ---------------------------------------------------------------------------
# Persistent shard failure: fail closed vs graceful degradation
# ---------------------------------------------------------------------------


def _fail_shard_heartbeats(monkeypatch, victim):
    """Report ``victim`` dead on every liveness probe until it is disabled."""
    real = ShardedService.health_report

    def rigged(self):
        report = real(self)
        for entry in report:
            if entry["shard"] == victim and entry["status"] == "ok":
                entry["status"] = "dead"
                entry["reason"] = "injected persistent failure"
        return report

    monkeypatch.setattr(ShardedService, "health_report", rigged)


def test_persistent_shard_failure_fails_closed_by_default(
    events, tmp_path, monkeypatch
):
    with SupervisedService(
        str(tmp_path / "svc"), n_shards=K, seed=SEED, executor="serial",
        policy=_policy(), **KWARGS,
    ) as service:
        _drive(service, events[:2])
        _fail_shard_heartbeats(monkeypatch, victim=1)
        column, entrants, exits = events[2]
        with pytest.raises(RecoveryError, match="degraded_ok"):
            service.observe(column, entrants=entrants, exits=exits)
        assert service.t == 2  # the failed round was never published


def test_persistent_shard_failure_degrades_when_opted_in(
    events, tmp_path, monkeypatch
):
    with SupervisedService(
        str(tmp_path / "svc"), n_shards=K, seed=SEED, executor="serial",
        policy=_policy(), degraded_ok=True, **KWARGS,
    ) as service:
        _drive(service, events[:2])
        spent_before = service.zcdp_spent()
        _fail_shard_heartbeats(monkeypatch, victim=1)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegradedServiceWarning)
            _drive(service, events[2:])
        assert service.t == HORIZON  # survivors kept publishing
        assert service.degraded
        statuses = {e["shard"]: e["status"] for e in service.health_report()}
        assert statuses[1] == "disabled"
        assert statuses[0] == statuses[2] == "ok"
        with pytest.warns(DegradedServiceWarning):
            answer = service.answer(QUERY, HORIZON)
        assert np.isfinite(answer)
        assert service.zcdp_spent() >= spent_before  # monotone, never re-charged
        with pytest.raises(RecoveryError):
            service.checkpoint()


def test_worker_faults_require_the_process_executor(events):
    from repro.exceptions import ConfigurationError

    injector = FaultInjector(seed=8)
    service = ShardedService(K, seed=SEED, executor="serial", **KWARGS)
    try:
        with pytest.raises(ConfigurationError, match="process"):
            injector.kill_worker(service, 0)
    finally:
        service.close()


def test_injector_log_records_every_fault(tmp_path):
    injector = FaultInjector(seed=9)
    victim = injector.pick_shard(4)
    path = tmp_path / "blob.bin"
    path.write_bytes(bytes(range(200)))
    injector.corrupt_bytes(path, 16)
    injector.truncate_tail(path, 8)
    with injector.starve_shared_memory():
        pass
    assert len(injector.log) == 4
    assert f"-> {victim}" in injector.log[0]
