"""Supervised crash recovery: kill -9 mid-stream, byte-identical resume.

The fault-tolerance acceptance contract, enforced end to end:

* a supervised service killed without warning mid-stream (``os._exit``
  in a forked child — no ``close``, no flush beyond the journal's own
  fsync) resumes from its state directory and the *complete* run —
  answers, ledgers, spend, checkpoint bundle bytes — is byte-identical
  to an uninterrupted service, under noise and churn, for every
  algorithm and every executor strategy;
* journaled rounds are **replayed, never re-noised**: replay that would
  draw different noise (a tampered seed) is refused with
  :class:`~repro.exceptions.RecoveryError`, and recovered answers equal
  the journaled ones exactly;
* zCDP spend is monotone across crash/recover cycles — no double-spend;
* a poisoned or degraded service behaves identically across the
  serial/thread/process executors.
"""

import io
import json
import multiprocessing as mp
import os
import warnings
import zipfile

import numpy as np
import pytest

from repro.data.generators import churn_two_state_markov
from repro.exceptions import (
    ConsistencyError,
    DegradedServiceWarning,
    NegativeCountError,
    NoiseSamplerWarning,
    RecoveryError,
)
from repro.queries import AtLeastMOnes, HammingAtLeast
from repro.queries.categorical import CategoryAtLeastM
from repro.serve import RetryPolicy, ShardedService, SupervisedService

HORIZON = 8
K = 3
SEED = 11

HAS_FORK = "fork" in mp.get_all_start_methods()
needs_fork = pytest.mark.skipif(
    not HAS_FORK, reason="crash simulation needs the fork start method"
)

#: algorithm -> (service kwargs, probe query, first answerable round)
CONFIGS = {
    "cumulative": (
        dict(algorithm="cumulative", horizon=HORIZON, rho=0.3),
        HammingAtLeast(2),
        1,
    ),
    "fixed_window": (
        dict(algorithm="fixed_window", horizon=HORIZON, window=3, rho=0.3),
        AtLeastMOnes(3, 1),
        3,
    ),
    "categorical_window": (
        dict(
            algorithm="categorical_window",
            horizon=HORIZON,
            window=2,
            alphabet=3,
            rho=0.3,
        ),
        CategoryAtLeastM(2, 3, category=1, m=1),
        2,
    ),
}


@pytest.fixture(scope="module")
def churn_events():
    panel = churn_two_state_markov(
        60, HORIZON, 0.85, 0.2, entry_rate=0.25, exit_hazard=0.08, seed=4
    )
    return list(panel.rounds())


def _events_for(algorithm, churn_events):
    if algorithm != "categorical_window":
        return churn_events
    return [
        ((column + np.arange(column.shape[0])) % 3, entrants, exits)
        for column, entrants, exits in churn_events
    ]


def _policy(**overrides):
    defaults = dict(
        max_retries=1, backoff_base=0.0, checkpoint_every=3, checkpoint_retain=2
    )
    defaults.update(overrides)
    return RetryPolicy(**defaults)


def _observables(service, query, start):
    """Everything a client can see from a (plain) sharded service."""
    answers = [service.answer(query, t) for t in range(start, HORIZON + 1)]
    buffer = io.BytesIO()
    service.checkpoint(buffer)
    return {
        "answers": answers,
        "ledgers": service.shard_ledgers(),
        "spent": service.zcdp_spent(),
        "bundle": buffer.getvalue(),
    }


def _reference(algorithm, events):
    kwargs, query, start = CONFIGS[algorithm]
    service = ShardedService(K, seed=SEED, **kwargs)
    for column, entrants, exits in events:
        service.observe(column, entrants=entrants, exits=exits)
    observed = _observables(service, query, start)
    observed["fingerprints"] = service.state_fingerprints()
    service.close()
    return observed


def _crash_midstream(directory, algorithm, events, cut, policy):
    """Drive ``cut`` rounds in a forked child, then die without cleanup.

    ``os._exit`` skips every finalizer — close, atexit, buffered flushes
    — so the parent sees exactly what a ``kill -9`` leaves behind: the
    fsync'd journal and any completed checkpoints.
    """
    kwargs, query, _ = CONFIGS[algorithm]

    def _child():
        service = SupervisedService(
            directory,
            n_shards=K,
            seed=SEED,
            executor="serial",
            policy=policy,
            probe_queries={"probe": query},
            **kwargs,
        )
        for column, entrants, exits in events[:cut]:
            service.observe(column, entrants=entrants, exits=exits)
        os._exit(0)

    process = mp.get_context("fork").Process(target=_child)
    process.start()
    process.join(timeout=120)
    assert process.exitcode == 0


# ---------------------------------------------------------------------------
# Kill -9 mid-stream -> byte-identical resume
# ---------------------------------------------------------------------------


@needs_fork
@pytest.mark.parametrize("algorithm", sorted(CONFIGS))
def test_crash_midstream_recovery_is_byte_identical(
    algorithm, churn_events, tmp_path
):
    events = _events_for(algorithm, churn_events)
    kwargs, query, start = CONFIGS[algorithm]
    expected = _reference(algorithm, events)

    directory = str(tmp_path / "service")
    policy = _policy()
    cut = HORIZON // 2
    _crash_midstream(directory, algorithm, events, cut, policy)

    with SupervisedService.attach(
        directory, executor="serial", policy=policy, probe_queries={"probe": query}
    ) as resumed:
        assert resumed.t == cut
        for column, entrants, exits in events[cut:]:
            resumed.observe(column, entrants=entrants, exits=exits)
        assert resumed.t == HORIZON
        observed = _observables(resumed.service, query, start)
        observed["fingerprints"] = resumed.service.state_fingerprints()
    assert observed["fingerprints"] == expected["fingerprints"]
    assert observed["answers"] == expected["answers"]
    assert observed["ledgers"] == expected["ledgers"]
    assert observed["spent"] == expected["spent"]
    assert observed["bundle"] == expected["bundle"]


@needs_fork
@pytest.mark.parametrize(
    "executor",
    ["serial", "thread", pytest.param("process", marks=needs_fork)],
)
def test_recovery_is_executor_agnostic(executor, churn_events, tmp_path):
    """Attach with any strategy: the recovered state is the same bytes."""
    events = _events_for("cumulative", churn_events)
    kwargs, query, start = CONFIGS["cumulative"]
    expected = _reference("cumulative", events)

    directory = str(tmp_path / "service")
    policy = _policy()
    _crash_midstream(directory, "cumulative", events, HORIZON - 2, policy)

    with SupervisedService.attach(
        directory, executor=executor, policy=policy
    ) as resumed:
        for column, entrants, exits in events[HORIZON - 2:]:
            resumed.observe(column, entrants=entrants, exits=exits)
        assert resumed.service.state_fingerprints() == expected["fingerprints"]
        observed = _observables(resumed.service, query, start)
    for key in observed:
        assert observed[key] == expected[key], key


# ---------------------------------------------------------------------------
# Replay, never re-noise
# ---------------------------------------------------------------------------


def test_recovered_answers_equal_journaled_answers(churn_events, tmp_path):
    """Replay reproduces the *published* releases — nothing is re-noised."""
    events = _events_for("cumulative", churn_events)
    kwargs, query, _ = CONFIGS["cumulative"]
    directory = str(tmp_path / "service")
    policy = _policy(checkpoint_every=100)  # journal holds every round
    service = SupervisedService(
        directory,
        n_shards=K,
        seed=SEED,
        executor="serial",
        policy=policy,
        probe_queries={"probe": query},
        **kwargs,
    )
    journaled = [
        service.observe(column, entrants=entrants, exits=exits)
        for column, entrants, exits in events
    ]
    service.close()

    with SupervisedService.attach(
        directory, executor="serial", policy=policy, probe_queries={"probe": query}
    ) as resumed:
        for record in journaled:
            assert resumed.answer(query, record.round) == record.answers["probe"]
        assert resumed.zcdp_spent() == journaled[-1].zcdp_spent
        final = resumed.service.state_fingerprints()
        assert tuple(final) == journaled[-1].fingerprints
    # Idempotent: attaching again replays to the identical state.
    with SupervisedService.attach(directory, executor="serial", policy=policy) as again:
        assert again.service.state_fingerprints() == final


def test_replay_with_wrong_noise_fails_closed(churn_events, tmp_path):
    """A replay that would re-noise published rounds must be refused.

    Tampering the persisted seed makes the rebuilt service draw
    different noise during replay; the per-round fingerprint
    verification catches the divergence on the very first round instead
    of silently republishing different releases.
    """
    events = _events_for("cumulative", churn_events)
    kwargs, query, _ = CONFIGS["cumulative"]
    directory = str(tmp_path / "service")
    policy = _policy(checkpoint_every=100)  # force a full from-scratch replay
    service = SupervisedService(
        directory, n_shards=K, seed=SEED, executor="serial", policy=policy, **kwargs
    )
    for column, entrants, exits in events[:4]:
        service.observe(column, entrants=entrants, exits=exits)
    service.close()

    config_path = os.path.join(directory, "service.json")
    with open(config_path) as handle:
        config = json.load(handle)
    config["seed"] = SEED + 1
    with open(config_path, "w") as handle:
        json.dump(config, handle)
    with pytest.raises(RecoveryError):
        SupervisedService.attach(directory, executor="serial", policy=policy)


def test_zcdp_spend_is_monotone_across_recoveries(churn_events, tmp_path):
    events = _events_for("fixed_window", churn_events)
    kwargs, query, _ = CONFIGS["fixed_window"]
    directory = str(tmp_path / "service")
    policy = _policy(checkpoint_every=2)
    spends = []
    service = SupervisedService(
        directory, n_shards=K, seed=SEED, executor="serial", policy=policy, **kwargs
    )
    for column, entrants, exits in events[:4]:
        spends.append(service.observe(column, entrants=entrants, exits=exits).zcdp_spent)
    service.close()
    with SupervisedService.attach(directory, executor="serial", policy=policy) as resumed:
        assert resumed.zcdp_spent() == spends[-1]  # recovery never re-charges
        for column, entrants, exits in events[4:]:
            spends.append(
                resumed.observe(column, entrants=entrants, exits=exits).zcdp_spent
            )
    assert spends == sorted(spends)
    reference = ShardedService(K, seed=SEED, **kwargs)
    for column, entrants, exits in events:
        reference.observe(column, entrants=entrants, exits=exits)
    assert spends[-1] == reference.zcdp_spent()
    reference.close()


def _strip_noise_sampler(path) -> None:
    """Rewrite a bundle as one written before ``noise_sampler`` existed."""
    with zipfile.ZipFile(path) as bundle:
        members = {name: bundle.read(name) for name in bundle.namelist()}
    manifest = json.loads(members["manifest.json"])
    del manifest["noise_sampler"]
    members["manifest.json"] = json.dumps(manifest).encode()
    with zipfile.ZipFile(path, "w") as bundle:
        for name, data in members.items():
            bundle.writestr(name, data)


def test_checkpoint_without_noise_sampler_is_one_recovery_event(churn_events, tmp_path):
    events = _events_for("cumulative", churn_events)
    kwargs, query, _ = CONFIGS["cumulative"]
    directory = str(tmp_path / "service")
    policy = _policy(checkpoint_every=3)
    service = SupervisedService(
        directory, n_shards=K, seed=SEED, executor="serial", policy=policy, **kwargs
    )
    for column, entrants, exits in events[:4]:
        service.observe(column, entrants=entrants, exits=exits)
    service.close()
    _strip_noise_sampler(os.path.join(directory, "checkpoints", "ckpt-00000003.bundle"))

    with warnings.catch_warnings():
        warnings.simplefilter("error", NoiseSamplerWarning)
        resumed = SupervisedService.attach(directory, executor="serial", policy=policy)
    with resumed:
        notices = [event for event in resumed.events if "sampler" in event]
        assert len(notices) == 1
        assert "ckpt-00000003.bundle" in notices[0]
        assert "predates noise-sampler versioning" in notices[0]
        for column, entrants, exits in events[4:]:
            resumed.observe(column, entrants=entrants, exits=exits)
        # The stripped field changes nothing about the state: the run
        # still equals an uninterrupted one.
        assert resumed.service.state_fingerprints() == _reference("cumulative", events)[
            "fingerprints"
        ]


# ---------------------------------------------------------------------------
# Fail-closed / degraded parity across executors
# ---------------------------------------------------------------------------

EXECUTORS = ["serial", "thread", pytest.param("process", marks=needs_fork)]


def _poison_observables(executor, panel_columns):
    """Run the deterministic mid-round failure; collect what clients see."""
    service = ShardedService(
        4,
        algorithm="fixed_window",
        horizon=HORIZON,
        window=3,
        rho=1e-6,
        n_pad=0,
        on_negative="raise",
        seed=2,
        executor=executor,
    )
    try:
        with pytest.raises((NegativeCountError, ConsistencyError)):
            for column in panel_columns:
                service.observe(column)
        observed = {"spent": service.zcdp_spent()}
        for name, call in [
            ("observe", lambda: service.observe(panel_columns[0])),
            ("answer", lambda: service.answer(AtLeastMOnes(3, 1), 3)),
            ("checkpoint", lambda: service.checkpoint(io.BytesIO())),
            ("fingerprints", service.state_fingerprints),
        ]:
            with pytest.raises(ConsistencyError, match="desynchronized"):
                call()
            observed[name] = "ConsistencyError"
        return observed
    finally:
        service.close()


@pytest.mark.parametrize("executor", EXECUTORS)
def test_poisoned_service_parity_across_executors(executor):
    rng = np.random.default_rng(0)
    columns = [rng.integers(0, 2, size=40) for _ in range(HORIZON)]
    observed = _poison_observables(executor, columns)
    baseline = _poison_observables("serial", columns)
    assert observed == baseline


def _degraded_observables(executor, events):
    kwargs, query, start = CONFIGS["cumulative"]
    service = ShardedService(K, seed=SEED, executor=executor, **kwargs)
    try:
        for column, entrants, exits in events[:4]:
            service.observe(column, entrants=entrants, exits=exits)
        service.disable_shard(1, reason="chaos test")
        assert service.degraded
        with pytest.warns(DegradedServiceWarning):
            first = service.answer(query, 4)
        for column, entrants, exits in events[4:]:
            service.observe(column, entrants=entrants, exits=exits)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegradedServiceWarning)
            answers = [service.answer(query, t) for t in range(start, HORIZON + 1)]
        with pytest.raises(RecoveryError):
            service.checkpoint(io.BytesIO())
        return {
            "first": first,
            "answers": answers,
            "spent": service.zcdp_spent(),
            "ledgers": service.shard_ledgers(),
            "health": service.health_report(),
            "fingerprints": service.state_fingerprints(),
        }
    finally:
        service.close()


@pytest.mark.parametrize("executor", EXECUTORS)
def test_degraded_service_parity_across_executors(executor, churn_events):
    events = _events_for("cumulative", churn_events)
    observed = _degraded_observables(executor, events)
    baseline = _degraded_observables("serial", events)
    assert observed == baseline
    statuses = {entry["shard"]: entry["status"] for entry in observed["health"]}
    assert statuses[1] == "disabled"
    assert all(status == "ok" for shard, status in statuses.items() if shard != 1)
