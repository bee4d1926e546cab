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
  serial/process executors.
"""

import dataclasses
import hashlib
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
    ConfigurationError,
    ConsistencyError,
    DegradedServiceWarning,
    NegativeCountError,
    NoiseSamplerWarning,
    RecoveryError,
)
from repro.queries import AtLeastMOnes, HammingAtLeast
from repro.queries.categorical import CategoryAtLeastM
from repro.serve import RetryPolicy, ShardedService, SupervisedService
from repro.serve.journal import ReleaseJournal, _frame

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


#: The policy variables earlier builds read; none may change a policy now.
LEFTOVER_POLICY_VARIABLES = {
    "REPRO_RPC_TIMEOUT": "0.001",
    "REPRO_MAX_RETRIES": "junk",
    "REPRO_BACKOFF_BASE": "9",
    "REPRO_BACKOFF_FACTOR": "9",
    "REPRO_BACKOFF_MAX": "9",
    "REPRO_HEARTBEAT_EVERY": "0",
    "REPRO_CHECKPOINT_EVERY": "1",
    "REPRO_CHECKPOINT_RETAIN": "9",
}


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


def test_leftover_policy_variables_are_ignored(churn_events, tmp_path, monkeypatch):
    """``policy=None`` means ``RetryPolicy()``, whatever the environment holds."""
    for name, value in LEFTOVER_POLICY_VARIABLES.items():
        monkeypatch.setenv(name, value)
    kwargs, _, _ = CONFIGS["cumulative"]
    directory = str(tmp_path / "svc")
    with SupervisedService(directory, n_shards=K, seed=SEED, **kwargs) as service:
        assert service.policy == RetryPolicy()
        column, entrants, exits = churn_events[0]
        service.observe(column, entrants=entrants, exits=exits)
    with SupervisedService.attach(directory) as resumed:
        assert resumed.policy == RetryPolicy()
        assert resumed.t == 1


@needs_fork
@pytest.mark.parametrize(
    "executor",
    ["serial", pytest.param("process", marks=needs_fork)],
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


def test_probe_narrower_than_the_window_joins_the_journal_when_live(
    churn_events, tmp_path
):
    """A width-1 probe has no released histogram before round ``k = 3``.

    Until then it is not live: every round still publishes, the journal
    keeps pace with the shards, and the probe is journaled from round 3.
    """
    kwargs = CONFIGS["fixed_window"][0]
    probes = {"narrow": AtLeastMOnes(1, 1)}
    directory = str(tmp_path / "service")
    policy = _policy(checkpoint_every=100)  # recovery replays every round
    with SupervisedService(
        directory,
        n_shards=K,
        seed=SEED,
        executor="serial",
        policy=policy,
        probe_queries=probes,
        **kwargs,
    ) as service:
        records = [
            service.observe(column, entrants=entrants, exits=exits)
            for column, entrants, exits in churn_events[:6]
        ]
        assert service.t == service.service.t == 6
    assert [record.round for record in records] == [1, 2, 3, 4, 5, 6]
    assert [sorted(record.answers) for record in records] == [[]] * 2 + [["narrow"]] * 4
    with SupervisedService.attach(
        directory, executor="serial", policy=policy, probe_queries=probes
    ) as resumed:
        assert resumed.events[-1].endswith("checkpoint round 0 + 6 journal rounds replayed")
        for record in records[2:]:
            assert resumed.answer(probes["narrow"], record.round) == record.answers["narrow"]


@pytest.mark.parametrize(
    "algorithm, probe",
    [
        ("fixed_window", HammingAtLeast(1)),
        ("cumulative", AtLeastMOnes(1, 1)),
        ("categorical_window", AtLeastMOnes(2, 1)),
    ],
    ids=["hamming-on-window", "window-on-cumulative", "binary-on-categorical"],
)
def test_a_probe_the_service_can_never_answer_is_refused(
    churn_events, tmp_path, algorithm, probe
):
    """A foreign probe fails at construction and at attach, naming its label.

    Skipped silently, it would publish every round with no answer for it.
    """
    kwargs, query, _ = CONFIGS[algorithm]
    events = _events_for(algorithm, churn_events)
    directory = str(tmp_path / "service")
    with pytest.raises(ConfigurationError, match="probe 'typo' can never be answered"):
        SupervisedService(
            directory, n_shards=K, seed=SEED, executor="serial",
            probe_queries={"typo": probe}, **kwargs,
        )
    with SupervisedService.attach(
        directory, executor="serial", probe_queries={"probe": query}
    ) as service:
        for column, entrants, exits in events[:4]:
            service.observe(column, entrants=entrants, exits=exits)
    with pytest.raises(ConfigurationError, match="probe 'typo' can never be answered"):
        SupervisedService.attach(
            directory, executor="serial", probe_queries={"probe": query, "typo": probe}
        )


def test_a_failure_after_ingest_rolls_the_round_back(churn_events, tmp_path, monkeypatch):
    """Shards that ingested an unjournaled round are recovered first."""
    kwargs, query, _ = CONFIGS["fixed_window"]
    with SupervisedService(
        str(tmp_path / "service"),
        n_shards=K,
        seed=SEED,
        executor="serial",
        policy=_policy(checkpoint_every=100),
        probe_queries={"probe": query},
        **kwargs,
    ) as service:
        column, entrants, exits = churn_events[0]
        build_record = service._build_record

        def fail_once(*args):
            monkeypatch.setattr(service, "_build_record", build_record)
            raise RuntimeError("injected")

        monkeypatch.setattr(service, "_build_record", fail_once)
        with pytest.raises(RuntimeError, match="injected"):
            service.observe(column, entrants=entrants, exits=exits)
        assert service.t == 0
        record = service.observe(column, entrants=entrants, exits=exits)
        assert record.round == service.t == service.service.t == 1


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


def _rezip(members: dict[str, bytes], stored) -> bytes:
    """A zip of ``members``: ``stored(name)`` ones stored, the rest at zlib's default."""
    buffer = io.BytesIO()
    with zipfile.ZipFile(buffer, "w") as bundle:
        for name, data in members.items():
            kind = zipfile.ZIP_STORED if stored(name) else zipfile.ZIP_DEFLATED
            bundle.writestr(name, data, compress_type=kind)
    return buffer.getvalue()


def _rewrite_with_default_level(path) -> None:
    """Rewrite a sharded bundle as builds before per-member compression wrote it.

    Those builds deflated every member at zlib's default level and stored
    every array of the sharded bundle, its plain ``shard_of``, ``active``
    and ``boundaries`` as well as the nested shard bundles.  The nested
    bundles are rewritten the same way and re-signed in the manifest.
    """
    with zipfile.ZipFile(path) as bundle:
        members = {name: bundle.read(name) for name in bundle.namelist()}
    manifest = json.loads(members["manifest.json"])
    for name in [name for name in members if name.endswith("/bundle.npy")]:
        blob = np.load(io.BytesIO(members[name])).tobytes()
        with zipfile.ZipFile(io.BytesIO(blob)) as inner:
            nested = {member: inner.read(member) for member in inner.namelist()}
        npy = io.BytesIO()
        np.save(npy, np.frombuffer(_rezip(nested, lambda _: False), dtype=np.uint8))
        members[name] = npy.getvalue()
        key = name[len("arrays/"):-len(".npy")]
        manifest["array_checksums"][key] = hashlib.sha256(members[name]).hexdigest()
    members["manifest.json"] = json.dumps(manifest, indent=2, sort_keys=True).encode()
    with open(path, "wb") as handle:
        handle.write(_rezip(members, lambda name: name.startswith("arrays/")))


def test_bundle_with_default_level_members_restores_and_replays(churn_events, tmp_path):
    """A bundle an earlier build wrote restores, replays its tail, and runs on identically."""
    events = _events_for("fixed_window", churn_events)
    kwargs, query, start = CONFIGS["fixed_window"]
    directory = str(tmp_path / "service")
    policy = _policy(checkpoint_every=3)
    with SupervisedService(
        directory, n_shards=K, seed=SEED, executor="serial", policy=policy,
        probe_queries={"probe": query}, **kwargs,
    ) as service:
        for column, entrants, exits in events[:5]:
            service.observe(column, entrants=entrants, exits=exits)
    path = os.path.join(directory, "checkpoints", "ckpt-00000003.bundle")
    _rewrite_with_default_level(path)
    with zipfile.ZipFile(path) as bundle:
        kinds = {info.filename: info.compress_type for info in bundle.infolist()}
    assert kinds["arrays/shard_of.npy"] == zipfile.ZIP_STORED

    with SupervisedService.attach(
        directory, executor="serial", policy=policy, probe_queries={"probe": query}
    ) as resumed:
        assert resumed.events[-1].endswith("checkpoint round 3 + 2 journal rounds replayed")
        for column, entrants, exits in events[5:]:
            resumed.observe(column, entrants=entrants, exits=exits)
        reference = _reference("fixed_window", events)
        assert resumed.service.state_fingerprints() == reference["fingerprints"]
        answers = [resumed.answer(query, t) for t in range(start, HORIZON + 1)]
        assert answers == reference["answers"]


# ---------------------------------------------------------------------------
# Journals written under an earlier fingerprint scheme
# ---------------------------------------------------------------------------


def _rewrite_fingerprints(directory, scheme_prefix):
    """Re-tag every journaled fingerprint, as an earlier build wrote them.

    ``scheme_prefix`` replaces the scheme tag: ``""`` leaves the bare hex
    digest journals held before schemes were named.
    """
    journal = ReleaseJournal(os.path.join(directory, "journal.log"))
    legacy = [
        dataclasses.replace(
            record,
            fingerprints=tuple(
                scheme_prefix + digest.rpartition(":")[2] for digest in record.fingerprints
            ),
        )
        for record in journal.records()
    ]
    journal._rewrite(
        [(record.round, _frame(record.payload())) for record in legacy], journal.base_round
    )
    journal.close()
    return [record.round for record in legacy]


@pytest.mark.parametrize(
    "scheme_prefix, written",
    [
        ("", "before fingerprint schemes were named"),
        ("sha256-v0:", "under fingerprint scheme 'sha256-v0'"),
    ],
    ids=["untagged", "other-scheme"],
)
def test_replaying_a_legacy_journal_names_the_scheme(
    scheme_prefix, written, churn_events, tmp_path
):
    events = _events_for("fixed_window", churn_events)
    kwargs, _, _ = CONFIGS["fixed_window"]
    directory = str(tmp_path / "service")
    policy = _policy(checkpoint_every=100)  # the whole journal is the tail
    service = SupervisedService(
        directory, n_shards=K, seed=SEED, executor="serial", policy=policy, **kwargs
    )
    for column, entrants, exits in events[:4]:
        service.observe(column, entrants=entrants, exits=exits)
    service.close()
    assert _rewrite_fingerprints(directory, scheme_prefix) == [1, 2, 3, 4]
    with pytest.raises(RecoveryError) as caught:
        SupervisedService.attach(directory, executor="serial", policy=policy)
    message = str(caught.value)
    assert f"journal round 1 was written {written}" in message
    assert "predates this build's fingerprint scheme" in message
    assert "checkpoint" in message and "before upgrading" in message
    assert "diverged" not in message


def test_checkpoint_at_the_journal_tip_crosses_the_scheme_change(
    churn_events, tmp_path
):
    events = _events_for("fixed_window", churn_events)
    kwargs, _, _ = CONFIGS["fixed_window"]
    directory = str(tmp_path / "service")
    policy = _policy(checkpoint_every=2, checkpoint_retain=2)
    service = SupervisedService(
        directory, n_shards=K, seed=SEED, executor="serial", policy=policy, **kwargs
    )
    for column, entrants, exits in events[:4]:
        service.observe(column, entrants=entrants, exits=exits)
    service.close()
    # Checkpoints at rounds 2 and 4; the journal keeps 3..4 for the older.
    assert _rewrite_fingerprints(directory, "") == [3, 4]
    with SupervisedService.attach(directory, executor="serial", policy=policy) as resumed:
        assert resumed.t == 4
        for column, entrants, exits in events[4:]:
            record = resumed.observe(column, entrants=entrants, exits=exits)
            assert all(f.startswith("merkle-sha256-v1:") for f in record.fingerprints)
        assert resumed.service.state_fingerprints() == _reference("fixed_window", events)[
            "fingerprints"
        ]


# ---------------------------------------------------------------------------
# Fail-closed / degraded parity across executors
# ---------------------------------------------------------------------------

EXECUTORS = ["serial", pytest.param("process", marks=needs_fork)]


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
