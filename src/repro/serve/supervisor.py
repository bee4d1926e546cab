"""Supervised serving: heartbeats, bounded retries, crash recovery.

:class:`SupervisedService` wraps a
:class:`~repro.serve.sharded.ShardedService` with the machinery a
long-lived deployment needs to survive worker crashes *without breaking
the paper's one-release-per-round DP contract*:

* every published round is recorded in an append-only, checksummed,
  fsync'd :class:`~repro.serve.journal.ReleaseJournal` **before** it is
  acknowledged to the caller;
* the service checkpoints itself every ``policy.checkpoint_every``
  rounds (atomic tmp+rename writes, rolling retention), and the journal
  is compacted down to the tail the retained checkpoints still need;
* worker liveness is probed every ``policy.heartbeat_every`` rounds, and
  worker RPCs time out after ``policy.rpc_timeout`` seconds;
* a failed round triggers **crash recovery**: the inner service is torn
  down (kill-escalated), restored from the newest readable checkpoint,
  and the journal tail is *replayed* — the checkpoint carries every RNG
  bit-generator state, so the replay consumes the identical random bits
  the original run did, and each replayed round's per-shard state
  fingerprints (plus spend and probe answers) are verified against the
  journaled values.  A replay that diverges **fails closed** with
  :class:`~repro.exceptions.RecoveryError` instead of silently
  re-noising an already-published release.  The failed round itself was
  never journaled (never acknowledged), so resubmitting it draws the
  same noise an uninterrupted run would have — no double spend;
* after ``policy.max_retries`` failed attempts, an identified culprit
  shard can (opt-in, ``degraded_ok=True``) be disabled: the service then
  serves population-weighted answers from the surviving shards, flagged
  by :class:`~repro.exceptions.DegradedServiceWarning` and the per-shard
  :meth:`health_report`.  The default is to fail closed.

Example
-------
::

    from repro.serve import SupervisedService, RetryPolicy

    service = SupervisedService(
        "state/",  n_shards=4, algorithm="cumulative",
        horizon=64, rho=0.05, seed=7, executor="process",
        policy=RetryPolicy(rpc_timeout=30.0, checkpoint_every=8),
    )
    for column in arriving_columns:
        service.observe(column)                # journaled before return
    # ... crash, restart ...
    service = SupervisedService.attach("state/", executor="process")
    assert service.t == rounds_published       # recovered, never re-noised
"""

from __future__ import annotations

import json
import os
import time
import warnings

import numpy as np

from repro.exceptions import (
    ConfigurationError,
    ConsistencyError,
    DataValidationError,
    DegradedServiceWarning,
    NoiseSamplerWarning,
    RecoveryError,
    SerializationError,
)
from repro.serve.checkpoint import _decode_nonfinite, _encode_nonfinite
from repro.serve.journal import JournalRecord, ReleaseJournal
from repro.serve.policy import RetryPolicy
from repro.serve.sharded import ShardedService
from repro.types import AttributeFrame

__all__ = ["SupervisedService"]

#: Failure classes worth a recovery attempt; anything else (bad input,
#: misconfiguration, exhausted privacy budget) is not transient and
#: propagates immediately.
_TRANSIENT = (ConsistencyError, OSError, EOFError)

_SERVICE_FILE = "service.json"
_JOURNAL_FILE = "journal.log"
_CHECKPOINT_DIR = "checkpoints"
_CHECKPOINT_PREFIX = "ckpt-"
_CHECKPOINT_SUFFIX = ".bundle"


def _checkpoint_name(round_number: int) -> str:
    return f"{_CHECKPOINT_PREFIX}{round_number:08d}{_CHECKPOINT_SUFFIX}"


def _checkpoint_round(name: str) -> int | None:
    if not (name.startswith(_CHECKPOINT_PREFIX) and name.endswith(_CHECKPOINT_SUFFIX)):
        return None
    digits = name[len(_CHECKPOINT_PREFIX): -len(_CHECKPOINT_SUFFIX)]
    return int(digits) if digits.isdigit() else None


class SupervisedService:
    """Fault-tolerant façade over a sharded continual-release service.

    Parameters
    ----------
    directory:
        State directory.  A fresh directory is initialized with a
        ``service.json`` config, an empty release journal, and a
        ``checkpoints/`` folder; a directory that already holds a
        ``service.json`` is **resumed** — the newest readable checkpoint
        is restored and the journal tail replayed (see
        :meth:`attach`).
    n_shards:
        Shard count for a fresh service (ignored on resume, where the
        persisted config wins; passing a conflicting value raises).
    algorithm:
        Algorithm tag for a fresh service (same resume rule).
    seed:
        Master seed for a fresh service.  **Required** (an explicit
        ``int``): crash recovery may need to rebuild the service from
        its config and replay the journal from round 1, which is only
        byte-reproducible with a concrete seed.
    executor:
        Shard-stepping strategy (``"serial"``/``"thread"``/``"process"``
        or ``None`` for the environment default); not persisted — each
        attach may pick a different one.
    policy:
        The :class:`~repro.serve.policy.RetryPolicy`; ``None`` uses
        :meth:`RetryPolicy.from_env`.
    probe_queries:
        Optional mapping of label → query object.  Each published
        round's probe answers are recorded in the journal and verified
        on replay (pure post-processing of the release — no extra
        privacy cost).  Not persisted (query objects are code); pass
        them again on :meth:`attach` to re-arm answer verification.
    degraded_ok:
        Opt-in graceful degradation: when recovery keeps failing on one
        identifiable shard, disable it and serve from the survivors
        (flagged via :class:`~repro.exceptions.DegradedServiceWarning`)
        instead of failing closed.  Default ``False`` — fail closed.
    **synthesizer_kwargs:
        Per-shard synthesizer configuration for a fresh service
        (``horizon``, ``rho``, ``window`` …); must be JSON-serializable
        (``math.inf`` is handled) because it is persisted in
        ``service.json`` for recovery rebuilds.

    Raises
    ------
    repro.exceptions.ConfigurationError
        On a missing/non-``int`` seed for a fresh service, config
        conflicting with a resumed directory's persisted config, or an
        invalid policy.
    repro.exceptions.RecoveryError
        If resuming cannot reconstruct the journaled state exactly.
    repro.exceptions.SerializationError
        If the journal (or ``service.json``) is corrupt mid-file.
    """

    def __init__(
        self,
        directory,
        *,
        n_shards: int | None = None,
        algorithm: str | None = None,
        seed: int | None = None,
        executor: str | None = None,
        policy: RetryPolicy | None = None,
        probe_queries: dict | None = None,
        degraded_ok: bool = False,
        **synthesizer_kwargs,
    ):
        self._directory = os.fspath(directory)
        self._executor_name = executor
        self._policy = RetryPolicy.from_env() if policy is None else policy
        self._probe_queries = dict(probe_queries or {})
        self._degraded_ok = bool(degraded_ok)
        self._needs_recovery = False
        self._closed = False
        self._journaled_spent = 0.0
        #: Human-readable supervision event log (recoveries, checkpoints,
        #: degradations) — for operators and tests; newest last.
        self.events: list[str] = []

        os.makedirs(os.path.join(self._directory, _CHECKPOINT_DIR), exist_ok=True)
        config_path = os.path.join(self._directory, _SERVICE_FILE)
        if os.path.exists(config_path):
            self._config = self._load_config(config_path)
            for name, value in (
                ("n_shards", n_shards),
                ("algorithm", algorithm),
                ("seed", seed),
            ):
                if value is not None and value != self._config[name]:
                    raise ConfigurationError(
                        f"{name}={value!r} conflicts with the persisted "
                        f"service config ({self._config[name]!r}); attach "
                        "without overriding identity parameters"
                    )
            if synthesizer_kwargs and synthesizer_kwargs != self._config["synthesizer_kwargs"]:
                raise ConfigurationError(
                    "synthesizer kwargs conflict with the persisted service "
                    "config; attach without them"
                )
        else:
            if not isinstance(seed, int) or isinstance(seed, bool):
                raise ConfigurationError(
                    "SupervisedService needs an explicit int seed: recovery "
                    "may rebuild the service from its config, which is only "
                    "byte-reproducible with a concrete seed"
                )
            if n_shards is None or algorithm is None:
                raise ConfigurationError(
                    "a fresh SupervisedService needs n_shards and algorithm"
                )
            self._config = {
                "n_shards": int(n_shards),
                "algorithm": str(algorithm),
                "seed": int(seed),
                "synthesizer_kwargs": dict(synthesizer_kwargs),
            }
            self._write_config(config_path)

        self._journal = ReleaseJournal(os.path.join(self._directory, _JOURNAL_FILE))
        for record in self._journal.records():
            self._journaled_spent = max(self._journaled_spent, record.zcdp_spent)
        self._service: ShardedService | None = None
        self._recover(reason="attach")

    # ------------------------------------------------------------------
    # Construction / config persistence
    # ------------------------------------------------------------------

    @classmethod
    def attach(
        cls,
        directory,
        *,
        executor: str | None = None,
        policy: RetryPolicy | None = None,
        probe_queries: dict | None = None,
        degraded_ok: bool = False,
    ) -> "SupervisedService":
        """Resume a supervised service from its state directory.

        Restores the newest readable checkpoint and replays the journal
        tail with byte-identity verification — published rounds are
        *replayed*, never re-noised.

        Parameters
        ----------
        directory:
            A state directory previously initialized by the constructor.
        executor:
            Shard-stepping strategy for the resumed service.
        policy:
            Supervision policy; ``None`` reads the environment.
        probe_queries:
            Label → query mapping matching the one used at create time
            (enables journal answer verification during replay).
        degraded_ok:
            Opt-in graceful degradation (see the constructor).

        Returns
        -------
        SupervisedService
            The recovered service, continuing at the journaled round.

        Raises
        ------
        repro.exceptions.RecoveryError
            If the journaled state cannot be reconstructed exactly.
        repro.exceptions.SerializationError
            On a corrupt journal or unreadable ``service.json``.
        """
        if not os.path.exists(os.path.join(os.fspath(directory), _SERVICE_FILE)):
            raise ConfigurationError(
                f"{os.fspath(directory)!r} holds no supervised service "
                "(missing service.json)"
            )
        return cls(
            directory,
            executor=executor,
            policy=policy,
            probe_queries=probe_queries,
            degraded_ok=degraded_ok,
        )

    @staticmethod
    def _load_config(path: str) -> dict:
        try:
            with open(path, "r", encoding="utf-8") as handle:
                raw = json.load(handle)
            config = _decode_nonfinite(raw)
            return {
                "n_shards": int(config["n_shards"]),
                "algorithm": str(config["algorithm"]),
                "seed": int(config["seed"]),
                "synthesizer_kwargs": dict(config["synthesizer_kwargs"]),
            }
        except (OSError, ValueError, KeyError, TypeError) as exc:
            raise SerializationError(
                f"cannot read supervised-service config {path!r}: {exc}"
            ) from exc

    def _write_config(self, path: str) -> None:
        try:
            payload = json.dumps(
                _encode_nonfinite(self._config), indent=2, sort_keys=True,
                allow_nan=False,
            )
        except (TypeError, ValueError) as exc:
            raise ConfigurationError(
                "supervised-service synthesizer kwargs must be JSON-"
                f"serializable (they are persisted for recovery): {exc}"
            ) from exc
        temp = path + ".tmp"
        with open(temp, "w", encoding="utf-8") as handle:
            handle.write(payload)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(temp, path)

    def _build_fresh(self) -> ShardedService:
        return ShardedService(
            self._config["n_shards"],
            algorithm=self._config["algorithm"],
            seed=self._config["seed"],
            executor=self._executor_name,
            policy=self._policy,
            **self._config["synthesizer_kwargs"],
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def directory(self) -> str:
        """The service's state directory."""
        return self._directory

    @property
    def journal(self) -> ReleaseJournal:
        """The underlying release journal (read access for audits)."""
        return self._journal

    @property
    def service(self) -> ShardedService:
        """The wrapped sharded service (replaced across recoveries)."""
        return self._service

    @property
    def policy(self) -> RetryPolicy:
        """The active supervision policy."""
        return self._policy

    @property
    def t(self) -> int:
        """Published (journaled) rounds so far — resume feeding from here."""
        return self._journal.last_round

    @property
    def degraded(self) -> bool:
        """True when the inner service is serving from a shard subset."""
        return self._service is not None and self._service.degraded

    def health_report(self) -> list[dict]:
        """Per-shard status of the inner service (see ``ShardedService``)."""
        return self._service.health_report()

    def zcdp_spent(self) -> float:
        """Service-wide zCDP spend, monotone across crashes and recovery.

        The maximum of the live service's spend and the highest spend
        ever journaled — so a degraded service (whose dead shard may
        have been the argmax) never *under*-reports, and no recovery
        path can make the reported spend rewind.
        """
        live = 0.0 if self._service is None else self._service.zcdp_spent()
        return max(live, self._journaled_spent)

    # ------------------------------------------------------------------
    # Serving
    # ------------------------------------------------------------------

    def answer(self, query, t: int, **kwargs) -> float:
        """Merged query answer at round ``t`` (see ``ShardedService.answer``).

        Parameters
        ----------
        query:
            Query object understood by the per-shard releases.
        t:
            Round to answer at (``1 <= t <= self.t``).
        **kwargs:
            Forwarded to the per-shard ``answer`` calls.

        Returns
        -------
        float
            The population-weighted merged answer; on a degraded
            service the merge covers the surviving shards and a
            :class:`~repro.exceptions.DegradedServiceWarning` is
            emitted.
        """
        if self._needs_recovery:
            self._recover(reason="answer after failure")
        return self._service.answer(query, t, **kwargs)

    def answer_batch(self, queries, times, **kwargs):
        """Merged answer grid for a workload (see ``ShardedService.answer_batch``).

        Recovers a failed service first, exactly like :meth:`answer`,
        then passes the batch through unchanged.

        Returns
        -------
        numpy.ndarray
            The ``(len(queries), len(times))`` merged grid.
        """
        if self._needs_recovery:
            self._recover(reason="answer_batch after failure")
        return self._service.answer_batch(queries, times, **kwargs)

    def observe(self, column, *, entrants: int = 0, exits=None) -> JournalRecord:
        """Ingest and durably publish the next round.

        The round is acknowledged (this method returns) only after its
        release is journaled — answers, per-shard state fingerprints,
        and spend, fsync'd to disk.  On a shard failure the supervisor
        runs bounded recover-and-retry (``policy.max_retries`` attempts
        with exponential backoff); the failed attempt was never
        journaled, so the retry draws the same noise an uninterrupted
        run would have.

        Parameters
        ----------
        column:
            The round's report vector over the active population (see
            ``ShardedService.observe``).
        entrants:
            Individuals entering this round.
        exits:
            Global ids departing as of this round.

        Returns
        -------
        JournalRecord
            The journaled release record (round, fingerprints, spend,
            probe answers).

        Raises
        ------
        repro.exceptions.DataValidationError
            On invalid input (never retried — fix the column).
        repro.exceptions.RecoveryError
            When the retry budget is exhausted and degradation is off
            (or impossible): the service fails closed.
        repro.exceptions.SerializationError
            On a corrupt journal or checkpoint discovered en route.
        """
        if self._closed:
            raise ConfigurationError("service is closed")
        if isinstance(column, AttributeFrame):
            if column.width != 1:
                raise ConfigurationError(
                    "SupervisedService journals single-column rounds; "
                    "multi-attribute frames are not supported yet — use "
                    "ShardedService directly for multi-attribute streams"
                )
            column = column.sole()
        column = np.asarray(column)
        round_number = self._journal.last_round + 1
        last_error: BaseException | None = None
        culprits: dict[int, int] = {}
        for attempt in range(self._policy.max_retries + 1):
            if attempt:
                time.sleep(self._policy.delay(attempt))
            try:
                if self._needs_recovery:
                    self._recover(reason=f"round {round_number} retry {attempt}")
                if self._journal.last_round >= round_number:
                    # The "failed" append actually reached the disk (e.g.
                    # a crash after write, before the ack) — the round is
                    # durable; re-ingesting it would double-publish.
                    return self._journal.records()[-1]
                self._heartbeat(round_number)
                self._service.observe(column, entrants=entrants, exits=exits)
                record = self._build_record(round_number, column, entrants, exits)
                try:
                    self._journal.append(record)
                except Exception:
                    # Applied in memory but not durable: the next attempt
                    # must roll the un-journaled round back via recovery.
                    self._needs_recovery = True
                    raise
                self._journaled_spent = max(self._journaled_spent, record.zcdp_spent)
                self._maybe_checkpoint(round_number)
                return record
            except DataValidationError:
                raise  # caller error; the service state is untouched
            except _TRANSIENT as exc:
                last_error = exc
                self._needs_recovery = True
                shard = getattr(exc, "shard_index", None)
                if shard is not None:
                    culprits[shard] = culprits.get(shard, 0) + 1
                self.events.append(
                    f"round {round_number} attempt {attempt + 1} failed: "
                    f"{type(exc).__name__}: {exc}"
                )
        if self._degraded_ok and culprits:
            culprit = max(culprits, key=lambda index: (culprits[index], -index))
            self._recover(
                reason=f"degrading after round {round_number} retries",
                disable=(culprit, f"failed {culprits[culprit]} recovery attempts"),
            )
            self._needs_recovery = False
            self._service.observe(column, entrants=entrants, exits=exits)
            record = self._build_record(round_number, column, entrants, exits)
            self._journal.append(record)
            self._journaled_spent = max(self._journaled_spent, record.zcdp_spent)
            self.events.append(
                f"round {round_number} published degraded (shard {culprit} disabled)"
            )
            return record
        raise RecoveryError(
            f"round {round_number} failed after {self._policy.max_retries + 1} "
            f"attempts ({type(last_error).__name__}: {last_error}); the "
            "service fails closed"
            + (
                ""
                if self._degraded_ok
                else " — pass degraded_ok=True to serve from surviving shards"
            )
        ) from last_error

    def _heartbeat(self, round_number: int) -> None:
        """Probe worker liveness; a dead worker fails the round up front."""
        every = self._policy.heartbeat_every
        if not every or round_number % every:
            return
        for entry in self._service.health_report():
            if entry["status"] == "dead":
                error = ConsistencyError(
                    f"heartbeat: shard {entry['shard']} worker is dead "
                    f"({entry['reason']})"
                )
                error.shard_index = entry["shard"]
                raise error

    def _build_record(
        self, round_number: int, column: np.ndarray, entrants: int, exits
    ) -> JournalRecord:
        exits_tuple = tuple(
            int(e) for e in (np.asarray([] if exits is None else exits).ravel())
        )
        fingerprints = tuple(
            "" if digest is None else digest
            for digest in self._service.state_fingerprints()
        )
        spent = max(self._service.zcdp_spent(), self._journaled_spent)
        answers = {}
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegradedServiceWarning)
            for label, query in self._probe_queries.items():
                try:
                    answers[label] = float(self._service.answer(query, round_number))
                except ConfigurationError:
                    # A windowed probe is undefined before its first
                    # answerable round; it joins the journal once live.
                    continue
        return JournalRecord(
            round=round_number,
            column=column,
            entrants=int(entrants),
            exits=exits_tuple,
            fingerprints=fingerprints,
            zcdp_spent=spent,
            answers=answers,
        )

    # ------------------------------------------------------------------
    # Checkpoints
    # ------------------------------------------------------------------

    def _checkpoint_paths(self) -> list[tuple[int, str]]:
        """Retained ``(round, path)`` pairs, oldest first."""
        folder = os.path.join(self._directory, _CHECKPOINT_DIR)
        entries = []
        for name in os.listdir(folder):
            round_number = _checkpoint_round(name)
            if round_number is not None:
                entries.append((round_number, os.path.join(folder, name)))
        return sorted(entries)

    def checkpoint(self) -> str:
        """Write a checkpoint now (also runs on the periodic cadence).

        The bundle is written to a temporary file and atomically renamed
        into ``checkpoints/ckpt-<round>.bundle``; old checkpoints beyond
        ``policy.checkpoint_retain`` are deleted, and the journal is
        compacted down to what the oldest retained checkpoint still
        needs.

        Returns
        -------
        str
            Path of the new checkpoint bundle.

        Raises
        ------
        repro.exceptions.RecoveryError
            On a degraded service (its full state no longer exists).
        """
        if self._needs_recovery:
            self._recover(reason="checkpoint after failure")
        round_number = self._journal.last_round
        folder = os.path.join(self._directory, _CHECKPOINT_DIR)
        path = os.path.join(folder, _checkpoint_name(round_number))
        temp = path + ".tmp"
        try:
            self._service.checkpoint(temp)
            os.replace(temp, path)
        finally:
            if os.path.exists(temp):
                os.unlink(temp)
        retained = self._checkpoint_paths()
        while len(retained) > self._policy.checkpoint_retain:
            _, stale = retained.pop(0)
            try:
                os.unlink(stale)
            except OSError:  # pragma: no cover - raced by an operator
                pass
        if retained:
            self._journal.compact(retained[0][0])
        self.events.append(f"checkpoint at round {round_number}")
        return path

    def _maybe_checkpoint(self, round_number: int) -> None:
        every = self._policy.checkpoint_every
        if self._service.degraded:
            return  # a degraded service has no complete state to snapshot
        if every and round_number % every == 0:
            self.checkpoint()

    # ------------------------------------------------------------------
    # Recovery
    # ------------------------------------------------------------------

    def _recover(
        self, *, reason: str, disable: tuple[int, str] | None = None
    ) -> None:
        """Tear down, restore the newest usable checkpoint, replay the tail.

        The DP-critical invariant lives here: journaled rounds are
        **replayed** through the restored service (same RNG state ⇒ same
        bytes) and verified against the journaled fingerprints/spend/
        answers — never re-noised.  Any divergence raises
        :class:`~repro.exceptions.RecoveryError`.
        """
        if self._service is not None:
            try:
                self._service.close()
            except Exception:  # pragma: no cover - teardown is best-effort
                pass
            self._service = None
        records = self._journal.records()
        service = None
        base_round = 0
        for round_number, path in reversed(self._checkpoint_paths()):
            try:
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always", NoiseSamplerWarning)
                    service = ShardedService.restore(
                        path, executor=self._executor_name, policy=self._policy
                    )
            except SerializationError as exc:
                self.events.append(
                    f"checkpoint {os.path.basename(path)} unreadable "
                    f"({exc}); trying an older one"
                )
                continue
            for notice in caught:
                if issubclass(notice.category, NoiseSamplerWarning):
                    self.events.append(
                        f"checkpoint {os.path.basename(path)}: {notice.message}"
                    )
                else:
                    warnings.warn_explicit(
                        notice.message, notice.category, notice.filename, notice.lineno
                    )
            base_round = round_number
            if service.t != round_number:
                raise RecoveryError(
                    f"checkpoint {os.path.basename(path)} claims round "
                    f"{round_number} but restored to t={service.t}"
                )
            break
        if service is None:
            if records and records[0].round != 1:
                raise RecoveryError(
                    "no readable checkpoint and the journal starts at round "
                    f"{records[0].round} (compacted); the journaled state "
                    "cannot be reconstructed — fail closed"
                )
            if not records and self._journal.base_round > 0:
                raise RecoveryError(
                    "no readable checkpoint and the journal was compacted to "
                    f"round {self._journal.base_round}; the journaled state "
                    "cannot be reconstructed — fail closed"
                )
            service = self._build_fresh()
        elif base_round > self._journal.last_round:
            # The journal lost acknowledged rounds (e.g. a truncated
            # tail) but the checkpoint proves they were published — it
            # is only ever written *after* its round was journaled.  The
            # checkpoint state is authoritative; fast-forward the
            # journal so round numbering stays aligned.
            self.events.append(
                f"journal ends at round {self._journal.last_round}, behind "
                f"checkpoint round {base_round} (truncated tail?); "
                "fast-forwarding the journal to the checkpoint"
            )
            self._journal.compact(base_round)
            records = []
        if disable is not None:
            index, why = disable
            service.disable_shard(index, why)
        replayed = 0
        for record in records:
            if record.round <= base_round:
                continue
            if record.round != service.t + 1:
                raise RecoveryError(
                    f"journal round {record.round} does not follow the "
                    f"restored state at t={service.t}; refusing to guess"
                )
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", DegradedServiceWarning)
                service.observe(
                    record.column,
                    entrants=record.entrants,
                    exits=list(record.exits),
                )
                self._verify_replay(service, record)
            replayed += 1
        self._service = service
        self._needs_recovery = False
        self.events.append(
            f"recovered ({reason}): checkpoint round {base_round} + "
            f"{replayed} journal rounds replayed"
        )

    def _verify_replay(self, service: ShardedService, record: JournalRecord) -> None:
        """Assert one replayed round reproduced the published bytes."""
        live = service.state_fingerprints()
        for index, journaled in enumerate(record.fingerprints):
            if not journaled or live[index] is None:
                continue  # shard was (or now is) disabled — nothing to compare
            if live[index] != journaled:
                raise RecoveryError(
                    f"replay of round {record.round} diverged on shard "
                    f"{index}: state fingerprint {live[index][:12]}… != "
                    f"journaled {journaled[:12]}… — continuing would re-noise "
                    "an already-published release; fail closed"
                )
        spent = service.zcdp_spent()
        if service.degraded:
            if spent > record.zcdp_spent + 1e-12:
                raise RecoveryError(
                    f"replay of round {record.round} overspent the journaled "
                    f"budget ({spent} > {record.zcdp_spent})"
                )
        elif spent != record.zcdp_spent:
            raise RecoveryError(
                f"replay of round {record.round} spent {spent}, journal "
                f"records {record.zcdp_spent} — the replay is not the "
                "published mechanism; fail closed"
            )
        self._journaled_spent = max(self._journaled_spent, record.zcdp_spent)
        if not service.degraded:
            for label, journaled_answer in record.answers.items():
                query = self._probe_queries.get(label)
                if query is None:
                    continue
                value = float(service.answer(query, record.round))
                same = (
                    value == journaled_answer
                    or (np.isnan(value) and np.isnan(journaled_answer))
                )
                if not same:
                    raise RecoveryError(
                        f"replay of round {record.round} answered probe "
                        f"{label!r} with {value!r}, journal records "
                        f"{journaled_answer!r} — refusing to republish a "
                        "different release"
                    )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def close(self) -> None:
        """Release workers, staging memory, and the journal handle.

        Idempotent; the state directory remains ready for
        :meth:`attach`.
        """
        if self._closed:
            return
        self._closed = True
        if self._service is not None:
            try:
                self._service.close()
            finally:
                self._service = None
        self._journal.close()

    def __enter__(self) -> "SupervisedService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"SupervisedService(directory={self._directory!r}, "
            f"t={self.t}, degraded={self.degraded})"
        )
