"""``serve-demo``: replay the SIPP panel through the online serving layer.

A self-verifying walkthrough of :mod:`repro.serve`, runnable from the CLI
(``python -m repro.experiments serve-demo``) and exercised as a smoke leg
in CI.  It feeds the SIPP poverty panel to a
:class:`~repro.serve.streaming.StreamingSynthesizer` one month at a time —
the true-online model, no panel up front — and checks, round by round:

1. **online == offline** — a noiseless twin stream matches the offline
   ``run()`` on the concatenated panel bit for bit;
2. **checkpoint/restore** — the noisy stream is checkpointed mid-stream
   and restored, and the resumed stream's remaining releases are
   byte-identical to the uninterrupted one's;
3. **tamper rejection** — a corrupted bundle is refused with
   :class:`~repro.exceptions.SerializationError`;
4. **sharded consistency** — a :class:`~repro.serve.sharded.ShardedService`
   over the same columns reports per-shard ledgers at the configured
   budget and merges answers within the population-weighted contract.

With ``--chaos`` (``chaos=True``) a fifth leg drives a
:class:`~repro.serve.supervisor.SupervisedService` through the same
columns while the :class:`~repro.testing.faults.FaultInjector` kills a
shard worker mid-stream, corrupts the newest checkpoint bundle, and
tears the journal tail — and verifies that every recovery is
byte-identical to the undisturbed service (released rounds are
replayed, never re-noised).
"""

from __future__ import annotations

import io
import math

import numpy as np

from repro.data.sipp import load_sipp_2021, preprocess_sipp, simulate_sipp_raw
from repro.exceptions import ConfigurationError, SerializationError
from repro.experiments.config import FigureResult
from repro.queries import HammingAtLeast
from repro.serve import ShardedService, StreamingSynthesizer

__all__ = ["run_serve_demo"]


def _load_panel(n_households: int | None, seed: int):
    """Full SIPP panel by default; a smaller simulated cut for smoke runs."""
    if n_households is None:
        return load_sipp_2021(seed=seed)
    raw = simulate_sipp_raw(n_households=n_households, seed=seed)
    return preprocess_sipp(raw)


def _run_chaos_leg(result, columns, horizon, rho, seed, n_shards) -> None:
    """Leg 5: supervised serving under injected faults, byte-identity checked.

    Builds the undisturbed :class:`~repro.serve.sharded.ShardedService`
    reference, then replays the same columns through a
    :class:`~repro.serve.supervisor.SupervisedService` while a seeded
    :class:`~repro.testing.faults.FaultInjector` kills a shard worker
    mid-stream (process executor only — skipped without ``fork``),
    flips bytes in the newest checkpoint bundle, and tears the journal
    tail.  Every recovery must reproduce the reference state
    fingerprints exactly: published rounds are replayed, never
    re-noised.
    """
    import multiprocessing as mp
    import os
    import shutil
    import tempfile

    from repro.serve import RetryPolicy, ShardedService, SupervisedService
    from repro.testing.faults import FaultInjector

    can_fork = "fork" in mp.get_all_start_methods()
    executor = "process" if can_fork else "serial"
    policy = RetryPolicy(
        rpc_timeout=60.0,
        max_retries=2,
        backoff_base=0.01,
        checkpoint_every=max(2, horizon // 3),
        checkpoint_retain=2,
    )
    injector = FaultInjector(seed=seed)

    reference = ShardedService(
        n_shards, algorithm="cumulative", horizon=horizon, rho=rho, seed=seed
    )
    for column in columns:
        reference.observe(column)
    expected_fingerprints = reference.state_fingerprints()
    expected_spent = reference.zcdp_spent()
    reference.close()

    tmp = tempfile.mkdtemp(prefix="repro-chaos-")
    try:
        directory = os.path.join(tmp, "service")
        cut = max(1, len(columns) // 2)
        service = SupervisedService(
            directory, n_shards=n_shards, algorithm="cumulative", seed=seed,
            executor=executor, policy=policy, horizon=horizon, rho=rho,
        )
        for column in columns[:cut]:
            service.observe(column)
        if can_fork:
            injector.kill_worker(service, injector.pick_shard(n_shards))
        for column in columns[cut:]:
            service.observe(column)
        result.check(
            "chaos: state byte-identical after mid-stream worker kill -> recovery",
            service.service.state_fingerprints() == expected_fingerprints,
        )
        result.check(
            "chaos: zCDP spend never exceeds the undisturbed budget",
            service.zcdp_spent() <= expected_spent + 1e-12,
        )
        service.checkpoint()
        service.close()

        # Storage faults run on independent copies of the state directory
        # so each scenario sees the same intact starting point.
        torn = os.path.join(tmp, "torn-journal")
        shutil.copytree(directory, torn)
        injector.truncate_tail(os.path.join(torn, "journal.log"), 40)
        with SupervisedService.attach(torn, executor="serial", policy=policy) as resumed:
            result.check(
                "chaos: torn journal tail -> checkpoint-backed recovery, byte-identical",
                resumed.t == len(columns)
                and resumed.service.state_fingerprints() == expected_fingerprints,
            )

        damaged = os.path.join(tmp, "bad-checkpoint")
        shutil.copytree(directory, damaged)
        checkpoints = sorted(os.listdir(os.path.join(damaged, "checkpoints")))
        injector.corrupt_bytes(
            os.path.join(damaged, "checkpoints", checkpoints[-1]), 64
        )
        with SupervisedService.attach(damaged, executor="serial", policy=policy) as resumed:
            result.check(
                "chaos: corrupted checkpoint -> journal replay, byte-identical",
                resumed.t == len(columns)
                and resumed.service.state_fingerprints() == expected_fingerprints,
            )
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def run_serve_demo(
    n_reps: int = 1,
    seed: int = 0,
    *,
    rho: float = 0.005,
    n_households: int | None = None,
    checkpoint_round: int | None = None,
    n_shards: int = 4,
    chaos: bool = False,
    strategy: str | None = None,
    n_jobs: int | None = None,
) -> FigureResult:
    """Run the online-serving demonstration and self-checks.

    Parameters
    ----------
    n_reps:
        Accepted for registry compatibility; the demo is a single
        deterministic pass and ignores repetition counts.
    seed:
        Master seed for the panel and every stream.
    rho:
        Per-stream zCDP budget (the paper's headline 0.005 by default).
    n_households:
        Simulate a smaller SIPP cut instead of the full N=23374 panel
        (used by the CI smoke leg).
    checkpoint_round:
        Round after which the noisy stream is checkpointed (default:
        horizon // 2).
    n_shards:
        Shard count for the sharded-service leg.
    chaos:
        Run the fault-injection leg: a supervised service survives a
        mid-stream worker kill, a corrupted checkpoint, and a torn
        journal tail with byte-identical recoveries.
    strategy, n_jobs:
        Accepted for CLI-uniformity; the demo does not replicate.

    Returns
    -------
    FigureResult
        Per-round release fractions plus the named self-checks
        (``all_checks_pass`` drives the CLI exit code).
    """
    del n_reps, strategy, n_jobs  # single-pass demo; knobs kept for CLI symmetry
    panel = _load_panel(n_households, seed)
    horizon = panel.horizon
    columns = list(panel.columns())
    cut = horizon // 2 if checkpoint_round is None else int(checkpoint_round)
    if not 1 <= cut <= horizon:
        raise ConfigurationError(
            f"checkpoint_round must lie in [1, T={horizon}], got {cut}"
        )
    result = FigureResult(
        experiment_id="serve-demo",
        title="Online serving: round-by-round ingestion, checkpoint/resume, shards",
        parameters={
            "n": panel.n_individuals,
            "T": horizon,
            "rho": rho,
            "checkpoint_round": cut,
            "n_shards": n_shards,
        },
        paper_expectation=(
            "the continual-release model: one bit per individual per round, "
            "a publishable release after every round"
        ),
    )

    # -- leg 1: noiseless online stream == offline run() ----------------
    online = StreamingSynthesizer.cumulative(horizon=horizon, rho=math.inf, seed=seed)
    for column in columns:
        online.observe(column)
    from repro.core.cumulative import CumulativeSynthesizer

    offline = CumulativeSynthesizer(horizon, math.inf, seed=seed)
    offline.run(panel)
    result.check(
        "online releases bit-exact with offline run() (noiseless)",
        bool(
            np.array_equal(
                online.release.threshold_table(), offline.release.threshold_table()
            )
        ),
    )

    # -- leg 2: noisy stream, mid-stream checkpoint, byte-identical resume
    query = HammingAtLeast(3)
    uninterrupted = StreamingSynthesizer.cumulative(horizon=horizon, rho=rho, seed=seed)
    per_round = []
    buffer = io.BytesIO()
    for round_index, column in enumerate(columns, start=1):
        release = uninterrupted.observe(column)
        per_round.append(release.answer(query, round_index))
        if round_index == cut:
            uninterrupted.checkpoint(buffer)
    buffer.seek(0)
    resumed = StreamingSynthesizer.restore(buffer)
    identical = resumed.t == cut
    for column in columns[cut:]:
        resumed.observe(column)
    identical = identical and np.array_equal(
        uninterrupted.release.threshold_table(), resumed.release.threshold_table()
    )
    result.check("restored stream byte-identical under noise", bool(identical))
    original_acct = uninterrupted.synthesizer.accountant
    resumed_acct = resumed.synthesizer.accountant
    ledger_ok = (
        original_acct.charges == resumed_acct.charges
        if original_acct is not None and resumed_acct is not None
        # rho=inf runs noiseless with no ledger on either side.
        else original_acct is None and resumed_acct is None
    )
    result.check("restored zCDP ledger identical", bool(ledger_ok))

    # -- leg 3: tampered bundles are refused -----------------------------
    blob = bytearray(buffer.getvalue())
    blob[len(blob) // 2] ^= 0xFF
    try:
        StreamingSynthesizer.restore(io.BytesIO(bytes(blob)))
        tamper_rejected = False
    except SerializationError:
        tamper_rejected = True
    result.check("tampered bundle rejected with SerializationError", tamper_rejected)

    # -- leg 4: sharded service ------------------------------------------
    service = ShardedService(
        n_shards,
        algorithm="cumulative",
        horizon=horizon,
        rho=rho,
        seed=seed,
    )
    for column in columns:
        service.observe(column)
    ledgers = service.shard_ledgers()
    # Noiseless services (rho=inf) keep no ledgers and report zero spend.
    expected_spend = 0.0 if math.isinf(rho) else rho
    result.check(
        "every shard spent exactly its rho budget",
        all(math.isclose(spent, expected_spend, rel_tol=1e-9) for spent, _ in ledgers),
    )
    result.check(
        "service-wide spend is the parallel-composition max",
        math.isclose(service.zcdp_spent(), expected_spend, rel_tol=1e-9),
    )
    # Exactness of the merge itself (independent of noise level): with
    # noiseless shards every per-shard release is exact, so the
    # population-weighted merge must equal the empirical truth.
    exact_service = ShardedService(
        n_shards,
        algorithm="cumulative",
        horizon=horizon,
        rho=math.inf,
        seed=seed,
    )
    for column in columns:
        exact_service.observe(column)
    truth_final = query.evaluate(panel, horizon)
    result.check(
        "noiseless sharded merge equals the exact population fraction",
        math.isclose(exact_service.answer(query, horizon), truth_final, rel_tol=1e-12),
    )

    # -- leg 5 (opt-in): fault injection against the supervised service --
    if chaos:
        chaos_rho = rho if math.isfinite(rho) else 0.05
        _run_chaos_leg(result, columns, horizon, chaos_rho, seed, n_shards)

    from repro.analysis.metrics import SeriesSummary

    answers = np.asarray(per_round, dtype=np.float64)
    truth = np.array([query.evaluate(panel, t) for t in range(1, horizon + 1)])
    result.summaries.append(
        SeriesSummary.from_samples(
            x=np.arange(1, horizon + 1),
            samples=answers[None, :],
            truth=truth,
            label=f"P[>=3 poverty months] per round (rho={rho})",
        )
    )
    return result
