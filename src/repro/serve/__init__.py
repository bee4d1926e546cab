"""Online serving subsystem: incremental ingestion, durability, sharding.

The paper's model is *continual*: the curator observes one bit per
individual per round and must publish after every round.  This package is
the serving-side layer for that model, on top of the algorithm cores in
:mod:`repro.core`:

* :class:`~repro.serve.streaming.StreamingSynthesizer` — true-online
  ingestion: ``observe(data) -> Release`` for one ``(n,)`` report column
  (or multi-attribute :class:`~repro.types.AttributeFrame`) at a time
  (no panel up front), per-round releases bit-exact with the offline
  ``run()``.
* :meth:`~repro.serve.streaming.StreamingSynthesizer.checkpoint` /
  :meth:`~repro.serve.streaming.StreamingSynthesizer.restore` — durable
  state: the full mid-stream state (counter-bank arrays, threshold table,
  synthetic store, zCDP ledger, RNG bit-generator states) round-trips
  through a versioned, checksummed bundle, and a restored stream
  continues **byte-identically**, noise included.
* :class:`~repro.serve.sharded.ShardedService` — the multi-tenant
  scaling primitive: K independent shards over a partitioned population,
  per-shard budgets (parallel composition), merged query answers, and
  whole-service checkpointing.
* :mod:`repro.serve.executor` — how shards are stepped:
  :data:`~repro.serve.executor.EXECUTOR_STRATEGIES` (``"serial"``,
  ``"process"``), byte-identical; the process strategy keeps each shard
  in a persistent forked worker, stages round columns through shared
  memory, and isolates a crashing shard.
* :mod:`repro.serve.checkpoint` — the bundle format itself
  (``manifest.json`` + streamed ``arrays/<key>.npy`` members in one
  zip, SHA-256 integrity checks,
  :class:`~repro.exceptions.SerializationError` on corruption).
* :class:`~repro.serve.supervisor.SupervisedService` — the
  fault-tolerance layer: every published round is recorded in an
  append-only fsync'd :class:`~repro.serve.journal.ReleaseJournal`
  before it is acknowledged, the service checkpoints itself
  periodically, and crash recovery *replays* the journal tail
  byte-identically (never re-noising a published release), driven by
  the knobs of a :class:`~repro.serve.policy.RetryPolicy`.

See the "serving", "scaling out", "checkpoint format", and "fault
tolerance" pages of the docs site (``docs/``) for a guided tour.
"""

from repro.serve.checkpoint import (
    FORMAT_NAME,
    FORMAT_VERSION,
    SUPPORTED_VERSIONS,
    read_bundle,
    state_fingerprint,
    write_bundle,
)
from repro.serve.executor import (
    EXECUTOR_STRATEGIES,
    ProcessShardExecutor,
    SerialShardExecutor,
    ShardExecutor,
)
from repro.serve.journal import JournalRecord, ReleaseJournal
from repro.serve.policy import RetryPolicy
from repro.serve.sharded import ShardedService
from repro.serve.streaming import StreamingSynthesizer
from repro.serve.supervisor import SupervisedService

__all__ = [
    "StreamingSynthesizer",
    "ShardedService",
    "SupervisedService",
    "ReleaseJournal",
    "JournalRecord",
    "RetryPolicy",
    "ShardExecutor",
    "SerialShardExecutor",
    "ProcessShardExecutor",
    "EXECUTOR_STRATEGIES",
    "read_bundle",
    "write_bundle",
    "state_fingerprint",
    "FORMAT_NAME",
    "FORMAT_VERSION",
    "SUPPORTED_VERSIONS",
]
