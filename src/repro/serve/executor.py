"""Shard-stepping strategies: serial and process-parallel.

A :class:`ShardExecutor` owns the per-shard
:class:`~repro.serve.streaming.StreamingSynthesizer` instances of a
:class:`~repro.serve.sharded.ShardedService` and answers one question:
*how* does a round fan out across the ``K`` shards?

``"serial"``
    Shards advance one after another in the calling thread, stopping at
    the first failure.

``"process"``
    One **persistent forked worker per shard**.  Each shard object lives
    in its worker from fork time on — nothing is pickled, ever — and the
    parent talks to it over a :func:`multiprocessing.Pipe` with small
    tagged messages.  Round columns travel through one
    :class:`multiprocessing.shared_memory` staging segment: the parent
    writes each round's per-shard slices into it and sends only offsets,
    so a 10M-row column crosses the process boundary without
    serialization.  The segment doubles whenever a round outgrows it.

Either way :meth:`ShardExecutor.dispatch_round` ingests the whole round
before it returns: a shard's rounds are strictly sequential (each
release extends the one before), so exactly one round is ever in
flight, and the staging segment is free again once it returns.

Both strategies produce byte-identical releases, ledgers, and
checkpoint bundles; ``tests/serve/test_executors.py`` locks that in.
The process strategy is also the one that isolates a crashing shard:
a killed worker fails its own requests, and the supervisor recovers it.
The process strategy requires the ``fork`` start method (Linux, macOS
with the default ``spawn`` overridden) because forking is what moves
the shard state into the workers for free.
"""

from __future__ import annotations

import io
import multiprocessing as mp
import weakref

import numpy as np

from repro.exceptions import ConfigurationError, ConsistencyError
from repro.types import AttributeFrame

__all__ = [
    "EXECUTOR_STRATEGIES",
    "ShardExecutor",
    "SerialShardExecutor",
    "ProcessShardExecutor",
    "make_executor",
    "merge_weight",
]


def _tag_shard(exc: BaseException, index: int) -> BaseException:
    """Best-effort: record which shard raised ``exc`` (for supervision)."""
    try:
        if getattr(exc, "shard_index", None) is None:
            exc.shard_index = index
    except Exception:  # pragma: no cover - exotic __slots__ exceptions
        pass
    return exc


def _round_failure(
    exc: BaseException, *, dispatched: int, completed: int
) -> BaseException:
    """Best-effort: record how far a failed round got before ``exc``.

    ``dispatched`` counts the shards that received the round and
    ``completed`` those that ingested it; the sharded service reads both
    to decide whether the failure is retryable or poisons the service.
    """
    try:
        exc.dispatched = dispatched
        exc.completed = completed
    except Exception:  # pragma: no cover - exotic __slots__ exceptions
        pass
    return exc


#: Recognized ``executor=`` strategy names, in documentation order.
EXECUTOR_STRATEGIES = ("serial", "process")


def merge_weight(algorithm: str, release, t: int, **kwargs) -> float:
    """Population weight of one shard's answers at round ``t``.

    Each weight equals the denominator of that shard's answer at ``t``,
    so the service's weighted average is exactly the fraction over the
    union of shard populations — also under churn, where the shard
    populations move round by round.
    """
    if algorithm == "cumulative":
        return release.threshold_count(0, t)
    # Debiased window answers are fractions of the real sub-population;
    # biased ones are fractions of the padded synthetic population.
    if kwargs.get("debias", True):
        return release.population(t)
    return release.synthetic_population(t)


def _shard_grid(
    algorithm: str, release, queries, times, kwargs: dict, memo: dict
) -> tuple[np.ndarray, np.ndarray]:
    """One shard's ``(weights, grid)`` for a workload.

    ``grid`` is the shard release's ``answer_batch`` grid and ``weights``
    its merge weight per round (see :func:`merge_weight`).  The weights
    are pure functions of shard state, so they are memoized in ``memo``
    per ``(t, kwargs)``; the caller clears ``memo`` whenever the shard
    ingests a round.  Module-level, not a method, so the serial executor
    and the process workers share it without shipping release objects.
    """
    try:
        options = tuple(sorted(kwargs.items()))
        hash(options)
    except TypeError:  # unhashable keywords: computed, never memoized
        options = None
    weights = np.empty(len(times), dtype=np.float64)
    for i, t in enumerate(times):
        key = (int(t), options)
        weight = None if options is None else memo.get(key)
        if weight is None:
            weight = merge_weight(algorithm, release, t, **kwargs)
            if options is not None:
                memo[key] = weight
        weights[i] = weight
    grid = release.answer_batch(list(queries), [int(t) for t in times], **kwargs)
    return weights, np.asarray(grid)


class ShardExecutor:
    """Common surface of the two stepping strategies.

    Subclasses own the shard synthesizers; the sharded service goes
    through this interface for everything that touches shard state, so
    the parallelism strategy is invisible above it.

    Parameters
    ----------
    shards:
        The per-shard :class:`~repro.serve.streaming.StreamingSynthesizer`
        instances, in shard order.  The executor takes ownership: the
        process strategy moves them into forked workers, after which the
        caller's references are stale.
    algorithm:
        The service's algorithm tag (``"cumulative"`` …), used to pick
        the per-shard merge weight when answering queries.
    policy:
        Optional :class:`~repro.serve.policy.RetryPolicy` supplying the
        per-request RPC timeout used by the process strategy; ``None``
        keeps the pre-supervision block-forever behavior.
    """

    strategy: str = "?"

    def __init__(self, shards: list, algorithm: str, policy=None):
        self._shards = list(shards)
        self._algorithm = str(algorithm)
        self._policy = policy
        self._disabled: set[int] = set()
        # Per-shard merge-weight memos (see _shard_grid), cleared whenever
        # a round dispatches (shard state advances).
        self._weight_memo: dict = {}

    @property
    def n_shards(self) -> int:
        """Number of shards this executor steps."""
        return len(self._shards)

    @property
    def disabled(self) -> frozenset:
        """Indices of shards excluded from stepping (degraded mode)."""
        return frozenset(self._disabled)

    def disable(self, index: int) -> None:
        """Exclude shard ``index`` from all further operations.

        Used by degraded serving: the shard's jobs are dropped at
        dispatch and its slots in ``answer_batch``/``ledgers``/
        ``fingerprints`` results become ``None``.  Idempotent.
        """
        if not 0 <= index < self.n_shards:
            raise ConfigurationError(
                f"shard index must lie in [0, {self.n_shards}), got {index}"
            )
        self._disabled.add(int(index))

    def worker_health(self) -> list[bool]:
        """Per-shard liveness, in shard order.

        The serial strategy reports ``True`` for every non-disabled
        shard; the process strategy additionally checks that each worker
        process is alive.
        """
        return [index not in self._disabled for index in range(self.n_shards)]

    def fingerprints(self) -> list:
        """Per-shard state fingerprints (``None`` for disabled shards)."""
        raise NotImplementedError

    def ping(self) -> list[bool]:
        """Round-trip liveness probe; ``worker_health`` plus an RPC echo."""
        return self.worker_health()

    @property
    def shards(self) -> tuple:
        """The live shard objects (strategies that keep them in-process)."""
        return tuple(self._shards)

    def dispatch_round(self, jobs: list) -> None:
        """Ingest one round; ``jobs`` is per-shard ``(column, entrants, exits)``.

        Returns once every live shard has ingested the round.  On failure
        it raises the first per-shard error in shard order, annotated with
        ``dispatched`` (shards that received the round) and ``completed``
        (shards that ingested it).
        """
        raise NotImplementedError

    def answer_batch(self, queries, times, kwargs: dict) -> list:
        """Per-shard ``(weights, grid)`` pairs for a whole workload.

        ``weights`` is the length-``len(times)`` merge-weight vector and
        ``grid`` the shard's ``(len(queries), len(times))`` answer grid
        (see :func:`_shard_grid`); disabled shards contribute ``None``.
        This is the only answer request: one call ships the entire
        workload to every shard — under the process strategy, one RPC
        per worker.
        """
        raise NotImplementedError

    def ledgers(self) -> list[tuple[float, float]]:
        """Per-shard ``(spent, remaining)`` zCDP, in shard order."""
        raise NotImplementedError

    def checkpoint_blobs(self) -> list[bytes]:
        """One serialized streaming bundle per shard, in shard order."""
        raise NotImplementedError

    def close(self) -> None:
        """Release strategy resources (workers, shared memory).  Idempotent."""

    # -- in-process implementations (serial strategy) -------------------

    def _batch_one(self, shard, queries, times, kwargs: dict):
        memo = self._weight_memo.setdefault(id(shard), {})
        return _shard_grid(self._algorithm, shard.release, queries, times, kwargs, memo)

    def _ledger_one(self, shard) -> tuple[float, float]:
        accountant = shard.synthesizer.accountant
        if accountant is None:
            return (0.0, float("inf"))
        return (accountant.spent, accountant.remaining)

    def _blob_one(self, shard) -> bytes:
        buffer = io.BytesIO()
        shard.checkpoint(buffer)
        return buffer.getvalue()

    def _fingerprint_one(self, shard) -> str:
        return shard.fingerprint()


class SerialShardExecutor(ShardExecutor):
    """Shards advance one after another in the calling thread.

    The reference strategy: it stops at the first shard failure (later
    shards never ingest the round), exactly like the pre-executor
    service loop.
    """

    strategy = "serial"

    def dispatch_round(self, jobs: list) -> None:
        self._weight_memo.clear()
        completed = 0
        for index, (shard, (column, entrants, exits)) in enumerate(
            zip(self._shards, jobs)
        ):
            if index in self._disabled:
                continue
            try:
                shard.observe(column, entrants=entrants, exits=exits)
            except Exception as exc:
                _tag_shard(exc, index)
                raise _round_failure(
                    exc, dispatched=completed + 1, completed=completed
                )
            completed += 1

    def _map_live(self, fn, *args) -> list:
        return [
            None if index in self._disabled else fn(shard, *args)
            for index, shard in enumerate(self._shards)
        ]

    def answer_batch(self, queries, times, kwargs: dict) -> list:
        return self._map_live(self._batch_one, queries, times, kwargs)

    def ledgers(self) -> list:
        return self._map_live(self._ledger_one)

    def checkpoint_blobs(self) -> list:
        return self._map_live(self._blob_one)

    def fingerprints(self) -> list:
        return self._map_live(self._fingerprint_one)


# ----------------------------------------------------------------------
# Process strategy
# ----------------------------------------------------------------------


def _worker_loop(shard, algorithm: str, conn) -> None:
    """Persistent per-shard worker: serve tagged requests until ``stop``.

    Runs in a forked child, so ``shard`` is this process's private copy
    of the shard synthesizer — the authoritative one from now on.  Every
    request is answered with ``("ok", payload)`` or ``("err", exc)``;
    the worker survives shard-level failures (the parent may still need
    ledger reads from a poisoned service).
    """
    from multiprocessing import resource_tracker, shared_memory

    stage = None  # the parent's staging segment, attached on first use
    weight_memo: dict = {}  # cleared whenever the shard ingests a round

    def read_staged(name, offset: int, shape: tuple, dtype: str) -> np.ndarray:
        """A private copy of one staged array: the parent overwrites the
        segment with the next round as soon as this one is acknowledged."""
        nonlocal stage
        data = np.empty(shape, dtype=np.dtype(dtype))
        if not data.size:
            return data
        if stage is None or stage.name != name:
            # The parent grew its segment; the old one is already unlinked.
            if stage is not None:
                stage.close()
            # CPython < 3.13 registers even attach-only handles with the
            # resource tracker; the parent owns the segment's lifetime, so
            # a worker registration only produces spurious "leaked
            # shared_memory" noise (or double-unregister errors) at exit.
            original_register = resource_tracker.register
            resource_tracker.register = lambda *args, **kwargs: None
            try:
                stage = shared_memory.SharedMemory(name=name)
            finally:
                resource_tracker.register = original_register
        data[...] = np.ndarray(shape, dtype=data.dtype, buffer=stage.buf, offset=offset)
        return data

    try:
        while True:
            message = conn.recv()
            tag = message[0]
            try:
                if tag == "observe":
                    _, name, offset, shape, dtype, names, entrants, exits = message
                    data = read_staged(name, offset, shape, dtype)
                    if names is not None:
                        data = AttributeFrame(data, names)
                    weight_memo.clear()
                    shard.observe(data, entrants=entrants, exits=exits)
                    conn.send(("ok", None))
                elif tag == "answer_batch":
                    _, queries, times, kwargs = message
                    pair = _shard_grid(
                        algorithm, shard.release, queries, times, kwargs, weight_memo
                    )
                    conn.send(("ok", pair))
                elif tag == "ledger":
                    accountant = shard.synthesizer.accountant
                    if accountant is None:
                        conn.send(("ok", (0.0, float("inf"))))
                    else:
                        conn.send(("ok", (accountant.spent, accountant.remaining)))
                elif tag == "checkpoint":
                    buffer = io.BytesIO()
                    shard.checkpoint(buffer)
                    conn.send(("ok", buffer.getvalue()))
                elif tag == "fingerprint":
                    conn.send(("ok", shard.fingerprint()))
                elif tag == "ping":
                    conn.send(("ok", "pong"))
                elif tag == "stop":
                    conn.send(("ok", None))
                    return
                else:
                    conn.send(("err", RuntimeError(f"unknown request {tag!r}")))
            except Exception as exc:  # noqa: BLE001 - forwarded to parent
                try:
                    conn.send(("err", exc))
                except Exception:
                    conn.send(("err", RuntimeError(f"{type(exc).__name__}: {exc}")))
    except (EOFError, KeyboardInterrupt):
        pass
    finally:
        if stage is not None:
            stage.close()
        conn.close()


class _StageBuffer:
    """The parent's shared-memory staging segment for round columns."""

    def __init__(self):
        self.segment = None
        self.capacity = 0

    @property
    def name(self) -> str | None:
        return None if self.segment is None else self.segment.name

    def ensure(self, nbytes: int) -> None:
        """Guarantee at least ``nbytes`` capacity, doubling the old one."""
        from multiprocessing import shared_memory

        if nbytes <= self.capacity:
            return
        capacity = max(nbytes, 2 * self.capacity)
        self.release()
        self.segment = shared_memory.SharedMemory(create=True, size=capacity)
        self.capacity = capacity

    def write(self, offset: int, array: np.ndarray) -> None:
        if array.size:
            np.ndarray(
                array.shape, dtype=array.dtype, buffer=self.segment.buf, offset=offset
            )[...] = array

    def release(self) -> None:
        """Unlink the current segment (workers detach on their next read)."""
        if self.segment is not None:
            self.segment.close()
            try:
                self.segment.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass
            self.segment = None
            self.capacity = 0


def _cleanup_process_executor(processes, connections, stage) -> None:
    """Finalizer-safe teardown shared by close() and weakref.finalize.

    Escalates per worker: graceful ``stop`` RPC → ``join`` for a worker
    that acknowledged it within the poll → ``kill`` (SIGKILL) for every
    other worker and for any that outlives its join.  There is no SIGTERM
    rung: a *stopped* (SIGSTOP'd) worker keeps SIGTERM pending, so waiting
    on ``terminate`` only stalls the teardown, and SIGTERM's default
    action skips the worker's ``finally`` just as SIGKILL does (the parent
    owns the staging segment, the journal and the checkpoints).  SIGKILL
    takes effect even on a stopped process.  The staging segment is
    unlinked last, unconditionally, so no worker death mode can leak a
    ``/dev/shm`` segment.
    """
    for conn in connections:
        try:
            conn.send(("stop",))
        except (OSError, ValueError, BrokenPipeError):
            pass
    acknowledged = []
    for conn in connections:
        stopped = False
        try:
            if conn.poll(1.0):
                conn.recv()
                stopped = True
        except (OSError, EOFError, ValueError):
            pass
        acknowledged.append(stopped)
        try:
            conn.close()
        except OSError:
            pass
    for process, stopped in zip(processes, acknowledged):
        if stopped:
            process.join(timeout=2.0)
        if process.is_alive():
            process.kill()
            process.join(timeout=5.0)
    stage.release()


class ProcessShardExecutor(ShardExecutor):
    """One persistent forked worker per shard, columns via shared memory.

    The constructor forks immediately: each worker inherits its shard
    object by copy-on-write (nothing is pickled) and the parent's shard
    references become **stale** — the executor never touches them again
    and the service must not either.  Each round's columns are staged
    through one shared-memory segment, which :meth:`dispatch_round` may
    overwrite again as soon as every worker acknowledged the last round.
    """

    strategy = "process"

    def __init__(self, shards: list, algorithm: str, policy=None):
        super().__init__(shards, algorithm, policy)
        if "fork" not in mp.get_all_start_methods():
            raise ConfigurationError(
                "the 'process' executor needs the fork start method, which "
                "this platform does not provide; use 'serial'"
            )
        context = mp.get_context("fork")
        try:
            # Start the shared-memory resource tracker *before* forking:
            # workers then inherit it instead of each spawning their own
            # (whose exit-time cleanup would race the parent's unlink).
            from multiprocessing import resource_tracker

            resource_tracker.ensure_running()
        except Exception:  # pragma: no cover - tracker internals moved
            pass
        self._connections = []
        self._processes = []
        self._stage = _StageBuffer()
        for shard in self._shards:
            parent_conn, child_conn = context.Pipe()
            process = context.Process(
                target=_worker_loop,
                args=(shard, self._algorithm, child_conn),
                daemon=True,
            )
            process.start()
            child_conn.close()
            self._connections.append(parent_conn)
            self._processes.append(process)
        # The parent-side shard objects are stale from this point on.
        self._shards = []
        self._finalizer = weakref.finalize(
            self,
            _cleanup_process_executor,
            self._processes,
            self._connections,
            self._stage,
        )

    @property
    def n_shards(self) -> int:
        return len(self._connections)

    @property
    def shards(self) -> tuple:
        raise ConfigurationError(
            "shard objects live inside worker processes under the 'process' "
            "executor; use answer()/shard_ledgers()/checkpoint() instead, or "
            "run with executor='serial' to hold the shards in-process"
        )

    def _dead_error(self, index: int, exc) -> ConsistencyError:
        error = ConsistencyError(
            f"shard worker {index} died mid-request ({exc}); restore the "
            "service from its last checkpoint"
        )
        return _tag_shard(error, index)

    def _recv(self, index: int):
        conn = self._connections[index]
        timeout = None if self._policy is None else self._policy.rpc_timeout
        if timeout is not None:
            try:
                ready = conn.poll(timeout)
            except (OSError, EOFError, ValueError) as exc:
                raise self._dead_error(index, exc) from exc
            if not ready:
                error = ConsistencyError(
                    f"shard worker {index} did not respond within "
                    f"{timeout:.6g}s (hung or overloaded); the RPC stream is "
                    "now desynchronized — restore the service from its last "
                    "checkpoint"
                )
                raise _tag_shard(error, index)
        try:
            tag, payload = conn.recv()
        except (EOFError, OSError) as exc:
            raise self._dead_error(index, exc) from exc
        if tag == "err":
            raise _tag_shard(payload, index)
        return payload

    def _live_indices(self) -> list[int]:
        return [i for i in range(self.n_shards) if i not in self._disabled]

    def _request_all(self, message) -> list:
        live = self._live_indices()
        for index in live:
            try:
                self._connections[index].send(message)
            except OSError as exc:
                raise self._dead_error(index, exc) from exc
        results: list = [None] * self.n_shards
        first_error = None
        for index in live:
            try:
                results[index] = self._recv(index)
            except Exception as exc:
                if first_error is None:
                    first_error = exc
        if first_error is not None:
            raise first_error
        return results

    def dispatch_round(self, jobs: list) -> None:
        live = self._live_indices()
        slots, total = [], 0
        for index in live:
            column = jobs[index][0]
            payload = column.data if isinstance(column, AttributeFrame) else column
            # 64-byte aligned slots so worker views never straddle dtypes.
            offset = -(-total // 64) * 64
            slots.append((index, payload, offset))
            total = offset + payload.nbytes
        self._stage.ensure(total)
        for position, (index, payload, offset) in enumerate(slots):
            column, entrants, exits = jobs[index]
            self._stage.write(offset, payload)
            names = column.names if isinstance(column, AttributeFrame) else None
            message = (
                "observe",
                self._stage.name,
                offset,
                payload.shape,
                payload.dtype.str,
                names,
                entrants,
                exits,
            )
            try:
                self._connections[index].send(message)
            except OSError as exc:
                error = self._dead_error(index, exc)
                raise _round_failure(error, dispatched=position, completed=0) from exc
        completed, failure = 0, None
        for index in live:
            try:
                self._recv(index)
                completed += 1
            except Exception as exc:
                if failure is None:
                    failure = exc
        if failure is not None:
            raise _round_failure(failure, dispatched=len(live), completed=completed)

    def answer_batch(self, queries, times, kwargs: dict) -> list:
        """Send the workload's query objects to every worker, one RPC each."""
        return self._request_all(("answer_batch", list(queries), list(times), kwargs))

    def ledgers(self) -> list:
        return self._request_all(("ledger",))

    def checkpoint_blobs(self) -> list:
        return self._request_all(("checkpoint",))

    def fingerprints(self) -> list:
        return self._request_all(("fingerprint",))

    def worker_health(self) -> list[bool]:
        return [
            index not in self._disabled and self._processes[index].is_alive()
            for index in range(self.n_shards)
        ]

    def ping(self) -> list[bool]:
        """RPC round-trip per live worker; dead/hung workers report False.

        Unlike :meth:`_request_all` this never raises on a dead worker —
        it is the supervisor's heartbeat probe, and a probe that fails
        closed would turn every detected failure into a second failure.
        """
        alive = [False] * self.n_shards
        timeout = 5.0 if self._policy is None else (self._policy.rpc_timeout or 5.0)
        pending = []
        for index in self._live_indices():
            if not self._processes[index].is_alive():
                continue
            try:
                self._connections[index].send(("ping",))
                pending.append(index)
            except OSError:
                pass
        for index in pending:
            try:
                if self._connections[index].poll(timeout):
                    tag, payload = self._connections[index].recv()
                    alive[index] = tag == "ok" and payload == "pong"
            except (OSError, EOFError):
                pass
        return alive

    def disable(self, index: int) -> None:
        """Exclude shard ``index`` and reap its worker with SIGKILL."""
        super().disable(index)
        try:
            self._connections[index].close()
        except OSError:  # pragma: no cover - already closed
            pass
        process = self._processes[index]
        if process.is_alive():
            process.kill()
            process.join(timeout=5.0)

    def close(self) -> None:
        if self._finalizer.alive:
            self._finalizer()


_EXECUTORS = {
    "serial": SerialShardExecutor,
    "process": ProcessShardExecutor,
}


def make_executor(
    executor: str | None, shards: list, algorithm: str, policy=None
) -> ShardExecutor:
    """Build the executor for ``executor`` (``None`` = serial).

    Parameters
    ----------
    executor:
        ``"serial"``, ``"process"``, or ``None`` for serial.
    shards:
        Per-shard synthesizers handed to the executor (see
        :class:`ShardExecutor`).
    algorithm:
        The service's algorithm tag, for merge weights.
    policy:
        Optional :class:`~repro.serve.policy.RetryPolicy` carrying the
        RPC timeout applied by the process strategy.
    """
    name = "serial" if executor is None else str(executor)
    if name not in _EXECUTORS:
        raise ConfigurationError(
            f"executor must be one of {EXECUTOR_STRATEGIES}, got {name!r}"
        )
    return _EXECUTORS[name](shards, algorithm, policy)
