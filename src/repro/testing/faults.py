"""Deterministic, seedable fault injection for the serving layer.

Every injector is a plain function of explicit inputs (paths, shard
indices, a seeded RNG) so a chaos test that fails replays bit-for-bit
from its seed.  The harness targets the real failure surfaces of
:mod:`repro.serve`:

* **worker faults** — :meth:`FaultInjector.kill_worker` (SIGKILL, the
  "kill -9 mid-stream" of the acceptance criteria),
  :meth:`~FaultInjector.hang_worker` / :meth:`~FaultInjector.resume_worker`
  (SIGSTOP/SIGCONT — a hung-but-alive worker, which only an RPC timeout
  can detect), and :meth:`~FaultInjector.delay_worker` (a bounded stop);
* **storage faults** — :meth:`~FaultInjector.corrupt_bytes` (seeded
  byte flips anywhere in a checkpoint bundle or journal) and
  :meth:`~FaultInjector.truncate_tail` (torn writes);
* **resource faults** — :func:`starve_shared_memory`, a context manager
  that makes shared-memory segment *creation* fail with ``ENOSPC`` in
  the calling process (forked workers are unaffected, exactly like a
  full ``/dev/shm`` on the serving host).

The worker injectors require the ``"process"`` executor — with serial
stepping there is no worker process to fault — and accept
either a :class:`~repro.serve.sharded.ShardedService` or a
:class:`~repro.serve.supervisor.SupervisedService`.
"""

from __future__ import annotations

import errno
import os
import signal
import time

import numpy as np

from repro.exceptions import ConfigurationError
from repro.serve.executor import ProcessShardExecutor

__all__ = ["FaultInjector", "starve_shared_memory"]


def _process_executor(service) -> ProcessShardExecutor:
    """Unwrap a (supervised) service down to its process executor."""
    inner = getattr(service, "service", service)  # SupervisedService -> inner
    executor = getattr(inner, "_executor", inner)
    if not isinstance(executor, ProcessShardExecutor):
        raise ConfigurationError(
            "worker fault injection needs the 'process' executor; "
            f"got strategy {getattr(executor, 'strategy', '?')!r}"
        )
    return executor


class starve_shared_memory:
    """Context manager: shared-memory creation fails with ``ENOSPC``.

    Patches ``multiprocessing.shared_memory.SharedMemory`` *in the
    calling process only* — already-forked workers keep their real
    binding, so the fault lands exactly where a full ``/dev/shm`` would:
    on the parent's staging-buffer growth.  Reentrant and exception-safe;
    the real class is restored on exit.

    Parameters
    ----------
    message:
        Text carried by the injected ``OSError`` (``errno.ENOSPC``).
    """

    def __init__(self, message: str = "fault injection: shared memory exhausted"):
        self._message = str(message)
        self._original = None

    def __enter__(self) -> "starve_shared_memory":
        from multiprocessing import shared_memory

        self._module = shared_memory
        self._original = shared_memory.SharedMemory
        message = self._message

        def _starved(*args, **kwargs):
            raise OSError(errno.ENOSPC, message)

        shared_memory.SharedMemory = _starved
        return self

    def __exit__(self, *exc_info) -> None:
        self._module.SharedMemory = self._original
        self._original = None


class FaultInjector:
    """Seeded source of worker, storage, and resource faults.

    Parameters
    ----------
    seed:
        Seeds the victim-selection and byte-corruption RNG, so a chaos
        scenario replays identically from its seed.

    Attributes
    ----------
    log:
        Chronological record of every injected fault (strings), so a
        failing chaos test prints exactly what was done to the service.
    """

    def __init__(self, seed: int = 0):
        self._rng = np.random.default_rng(seed)
        self.log: list[str] = []

    def pick_shard(self, n_shards: int) -> int:
        """Choose a victim shard uniformly (deterministic given the seed).

        Parameters
        ----------
        n_shards:
            Number of shards to choose among.
        """
        victim = int(self._rng.integers(n_shards))
        self.log.append(f"pick_shard({n_shards}) -> {victim}")
        return victim

    # ------------------------------------------------------------------
    # Worker faults (process executor only)
    # ------------------------------------------------------------------

    def kill_worker(self, service, shard: int) -> int:
        """SIGKILL shard ``shard``'s worker process (kill -9 mid-stream).

        Parameters
        ----------
        service:
            A ``ShardedService`` or ``SupervisedService`` running the
            ``"process"`` executor.
        shard:
            Victim shard index.

        Returns
        -------
        int
            The killed worker's pid.
        """
        process = _process_executor(service)._processes[shard]
        pid = process.pid
        os.kill(pid, signal.SIGKILL)
        process.join(timeout=10.0)
        self.log.append(f"kill_worker(shard={shard}, pid={pid})")
        return pid

    def hang_worker(self, service, shard: int) -> int:
        """SIGSTOP shard ``shard``'s worker: alive but unresponsive.

        The worker stops consuming RPCs without dying, so only an RPC
        timeout (``RetryPolicy.rpc_timeout``) can detect it — the
        liveness probe still sees a live process.  Pair with
        :meth:`resume_worker`, or rely on the kill-escalated teardown
        (SIGKILL terminates stopped processes; SIGTERM does not).

        Parameters
        ----------
        service:
            A service running the ``"process"`` executor.
        shard:
            Victim shard index.

        Returns
        -------
        int
            The stopped worker's pid.
        """
        pid = _process_executor(service)._processes[shard].pid
        os.kill(pid, signal.SIGSTOP)
        self.log.append(f"hang_worker(shard={shard}, pid={pid})")
        return pid

    def resume_worker(self, service, shard: int) -> None:
        """SIGCONT a worker previously stopped by :meth:`hang_worker`.

        Parameters
        ----------
        service:
            A service running the ``"process"`` executor.
        shard:
            The previously hung shard index.
        """
        process = _process_executor(service)._processes[shard]
        if process.pid is not None and process.is_alive():
            os.kill(process.pid, signal.SIGCONT)
        self.log.append(f"resume_worker(shard={shard})")

    def delay_worker(self, service, shard: int, seconds: float) -> None:
        """Stop a worker for ``seconds``, then resume it (a slow shard).

        Parameters
        ----------
        service:
            A service running the ``"process"`` executor.
        shard:
            Victim shard index.
        seconds:
            How long the worker stays stopped.
        """
        self.hang_worker(service, shard)
        try:
            time.sleep(seconds)
        finally:
            self.resume_worker(service, shard)
        self.log.append(f"delay_worker(shard={shard}, seconds={seconds})")

    # ------------------------------------------------------------------
    # Storage faults
    # ------------------------------------------------------------------

    def corrupt_bytes(
        self, path, n_bytes: int = 64, *, region: str = "tail"
    ) -> list[int]:
        """Flip ``n_bytes`` random bytes of a file in place.

        Parameters
        ----------
        path:
            File to damage (a checkpoint bundle, a journal, …).
        n_bytes:
            How many byte positions to XOR with a random non-zero mask.
        region:
            ``"tail"`` confines the damage to the final ``n_bytes``
            bytes (a torn trailing write — e.g. a zip central
            directory); ``"any"`` spreads it uniformly over the file.

        Returns
        -------
        list of int
            The corrupted byte offsets (sorted), for diagnostics.
        """
        path = os.fspath(path)
        size = os.path.getsize(path)
        if size == 0:
            return []
        n_bytes = min(int(n_bytes), size)
        if region == "tail":
            offsets = np.arange(size - n_bytes, size)
        elif region == "any":
            offsets = np.sort(
                self._rng.choice(size, size=n_bytes, replace=False)
            )
        else:
            raise ConfigurationError(
                f"region must be 'tail' or 'any', got {region!r}"
            )
        masks = self._rng.integers(1, 256, size=offsets.shape[0], dtype=np.uint8)
        with open(path, "r+b") as handle:
            for offset, mask in zip(offsets, masks):
                handle.seek(int(offset))
                byte = handle.read(1)[0]
                handle.seek(int(offset))
                handle.write(bytes([byte ^ int(mask)]))
        self.log.append(
            f"corrupt_bytes({os.path.basename(path)}, n={n_bytes}, region={region})"
        )
        return [int(offset) for offset in offsets]

    def truncate_tail(self, path, n_bytes: int) -> int:
        """Cut the final ``n_bytes`` bytes off a file (a torn write).

        Parameters
        ----------
        path:
            File to truncate (typically the release journal).
        n_bytes:
            Bytes to remove from the end (clamped to the file size).

        Returns
        -------
        int
            The file's new size.
        """
        path = os.fspath(path)
        size = os.path.getsize(path)
        new_size = max(0, size - int(n_bytes))
        os.truncate(path, new_size)
        self.log.append(
            f"truncate_tail({os.path.basename(path)}, cut={size - new_size})"
        )
        return new_size

    # ------------------------------------------------------------------
    # Resource faults
    # ------------------------------------------------------------------

    def starve_shared_memory(self) -> starve_shared_memory:
        """Context manager making shared-memory creation fail (ENOSPC).

        See :class:`starve_shared_memory`; provided as a method so chaos
        scripts can drive every fault through one injector object.
        """
        self.log.append("starve_shared_memory()")
        return starve_shared_memory()
