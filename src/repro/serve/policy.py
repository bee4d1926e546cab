"""Supervision knobs: RPC timeouts, bounded retry/backoff, checkpoint cadence.

A :class:`RetryPolicy` is the single bag of fault-tolerance tunables
shared by the :mod:`repro.serve.executor` strategies (per-request RPC
timeouts on worker pipes) and the
:class:`~repro.serve.supervisor.SupervisedService` (how many times a
failed round is retried through recovery, how long to back off between
attempts, how often workers are heartbeat-probed, and how often —
and how deep — the automatic checkpoints roll).  Every field is set
through the ``policy=`` argument; the environment plays no part.
"""

from __future__ import annotations

import dataclasses

from repro.exceptions import ConfigurationError

__all__ = ["RetryPolicy"]


@dataclasses.dataclass(frozen=True)
class RetryPolicy:
    """Fault-tolerance tunables for the serving supervision layer.

    Attributes
    ----------
    rpc_timeout:
        Seconds a single worker RPC (round ack, answer, ledger,
        checkpoint) may take under the ``"process"`` executor before the
        worker is declared hung and the request fails closed.  ``None``
        (the default) waits forever — the pre-supervision behavior.
    max_retries:
        How many times the supervisor re-attempts a failed round, each
        attempt preceded by a full crash recovery (restore the latest
        checkpoint, replay the journal tail).  ``0`` disables retries:
        the first failure propagates.
    backoff_base:
        Delay in seconds before the first retry.
    backoff_factor:
        Multiplicative growth of the delay per subsequent retry.
    backoff_max:
        Ceiling on any single delay, in seconds.
    heartbeat_every:
        Rounds between proactive worker-liveness probes; ``0`` disables
        heartbeating (failures are then only detected when an RPC hits a
        dead pipe).
    checkpoint_every:
        Rounds between automatic supervisor checkpoints; ``0`` disables
        periodic checkpointing (recovery then replays the whole journal).
    checkpoint_retain:
        How many rolling checkpoints the supervisor keeps on disk;
        older ones are deleted after each successful checkpoint.

    Raises
    ------
    repro.exceptions.ConfigurationError
        If any field is negative, ``backoff_factor < 1``, or
        ``checkpoint_retain < 1``.
    """

    rpc_timeout: float | None = None
    max_retries: int = 2
    backoff_base: float = 0.05
    backoff_factor: float = 2.0
    backoff_max: float = 5.0
    heartbeat_every: int = 1
    checkpoint_every: int = 16
    checkpoint_retain: int = 3

    def __post_init__(self):
        if self.rpc_timeout is not None and self.rpc_timeout <= 0:
            raise ConfigurationError(
                f"rpc_timeout must be positive or None, got {self.rpc_timeout}"
            )
        if self.max_retries < 0:
            raise ConfigurationError(
                f"max_retries must be >= 0, got {self.max_retries}"
            )
        if self.backoff_base < 0 or self.backoff_max < 0:
            raise ConfigurationError("backoff delays must be non-negative")
        if self.backoff_factor < 1.0:
            raise ConfigurationError(
                f"backoff_factor must be >= 1, got {self.backoff_factor}"
            )
        if self.heartbeat_every < 0:
            raise ConfigurationError(
                f"heartbeat_every must be >= 0, got {self.heartbeat_every}"
            )
        if self.checkpoint_every < 0:
            raise ConfigurationError(
                f"checkpoint_every must be >= 0, got {self.checkpoint_every}"
            )
        if self.checkpoint_retain < 1:
            raise ConfigurationError(
                f"checkpoint_retain must be >= 1, got {self.checkpoint_retain}"
            )

    def delay(self, attempt: int) -> float:
        """Backoff delay in seconds before retry number ``attempt``.

        Parameters
        ----------
        attempt:
            1-based retry index (the first retry is attempt 1).

        Returns
        -------
        float
            ``min(backoff_base * backoff_factor ** (attempt - 1),
            backoff_max)``.
        """
        if attempt < 1:
            return 0.0
        return min(
            self.backoff_base * self.backoff_factor ** (attempt - 1),
            self.backoff_max,
        )
