"""Name-based registries for stream counters and counter banks.

Algorithm 2 and the ablation benchmarks select counters by name so that
experiment configuration stays declarative (`counter="binary_tree"`).
Third-party counters can be plugged in with :func:`register_counter`.

Three of the built-in names have a native vectorized
:class:`~repro.streams.bank.CounterBank`, which advances all ``T``
per-threshold counters as one batched NumPy state machine; that mapping
is fixed.  Every other name transparently falls back to
:class:`~repro.streams.bank.FallbackBank`, so every registered counter —
including third-party ones — works in
:class:`~repro.core.cumulative.CumulativeSynthesizer`.
"""

from __future__ import annotations

from typing import Callable, Type

from repro.exceptions import ConfigurationError
from repro.streams.bank import (
    BinaryTreeBank,
    CounterBank,
    FallbackBank,
    SimpleBank,
    SqrtFactorizationBank,
)
from repro.streams.base import StreamCounter

__all__ = [
    "register_counter",
    "make_counter",
    "restore_counter",
    "available_counters",
    "make_bank",
    "available_banks",
]

_REGISTRY: dict[str, Type[StreamCounter]] = {}

#: Counter name -> its native vectorized bank.
_NATIVE_BANKS: dict[str, Type[CounterBank]] = {
    "binary_tree": BinaryTreeBank,
    "simple": SimpleBank,
    "sqrt_factorization": SqrtFactorizationBank,
}


def register_counter(name: str) -> Callable[[Type[StreamCounter]], Type[StreamCounter]]:
    """Class decorator registering a counter under ``name``.

    Parameters
    ----------
    name:
        Registry key, as passed to :func:`make_counter` and to
        ``CumulativeSynthesizer(counter=...)``.

    Returns
    -------
    callable
        The decorator; it returns the class unchanged after registering.

    Raises
    ------
    repro.exceptions.ConfigurationError
        If the decorated class is not a
        :class:`~repro.streams.base.StreamCounter` subclass.
    """

    def decorator(cls: Type[StreamCounter]) -> Type[StreamCounter]:
        if not issubclass(cls, StreamCounter):
            raise ConfigurationError(f"{cls!r} is not a StreamCounter subclass")
        _REGISTRY[name] = cls
        return cls

    return decorator


def make_counter(name: str, horizon: int, rho: float, **kwargs) -> StreamCounter:
    """Instantiate a registered counter by name.

    Parameters
    ----------
    name:
        A key previously registered with :func:`register_counter` (see
        :func:`available_counters`).
    horizon:
        Maximum stream length the counter will accept.
    rho:
        Total zCDP budget for the counter's whole output sequence
        (``math.inf`` for a noiseless oracle).
    **kwargs:
        Forwarded to the counter constructor (``seed``, counter-specific
        knobs like ``block_size``).

    Returns
    -------
    StreamCounter
        A fresh counter at clock 0.

    Raises
    ------
    repro.exceptions.ConfigurationError
        If ``name`` is not registered.
    """
    try:
        cls = _REGISTRY[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown counter {name!r}; available: {sorted(_REGISTRY)}"
        ) from None
    return cls(horizon, rho, **kwargs)


def restore_counter(
    name: str,
    *,
    horizon: int,
    rho: float,
    seed,
    payload: dict,
) -> StreamCounter:
    """Rebuild a counter from a checkpoint payload.

    The one place that knows how to reconstruct a registered counter and
    re-apply its serialized state; :class:`~repro.streams.bank.FallbackBank`
    restores its wrapped counters through it.

    Parameters
    ----------
    name:
        Registered counter name.
    horizon:
        The counter's effective stream length.
    rho:
        The counter's zCDP budget.
    seed:
        The counter's noise generator (its bit state is overwritten by
        the payload's recorded state).
    payload:
        A snapshot from :meth:`repro.streams.base.StreamCounter.state_dict`.

    Returns
    -------
    StreamCounter
        The counter, mid-stream, ready to continue byte-identically.

    Raises
    ------
    repro.exceptions.ConfigurationError
        If ``name`` is not registered.
    repro.exceptions.SerializationError
        If the payload does not match the counter class.
    """
    counter = make_counter(name, horizon=horizon, rho=rho, seed=seed)
    counter.load_state(payload)
    return counter


def available_counters() -> tuple[str, ...]:
    """Names of all registered counters, sorted."""
    return tuple(sorted(_REGISTRY))


def make_bank(
    name: str,
    horizon: int,
    rho_per_threshold,
    *,
    seeds=None,
    n_reps: int = 1,
) -> CounterBank:
    """Instantiate the vectorized bank for counter ``name``.

    Uses the native batched implementation when ``name`` has one;
    otherwise wraps the scalar counter in a
    :class:`~repro.streams.bank.FallbackBank`.

    Parameters
    ----------
    name:
        A registered counter name (see :func:`available_counters`);
        :func:`available_banks` lists which have native banks.
    horizon:
        Global horizon ``T`` — the bank holds one row per threshold.
    rho_per_threshold:
        Length-``T`` per-row zCDP budgets.
    seeds:
        A single seed (spawned into per-row children) or an explicit
        length-``T`` sequence of per-row seeds.
    n_reps:
        Number of independent replicas advanced in lockstep.  One replica
        draws exact noise; more than one is an accuracy study and draws
        the float rep-axis block (see :class:`~repro.streams.bank.CounterBank`).
        Values above 1 require a native bank (the fallback has no batched
        noise path and rejects them).

    Returns
    -------
    CounterBank
        A fresh bank at global round 0.

    Raises
    ------
    repro.exceptions.ConfigurationError
        If ``name`` is unknown, or ``n_reps > 1`` without a native bank.
    """
    if name not in _REGISTRY:
        raise ConfigurationError(
            f"unknown counter {name!r}; available: {sorted(_REGISTRY)}"
        )
    cls = _NATIVE_BANKS.get(name)
    if cls is not None:
        return cls(horizon, rho_per_threshold, seeds=seeds, n_reps=n_reps)
    return FallbackBank(
        horizon, rho_per_threshold, seeds=seeds, n_reps=n_reps, counter=name
    )


def available_banks() -> tuple[str, ...]:
    """Counter names with a *native* vectorized bank, sorted."""
    return tuple(sorted(_NATIVE_BANKS))


def _register_builtins() -> None:
    """Populate the registry with the built-in counters."""
    from repro.streams.binary_tree import BinaryTreeCounter
    from repro.streams.block import BlockCounter
    from repro.streams.honaker import HonakerCounter
    from repro.streams.simple import SimpleCounter
    from repro.streams.sqrt_factorization import SqrtFactorizationCounter

    _REGISTRY.setdefault("binary_tree", BinaryTreeCounter)
    _REGISTRY.setdefault("simple", SimpleCounter)
    _REGISTRY.setdefault("honaker", HonakerCounter)
    _REGISTRY.setdefault("sqrt_factorization", SqrtFactorizationCounter)
    _REGISTRY.setdefault("block", BlockCounter)


_register_builtins()
