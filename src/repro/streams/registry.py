"""Name-based registries for stream counters and counter banks.

Algorithm 2 and the ablation benchmarks select counters by name so that
experiment configuration stays declarative (`counter="binary_tree"`).
Third-party counters can be plugged in with :func:`register_counter`.

The *bank* registry maps the same names to vectorized
:class:`~repro.streams.bank.CounterBank` implementations, which advance all
``T`` per-threshold counters as one batched NumPy state machine.  Names
without a native bank transparently fall back to
:class:`~repro.streams.bank.FallbackBank`, so every registered counter —
including third-party ones — works in
:class:`~repro.core.cumulative.CumulativeSynthesizer`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Type

from repro.exceptions import ConfigurationError
from repro.streams.base import StreamCounter

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.streams.bank import CounterBank

__all__ = [
    "register_counter",
    "make_counter",
    "restore_counter",
    "available_counters",
    "register_bank",
    "make_bank",
    "available_banks",
]

_REGISTRY: dict[str, Type[StreamCounter]] = {}
_BANK_REGISTRY: dict[str, "Type[CounterBank]"] = {}


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
        Forwarded to the counter constructor (``seed``,
        ``noise_method``, counter-specific knobs like ``block_size``).

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
    noise_method: str,
    payload: dict,
    counter_kwargs: dict | None = None,
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
    noise_method:
        ``"exact"`` or ``"vectorized"``.
    payload:
        A snapshot from :meth:`repro.streams.base.StreamCounter.state_dict`.
    counter_kwargs:
        Counter-specific constructor knobs.

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
    counter = make_counter(
        name,
        horizon=horizon,
        rho=rho,
        seed=seed,
        noise_method=noise_method,
        **(counter_kwargs or {}),
    )
    counter.load_state(payload)
    return counter


def available_counters() -> tuple[str, ...]:
    """Names of all registered counters, sorted."""
    return tuple(sorted(_REGISTRY))


def register_bank(name: str) -> "Callable[[Type[CounterBank]], Type[CounterBank]]":
    """Class decorator registering a vectorized bank under a counter name.

    Parameters
    ----------
    name:
        The *counter* name the bank natively implements; ``make_bank``
        prefers it over the scalar-wrapping fallback for that name.

    Returns
    -------
    callable
        The decorator; it returns the class unchanged after registering.

    Raises
    ------
    repro.exceptions.ConfigurationError
        If the decorated class is not a
        :class:`~repro.streams.bank.CounterBank` subclass.
    """
    from repro.streams.bank import CounterBank

    def decorator(cls: "Type[CounterBank]") -> "Type[CounterBank]":
        if not issubclass(cls, CounterBank):
            raise ConfigurationError(f"{cls!r} is not a CounterBank subclass")
        _BANK_REGISTRY[name] = cls
        return cls

    return decorator


def make_bank(
    name: str,
    horizon: int,
    rho_per_threshold,
    *,
    seeds=None,
    noise_method: str = "vectorized",
    n_reps: int = 1,
    counter_kwargs: dict | None = None,
) -> "CounterBank":
    """Instantiate the vectorized bank for counter ``name``.

    Uses the native batched implementation when one is registered and no
    counter-specific keyword arguments are requested; otherwise wraps the
    scalar counter in a :class:`~repro.streams.bank.FallbackBank` (native
    banks are calibrated from ``(horizon, rho_b)`` alone, so extra
    constructor knobs route through the scalar counters that define them).

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
    noise_method:
        ``"exact"`` or ``"vectorized"`` noise backend.
    n_reps:
        Number of independent replicas advanced in lockstep; values
        above 1 require a native bank (the fallback has no batched noise
        path and rejects them).
    counter_kwargs:
        Counter-specific constructor knobs; forces the fallback path.

    Returns
    -------
    CounterBank
        A fresh bank at global round 0.

    Raises
    ------
    repro.exceptions.ConfigurationError
        If ``name`` is unknown, or ``n_reps > 1`` without a native bank.
    """
    from repro.streams.bank import FallbackBank

    if name not in _REGISTRY:
        raise ConfigurationError(
            f"unknown counter {name!r}; available: {sorted(_REGISTRY)}"
        )
    cls = _BANK_REGISTRY.get(name)
    if cls is not None and not counter_kwargs:
        return cls(
            horizon, rho_per_threshold, seeds=seeds, noise_method=noise_method,
            n_reps=n_reps,
        )
    return FallbackBank(
        horizon,
        rho_per_threshold,
        seeds=seeds,
        noise_method=noise_method,
        n_reps=n_reps,
        counter=name,
        counter_kwargs=counter_kwargs,
    )


def available_banks() -> tuple[str, ...]:
    """Counter names with a *native* vectorized bank, sorted."""
    return tuple(sorted(_BANK_REGISTRY))


def _register_builtins() -> None:
    """Populate the registry with the built-in counters."""
    from repro.streams.binary_tree import BinaryTreeCounter
    from repro.streams.block import BlockCounter
    from repro.streams.honaker import HonakerCounter
    from repro.streams.laplace_tree import LaplaceTreeCounter
    from repro.streams.simple import SimpleCounter
    from repro.streams.sqrt_factorization import SqrtFactorizationCounter

    _REGISTRY.setdefault("binary_tree", BinaryTreeCounter)
    _REGISTRY.setdefault("simple", SimpleCounter)
    _REGISTRY.setdefault("honaker", HonakerCounter)
    _REGISTRY.setdefault("sqrt_factorization", SqrtFactorizationCounter)
    _REGISTRY.setdefault("block", BlockCounter)
    _REGISTRY.setdefault("laplace_tree", LaplaceTreeCounter)


def _register_builtin_banks() -> None:
    """Populate the bank registry with the native vectorized banks."""
    from repro.streams.bank import (
        BinaryTreeBank,
        LaplaceTreeBank,
        SimpleBank,
        SqrtFactorizationBank,
    )

    _BANK_REGISTRY.setdefault("binary_tree", BinaryTreeBank)
    _BANK_REGISTRY.setdefault("simple", SimpleBank)
    _BANK_REGISTRY.setdefault("sqrt_factorization", SqrtFactorizationBank)
    _BANK_REGISTRY.setdefault("laplace_tree", LaplaceTreeBank)


_register_builtins()
_register_builtin_banks()
