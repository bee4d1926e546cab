"""Retired checkpoint-config keys, read once for every config reader.

Configs written while the engine, the synthetic-record materialization,
the noise sampler and the cumulative counters' keyword arguments were
constructor settings still carry those keys.  A value that means today's
behaviour is accepted; any other value names a run whose continuation
cannot be reproduced (the removed scalar engine's random stream, float
noise, or counters built with arguments such as a block size), and the
bundle fails closed.
"""

from __future__ import annotations

from repro.exceptions import SerializationError

__all__ = ["check_legacy_config"]

#: Retired key -> the values that mean today's behaviour.
_TODAY = {
    "engine": ("vectorized",),
    "materialize": ("lazy", "eager"),
    "noise_method": ("exact",),
    "counter_kwargs": ({},),
}


def check_legacy_config(config, name: str) -> None:
    """Refuse a config whose retired keys name behaviour that no longer exists.

    Parameters
    ----------
    config:
        A checkpoint config mapping (``config_dict()`` output, possibly
        from an older release).
    name:
        The algorithm's name, for the error message.

    Raises
    ------
    repro.exceptions.SerializationError
        If ``engine`` is not ``"vectorized"``, ``materialize`` is neither
        ``"lazy"`` nor ``"eager"``, ``noise_method`` is not ``"exact"``, or
        ``counter_kwargs`` is not empty.
    """
    for key, accepted in _TODAY.items():
        value = config.get(key, accepted[0])
        if value not in accepted:
            raise SerializationError(
                f"{name} config has {key} {value!r}; only bundles written with "
                f"{' or '.join(repr(v) for v in accepted)} can be continued"
            )
