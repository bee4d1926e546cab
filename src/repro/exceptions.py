"""Exception hierarchy for the :mod:`repro` package.

Every error raised by the library derives from :class:`ReproError` so callers
can catch library failures with a single ``except`` clause while still
distinguishing configuration mistakes from runtime (data-dependent) failures.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "ConfigurationError",
    "PrivacyBudgetError",
    "ConsistencyError",
    "NegativeCountError",
    "StreamLengthError",
    "DataValidationError",
    "NotFittedError",
    "SerializationError",
    "RecoveryError",
    "DegradedServiceWarning",
    "NoiseSamplerWarning",
]


class ReproError(Exception):
    """Base class for all errors raised by :mod:`repro`."""


class ConfigurationError(ReproError, ValueError):
    """Invalid parameters supplied to a mechanism or synthesizer.

    Raised eagerly at construction time (e.g. non-positive privacy budget,
    window width larger than the time horizon, synthetic population size that
    cannot accommodate the padding).
    """


class PrivacyBudgetError(ReproError, RuntimeError):
    """An operation would exceed the declared zero-concentrated DP budget."""


class ConsistencyError(ReproError, RuntimeError):
    """A longitudinal consistency invariant was violated.

    The continual synthesizers maintain the invariant that synthetic records
    persist across rounds: the number of synthetic records ending in suffix
    ``z`` at round ``t`` must equal the number extended into ``z0`` or ``z1``
    at round ``t + 1``.  This error indicates an internal bookkeeping bug or
    a caller mutating released data in place; it should never occur during
    normal operation.
    """


class NegativeCountError(ReproError, RuntimeError):
    """A target synthetic count went negative and the policy is ``"raise"``.

    Under the good event of Theorem 3.2 the padding parameter ``n_pad``
    guarantees non-negative counts with probability ``1 - beta``.  Outside the
    good event the fixed-window synthesizer either raises this error or, with
    ``on_negative="redistribute"``, shifts mass within the affected suffix
    pair while preserving the consistency sum.
    """


class StreamLengthError(ReproError, RuntimeError):
    """A stream counter received more elements than its declared horizon."""


class DataValidationError(ReproError, ValueError):
    """Input data violates the longitudinal panel contract.

    The synthesizers consume an ``n x T`` binary panel: one row per
    individual, one column per reporting period, entries in ``{0, 1}``.
    """


class NotFittedError(ReproError, RuntimeError):
    """A result accessor was called before the corresponding round ran."""


class RecoveryError(ReproError, RuntimeError):
    """Crash recovery could not restore a correct service state.

    Raised by the :mod:`repro.serve` supervision layer when recovery
    cannot be completed soundly: no usable checkpoint or journal exists,
    a journaled round does not replay byte-identically (which would mean
    re-noising an already-published release — forbidden by the one-
    release-per-round DP contract), the retry budget for restarting dead
    workers is exhausted, or an operation (e.g. ``checkpoint``) is
    invalid on a degraded service.  The supervisor fails closed with
    this error rather than ever serving silently wrong answers.
    """


class DegradedServiceWarning(UserWarning):
    """A sharded service is serving from a subset of its shards.

    Emitted (via :mod:`warnings`) when a shard has been declared
    unrecoverable and the service — explicitly opted in via
    ``degraded_ok=True`` — continues to serve population-weighted merged
    answers from the surviving shards.  Answers carry an explicit
    ``degraded`` flag and the per-shard health report names the failed
    shards; the default (opt-out) behavior is to fail closed instead.
    """


class NoiseSamplerWarning(UserWarning):
    """A restored checkpoint was written under a different noise sampler.

    Emitted (via :mod:`warnings`) by
    :func:`repro.serve.checkpoint.read_bundle` when a bundle's
    ``noise_sampler`` field is missing (the bundle predates the field) or
    names another sampler.  The bundle restores — its state, ledger and
    generator positions are sampler-independent — but the draws made
    after the restore come from this build's sampler, so they differ from
    the ones the writing build would have made.
    """


class SerializationError(ReproError, RuntimeError):
    """A checkpoint bundle could not be written, read, or applied.

    Raised by the :mod:`repro.serve` checkpoint machinery instead of bare
    ``ValueError``/``KeyError`` when a bundle is structurally corrupt, fails
    its integrity checksum, declares an unsupported format version, or
    describes state incompatible with the object it is being loaded into
    (e.g. a different bit-generator family or horizon).  Catching this error
    is the supported way to detect an unusable checkpoint; anything else
    escaping :func:`repro.serve.checkpoint.read_bundle` is a bug.
    """
