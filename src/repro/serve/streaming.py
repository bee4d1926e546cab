"""True-online serving: one report column in, one release out.

The offline drivers (:meth:`CumulativeSynthesizer.run` /
:meth:`FixedWindowSynthesizer.run`) replay a fully materialized panel.
:class:`StreamingSynthesizer` is the serving-side wrapper for the model
the paper actually describes: the curator observes one ``(n,)`` report
column per round — or one ``(n, d)`` :class:`~repro.types.AttributeFrame`
for multi-attribute streams — no panel up front — and must publish after
every round.  It adds the two things a long-lived service needs on top
of the synthesizers' incremental ``observe`` step:

* **durable state** — :meth:`checkpoint` serializes the complete
  mid-stream state (counter-bank arrays, monotonized threshold table,
  synthetic store, zCDP ledger, and every RNG bit-generator state) to a
  versioned bundle, and :meth:`restore` resumes from it with
  byte-identical future releases, noise included;
* **a uniform round API** — :meth:`observe` works identically for
  every algorithm, and per-round releases are bit-exact (noiseless
  mode) with the equivalent offline ``run()`` on the concatenated panel.

Example
-------
::

    from repro.serve import StreamingSynthesizer

    service = StreamingSynthesizer.cumulative(horizon=12, rho=0.005, seed=0)
    for column in arriving_columns:          # one (n,) bit vector per round
        release = service.observe(column)
        publish(release.threshold_table())
    service.checkpoint("state.ckpt")         # survive a restart
    service = StreamingSynthesizer.restore("state.ckpt")
"""

from __future__ import annotations


from repro.core.categorical_window import CategoricalWindowSynthesizer
from repro.core.cumulative import CumulativeSynthesizer
from repro.core.fixed_window import FixedWindowSynthesizer
from repro.core.multi_attribute import MultiAttributeSynthesizer
from repro.exceptions import ConfigurationError, SerializationError
from repro.rng import SeedLike
from repro.serve.checkpoint import read_bundle, write_bundle

__all__ = ["StreamingSynthesizer"]

#: Maps the ``algorithm`` tag in a checkpoint config to the synthesizer class.
_ALGORITHMS = {
    "cumulative": CumulativeSynthesizer,
    "fixed_window": FixedWindowSynthesizer,
    "categorical_window": CategoricalWindowSynthesizer,
    "multi_attribute": MultiAttributeSynthesizer,
}


class StreamingSynthesizer:
    """Online round-by-round wrapper around a continual synthesizer.

    Parameters
    ----------
    synthesizer:
        A :class:`~repro.core.cumulative.CumulativeSynthesizer`,
        :class:`~repro.core.fixed_window.FixedWindowSynthesizer`,
        :class:`~repro.core.categorical_window.CategoricalWindowSynthesizer`,
        or :class:`~repro.core.multi_attribute.MultiAttributeSynthesizer`
        — fresh or mid-stream; the wrapper takes over driving it.

    Raises
    ------
    repro.exceptions.ConfigurationError
        If ``synthesizer`` is not one of the supported classes.

    Notes
    -----
    The wrapper adds no privacy cost of its own: every noisy release is
    still charged to the wrapped synthesizer's zCDP ledger, and
    checkpoint/restore is pure state copying (no fresh randomness), so
    the privacy guarantee of a resumed stream equals the uninterrupted
    one.
    """

    def __init__(self, synthesizer):
        if not isinstance(synthesizer, tuple(_ALGORITHMS.values())):
            raise ConfigurationError(
                "StreamingSynthesizer wraps a CumulativeSynthesizer, "
                "FixedWindowSynthesizer, CategoricalWindowSynthesizer, or "
                f"MultiAttributeSynthesizer, got {type(synthesizer).__name__}"
            )
        self._synthesizer = synthesizer

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------

    @classmethod
    def cumulative(
        cls, horizon: int, rho: float, *, seed: SeedLike = None, **kwargs
    ) -> "StreamingSynthesizer":
        """Build a streaming Algorithm-2 (cumulative queries) service.

        Parameters
        ----------
        horizon:
            Known time horizon ``T``.
        rho:
            Total zCDP budget (``math.inf`` disables noise).
        seed:
            Seed for all randomness (noise and synthetic records).
        **kwargs:
            Forwarded to :class:`~repro.core.cumulative.CumulativeSynthesizer`
            (``counter``, ``budget``, ``engine``, ``noise_method``, ...).

        Returns
        -------
        StreamingSynthesizer
            A fresh service expecting round 1.
        """
        return cls(CumulativeSynthesizer(horizon, rho, seed=seed, **kwargs))

    @classmethod
    def fixed_window(
        cls, horizon: int, window: int, rho: float, *, seed: SeedLike = None, **kwargs
    ) -> "StreamingSynthesizer":
        """Build a streaming Algorithm-1 (fixed-window queries) service.

        Parameters
        ----------
        horizon:
            Known time horizon ``T``.
        window:
            Window width ``k``.
        rho:
            Total zCDP budget (``math.inf`` disables noise).
        seed:
            Seed for all randomness.
        **kwargs:
            Forwarded to
            :class:`~repro.core.fixed_window.FixedWindowSynthesizer`.

        Returns
        -------
        StreamingSynthesizer
            A fresh service expecting round 1.
        """
        return cls(FixedWindowSynthesizer(horizon, window, rho, seed=seed, **kwargs))

    @classmethod
    def categorical_window(
        cls,
        horizon: int,
        window: int,
        alphabet: int,
        rho: float,
        *,
        seed: SeedLike = None,
        **kwargs,
    ) -> "StreamingSynthesizer":
        """Build a streaming categorical fixed-window service.

        The multi-category generalization of :meth:`fixed_window`
        (employment status, program-participation codes, ...): one
        report in ``{0, ..., alphabet - 1}`` per active individual per
        round, with the same churn, checkpoint, and sharding surface as
        the binary algorithms.

        Parameters
        ----------
        horizon:
            Known time horizon ``T``.
        window:
            Window width ``k``.
        alphabet:
            Number of categories ``q >= 2``.
        rho:
            Total zCDP budget (``math.inf`` disables noise).
        seed:
            Seed for all randomness.
        **kwargs:
            Forwarded to
            :class:`~repro.core.categorical_window.CategoricalWindowSynthesizer`
            (``engine``, ``n_pad``, ``noise_method``, ...).

        Returns
        -------
        StreamingSynthesizer
            A fresh service expecting round 1.
        """
        return cls(
            CategoricalWindowSynthesizer(horizon, window, alphabet, rho, seed=seed, **kwargs)
        )

    @classmethod
    def multi_attribute(
        cls,
        horizon: int,
        window: int,
        rho: float,
        *,
        attributes=None,
        seed: SeedLike = None,
        **kwargs,
    ) -> "StreamingSynthesizer":
        """Build a streaming multi-attribute service.

        One :class:`~repro.types.AttributeFrame` (or ``name -> column``
        mapping, or ``(n, d)`` matrix) per round; per-attribute window
        engines over a shared population and one zCDP budget, with
        cross-attribute marginals — see
        :class:`~repro.core.multi_attribute.MultiAttributeSynthesizer`.

        Parameters
        ----------
        horizon:
            Known time horizon ``T``.
        window:
            Shared window width ``k``.
        rho:
            Total zCDP budget, split over attributes and cross pairs
            (``math.inf`` disables noise).
        attributes:
            Attribute declarations —
            :class:`~repro.core.multi_attribute.AttributeSpec` instances,
            mappings, or bare names.
        seed:
            Seed for all randomness.
        **kwargs:
            Forwarded to
            :class:`~repro.core.multi_attribute.MultiAttributeSynthesizer`
            (``cross``, ``cross_weight``, ``noise_method``, ...).

        Returns
        -------
        StreamingSynthesizer
            A fresh service expecting round 1.
        """
        return cls(
            MultiAttributeSynthesizer(
                horizon, window, rho, attributes=attributes, seed=seed, **kwargs
            )
        )

    # ------------------------------------------------------------------
    # Serving API
    # ------------------------------------------------------------------

    @property
    def synthesizer(self):
        """The wrapped synthesizer (shared, not a copy)."""
        return self._synthesizer

    @property
    def algorithm(self) -> str:
        """The wrapped synthesizer's checkpoint tag (``"cumulative"``, ...)."""
        for name, cls in _ALGORITHMS.items():
            if isinstance(self._synthesizer, cls):
                return name
        raise ConfigurationError(  # pragma: no cover - guarded by __init__
            f"unsupported synthesizer {type(self._synthesizer).__name__}"
        )

    @property
    def t(self) -> int:
        """Rounds observed so far."""
        return self._synthesizer.t

    @property
    def horizon(self) -> int:
        """Total rounds the stream will carry."""
        return self._synthesizer.horizon

    @property
    def rounds_remaining(self) -> int:
        """Rounds the service will still accept."""
        return self.horizon - self.t

    @property
    def release(self):
        """The current release view (everything published so far)."""
        return self._synthesizer.release

    def observe(self, data, *, entrants: int = 0, exits=None):
        """Ingest the next round's reports and publish.

        Parameters
        ----------
        data:
            The round-``t`` report vector ``D_t``: one entry per
            *currently active* individual (ascending id order) — 0/1
            for the binary algorithms, ``{0, ..., q-1}`` for the
            categorical one, or an ``(n, d)``
            :class:`~repro.types.AttributeFrame` (or ``name -> column``
            mapping) for the multi-attribute service.  With no churn
            declared, every round must present the same population size.
        entrants:
            Individuals entering this round; they report in the column's
            final ``entrants`` entries and receive fresh ids.  Their
            pre-entry history is the structural all-zero report (the
            zero-fill convention of :mod:`repro.core.population`).
        exits:
            Ids of previously active individuals absent from this round
            on.  Exits are permanent; re-entry is rejected.

        Returns
        -------
        Release
            The updated release view.  Per-round outputs are bit-exact
            (noiseless mode) with the offline ``run()`` on the
            concatenated panel — ``observe`` *is* ``run()``'s loop
            body, extracted — and zero-churn calls are bit-exact with
            the fixed-population path.

        Raises
        ------
        repro.exceptions.DataValidationError
            On out-of-alphabet input, a column length that disagrees
            with the declared churn, rounds past the horizon, or invalid
            churn declarations.
        """
        return self._synthesizer.observe(data, entrants=entrants, exits=exits)

    def lifespans(self):
        """Per-individual ``(entry_round, exit_round)`` pairs so far.

        Returns
        -------
        numpy.ndarray
            Shape ``(n_ever, 2)``; ``exit_round`` 0 marks a still-active
            individual.  The lifespan table travels inside
            :meth:`checkpoint` bundles, so a restored service continues
            the same churn history.
        """
        return self._synthesizer.lifespans()

    # ------------------------------------------------------------------
    # Durability
    # ------------------------------------------------------------------

    def fingerprint(self) -> str:
        """Digest of the complete serializable state, RNG included.

        Returns
        -------
        str
            A hex SHA-256 over the same config/state a :meth:`checkpoint`
            bundle captures (every state array hashed byte-for-byte).
            Two services with equal fingerprints write byte-identical
            checkpoint bundles and produce byte-identical future
            releases.  The release journal stores one fingerprint per
            shard per round, which is how crash recovery *proves* a
            replayed round reproduced the original published state
            instead of silently re-noising it.
        """
        from repro.serve.checkpoint import state_fingerprint

        return state_fingerprint(
            self._synthesizer.config_dict(),
            self._synthesizer.state_dict(copy=False),
        )

    def checkpoint(self, path) -> None:
        """Serialize the full mid-stream state to a versioned bundle.

        Parameters
        ----------
        path:
            Target file path (or writable binary file object).  The
            bundle is a zip with a ``manifest.json`` and one streamed
            ``arrays/<key>.npy`` member per state array — see
            :mod:`repro.serve.checkpoint` and the docs' checkpoint-format
            page.

        Raises
        ------
        repro.exceptions.SerializationError
            If the state cannot be represented in the bundle format.

        Notes
        -----
        A synthesizer restored from the bundle continues the stream with
        *byte-identical* releases — the bundle captures every RNG
        bit-generator state, the counter engine's internal buffers, the
        monotonized threshold table (or released histograms), the
        synthetic store, and the zCDP ledger.
        """
        # copy=False: the writer streams each array straight into the zip,
        # so there is no need to materialize a second copy of the state —
        # the bundle is consumed before control returns to the caller.
        write_bundle(
            path,
            kind="streaming",
            config=self._synthesizer.config_dict(),
            state=self._synthesizer.state_dict(copy=False),
        )

    @classmethod
    def restore(cls, path) -> "StreamingSynthesizer":
        """Resume a service from a :meth:`checkpoint` bundle.

        Parameters
        ----------
        path:
            Bundle file path (or readable binary file object).

        Returns
        -------
        StreamingSynthesizer
            A service continuing at the checkpointed round whose future
            releases are byte-identical to the uninterrupted stream's.

        Raises
        ------
        repro.exceptions.SerializationError
            If the bundle is corrupt, tampered with, version-mismatched,
            or names an unknown algorithm.
        """
        config, state = read_bundle(path, kind="streaming")
        try:
            algorithm = config["algorithm"]
        except (KeyError, TypeError) as exc:
            raise SerializationError(f"bundle config missing algorithm: {exc}") from exc
        try:
            synthesizer_cls = _ALGORITHMS[algorithm]
        except KeyError:
            raise SerializationError(
                f"unknown algorithm {algorithm!r}; expected one of "
                f"{sorted(_ALGORITHMS)}"
            ) from None
        synthesizer = synthesizer_cls.from_config(config)
        synthesizer.load_state(state)
        return cls(synthesizer)

    def __repr__(self) -> str:
        return (
            f"StreamingSynthesizer(algorithm={self.algorithm!r}, "
            f"t={self.t}/{self.horizon})"
        )
