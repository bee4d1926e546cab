"""Multi-attribute record streams behind the unified Synthesizer protocol.

The paper develops its continual-release machinery for a single attribute
stream (one binary or categorical report per individual per round).  Real
longitudinal collections — SIPP being the running example — carry several
attributes at once: employment status *and* income bracket, say.  This
module composes one :class:`~repro.core.window_engine.WindowEngine` per
attribute over a shared population and a single zCDP budget:

* **One engine per attribute.**  Binary attributes run the bit-exact
  :class:`~repro.core.fixed_window.FixedWindowSynthesizer`; larger
  alphabets run :class:`~repro.core.categorical_window.CategoricalWindowSynthesizer`.
  Each engine keeps its own deterministic mirror of the shared
  :class:`~repro.core.population.PopulationLedger` (identical
  admit/retire sequences), so churn (``entrants=`` / ``exits=``) applies
  row-wise to every attribute at once.
* **One budget, split by weight.**  The total ``rho`` is divided
  ``rho_c = rho * w_c / W`` over the attribute engines and the
  cross-attribute mechanisms (``W`` the sum of all weights); each
  component charges its own :class:`~repro.dp.accountant.ZCDPAccountant`
  and the component spends sum back to ``rho`` after a full run.
* **Cross-attribute queries via marginal-based noising.**  For each
  configured attribute pair the synthesizer releases, every round, a
  discrete-Gaussian-noised joint histogram of the current reports
  (``q_a * q_b`` cells), from which
  :meth:`MultiAttributeRelease.cross_marginal` derives a normalized
  two-way marginal — e.g. employment status x income bracket.
* **Row-consistent synthetic records.**
  :meth:`MultiAttributeRelease.synthetic_records` draws one latent
  uniform per synthetic row and inverts every attribute's released
  round-``t`` marginal at that same uniform (a comonotone coupling), so
  each row is a coherent multi-attribute record whose per-attribute
  histograms match the released ones.

With a single attribute and no cross pairs the composition is **bit-exact**
with the standalone engine: the sole engine receives the full budget and
the synthesizer's own generator object (``as_generator`` passes
generators through unchanged), so noise draws, record randomness, ledger,
and checkpoints are identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

import numpy as np

from repro.core.categorical_window import CategoricalWindowSynthesizer
from repro.core.fixed_window import FixedWindowSynthesizer
from repro.core.population import validate_binary_column
from repro.dp.accountant import ZCDPAccountant
from repro.dp.discrete_gaussian import calibrate_sigma_sq
from repro.dp.mechanisms import GaussianHistogramMechanism
from repro.exceptions import (
    ConfigurationError,
    DataValidationError,
    NotFittedError,
    SerializationError,
)
from repro.rng import (
    SeedLike,
    as_generator,
    generator_state,
    restore_generator_state,
    spawn,
)
from repro.types import AttributeFrame, as_frame

__all__ = ["AttributeSpec", "MultiAttributeSynthesizer", "MultiAttributeRelease"]


@dataclass(frozen=True)
class AttributeSpec:
    """Per-attribute configuration of a multi-attribute synthesizer.

    Parameters
    ----------
    name:
        Attribute name (must be unique within a synthesizer).
    alphabet:
        Number of categories ``q >= 2``; 2 selects the bit-exact binary
        engine.
    window:
        Per-attribute window width override (``None``: the synthesizer's
        shared window).
    weight:
        Relative share of the total zCDP budget (positive; weights are
        normalized over attributes plus cross pairs).
    n_pad:
        Padding per bin for this attribute's engine (``None``: the
        Theorem 3.2 auto-sized value).
    """

    name: str
    alphabet: int = 2
    window: int | None = None
    weight: float = 1.0
    n_pad: int | None = None

    def __post_init__(self):
        if not self.name:
            raise ConfigurationError("attribute name must be non-empty")
        if self.alphabet < 2:
            raise ConfigurationError(
                f"alphabet must be at least 2, got {self.alphabet} for {self.name!r}"
            )
        if self.window is not None and self.window < 1:
            raise ConfigurationError(
                f"window must be positive, got {self.window} for {self.name!r}"
            )
        if not self.weight > 0:
            raise ConfigurationError(
                f"weight must be positive, got {self.weight} for {self.name!r}"
            )
        if self.n_pad is not None and self.n_pad < 0:
            raise ConfigurationError(
                f"n_pad must be non-negative, got {self.n_pad} for {self.name!r}"
            )

    def to_dict(self) -> dict:
        """JSON-able form (``window``/``n_pad`` may still be ``None``)."""
        return {
            "name": self.name,
            "alphabet": int(self.alphabet),
            "window": None if self.window is None else int(self.window),
            "weight": float(self.weight),
            "n_pad": None if self.n_pad is None else int(self.n_pad),
        }

    @classmethod
    def from_dict(cls, payload: Mapping) -> "AttributeSpec":
        """Rebuild a spec from :meth:`to_dict` output."""
        try:
            return cls(
                name=str(payload["name"]),
                alphabet=int(payload.get("alphabet", 2)),
                window=(
                    None if payload.get("window") is None else int(payload["window"])
                ),
                weight=float(payload.get("weight", 1.0)),
                n_pad=None if payload.get("n_pad") is None else int(payload["n_pad"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise SerializationError(f"invalid attribute spec: {exc}") from exc


def _coerce_spec(item) -> AttributeSpec:
    """Accept specs, mappings, or bare names in the ``attributes=`` list."""
    if isinstance(item, AttributeSpec):
        return item
    if isinstance(item, Mapping):
        return AttributeSpec.from_dict(item)
    if isinstance(item, str):
        return AttributeSpec(name=item)
    raise ConfigurationError(
        f"attributes entries must be AttributeSpec, mapping, or name, got "
        f"{type(item).__name__}"
    )


class _CompositeAccountant:
    """Live read-only view summing every component ledger.

    Mirrors the :class:`~repro.dp.accountant.ZCDPAccountant` read surface
    (``total_rho`` / ``spent`` / ``remaining`` / ``charges``) so the
    serving layer's ledger plumbing works unchanged; charging happens in
    the components, never here.
    """

    def __init__(self, synthesizer: "MultiAttributeSynthesizer"):
        self._synth = synthesizer

    def _components(self):
        for name, engine in zip(self._synth.attribute_names, self._synth._engines):
            if engine.accountant is not None:
                yield name, engine.accountant
        for pair, accountant in self._synth._cross_accountants.items():
            if accountant is not None:
                yield f"{pair[0]}x{pair[1]}", accountant

    @property
    def total_rho(self) -> float:
        """The configured total budget."""
        return self._synth.rho

    @property
    def spent(self) -> float:
        """Total zCDP spent across every attribute and cross pair."""
        return math.fsum(acct.spent for _, acct in self._components())

    @property
    def remaining(self) -> float:
        """Budget left (never negative)."""
        return max(0.0, self.total_rho - self.spent)

    @property
    def charges(self) -> tuple[tuple[str, float], ...]:
        """Every component charge, labels prefixed with the component."""
        merged: list[tuple[str, float]] = []
        for prefix, acct in self._components():
            merged.extend((f"{prefix}: {label}", rho) for label, rho in acct.charges)
        return tuple(merged)

    def __repr__(self) -> str:
        return (
            f"_CompositeAccountant(total_rho={self.total_rho!r}, "
            f"spent={self.spent:.6g})"
        )


class MultiAttributeRelease:
    """Release view over every attribute engine plus the cross marginals.

    Parameters
    ----------
    synthesizer:
        The owning :class:`MultiAttributeSynthesizer`; the release is a
        live view of its state (one cached instance per synthesizer),
        not a frozen copy.
    """

    #: Release-protocol capability flag: ``answer`` accepts ``debias=``.
    debias_aware = True

    def __init__(self, synthesizer: "MultiAttributeSynthesizer"):
        self._synth = synthesizer

    # -- metadata ------------------------------------------------------

    @property
    def t(self) -> int:
        """Rounds observed so far."""
        return self._synth.t

    @property
    def attribute_names(self) -> tuple[str, ...]:
        """The attribute names, in declaration order."""
        return self._synth.attribute_names

    def attribute(self, name):
        """The single-attribute release view for ``name`` (or column index)."""
        return self._synth._engine_for(name).release

    def population(self, t: int) -> int:
        """Real individuals admitted by round ``t`` (shared across attributes)."""
        return self._synth._engines[0].release.population(t)

    def synthetic_population(self, t: int) -> int:
        """Synthetic rows drawable at round ``t`` (min over attributes)."""
        return min(
            engine.release.synthetic_population(t) for engine in self._synth._engines
        )

    @property
    def n_synthetic(self) -> int:
        """Synthetic rows currently materialized (min over attributes)."""
        return min(engine.release.n_synthetic for engine in self._synth._engines)

    # -- query answering -----------------------------------------------

    def answer(self, query, t: int, debias: bool = True, *, attribute=None) -> float:
        """Answer a window query on one attribute's release.

        Parameters
        ----------
        query:
            A window query over the target attribute's alphabet.
        t:
            Round to answer at.
        debias:
            Forwarded to the attribute release (subtract padding,
            renormalize by the real population; default).
        attribute:
            Which attribute to answer on (name or column index).
            ``None`` is allowed only for single-attribute synthesizers.
        """
        if attribute is None:
            if self._synth.width != 1:
                raise ConfigurationError(
                    "answer() needs attribute= when the synthesizer holds "
                    f"{self._synth.width} attributes {self.attribute_names}"
                )
            attribute = 0
        return self.attribute(attribute).answer(query, t, debias=debias)

    def answer_batch(
        self, queries, times, debias: bool = True, *, attribute=None
    ) -> np.ndarray:
        """Answer a workload on one attribute's release as a grid.

        Same attribute resolution as :meth:`answer`; the per-attribute
        release runs the compiled batch path (and owns the
        release-versioned answer cache), so the grid is bit-identical
        with looping :meth:`answer` over the workload.
        """
        if attribute is None:
            if self._synth.width != 1:
                raise ConfigurationError(
                    "answer_batch() needs attribute= when the synthesizer holds "
                    f"{self._synth.width} attributes {self.attribute_names}"
                )
            attribute = 0
        return self.attribute(attribute).answer_batch(queries, times, debias=debias)

    # -- cross-attribute marginals -------------------------------------

    def cross_counts(self, a, b, t: int) -> np.ndarray:
        """The noisy joint counts released for pair ``(a, b)`` at round ``t``.

        Returns the length-``q_a * q_b`` noisy histogram (row-major in
        ``a``); the pair may be requested in either order — the released
        table is transposed to match the requested orientation.
        """
        name_a = self._synth._resolve_name(a)
        name_b = self._synth._resolve_name(b)
        pair, transposed = self._synth._resolve_pair(name_a, name_b)
        try:
            counts = self._synth._cross_counts[pair][t]
        except KeyError:
            raise NotFittedError(
                f"no cross histogram released for {pair[0]} x {pair[1]} at t={t}"
            ) from None
        q_first = self._synth._alphabet_of(pair[0])
        q_second = self._synth._alphabet_of(pair[1])
        table = counts.reshape(q_first, q_second)
        if transposed:
            table = table.T
        return np.ascontiguousarray(table).reshape(-1).copy()

    def cross_marginal(self, a, b, t: int) -> np.ndarray:
        """Normalized two-way marginal for pair ``(a, b)`` at round ``t``.

        Noisy counts are clamped at zero and normalized to sum to one;
        if every cell clamps to zero the uniform distribution is
        returned.
        """
        counts = np.maximum(self.cross_counts(a, b, t), 0).astype(np.float64)
        total = counts.sum()
        if total <= 0:
            return np.full(counts.shape, 1.0 / counts.size)
        return counts / total

    # -- synthetic records ---------------------------------------------

    def synthetic_records(self, t: int | None = None) -> AttributeFrame:
        """Row-consistent synthetic records at round ``t`` (default: latest).

        Single-attribute synthesizers return the engine's synthetic
        column verbatim.  With ``d >= 2`` one latent uniform is drawn per
        row and every attribute's released round-``t`` marginal is
        inverted at that same uniform (a comonotone coupling): rows are
        coherent multi-attribute records, each attribute's histogram
        follows its released marginal, and repeated calls (and calls
        after a checkpoint/restore) return the identical frame.
        """
        synth = self._synth
        if t is None:
            t = synth.t
        names = synth.attribute_names
        if synth.width == 1:
            panel = synth._engines[0].release.synthetic_data(t)
            m = synth._engines[0].release.synthetic_population(t)
            return AttributeFrame(panel.matrix[:m, t - 1], names)
        marginals = []
        for engine in synth._engines:
            histogram = engine.release.histogram(t)
            q = engine.alphabet
            codes = np.arange(histogram.size)
            counts = np.bincount(codes % q, weights=histogram, minlength=q)
            marginals.append(counts)
        m = int(min(counts.sum() for counts in marginals))
        generator = synth._records_generator(t)
        uniforms = np.sort(generator.random(m))
        columns = []
        for counts in marginals:
            total = counts.sum()
            cdf = np.cumsum(counts) / total if total > 0 else np.linspace(
                1.0 / counts.size, 1.0, counts.size
            )
            columns.append(np.searchsorted(cdf, uniforms, side="right").astype(np.int64))
        return AttributeFrame(np.column_stack(columns), names)

    def __repr__(self) -> str:
        return (
            f"MultiAttributeRelease(attributes={list(self.attribute_names)}, "
            f"t={self.t})"
        )


class MultiAttributeSynthesizer:
    """Continual DP synthesis of multi-attribute record streams.

    Composes one fixed-window engine per attribute over a shared
    population and a single zCDP budget; see the module docstring for
    the composition rules.  The class implements the full
    :class:`~repro.types.Synthesizer` protocol — ``observe`` / ``run`` /
    ``release`` / ``config_dict`` / ``state_dict`` (plus ``load_state`` /
    ``from_config``) — so the serving stack (streaming, sharding, every
    executor, checkpoints) drives it exactly like the single-attribute
    engines.

    Parameters
    ----------
    horizon:
        Known time horizon ``T``.
    window:
        Shared window width ``k`` (per-attribute override via
        :class:`AttributeSpec`).
    rho:
        Total zCDP budget for the entire run, split over attributes and
        cross pairs by weight; ``math.inf`` disables noise everywhere.
    attributes:
        Attribute declarations — :class:`AttributeSpec` instances,
        mappings (``{"name": ..., "alphabet": ...}``), or bare names
        (binary, weight 1).  Default: one binary attribute ``attr0``.
    cross:
        Attribute pairs to release noisy joint histograms for:
        ``None`` (default) selects every unordered pair when ``d >= 2``;
        an explicit sequence of ``(name_a, name_b)`` pairs restricts it;
        ``()`` disables cross marginals entirely.
    cross_weight:
        Budget weight of *each* cross pair relative to the attribute
        weights.
    beta:
        Target failure probability used when auto-sizing per-engine
        padding.
    on_negative:
        Negative-count fallback forwarded to every engine.
    sensitivity:
        Histogram L2 sensitivity forwarded to every mechanism.
    seed:
        Seed or generator for all randomness.  With one attribute and no
        cross pairs the sole engine consumes this stream directly and is
        bit-exact with the standalone engine.
    noise_method:
        ``"exact"`` or ``"vectorized"`` discrete Gaussian backend.
    """

    #: Tag stored in checkpoint configs.
    algorithm = "multi_attribute"

    def __init__(
        self,
        horizon: int,
        window: int,
        rho: float,
        *,
        attributes: Sequence | None = None,
        cross: Sequence | None = None,
        cross_weight: float = 1.0,
        beta: float = 0.05,
        on_negative: str = "redistribute",
        sensitivity: float = 1.0,
        seed: SeedLike = None,
        noise_method: str = "exact",
    ):
        if horizon <= 0:
            raise ConfigurationError(f"horizon must be positive, got {horizon}")
        if not 1 <= window <= horizon:
            raise ConfigurationError(
                f"window must lie in [1, horizon={horizon}], got {window}"
            )
        if not rho > 0:
            raise ConfigurationError(f"rho must be positive, got {rho}")
        if not cross_weight > 0:
            raise ConfigurationError(
                f"cross_weight must be positive, got {cross_weight}"
            )
        self.horizon = int(horizon)
        self.window = int(window)
        self.rho = float(rho)
        self.cross_weight = float(cross_weight)
        self.on_negative = str(on_negative)
        self.sensitivity = float(sensitivity)
        self.noise_method = str(noise_method)

        if attributes is None:
            attributes = (AttributeSpec(name="attr0"),)
        self._specs = tuple(_coerce_spec(item) for item in attributes)
        if not self._specs:
            raise ConfigurationError("attributes must declare at least one attribute")
        names = tuple(spec.name for spec in self._specs)
        if len(set(names)) != len(names):
            raise ConfigurationError(f"attribute names must be unique: {names}")
        self._names = names
        self._index = {name: i for i, name in enumerate(names)}
        for spec in self._specs:
            if spec.window is not None and spec.window > self.horizon:
                raise ConfigurationError(
                    f"window {spec.window} for {spec.name!r} exceeds horizon "
                    f"{self.horizon}"
                )

        self._pairs = self._normalize_cross(cross)
        self._generator = as_generator(seed)

        n_pairs = len(self._pairs)
        weight_total = math.fsum(spec.weight for spec in self._specs)
        weight_total += self.cross_weight * n_pairs
        infinite = math.isinf(self.rho)
        sole = len(self._specs) == 1 and not self._pairs
        if sole:
            # Bit-exactness anchor: the sole engine gets the whole budget
            # and this synthesizer's own generator object, so its noise
            # and record streams match the standalone engine exactly.
            engine_rhos = [self.rho]
            engine_seeds: list = [self._generator]
            pair_generators: list = []
            self._records_entropy: int | None = None
        else:
            engine_rhos = [
                math.inf if infinite else self.rho * spec.weight / weight_total
                for spec in self._specs
            ]
            children = spawn(self._generator, len(self._specs) + n_pairs + 1)
            engine_seeds = children[: len(self._specs)]
            pair_generators = children[len(self._specs) : len(self._specs) + n_pairs]
            self._records_entropy = int(
                children[-1].integers(0, 2**63 - 1)
            )
        rho_pair = (
            math.inf
            if infinite
            else self.rho * self.cross_weight / weight_total
            if n_pairs
            else 0.0
        )
        self.rho_per_pair = rho_pair if n_pairs else None

        self._engines = []
        for spec, spec_rho, spec_seed in zip(self._specs, engine_rhos, engine_seeds):
            spec_window = self.window if spec.window is None else spec.window
            if spec.alphabet == 2:
                built = FixedWindowSynthesizer(
                    self.horizon,
                    spec_window,
                    spec_rho,
                    n_pad=spec.n_pad,
                    beta=beta,
                    on_negative=self.on_negative,
                    sensitivity=self.sensitivity,
                    seed=spec_seed,
                    noise_method=self.noise_method,
                )
            else:
                built = CategoricalWindowSynthesizer(
                    self.horizon,
                    spec_window,
                    spec.alphabet,
                    spec_rho,
                    n_pad=spec.n_pad,
                    beta=beta,
                    on_negative=self.on_negative,
                    sensitivity=self.sensitivity,
                    seed=spec_seed,
                    noise_method=self.noise_method,
                )
            self._engines.append(built)

        self._cross_generators: dict[tuple[str, str], np.random.Generator] = {}
        self._cross_mechanisms: dict[tuple[str, str], GaussianHistogramMechanism] = {}
        self._cross_accountants: dict[tuple[str, str], ZCDPAccountant | None] = {}
        self._cross_counts: dict[tuple[str, str], dict[int, np.ndarray]] = {}
        for pair, pair_generator in zip(self._pairs, pair_generators):
            n_bins = self._alphabet_of(pair[0]) * self._alphabet_of(pair[1])
            if infinite:
                sigma_sq = Fraction(0)
            else:
                sigma_sq = calibrate_sigma_sq(self.horizon, rho_pair)
            self._cross_generators[pair] = pair_generator
            self._cross_mechanisms[pair] = GaussianHistogramMechanism(
                n_bins=n_bins,
                sigma_sq=sigma_sq,
                sensitivity=self.sensitivity,
                seed=pair_generator,
                method=self.noise_method,
            )
            self._cross_accountants[pair] = (
                None if infinite else ZCDPAccountant(rho_pair)
            )
            self._cross_counts[pair] = {}

        self._t = 0
        self._release_view = MultiAttributeRelease(self)

    # -- declaration helpers -------------------------------------------

    def _normalize_cross(self, cross) -> tuple[tuple[str, str], ...]:
        """Resolve the ``cross=`` parameter into ordered, unique pairs."""
        if cross is None:
            if len(self._names) < 2:
                return ()
            return tuple(
                (self._names[i], self._names[j])
                for i in range(len(self._names))
                for j in range(i + 1, len(self._names))
            )
        pairs = []
        seen = set()
        for item in cross:
            pair = tuple(item)
            if len(pair) != 2:
                raise ConfigurationError(
                    f"cross pairs must name two attributes, got {item!r}"
                )
            name_a = self._resolve_name(pair[0])
            name_b = self._resolve_name(pair[1])
            if name_a == name_b:
                raise ConfigurationError(
                    f"cross pair must name two distinct attributes, got {item!r}"
                )
            if self._index[name_a] > self._index[name_b]:
                name_a, name_b = name_b, name_a
            if (name_a, name_b) in seen:
                raise ConfigurationError(
                    f"duplicate cross pair ({name_a!r}, {name_b!r})"
                )
            seen.add((name_a, name_b))
            pairs.append((name_a, name_b))
        return tuple(pairs)

    def _resolve_name(self, attribute) -> str:
        """Normalize a name or column index into a declared attribute name."""
        if isinstance(attribute, str):
            if attribute not in self._index:
                raise ConfigurationError(
                    f"unknown attribute {attribute!r}; declared: {self._names}"
                )
            return attribute
        index = int(attribute)
        if not 0 <= index < len(self._names):
            raise ConfigurationError(
                f"attribute index {index} outside [0, {len(self._names)})"
            )
        return self._names[index]

    def _resolve_pair(self, name_a: str, name_b: str) -> tuple[tuple[str, str], bool]:
        """Map an (a, b) request onto the stored pair key + transpose flag."""
        if self._index[name_a] <= self._index[name_b]:
            pair, transposed = (name_a, name_b), False
        else:
            pair, transposed = (name_b, name_a), True
        if pair not in self._cross_counts:
            raise ConfigurationError(
                f"no cross marginal configured for ({name_a!r}, {name_b!r}); "
                f"configured pairs: {self._pairs}"
            )
        return pair, transposed

    def _engine_for(self, attribute):
        """The engine owning ``attribute`` (name or column index)."""
        return self._engines[self._index[self._resolve_name(attribute)]]

    def _alphabet_of(self, name: str) -> int:
        return self._specs[self._index[name]].alphabet

    def _records_generator(self, t: int) -> np.random.Generator:
        """Deterministic per-round generator for the record coupling."""
        if self._records_entropy is None:
            raise NotFittedError(
                "single-attribute synthesizers draw records from their engine"
            )
        return np.random.Generator(
            np.random.PCG64(np.random.SeedSequence([self._records_entropy, int(t)]))
        )

    # -- public metadata -----------------------------------------------

    @property
    def attribute_names(self) -> tuple[str, ...]:
        """Declared attribute names, in order."""
        return self._names

    @property
    def attribute_specs(self) -> tuple[AttributeSpec, ...]:
        """Declared attribute specs, in order."""
        return self._specs

    @property
    def alphabets(self) -> tuple[int, ...]:
        """Per-attribute alphabet sizes, in declaration order."""
        return tuple(spec.alphabet for spec in self._specs)

    @property
    def width(self) -> int:
        """Number of attributes ``d``."""
        return len(self._specs)

    @property
    def cross_pairs(self) -> tuple[tuple[str, str], ...]:
        """Attribute pairs with released cross marginals."""
        return self._pairs

    @property
    def t(self) -> int:
        """Rounds observed so far."""
        return self._t

    @property
    def release(self) -> MultiAttributeRelease:
        """View of everything released so far."""
        return self._release_view

    @property
    def accountant(self):
        """Composite zCDP ledger view (``None`` when ``rho`` is infinite)."""
        if math.isinf(self.rho):
            return None
        return _CompositeAccountant(self)

    @property
    def _n(self):
        """Shared population size (serving-layer restore cross-check)."""
        return self._engines[0]._n

    @property
    def _ledger(self):
        """The authoritative population ledger (engine 0's mirror)."""
        return self._engines[0]._ledger

    def lifespans(self) -> np.ndarray:
        """Per-individual ``(admitted, retired)`` rounds (shared ledger)."""
        return self._engines[0].lifespans()

    def zcdp_spent(self) -> float:
        """Total zCDP spent across every attribute and cross pair."""
        accountant = self.accountant
        return 0.0 if accountant is None else accountant.spent

    # -- streaming -----------------------------------------------------

    def observe(self, data, *, entrants: int = 0, exits=None) -> MultiAttributeRelease:
        """Consume one round of multi-attribute reports.

        Parameters
        ----------
        data:
            An :class:`~repro.types.AttributeFrame`, a ``name -> column``
            mapping, or an ``(n, d)`` matrix in declaration order (1-D
            columns are accepted for single-attribute synthesizers).
        entrants, exits:
            Population churn, applied row-wise to every attribute at
            once (the individuals are shared).

        Notes
        -----
        All attribute columns are validated *before* any engine advances,
        so a bad column leaves the synthesizer unchanged; structural
        checks (lengths, horizon, exit ids) are identical across engines
        because their ledgers evolve in lockstep.
        """
        frame = as_frame(data, names=self._names)
        for spec in self._specs:
            column = frame.column(spec.name)
            if spec.alphabet == 2:
                validate_binary_column(column)
            elif column.size and (
                column.min() < 0 or column.max() >= spec.alphabet
            ):
                raise DataValidationError(
                    f"column entries for {spec.name!r} must lie in "
                    f"[0, {spec.alphabet})"
                )
        if self._t >= self.horizon:
            raise DataValidationError(f"horizon {self.horizon} already exhausted")
        for spec, engine in zip(self._specs, self._engines):
            engine.observe(frame.column(spec.name), entrants=entrants, exits=exits)
        self._t += 1
        for pair in self._pairs:
            col_a = frame.column(pair[0])
            col_b = frame.column(pair[1])
            q_b = self._alphabet_of(pair[1])
            codes = col_a.astype(np.int64) * q_b + col_b.astype(np.int64)
            counts = np.bincount(
                codes, minlength=self._alphabet_of(pair[0]) * q_b
            )
            accountant = self._cross_accountants[pair]
            if accountant is not None:
                accountant.charge(
                    self._cross_mechanisms[pair].rho_per_release,
                    label=f"cross histogram t={self._t}",
                )
            self._cross_counts[pair][self._t] = self._cross_mechanisms[pair].release(
                counts
            )
        return self._release_view

    def run(self, dataset) -> MultiAttributeRelease:
        """Batch driver over per-attribute panels.

        Parameters
        ----------
        dataset:
            A ``name -> panel`` mapping (each panel an ``(n, T)`` matrix
            or an object exposing ``.matrix``), or a single panel for
            single-attribute synthesizers.
        """
        if self._t:
            raise ConfigurationError("run() requires a fresh synthesizer")
        if isinstance(dataset, Mapping):
            panels = {name: dataset[name] for name in dataset}
            if tuple(panels) != self._names:
                raise DataValidationError(
                    f"dataset attributes {tuple(panels)} do not match declared "
                    f"{self._names}"
                )
        elif self.width == 1:
            panels = {self._names[0]: dataset}
        else:
            raise DataValidationError(
                "run() needs a name -> panel mapping for multi-attribute "
                "synthesizers"
            )
        matrices = {}
        n_rows = None
        for name, panel in panels.items():
            matrix = np.asarray(getattr(panel, "matrix", panel))
            if matrix.ndim != 2:
                raise DataValidationError(
                    f"panel for {name!r} must be (n, T), got shape {matrix.shape}"
                )
            if matrix.shape[1] != self.horizon:
                raise DataValidationError(
                    f"panel for {name!r} has horizon {matrix.shape[1]} != "
                    f"synthesizer horizon {self.horizon}"
                )
            if n_rows is None:
                n_rows = matrix.shape[0]
            elif matrix.shape[0] != n_rows:
                raise DataValidationError(
                    f"panel for {name!r} has {matrix.shape[0]} records, "
                    f"expected {n_rows}"
                )
            matrices[name] = matrix
        for t in range(self.horizon):
            self.observe(
                AttributeFrame.from_columns(
                    {name: matrices[name][:, t] for name in self._names}
                )
            )
        return self._release_view

    # -- checkpointing -------------------------------------------------

    def config_dict(self) -> dict:
        """The constructor arguments needed to rebuild this synthesizer.

        Per-attribute ``window``/``n_pad`` are stored resolved, so the
        rebuilt synthesizer never re-runs the auto-sizing.
        """
        attributes = []
        for spec, engine in zip(self._specs, self._engines):
            payload = spec.to_dict()
            payload["window"] = engine.window
            payload["n_pad"] = engine.padding.n_pad
            attributes.append(payload)
        return {
            "algorithm": self.algorithm,
            "horizon": self.horizon,
            "window": self.window,
            "rho": self.rho,
            "attributes": attributes,
            "cross": [list(pair) for pair in self._pairs],
            "cross_weight": self.cross_weight,
            "on_negative": self.on_negative,
            "sensitivity": self.sensitivity,
            "noise_method": self.noise_method,
        }

    @classmethod
    def from_config(cls, config: dict) -> "MultiAttributeSynthesizer":
        """Rebuild a fresh synthesizer from :meth:`config_dict` output.

        Older configs also carry ``engine: "vectorized"``, which is
        accepted; ``engine: "scalar"`` (the removed reference engine,
        whose continuation cannot be reproduced) raises
        :class:`~repro.exceptions.SerializationError`.
        """
        engine = config.get("engine", "vectorized")
        if engine != "vectorized":
            raise SerializationError(
                f"multi-attribute config has engine {engine!r}; only the "
                "vectorized engine's bundles can be continued"
            )
        try:
            return cls(
                int(config["horizon"]),
                int(config["window"]),
                float(config["rho"]),
                attributes=[
                    AttributeSpec.from_dict(item) for item in config["attributes"]
                ],
                cross=[tuple(pair) for pair in config["cross"]],
                cross_weight=float(config["cross_weight"]),
                on_negative=str(config["on_negative"]),
                sensitivity=float(config["sensitivity"]),
                noise_method=str(config["noise_method"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise SerializationError(f"invalid multi-attribute config: {exc}") from exc

    def state_dict(self, *, copy: bool = True) -> dict:
        """Snapshot of the mutable state (nested per-engine states).

        The sole-engine fast path shares its generator with engine 0, so
        the master generator state is stored once under the engine and
        referenced on load.
        """
        state: dict = {
            "t": self._t,
            "attributes": {
                name: engine.state_dict(copy=copy)
                for name, engine in zip(self._names, self._engines)
            },
        }
        if self._records_entropy is None:
            # Sole-engine fast path: the master generator IS engine 0's.
            state["shared_generator"] = True
        else:
            state["generator"] = generator_state(self._generator)
            state["records_entropy"] = self._records_entropy
        cross_state = {}
        for pair in self._pairs:
            released = self._cross_counts[pair]
            times = sorted(released)
            entry: dict = {
                "generator": generator_state(self._cross_generators[pair]),
                "released_times": times,
            }
            accountant = self._cross_accountants[pair]
            if accountant is not None:
                entry["accountant"] = accountant.to_dict()
            if times:
                stacked = np.stack([released[t] for t in times])
                entry["counts"] = stacked.copy() if copy else stacked
            cross_state[f"{pair[0]}|{pair[1]}"] = entry
        if cross_state:
            state["cross"] = cross_state
        return state

    def load_state(self, state: dict) -> None:
        """Restore a :meth:`state_dict` snapshot into a fresh synthesizer."""
        if self._t:
            raise SerializationError(
                "load_state() requires a freshly constructed synthesizer"
            )
        try:
            t = int(state["t"])
            engine_states = state["attributes"]
        except (KeyError, TypeError) as exc:
            raise SerializationError(f"invalid multi-attribute state: {exc}") from exc
        if set(engine_states) != set(self._names):
            raise SerializationError(
                f"state attributes {sorted(engine_states)} do not match "
                f"configured {sorted(self._names)}"
            )
        if self._records_entropy is None:
            if not state.get("shared_generator"):
                raise SerializationError(
                    "state was taken from a multi-stream synthesizer but this "
                    "configuration runs the sole-engine fast path"
                )
        else:
            if "generator" not in state or "records_entropy" not in state:
                raise SerializationError(
                    "multi-attribute state is missing the master generator"
                )
            restore_generator_state(self._generator, state["generator"])
            self._records_entropy = int(state["records_entropy"])
        for name, engine in zip(self._names, self._engines):
            engine.load_state(engine_states[name])
            if engine.t != t:
                raise SerializationError(
                    f"engine {name!r} restored to t={engine.t}, expected t={t}"
                )
        cross_state = state.get("cross", {})
        expected_keys = {f"{a}|{b}" for a, b in self._pairs}
        if set(cross_state) != expected_keys:
            raise SerializationError(
                f"state cross pairs {sorted(cross_state)} do not match "
                f"configured {sorted(expected_keys)}"
            )
        for pair in self._pairs:
            entry = cross_state[f"{pair[0]}|{pair[1]}"]
            try:
                restore_generator_state(
                    self._cross_generators[pair], entry["generator"]
                )
                times = [int(x) for x in entry["released_times"]]
            except (KeyError, TypeError) as exc:
                raise SerializationError(
                    f"invalid cross state for {pair}: {exc}"
                ) from exc
            if times != list(range(1, t + 1)):
                raise SerializationError(
                    f"cross pair {pair} released {times}, expected every "
                    f"round 1..{t}"
                )
            if "accountant" in entry:
                if self._cross_accountants[pair] is None:
                    raise SerializationError(
                        f"state for {pair} carries an accountant but rho is "
                        "infinite"
                    )
                self._cross_accountants[pair] = ZCDPAccountant.from_dict(
                    entry["accountant"]
                )
            elif self._cross_accountants[pair] is not None:
                raise SerializationError(
                    f"state for {pair} is missing its accountant"
                )
            if times:
                counts = np.asarray(entry["counts"])
                n_bins = self._alphabet_of(pair[0]) * self._alphabet_of(pair[1])
                if counts.shape != (len(times), n_bins):
                    raise SerializationError(
                        f"cross counts for {pair} have shape {counts.shape}, "
                        f"expected {(len(times), n_bins)}"
                    )
                self._cross_counts[pair] = {
                    time: np.array(counts[i]) for i, time in enumerate(times)
                }
        self._t = t

    def __repr__(self) -> str:
        return (
            f"MultiAttributeSynthesizer(T={self.horizon}, k={self.window}, "
            f"rho={self.rho}, attributes={list(self._names)}, "
            f"pairs={len(self._pairs)})"
        )
