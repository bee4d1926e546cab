"""The discrete Gaussian distribution ``N_Z(0, sigma^2)``.

Definition 2.2 of the paper:  ``P[X = x] ∝ exp(-x^2 / (2 sigma^2))`` on the
integers.  All noise added by the paper's mechanisms (Algorithm 1 per-bin
histogram noise, Algorithm 3 tree-node noise) is discrete Gaussian because it
composes cleanly under zCDP and is supported on the integers, so noisy counts
remain valid (integer) synthetic-record counts.

Two samplers are provided:

* ``method="exact"`` (the default) — the rejection sampler of Canonne,
  Kamath & Steinke (2020, Algorithm 3): a discrete Laplace proposal
  accepted with probability ``exp(-gamma)``, every decision an integer
  comparison of uniform integers, so no floating point touches the
  distribution.  A request for one draw runs :func:`sample_discrete_gaussian`
  (``Fraction`` arithmetic, one proposal at a time; also the reference the
  tests hold the batched form to).  A request for more draws runs the same
  scheme over the whole request at once in int64 NumPy: every pending draw
  gets a few proposals per pass, each proposal's uniforms come from one
  ``Generator.integers`` call, and ``Bernoulli(exp(-1))`` is read off a
  single uniform below ``20!``.  Before sampling, ``sigma^2`` is rounded
  *up* to a rational with a power-of-two denominator small enough that
  every product fits in 64 bits — more noise, never less, so the realized
  zCDP cost is at most the charge.  A proposal whose products could still
  overflow, and the rare chain that runs past its first block of draws,
  finish in Python integers; a variance too large for any int64
  calibration is drawn by the scalar sampler.  Oversampled proposals are
  discarded inside the call and nothing is buffered across calls, so the
  output is a function of the generator state alone.
* ``method="vectorized"`` — the same rejection scheme executed batch-wise
  in numpy with the acceptance probability evaluated in double precision.
  Its distributional error is bounded by float rounding of ``exp``; it is
  kept only for the replication harness, whose rep-axis draws at the
  paper's figure scale are several times cheaper this way.

For the counter banks there are *heterogeneous* batched APIs:
:meth:`DiscreteGaussianSampler.sample_columns` draws one value per column
at per-column variances, and its ``size=R`` form returns an ``(R, columns)``
block — ``R`` independent replicas per call, the rep-axis draw behind the
batched replication engine (:mod:`repro.core.replicated`).
"""

from __future__ import annotations

import bisect
import math
from fractions import Fraction

import numpy as np

from repro.dp.bernoulli_exp import bernoulli_exp
from repro.dp.discrete_laplace import sample_discrete_laplace
from repro.rng import ExactRandom, SeedLike, as_generator

__all__ = [
    "NOISE_SAMPLER_VERSION",
    "sample_discrete_gaussian",
    "calibrate_sigma_sq",
    "upper_sigma_sq",
    "DiscreteGaussianSampler",
]

#: Names the exact sampler whose draws follow a generator state; checkpoint
#: bundles record it (see :mod:`repro.serve.checkpoint`).
NOISE_SAMPLER_VERSION = "cks-batched-1"

#: The largest value an int64 product in the batched sampler may take.
_INT64_LIMIT = 1 << 62
#: Chain steps an int64 calibration leaves room for: ``den * 32 < 2**62``.
_CHAIN_ROOM = 32
#: Proposals per pass of the batched pipeline: every temporary of a pass
#: stays small whatever the request size (its one-dimensional int64 arrays
#: fit under 1 KiB, inside NumPy's small-block cache).
_BLOCK = 64
#: Width of each stage's first block of draws.  Longer runs (rare) finish
#: in Python integers.
_D_STEPS = 5  # Bernoulli(exp(-U/t)) chain steps
_V_TRIALS = 6  # Bernoulli(exp(-1)) trials of the geometric V
_G_TRIALS = 3  # Bernoulli(exp(-1)) trials owed for floor(gamma)
_R_STEPS = 4  # Bernoulli(exp(-r/den)) chain steps

#: ``Bernoulli(exp(-1))`` from one ``W`` uniform on ``[0, 20!)``: the chain
#: ``A_k ~ Bernoulli(1/k)`` survives step ``j`` iff ``W < 20!/j!`` (exact,
#: since ``20! < 2**63`` and every ``20!/j!`` is an integer), so the trial
#: succeeds iff ``pos = #{cuts <= W}`` is even (``W == 0`` survives all
#: twenty steps and finishes in Python integers).
_FACT20 = math.factorial(20)
_EXP1_CUTS = tuple(_FACT20 // math.factorial(j) for j in range(20, 0, -1))
#: The outcome is read off ``W >> 48``: a bucket between two cuts settles
#: it; the few buckets holding a cut (odds ~1e-3) are decided by bisection.
_EXP1_SHIFT = 48


def _exp1_tables() -> tuple[np.ndarray, np.ndarray]:
    """Per ``W >> 48`` bucket: the trial's outcome, and whether a cut splits it."""
    buckets = ((_FACT20 - 1) >> _EXP1_SHIFT) + 1
    success = np.zeros(buckets, dtype=bool)
    settled = np.zeros(buckets, dtype=bool)
    for pos in range(1, len(_EXP1_CUTS)):
        # W in [cuts[pos-1], cuts[pos]) has pos cuts at or below it.
        first = -(-_EXP1_CUTS[pos - 1] >> _EXP1_SHIFT)
        stop = _EXP1_CUTS[pos] >> _EXP1_SHIFT
        success[first:stop] = pos % 2 == 0
        settled[first:stop] = True
    return success, ~settled


_EXP1_SUCCESS, _EXP1_UNSETTLED = _exp1_tables()

#: Trailing one bits of a byte: the leading successes of up to eight
#: outcomes packed bit 0 first.
_RUNS = np.array([(b ^ (b + 1)).bit_length() - 1 for b in range(256)], dtype=np.int64)


def sample_discrete_gaussian(sigma_sq: Fraction, random: ExactRandom) -> int:
    """Draw one exact sample from ``N_Z(0, sigma_sq)``.

    Uses a discrete Laplace proposal with integer scale
    ``t = floor(sigma) + 1`` and accepts ``Y`` with probability
    ``exp(-(|Y| - sigma_sq/t)^2 / (2 sigma_sq))``; the expected number of
    proposal rounds is a small constant (below ~1.6 for all ``sigma``).
    """
    sigma_sq = Fraction(sigma_sq)
    if sigma_sq < 0:
        raise ValueError(f"sigma_sq must be non-negative, got {sigma_sq}")
    if sigma_sq == 0:
        return 0
    t = math.isqrt(math.floor(sigma_sq)) + 1
    t_frac = Fraction(t)
    while True:
        y = sample_discrete_laplace(t_frac, random)
        gamma = (abs(y) - sigma_sq / t) ** 2 / (2 * sigma_sq)
        if bernoulli_exp(gamma, random):
            return y


def upper_sigma_sq(value) -> Fraction:
    """A variance as an exact rational, rounded *up* to double precision.

    Parameters
    ----------
    value:
        Non-negative variance: int, float, or :class:`fractions.Fraction`.
        A float converts exactly (``Fraction(float)`` is exact).

    Returns
    -------
    fractions.Fraction
        The smallest double that is ``>= value``, as an exact Fraction
        (``value`` itself when it is a double, or too large for one).
        Never below ``value`` — more noise, never less — and ``float()`` of
        the result is exact, so a cost computed from it is the cost of the
        noise actually drawn.
    """
    value = Fraction(value)
    try:
        nearest = float(value)
    except OverflowError:
        return value
    upper = Fraction(nearest)
    if upper < value:
        upper = Fraction(math.nextafter(nearest, math.inf))
    return upper


def calibrate_sigma_sq(numerator, rho) -> Fraction:
    """The variance ``numerator / (2 rho)`` that realizes at most ``rho``.

    Parameters
    ----------
    numerator:
        Squared sensitivity times the number of releases sharing the
        budget (``L`` for a tree with ``L`` levels, ``T - k + 1`` for
        Algorithm 1's histograms).
    rho:
        zCDP budget (positive float), converted exactly.

    Returns
    -------
    fractions.Fraction
        ``sigma^2 >= numerator / (2 rho)`` exactly, via
        :func:`upper_sigma_sq`, so ``numerator / (2 sigma^2) <= rho`` for
        every budget, however small.
    """
    return upper_sigma_sq(Fraction(numerator) / (2 * Fraction(rho)))


def _check_sigma_sq(sigma_sq: Fraction) -> None:
    if sigma_sq < 0:
        raise ValueError(f"sigma_sq must be non-negative, got {sigma_sq}")


class DiscreteGaussianSampler:
    """Reusable ``N_Z(0, sigma^2)`` sampler bound to a random generator.

    Parameters
    ----------
    sigma_sq:
        Non-negative variance parameter; any value convertible to
        :class:`fractions.Fraction` (rounded up by :func:`upper_sigma_sq`).
        ``sigma_sq == 0`` yields the constant 0 (useful for "infinite
        budget" oracle runs in tests).
    seed:
        Seed, :class:`numpy.random.Generator`, or ``None``.
    method:
        ``"exact"`` (default) or ``"vectorized"``; see the module docstring.

    Notes
    -----
    The variance of ``N_Z(0, sigma^2)`` is at most ``sigma^2`` (it is
    slightly smaller for small ``sigma``); the paper's accuracy statements
    use the ``sigma^2`` upper bound, and so does :mod:`repro.analysis.theory`.
    """

    def __init__(self, sigma_sq, seed: SeedLike = None, method: str = "exact"):
        self.sigma_sq = upper_sigma_sq(sigma_sq)
        _check_sigma_sq(self.sigma_sq)
        if method not in ("exact", "vectorized"):
            raise ValueError(f"method must be 'exact' or 'vectorized', got {method!r}")
        self.method = method
        self._generator = as_generator(seed)
        self._exact = ExactRandom(self._generator)
        self._rows = _Calibration()

    @property
    def sigma(self) -> float:
        """Float standard-deviation parameter ``sqrt(sigma_sq)``."""
        return math.sqrt(float(self.sigma_sq))

    def sample(self) -> int:
        """Draw a single integer sample."""
        if self.sigma_sq == 0:
            return 0
        if self.method == "exact":
            return sample_discrete_gaussian(self.sigma_sq, self._exact)
        return int(self.sample_array(1)[0])

    def sample_array(self, shape) -> np.ndarray:
        """Draw an integer array of the given shape."""
        size = int(np.prod(shape)) if not np.isscalar(shape) else int(shape)
        if self.sigma_sq == 0:
            return np.zeros(shape, dtype=np.int64)
        if self.method == "exact":
            flat = self._sample_exact([self.sigma_sq], np.zeros(size, dtype=np.intp))
        else:
            flat = self._sample_vectorized(size)
        return flat.reshape(shape)

    def sample_columns(self, sigma_sqs, size: int | None = None) -> np.ndarray:
        """Per-column-variance draws (heterogeneous), optionally replicated.

        ``sigma_sqs`` is a sequence of non-negative variances (floats or
        :class:`~fractions.Fraction`); entry ``j`` of the returned int64
        vector is an independent ``N_Z(0, sigma_sqs[j])`` draw (exactly 0
        where ``sigma_sqs[j] == 0``).  The instance's own ``sigma_sq`` is
        ignored — this is the batched API used by the vectorized counter
        banks, which run many sub-mechanisms with different budgets and
        need a single noise draw per round.

        With ``size=R`` the call returns a ``(R, len(sigma_sqs))`` array of
        i.i.d. draws — ``R`` independent replicas of the length-``len``
        heterogeneous vector, drawn in one batch.  This is the rep-axis API
        behind the replicated counter banks: all ``R`` repetitions of a
        figure consume one ``(R, rows)`` draw per round instead of ``R``
        separate vectors.  ``size=None`` (default) keeps the 1-D shape.
        """
        if size is not None:
            if size < 0:
                raise ValueError(f"size must be non-negative, got {size}")
            return self.sample_array_2d(sigma_sqs, size)
        if self.method == "exact":
            return self._sample_exact(sigma_sqs, np.arange(len(sigma_sqs)))
        if not isinstance(sigma_sqs, np.ndarray):
            sigma_sqs = [float(s) for s in sigma_sqs]
        sigma_sqs = np.asarray(sigma_sqs, dtype=np.float64)
        return _sample_heterogeneous_gaussian(sigma_sqs, self._generator)

    def sample_array_2d(self, sigma_sqs, n_rows: int) -> np.ndarray:
        """``(n_rows, len(sigma_sqs))`` i.i.d. draws, column ``j`` at ``sigma_sqs[j]``."""
        if n_rows < 0:
            raise ValueError(f"n_rows must be non-negative, got {n_rows}")
        n_cols = len(sigma_sqs)
        if self.method == "exact":
            rows = np.tile(np.arange(n_cols), n_rows)
            return self._sample_exact(sigma_sqs, rows).reshape(n_rows, n_cols)
        tiled = np.tile(np.asarray([float(s) for s in sigma_sqs], dtype=np.float64), n_rows)
        return _sample_heterogeneous_gaussian(tiled, self._generator).reshape(n_rows, n_cols)

    def _sample_exact(self, sigma_sqs, rows: np.ndarray) -> np.ndarray:
        """Exact draws: entry ``i`` from ``N_Z(0, sigma_sqs[rows[i]])``."""
        cal = self._rows.update(sigma_sqs)
        out = np.zeros(rows.size, dtype=np.int64)
        kind = cal.kind[rows]
        live = np.flatnonzero(kind != _ZERO)
        if live.size == 1:
            # One draw: the scalar sampler is cheaper than a batch pass.
            scalar = live
        else:
            batched = live[kind[live] == _INT64]
            if batched.size:
                out[batched] = _cks_batch(cal, rows[batched], self._generator, self._exact)
            scalar = live[kind[live] == _BIG]
        for index in scalar:
            sigma_sq = upper_sigma_sq(sigma_sqs[rows[index]])
            out[index] = sample_discrete_gaussian(sigma_sq, self._exact)
        return out

    def _sample_vectorized(self, size: int) -> np.ndarray:
        """Batch rejection sampling with float acceptance probabilities."""
        sigma_sq = float(self.sigma_sq)
        t = math.isqrt(math.floor(self.sigma_sq)) + 1
        q = 1.0 - math.exp(-1.0 / t)
        out = np.empty(size, dtype=np.int64)
        filled = 0
        generator = self._generator
        while filled < size:
            # Oversample: acceptance is at least ~0.4 for every sigma, so a
            # 3x batch nearly always finishes in one or two rounds.
            batch = max(64, 3 * (size - filled))
            g1 = generator.geometric(q, size=batch) - 1
            g2 = generator.geometric(q, size=batch) - 1
            y = (g1 - g2).astype(np.int64)
            gamma = (np.abs(y) - sigma_sq / t) ** 2 / (2.0 * sigma_sq)
            accept = generator.random(batch) < np.exp(-gamma)
            accepted = y[accept]
            take = min(accepted.size, size - filled)
            out[filled : filled + take] = accepted[:take]
            filled += take
        return out


# ----------------------------------------------------------------------
# The batched exact sampler
# ----------------------------------------------------------------------

#: Row kinds: zero variance, int64-calibrated, too large for int64.
_ZERO, _INT64, _BIG = 0, 1, 2

#: Columns of a calibrated row's parameters: the proposal scale, the
#: rounded variance ``n/q`` as ``(n, q t)``, the acceptance denominator,
#: and the largest ``X`` whose products fit.
_T, _N, _QT, _DEN, _YMAX = range(5)
_N_PARAMS = 5
#: Columns of one proposal's uniforms (and of a row's bounds for them):
#: ``[0, 2t)`` for ``U`` and its sign, the ``exp(-U/t)`` chain, the
#: ``Bernoulli(exp(-1))`` trials of ``V`` then of ``floor(gamma)``, and
#: the ``exp(-r/den)`` chain.
_D = 1
_V = _D + _D_STEPS
_G = _V + _V_TRIALS
_R = _G + _G_TRIALS
_N_BOUNDS = _R + _R_STEPS


def _calibrate(sigma_sq: Fraction) -> tuple[list, list] | None:
    """int64 parameters and draw bounds of one row, or ``None`` when none fit.

    Rounds ``sigma_sq`` up to ``n/q`` with ``q`` the largest power of two
    such that ``den = 2 n q t^2`` (the acceptance denominator, with
    ``t = floor(sqrt(n/q)) + 1``) leaves room for :data:`_CHAIN_ROOM`
    chain steps below ``2**62``.  The starting guess comes from bit
    lengths, so a row costs O(1) big-integer operations.
    """

    def fit(k: int):
        q = 1 << k
        n = -(-sigma_sq.numerator * q // sigma_sq.denominator)  # ceil(sigma_sq q)
        t = math.isqrt(n // q) + 1
        den = 2 * n * q * t * t
        if den * _CHAIN_ROOM < 1 << 62:
            return n, q, t, den
        return None

    log_sigma_sq = sigma_sq.numerator.bit_length() - sigma_sq.denominator.bit_length()
    k = (56 - log_sigma_sq - 2 * max(log_sigma_sq // 2, 0)) // 2
    while k >= 0 and fit(k) is None:
        k -= 1
    if k < 0:
        return None
    while fit(k + 1) is not None:
        k += 1
    n, q, t, den = fit(k)
    # |a| = |X q t - n| <= a_max keeps a^2 (gamma's numerator) in range;
    # a proposal with X beyond y_max is evaluated in Python integers, and
    # so is every proposal of a row whose chain bounds would not fit.
    a_max = math.isqrt(_INT64_LIMIT)
    y_max = (a_max + n) // (q * t) if den * _R_STEPS <= _INT64_LIMIT else -1
    bounds = [2 * t] + [t * j for j in range(1, _D_STEPS + 1)]
    bounds += [_FACT20] * (_V_TRIALS + _G_TRIALS)
    bounds += [den * j for j in range(1, _R_STEPS + 1)] if y_max >= 0 else [1] * _R_STEPS
    return [t, n, q * t, den, y_max], bounds


class _Calibration:
    """Per-row sampler parameters, computed the first time a row is drawn.

    Rows are positional: row ``j`` holds the calibration of the last
    variance seen at position ``j`` of a request, and is recomputed only
    when that variance changes — a counter bank passes the same row
    objects every round, so each row calibrates once per sampler.
    """

    def __init__(self):
        self.keys: list = []
        self.kind = np.zeros(0, dtype=np.int64)
        self.params = np.zeros((0, _N_PARAMS), dtype=np.int64)
        self.bounds = np.zeros((0, _N_BOUNDS), dtype=np.int64)

    def update(self, sigma_sqs) -> "_Calibration":
        keys = self.keys
        if len(sigma_sqs) > len(keys):
            keys.extend([None] * (len(sigma_sqs) - len(keys)))
        if len(keys) > self.kind.size:
            # Capacity doubles, so a bank gaining one row a round
            # reallocates O(log T) times.
            capacity = max(len(keys), 2 * self.kind.size, 16)
            self.kind = _grown(self.kind, capacity)
            self.params = _grown(self.params, capacity)
            self.bounds = _grown(self.bounds, capacity)
        for j, key in enumerate(sigma_sqs):
            cached = keys[j]
            if cached is key or (cached is not None and cached == key):
                continue
            sigma_sq = upper_sigma_sq(key)
            _check_sigma_sq(sigma_sq)
            keys[j] = key
            calibrated = _calibrate(sigma_sq) if sigma_sq else None
            if calibrated is None:
                self.kind[j] = _BIG if sigma_sq else _ZERO
            else:
                self.kind[j] = _INT64
                self.params[j], self.bounds[j] = calibrated
        return self


def _grown(array: np.ndarray, capacity: int) -> np.ndarray:
    grown = np.zeros((capacity,) + array.shape[1:], dtype=array.dtype)
    grown[: array.shape[0]] = array
    return grown


def _cks_batch(
    cal: _Calibration, rows: np.ndarray, generator: np.random.Generator, exact: ExactRandom
) -> np.ndarray:
    """One exact draw from each int64-calibrated row ``rows[i]`` of ``cal``.

    Canonne–Kamath–Steinke rejection over the whole batch: pending draws
    go through the proposal pipeline in blocks of :data:`_BLOCK`
    proposals — at least two per draw, more when few draws remain — and
    each keeps its first accepted proposal.
    """
    out = np.empty(rows.size, dtype=np.int64)
    pending = np.arange(rows.size)
    while pending.size:
        # A proposal is accepted about half the time, so 16 leave a draw
        # pending with odds ~1e-5.
        proposals = min(max(_BLOCK // pending.size, 2), 16)
        group, rest = pending[: _BLOCK // proposals], pending[_BLOCK // proposals :]
        index = rows[np.repeat(group, proposals)]
        values, accept = _proposals(cal.params[index], cal.bounds[index], generator, exact)
        accept = accept.reshape(group.size, proposals)
        first = (~accept).argmin(axis=1)
        taken = np.arange(group.size) * proposals + first
        hit = accept.reshape(-1)[taken]
        out[group[hit]] = values[taken[hit]]
        pending = np.concatenate([rest, group[~hit]])
    return out


def _proposals(
    p: np.ndarray, bounds: np.ndarray, generator, exact
) -> tuple[np.ndarray, np.ndarray]:
    """Signed proposals (one per row of ``p``) and exact accept decisions.

    A proposal is ``X = U + t V`` with a random sign: ``U`` uniform below
    ``t``, kept with probability ``exp(-U/t)``, and ``V`` a count of
    ``Bernoulli(exp(-1))`` successes, so ``X`` is geometric and the signed
    value discrete Laplace once the duplicate zero is rejected.  It is then
    accepted with probability ``exp(-gamma)``,
    ``gamma = (X q t - n)^2 / den = floor(gamma) + r/den``.  All of a
    proposal's uniforms come from one ``integers`` call; the rare run
    longer than its block finishes in Python integers, only where the
    outcome still matters.
    """
    draws = generator.integers(0, bounds)
    u = draws[:, 0] >> 1
    negative = (draws[:, 0] & 1).astype(bool)
    # Laplace step 1: keep U with probability exp(-U/t).
    steps = draws[:, _D:_V] < u[:, None]
    valid = _chain(steps, u, p[:, _T], np.ones_like(negative), exact)
    # Laplace step 2: V counts Bernoulli(exp(-1)) successes until a failure.
    trials = _exp1_outcomes(draws[:, _V:_R], exact)
    v = _run(trials[:, :_V_TRIALS])
    if v.max() == _V_TRIALS:
        for i in np.flatnonzero(valid & (v == _V_TRIALS)):
            while _exp1_trial(exact):
                v[i] += 1
    x = u + p[:, _T] * v
    valid &= ~(negative & (x == 0))
    # Proposals past y_max are decided in Python integers below; the
    # clipped value keeps their (unused) int64 arithmetic in range.
    wide = valid & (x > p[:, _YMAX])
    narrow = valid & ~wide
    a = np.minimum(x, p[:, _YMAX]) * p[:, _QT] - p[:, _N]
    g, r = np.divmod(a * a, p[:, _DEN])
    # exp(-gamma) = exp(-1)^floor(gamma) * exp(-r/den).
    run = _run(trials[:, _V_TRIALS:])
    whole = run >= np.minimum(g, _G_TRIALS)
    if g.max() > _G_TRIALS:
        for i in np.flatnonzero(narrow & whole & (g > _G_TRIALS)):
            whole[i] = all(_exp1_trial(exact) for _ in range(int(g[i]) - _G_TRIALS))
    steps = draws[:, _R:] < r[:, None]
    accept = narrow & whole & _chain(steps, r, p[:, _DEN], narrow & whole, exact)
    if wide.any():
        for i in np.flatnonzero(wide):
            n, qt, den = (int(value) for value in p[i, [_N, _QT, _DEN]])
            a_i = int(x[i]) * qt - n
            accept[i] = bernoulli_exp(Fraction(a_i * a_i, den), exact)
    return np.where(negative, -x, x), accept


def _run(outcomes: np.ndarray) -> np.ndarray:
    """Leading successes per row of a boolean matrix (at most 8 columns)."""
    return _RUNS[np.packbits(outcomes, axis=1, bitorder="little")[:, 0]]


def _chain(steps: np.ndarray, num: np.ndarray, den: np.ndarray, needed, exact) -> np.ndarray:
    """``Bernoulli(exp(-num/den))`` from the first steps of its chain.

    ``steps[:, k-1]`` is ``A_k ~ Bernoulli(num / (den k))``; the outcome is
    1 iff the first failing step is odd.  ``needed`` rows whose chain
    survives every drawn step continue in Python integers.
    """
    run = _run(steps)
    outcome = run % 2 == 0
    width = steps.shape[1]
    if run.max() == width:
        for i in np.flatnonzero(needed & (run == width)):
            outcome[i] = _finish_chain(int(num[i]), int(den[i]), width + 1, exact)
    return outcome


def _exp1_outcomes(w: np.ndarray, exact) -> np.ndarray:
    """``Bernoulli(exp(-1))`` outcomes from uniforms ``w`` on ``[0, 20!)``."""
    bucket = w >> _EXP1_SHIFT
    outcome = _EXP1_SUCCESS[bucket]
    unsettled = _EXP1_UNSETTLED[bucket]
    if unsettled.any():
        for index in zip(*np.nonzero(unsettled)):
            pos = bisect.bisect_right(_EXP1_CUTS, int(w[index]))
            outcome[index] = pos % 2 == 0 if pos else _finish_chain(1, 1, 21, exact)
    return outcome


def _finish_chain(num: int, den: int, k: int, exact: ExactRandom) -> bool:
    """Finish a ``Bernoulli(exp(-num/den))`` chain that survived steps ``< k``."""
    while exact.bernoulli(num, den * k):
        k += 1
    return k % 2 == 1


def _exp1_trial(exact: ExactRandom) -> bool:
    """One ``Bernoulli(exp(-1))`` trial in Python integers."""
    return _finish_chain(1, 1, 2, exact)


def _sample_heterogeneous_gaussian(
    sigma_sqs: np.ndarray, generator: np.random.Generator
) -> np.ndarray:
    """One ``N_Z(0, sigma_sqs[j])`` draw per entry, in a single rejection loop.

    The same Canonne-Kamath-Steinke rejection scheme as the homogeneous
    vectorized path, but every entry carries its own proposal scale and
    acceptance probability; entries that reject are retried together until
    all are filled.  Zero-variance entries yield exactly 0.
    """
    if (sigma_sqs < 0).any():
        raise ValueError("sigma_sq entries must be non-negative")
    out = np.zeros(sigma_sqs.shape, dtype=np.int64)
    pending = np.flatnonzero(sigma_sqs > 0)
    if pending.size == 0:
        return out
    sigma_sq = sigma_sqs[pending]
    t = np.sqrt(np.floor(sigma_sq)).astype(np.int64) + 1
    q = 1.0 - np.exp(-1.0 / t)
    ratio = sigma_sq / t
    while pending.size:
        g1 = generator.geometric(q) - 1
        g2 = generator.geometric(q) - 1
        y = (g1 - g2).astype(np.int64)
        gamma = (np.abs(y) - ratio) ** 2 / (2.0 * sigma_sq)
        accept = generator.random(pending.size) < np.exp(-gamma)
        out[pending[accept]] = y[accept]
        keep = ~accept
        pending = pending[keep]
        sigma_sq, t, q, ratio = sigma_sq[keep], t[keep], q[keep], ratio[keep]
    return out
