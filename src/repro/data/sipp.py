"""Survey of Income and Program Participation (SIPP) 2021 — simulated.

The paper's experiments run on the 2021 SIPP public-use file
(``pu2021_csv.zip``), preprocessed into a panel of **23374 households x 12
months** indicating whether the household was in poverty each month
(``THINCPOVT2`` income-to-poverty ratio below 1).  The real file cannot be
downloaded in this offline environment, so this module builds the closest
synthetic equivalent:

1. :func:`simulate_sipp_raw` produces *raw* SIPP-like person-month records —
   household and person identifiers (some households have several surveyed
   persons), a continuous income-to-poverty ratio per month, and realistic
   missingness — driven by a two-state Markov poverty process calibrated to
   published SIPP poverty dynamics (monthly poverty ≈ 11.5 %, month-to-month
   persistence ≈ 0.87).
2. :func:`preprocess_sipp` applies the paper's preprocessing **verbatim**:
   subset to one longitudinal series per household, binarize the ratio
   (``ratio < 1`` -> in poverty), and delete every household with at least
   one missing value.
3. :func:`load_sipp_2021` runs both and returns a panel with exactly the
   paper's dimensions (N = 23374, T = 12).

The synthesizers consume only the resulting binary panel, and their privacy
and accuracy behaviour depends on ``n``, ``T`` and bin-occupancy profiles —
not on which specific households are poor — so this substitution preserves
the behaviour the paper's figures measure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.data.dataset import DynamicPanel, LongitudinalDataset
from repro.data.generators import apply_churn
from repro.exceptions import ConfigurationError, DataValidationError
from repro.rng import SeedLike, as_generator

__all__ = [
    "SippRawData",
    "simulate_sipp_raw",
    "preprocess_sipp",
    "load_sipp_2021",
    "load_sipp_dynamic",
    "SIPP_2021_N_HOUSEHOLDS",
    "SIPP_2021_HORIZON",
    "SIPP_MONTHLY_ATTRITION",
]

SIPP_2021_N_HOUSEHOLDS = 23374
SIPP_2021_HORIZON = 12

# Calibration targets (see module docstring): stationary monthly poverty
# rate and month-to-month persistence of the poverty state.
_POVERTY_RATE = 0.115
_POVERTY_PERSISTENCE = 0.87
# Probability that a surveyed household misses at least one month.
_MISSINGNESS_RATE = 0.06

#: Monthly attrition hazard for the dynamic-panel variant.  SIPP loses
#: roughly a quarter of its sample over a 12-month panel (Census Bureau
#: nonresponse reports); a ~2.5 %/month geometric hazard reproduces that
#: cumulative wave-to-wave attrition profile.
SIPP_MONTHLY_ATTRITION = 0.025
# Fraction of households contributing a second surveyed person.
_MULTI_PERSON_RATE = 0.25


@dataclass(frozen=True)
class SippRawData:
    """Raw SIPP-like person-month records in long format.

    Attributes
    ----------
    household_id, person_id, month:
        Integer identifiers; ``month`` is 1-indexed.  A household may appear
        with several persons (the paper subsets to one series per
        household).
    income_poverty_ratio:
        The ``THINCPOVT2`` analogue: household income divided by the
        household poverty threshold that month.  ``NaN`` marks a missing
        interview.
    """

    household_id: np.ndarray
    person_id: np.ndarray
    month: np.ndarray
    income_poverty_ratio: np.ndarray

    def __post_init__(self):
        lengths = {
            self.household_id.shape[0],
            self.person_id.shape[0],
            self.month.shape[0],
            self.income_poverty_ratio.shape[0],
        }
        if len(lengths) != 1:
            raise DataValidationError("raw SIPP columns must have equal length")

    @property
    def n_rows(self) -> int:
        """Number of person-month rows."""
        return self.household_id.shape[0]


def _poverty_states(
    n: int, horizon: int, generator: np.random.Generator
) -> np.ndarray:
    """Two-state Markov poverty indicator per household (vectorized)."""
    p_stay = _POVERTY_PERSISTENCE
    p_enter = _POVERTY_RATE * (1.0 - p_stay) / (1.0 - _POVERTY_RATE)
    uniforms = generator.random((n, horizon))
    states = np.empty((n, horizon), dtype=np.uint8)
    states[:, 0] = uniforms[:, 0] < _POVERTY_RATE
    for t in range(1, horizon):
        threshold = np.where(states[:, t - 1] == 1, p_stay, p_enter)
        states[:, t] = uniforms[:, t] < threshold
    return states


def simulate_sipp_raw(
    n_households: int,
    horizon: int = SIPP_2021_HORIZON,
    seed: SeedLike = None,
) -> SippRawData:
    """Simulate raw SIPP-like person-month records for ``n_households``.

    The latent poverty state drives the observed continuous ratio: poor
    months draw ``ratio ~ 1 - |N(0, 0.25)|`` clipped above 0 (below the
    threshold), non-poor months draw a lognormal centered well above 1.
    A household's second surveyed person (when present) reports the *same*
    household-level ratio, mirroring how ``THINCPOVT2`` is a household
    variable replicated on person records.
    """
    if n_households <= 0:
        raise ConfigurationError(f"n_households must be positive, got {n_households}")
    if horizon <= 0:
        raise ConfigurationError(f"horizon must be positive, got {horizon}")
    generator = as_generator(seed)

    states = _poverty_states(n_households, horizon, generator)
    poor_ratio = np.clip(1.0 - np.abs(generator.normal(0.0, 0.25, states.shape)), 0.01, 0.999)
    nonpoor_ratio = 1.0 + generator.lognormal(0.5, 0.6, states.shape)
    ratios = np.where(states == 1, poor_ratio, nonpoor_ratio)

    # Missingness: a household is a "misser" with the calibrated rate, and a
    # misser skips a uniformly random subset of 1..3 months.
    missers = generator.random(n_households) < _MISSINGNESS_RATE
    for household in np.flatnonzero(missers):
        n_missing = int(generator.integers(1, 4))
        missing_months = generator.choice(horizon, size=n_missing, replace=False)
        ratios[household, missing_months] = np.nan

    # Long format, person 1 for everyone; a subset of households contributes
    # a second person with duplicated household-level ratios.
    second_person = np.flatnonzero(generator.random(n_households) < _MULTI_PERSON_RATE)
    household_blocks = [np.arange(n_households), second_person]
    person_numbers = [1, 2]

    household_id_parts = []
    person_id_parts = []
    month_parts = []
    ratio_parts = []
    for households, person in zip(household_blocks, person_numbers):
        n_block = households.shape[0]
        household_id_parts.append(np.repeat(households, horizon))
        person_id_parts.append(np.full(n_block * horizon, person, dtype=np.int64))
        month_parts.append(np.tile(np.arange(1, horizon + 1), n_block))
        ratio_parts.append(ratios[households].reshape(-1))

    return SippRawData(
        household_id=np.concatenate(household_id_parts),
        person_id=np.concatenate(person_id_parts),
        month=np.concatenate(month_parts),
        income_poverty_ratio=np.concatenate(ratio_parts),
    )


def preprocess_sipp(raw: SippRawData, horizon: int = SIPP_2021_HORIZON) -> LongitudinalDataset:
    """The paper's preprocessing pipeline, step for step (§5).

    1. *"we first subset the data to one longitudinal series per household"*
       — keep the lowest person number per household.
    2. *"The SIPP variable THINCPOVT2 is coded as the household income ratio
       to the household poverty threshold in a given month. We binarize this
       such that any values of the ratio smaller than one are coded as 1"*.
    3. *"some households have missing values. We delete every household that
       has at least one missing value"* — households must also have all
       ``horizon`` months present.
    """
    # Step 1: one series per household (lowest person id wins).
    order = np.lexsort((raw.person_id, raw.household_id))
    household = raw.household_id[order]
    person = raw.person_id[order]
    month = raw.month[order]
    ratio = raw.income_poverty_ratio[order]

    first_person = {}
    for h, p in zip(household, person):
        if h not in first_person or p < first_person[h]:
            first_person[h] = p
    keep = np.array([first_person[h] == p for h, p in zip(household, person)])
    household, month, ratio = household[keep], month[keep], ratio[keep]

    # Step 2: binarize (NaN kept as NaN so step 3 can find it).
    in_poverty = np.where(np.isnan(ratio), np.nan, (ratio < 1.0).astype(np.float64))

    # Step 3: pivot to wide and delete incomplete households.
    households = np.unique(household)
    index_of = {h: i for i, h in enumerate(households)}
    wide = np.full((households.shape[0], horizon), np.nan)
    rows = np.fromiter(
        (index_of[h] for h in household), count=household.shape[0], dtype=np.int64
    )
    valid_month = (month >= 1) & (month <= horizon)
    wide[rows[valid_month], month[valid_month] - 1] = in_poverty[valid_month]
    complete = ~np.isnan(wide).any(axis=1)
    return LongitudinalDataset(wide[complete].astype(np.uint8))


def load_sipp_2021(
    seed: SeedLike = 20210, target_households: int | None = SIPP_2021_N_HOUSEHOLDS
) -> LongitudinalDataset:
    """Simulated SIPP 2021 poverty panel with the paper's dimensions.

    Simulates enough raw households that, after preprocessing drops
    incomplete ones, at least ``target_households`` complete series remain,
    then subsamples deterministically to exactly that count.  Pass
    ``target_households=None`` to keep every complete household.

    Parameters
    ----------
    seed:
        Seed or generator for the simulation (the default reproduces the
        panel used across the figures).
    target_households:
        Exact number of households to keep (default: the paper's
        N = 23374), or ``None`` for every complete household.

    Returns
    -------
    LongitudinalDataset
        The binary poverty panel, ``target_households x 12``.
    """
    generator = as_generator(seed)
    oversample = 1.10  # covers the ~6 % missingness with ample slack
    n_raw = (
        int(np.ceil(SIPP_2021_N_HOUSEHOLDS * oversample))
        if target_households is None
        else int(np.ceil(target_households * oversample))
    )
    raw = simulate_sipp_raw(n_raw, horizon=SIPP_2021_HORIZON, seed=generator)
    panel = preprocess_sipp(raw)
    if target_households is None:
        return panel
    if panel.n_individuals < target_households:
        raise DataValidationError(
            f"simulation produced only {panel.n_individuals} complete households; "
            f"needed {target_households}"
        )
    chosen = generator.choice(panel.n_individuals, size=target_households, replace=False)
    return panel.subset(np.sort(chosen))


def load_sipp_dynamic(
    seed: SeedLike = 20210,
    target_households: int | None = SIPP_2021_N_HOUSEHOLDS,
    attrition_hazard: float = SIPP_MONTHLY_ATTRITION,
    entry_rate: float = 0.02,
) -> DynamicPanel:
    """Simulated SIPP poverty panel with realistic sample churn.

    The paper's preprocessing *deletes* every household with a missing
    month, which silently assumes a fixed population; this loader keeps
    the panel dynamic instead: households attrit wave by wave with a
    geometric monthly hazard (the real SIPP's dominant churn mode) and a
    small share of households enters mid-panel (added sample members).
    Reports outside a household's observed span follow the zero-fill
    convention of :mod:`repro.core.population`.

    Parameters
    ----------
    seed:
        Seed or generator; drives both the underlying poverty panel
        (:func:`load_sipp_2021`) and the churn schedule.
    target_households:
        Ever-admitted household count (default: the paper's N = 23374),
        or ``None`` for every complete simulated household.
    attrition_hazard:
        Monthly departure probability after entry (default
        :data:`SIPP_MONTHLY_ATTRITION`).
    entry_rate:
        Probability a household enters after month 1.

    Returns
    -------
    DynamicPanel
        The churned poverty panel, ready for the synthesizers'
        entry/exit protocol (``run(panel)`` or ``rounds()``).
    """
    generator = as_generator(seed)
    panel = load_sipp_2021(seed=generator, target_households=target_households)
    return apply_churn(
        panel, entry_rate=entry_rate, exit_hazard=attrition_hazard, seed=generator
    )
