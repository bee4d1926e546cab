"""Longitudinal data substrate.

* :mod:`repro.data.dataset` — the ``n x T`` binary panel container every
  synthesizer consumes, with vectorized window/histogram/weight helpers.
* :mod:`repro.data.generators` — synthetic stream generators (iid, Markov,
  all-ones "extreme" data of Figure 3/4, bursty spells, seasonal, mixtures).
* :mod:`repro.data.sipp` — a simulator for the U.S. Census Bureau's Survey
  of Income and Program Participation (SIPP) 2021 sample, plus the paper's
  exact preprocessing pipeline (substitute for the real microdata, which
  cannot be downloaded offline; the simulator matches the published panel
  dimensions and poverty dynamics).
* :mod:`repro.data.debruijn` — de Bruijn padding records: a concrete
  population of "fake" individuals contributing exactly ``n_pad`` to every
  histogram bin in every window, which makes Algorithm 1's padding and the
  debiasing step exact and testable.
"""

from repro.data.categorical import (
    EMPLOYMENT_TRANSITIONS,
    CategoricalDataset,
    categorical_iid,
    categorical_markov,
    employment_status_panel,
    sticky_transitions,
)
from repro.data.dataset import DynamicPanel, LongitudinalDataset
from repro.data.debruijn import debruijn_sequence, padding_panel
from repro.data.generators import (
    all_ones,
    apply_churn,
    bursty_spells,
    churn_two_state_markov,
    iid_bernoulli,
    mixture,
    seasonal,
    two_state_markov,
)
from repro.data.sipp import (
    SippRawData,
    load_sipp_2021,
    load_sipp_dynamic,
    preprocess_sipp,
    simulate_sipp_raw,
)

__all__ = [
    "LongitudinalDataset",
    "DynamicPanel",
    "apply_churn",
    "churn_two_state_markov",
    "load_sipp_dynamic",
    "CategoricalDataset",
    "categorical_iid",
    "categorical_markov",
    "EMPLOYMENT_TRANSITIONS",
    "employment_status_panel",
    "sticky_transitions",
    "debruijn_sequence",
    "padding_panel",
    "all_ones",
    "iid_bernoulli",
    "two_state_markov",
    "bursty_spells",
    "seasonal",
    "mixture",
    "SippRawData",
    "simulate_sipp_raw",
    "preprocess_sipp",
    "load_sipp_2021",
]
