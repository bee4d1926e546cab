"""Continual release of DP synthetic data from longitudinal data collections.

A faithful, production-grade reproduction of

    Mark Bun, Marco Gaboardi, Marcel Neunhoeffer, and Wanrong Zhang.
    "Continual Release of Differentially Private Synthetic Data from
    Longitudinal Data Collections."  Proc. ACM Manag. Data 2, 2 (PODS),
    Article 94, May 2024.  https://doi.org/10.1145/3651595

Quickstart::

    from repro import FixedWindowSynthesizer, load_sipp_2021, AtLeastMOnes

    panel = load_sipp_2021()                       # N=23374, T=12
    synth = FixedWindowSynthesizer(horizon=12, window=3, rho=0.005, seed=0)
    release = synth.run(panel)
    release.answer(AtLeastMOnes(3, 1), t=6)        # debiased by default

Package map (see DESIGN.md for the full inventory):

* :mod:`repro.core` — the paper's Algorithms 1 and 2;
* :mod:`repro.dp` — discrete Gaussian samplers and zCDP accounting;
* :mod:`repro.streams` — pluggable DP stream counters (Algorithm 3 et al.);
* :mod:`repro.data` — panels, generators, SIPP simulator, de Bruijn padding;
* :mod:`repro.queries` — window and cumulative query classes;
* :mod:`repro.baselines` — recompute-from-scratch, clamping, oracle,
  private density estimation;
* :mod:`repro.analysis` — theory bounds, metrics, replication harness,
  pMSE utility scoring;
* :mod:`repro.serve` — online serving: round-by-round ingestion,
  checkpoint/restore, sharded multi-tenant scaling;
* :mod:`repro.experiments` — one runnable definition per paper figure.
"""

from repro.analysis import (
    PMSEProbe,
    PMSEScore,
    ReplicatedAnswers,
    SeriesSummary,
    UtilityReport,
    pmse_release,
    propensity_pmse,
    replicate_synthesizer,
    score_synthesizer,
)
from repro.baselines import (
    ClampingBaseline,
    NonPrivateSynthesizer,
    PrivateDensityBaseline,
    RecomputeBaseline,
)
from repro.core import (
    AttributeSpec,
    CategoricalWindowRelease,
    CategoricalWindowSynthesizer,
    CumulativeRelease,
    CumulativeSynthesizer,
    FixedWindowRelease,
    FixedWindowSynthesizer,
    MultiAttributeRelease,
    MultiAttributeSynthesizer,
    PaddingSpec,
)
from repro.data import (
    CategoricalDataset,
    DynamicPanel,
    LongitudinalDataset,
    all_ones,
    apply_churn,
    categorical_iid,
    categorical_markov,
    churn_two_state_markov,
    employment_status_panel,
    iid_bernoulli,
    load_sipp_2021,
    load_sipp_dynamic,
    padding_panel,
    two_state_markov,
)
from repro.dp import DiscreteGaussianSampler, ZCDPAccountant
from repro.exceptions import (
    ConfigurationError,
    ConsistencyError,
    DataValidationError,
    DegradedServiceWarning,
    NegativeCountError,
    NoiseSamplerWarning,
    NotFittedError,
    PrivacyBudgetError,
    RecoveryError,
    ReproError,
    SerializationError,
    StreamLengthError,
)
from repro.queries import (
    AllOnes,
    AtLeastMConsecutiveOnes,
    AtLeastMOnes,
    CategoricalPatternQuery,
    CategoricalWindowQuery,
    CategoryAtLeastM,
    ExactlyMOnes,
    HammingAtLeast,
    HammingExactly,
    PatternQuery,
    WindowLinearQuery,
    categorical_pattern_table,
    quarterly_poverty_workload,
)
from repro.serve import ShardedService, StreamingSynthesizer
from repro.streams import (
    BinaryTreeCounter,
    BlockCounter,
    HonakerCounter,
    MonotoneCounter,
    SimpleCounter,
    SqrtFactorizationCounter,
    available_counters,
    make_counter,
)
from repro.types import AttributeFrame, Release, Synthesizer, as_frame

__version__ = "1.1.0"

__all__ = [
    # core
    "FixedWindowSynthesizer",
    "FixedWindowRelease",
    "CumulativeSynthesizer",
    "CumulativeRelease",
    "CategoricalWindowSynthesizer",
    "CategoricalWindowRelease",
    "MultiAttributeSynthesizer",
    "MultiAttributeRelease",
    "AttributeSpec",
    "PaddingSpec",
    # data
    "LongitudinalDataset",
    "DynamicPanel",
    "CategoricalDataset",
    "load_sipp_2021",
    "load_sipp_dynamic",
    "all_ones",
    "iid_bernoulli",
    "two_state_markov",
    "apply_churn",
    "churn_two_state_markov",
    "categorical_iid",
    "categorical_markov",
    "employment_status_panel",
    "padding_panel",
    # queries
    "PatternQuery",
    "WindowLinearQuery",
    "AtLeastMOnes",
    "AtLeastMConsecutiveOnes",
    "AllOnes",
    "ExactlyMOnes",
    "CategoricalWindowQuery",
    "CategoricalPatternQuery",
    "CategoryAtLeastM",
    "categorical_pattern_table",
    "HammingAtLeast",
    "HammingExactly",
    "quarterly_poverty_workload",
    # dp / streams
    "DiscreteGaussianSampler",
    "ZCDPAccountant",
    "BinaryTreeCounter",
    "SimpleCounter",
    "HonakerCounter",
    "SqrtFactorizationCounter",
    "BlockCounter",
    "MonotoneCounter",
    "make_counter",
    "available_counters",
    # baselines / analysis
    "RecomputeBaseline",
    "ClampingBaseline",
    "NonPrivateSynthesizer",
    "PrivateDensityBaseline",
    "replicate_synthesizer",
    "ReplicatedAnswers",
    "SeriesSummary",
    # utility scoring
    "PMSEScore",
    "PMSEProbe",
    "UtilityReport",
    "propensity_pmse",
    "pmse_release",
    "score_synthesizer",
    # types / protocols
    "AttributeFrame",
    "as_frame",
    "Synthesizer",
    "Release",
    # serving
    "StreamingSynthesizer",
    "ShardedService",
    # exceptions
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
    "__version__",
]
