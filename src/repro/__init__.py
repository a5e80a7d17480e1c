"""repro -- reproduction of "Fusing Data with Correlations" (SIGMOD 2014).

Correlation-aware truth discovery: given triples asserted by multiple noisy
sources, compute the probability that each triple is true, accounting for
positive and negative correlations between sources.

Quickstart::

    from repro import figure1_dataset, fuse

    dataset = figure1_dataset()
    result = fuse(dataset.observations, dataset.labels, method="precreccorr")
    print(result.scores)          # Pr(t | Ot) per triple
    print(result.accepted)        # triples accepted as true

See :mod:`repro.core` for the algorithms, :mod:`repro.baselines` for the
comparison methods, :mod:`repro.data` for datasets and generators, and
:mod:`repro.eval` for metrics and the experiment harness.
"""

from repro.core import (
    AggressiveFuser,
    ClusteredCorrelationFuser,
    ElasticFuser,
    EmpiricalJointModel,
    ExactCorrelationFuser,
    ExpectationMaximizationFuser,
    ExplicitJointModel,
    FusionResult,
    IndependentJointModel,
    JointQualityModel,
    MicroBatcher,
    ObservationMatrix,
    PrecRecFuser,
    ScoringSession,
    SourceQuality,
    Triple,
    TripleIndex,
    TruthFuser,
    correlation_clusters,
    derive_false_positive_rate,
    discovered_correlation_groups,
    estimate_prior,
    estimate_source_quality,
    fit_model,
    fuse,
    make_fuser,
    pairwise_correlations,
    pairwise_phi,
)
from repro.data import FusionDataset, figure1_dataset

__version__ = "1.0.0"

__all__ = [
    "AggressiveFuser",
    "ClusteredCorrelationFuser",
    "ElasticFuser",
    "EmpiricalJointModel",
    "ExactCorrelationFuser",
    "ExpectationMaximizationFuser",
    "ExplicitJointModel",
    "FusionDataset",
    "FusionResult",
    "IndependentJointModel",
    "JointQualityModel",
    "MicroBatcher",
    "ObservationMatrix",
    "PrecRecFuser",
    "ScoringSession",
    "SourceQuality",
    "Triple",
    "TripleIndex",
    "TruthFuser",
    "__version__",
    "correlation_clusters",
    "derive_false_positive_rate",
    "discovered_correlation_groups",
    "estimate_prior",
    "estimate_source_quality",
    "figure1_dataset",
    "fit_model",
    "fuse",
    "make_fuser",
    "pairwise_correlations",
    "pairwise_phi",
]
