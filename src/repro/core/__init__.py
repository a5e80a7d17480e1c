"""Core of the reproduction: data model, quality estimation, fusion algorithms.

The modules map one-to-one onto the paper's sections:

- :mod:`repro.core.triples`, :mod:`repro.core.observations` -- the data model
  (Section 2.1) with open-world, independent-triple semantics and scopes.
- :mod:`repro.core.bitset`, :mod:`repro.core.patterns` -- the vectorized
  execution engine's base layers: bit-packed subset intersections and
  unique-observation-pattern extraction (see ``docs/architecture.md``).
- :mod:`repro.core.plans` -- the shared union-plan layer: collect subset
  unions once, evaluate them in bulk, accumulate per pattern (consumed
  by the exact, elastic, and clustered fusers).
- :mod:`repro.core.deltas` -- incremental delta scoring for streaming
  serving: word-level matrix diffing, per-pattern result reuse, and
  novel-pattern sub-batches, bit-identical to cold scoring.
- :mod:`repro.core.quality` -- precision/recall measurement and the
  Theorem 3.5 false-positive-rate derivation (Section 3.2).
- :mod:`repro.core.joint` -- joint precision/recall and correlation factors
  (Sections 2.2 and 4.2).
- :mod:`repro.core.precrec` -- PrecRec, independent-source fusion
  (Theorem 3.1).
- :mod:`repro.core.exact` -- PrecRecCorr, exact inclusion-exclusion
  (Theorem 4.2).
- :mod:`repro.core.aggressive` -- linear-time aggressive approximation
  (Definition 4.5).
- :mod:`repro.core.elastic` -- the ELASTIC level-``lambda`` approximation
  (Algorithm 1).
- :mod:`repro.core.clustering` -- correlation clusters and the scaled-up
  fuser used for BOOK-sized inputs (Section 5).
- :mod:`repro.core.em` -- semi-supervised EM extension.
- :mod:`repro.core.api` -- ``fit_model`` / ``make_fuser`` / ``fuse``.
"""

from repro.core.aggressive import AggressiveFuser
from repro.core.api import (
    EXACT_SOURCE_LIMIT,
    METHOD_NAMES,
    SERVING_MODES,
    BatchScoreOutcome,
    MicroBatcher,
    ScoringSession,
    fit_model,
    fuse,
    make_fuser,
)
from repro.core.bitset import PackedMatrix, pack_bool_rows, pack_bool_vector, popcount
from repro.core.deltas import DeltaScorer, dirty_columns
from repro.core.patterns import (
    PatternSet,
    extract_patterns,
    restricted_unique_patterns,
)
from repro.core.plans import (
    DEFAULT_PLAN_CACHE_ENTRIES,
    CompiledElasticPlan,
    CompiledExactPlan,
    CompiledPlanCache,
    ElasticUnionPlan,
    ExactUnionPlan,
    PatternValueMemo,
    pattern_digest,
    pattern_row_keys,
)
from repro.core.confidence import (
    ConfidenceBundle,
    confidence_threshold_sweep,
    matrix_from_confidences,
)
from repro.core.domains import DomainReport, fuse_per_domain
from repro.core.clustering import (
    ClusteredCorrelationFuser,
    PairwiseCorrelation,
    SourcePartition,
    correlation_clusters,
    discovered_correlation_groups,
    pairwise_correlations,
    pairwise_phi,
)
from repro.core.elastic import ElasticFuser
from repro.core.em import EMDiagnostics, ExpectationMaximizationFuser
from repro.core.exact import ExactCorrelationFuser
from repro.core.fusion import (
    DEFAULT_THRESHOLD,
    FusionResult,
    ModelBasedFuser,
    TruthFuser,
)
from repro.core.joint import (
    EmpiricalJointModel,
    ExplicitJointModel,
    IndependentJointModel,
    JointQualityModel,
)
from repro.core.observations import ObservationMatrix
from repro.core.precrec import PrecRecFuser
from repro.core.quality import (
    SourceQuality,
    derive_false_positive_rate,
    estimate_prior,
    estimate_source_quality,
    fpr_validity_bound,
)
from repro.core.triples import Triple, TripleIndex

__all__ = [
    "AggressiveFuser",
    "ConfidenceBundle",
    "DomainReport",
    "ClusteredCorrelationFuser",
    "CompiledElasticPlan",
    "CompiledExactPlan",
    "CompiledPlanCache",
    "DEFAULT_PLAN_CACHE_ENTRIES",
    "BatchScoreOutcome",
    "DEFAULT_THRESHOLD",
    "DeltaScorer",
    "EMDiagnostics",
    "EXACT_SOURCE_LIMIT",
    "ElasticFuser",
    "ElasticUnionPlan",
    "ExactUnionPlan",
    "EmpiricalJointModel",
    "ExactCorrelationFuser",
    "ExpectationMaximizationFuser",
    "ExplicitJointModel",
    "FusionResult",
    "IndependentJointModel",
    "JointQualityModel",
    "METHOD_NAMES",
    "MicroBatcher",
    "ModelBasedFuser",
    "ObservationMatrix",
    "PackedMatrix",
    "PairwiseCorrelation",
    "PatternSet",
    "PatternValueMemo",
    "PrecRecFuser",
    "SERVING_MODES",
    "ScoringSession",
    "SourcePartition",
    "SourceQuality",
    "Triple",
    "TripleIndex",
    "TruthFuser",
    "correlation_clusters",
    "derive_false_positive_rate",
    "dirty_columns",
    "discovered_correlation_groups",
    "estimate_prior",
    "estimate_source_quality",
    "extract_patterns",
    "fit_model",
    "fpr_validity_bound",
    "fuse",
    "make_fuser",
    "pack_bool_rows",
    "pack_bool_vector",
    "pattern_digest",
    "pattern_row_keys",
    "popcount",
    "restricted_unique_patterns",
    "confidence_threshold_sweep",
    "fuse_per_domain",
    "matrix_from_confidences",
    "pairwise_correlations",
    "pairwise_phi",
]
