"""Source-quality estimation: precision, recall, false-positive rate.

Implements Section 3.2 of the paper.  Precision and recall are measured
directly on labelled training data; the false-positive rate ``q_i`` is *not*
measured by counting (Example 3.4 shows that makes a source's quality depend
on how bad the other sources are) but derived from precision and recall via
Bayes' rule (Theorem 3.5):

    q_i = alpha / (1 - alpha) * (1 - p_i) / p_i * r_i

which is a valid rate (``q_i <= 1``) whenever
``alpha <= p_i / (p_i + r_i - p_i * r_i)``, and classifies ``S_i`` as a
*good* source (``q_i < r_i``) exactly when ``p_i > alpha``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.bitset import pack_bool_vector, popcount_rows
from repro.core.observations import ObservationMatrix
from repro.util.probability import clamp_probability
from repro.util.validation import check_fraction, check_probability


@dataclass(frozen=True)
class SourceQuality:
    """Quality parameters of a single source.

    Attributes
    ----------
    name:
        Source name (matches the observation-matrix row).
    precision:
        ``p_i = Pr(t | S_i |= t)`` -- fraction of provided triples that are
        true (Eq. 1).
    recall:
        ``r_i = Pr(S_i |= t | t)`` -- fraction of true triples provided
        (Eq. 2), computed within the source's scope when coverage is partial.
    false_positive_rate:
        ``q_i = Pr(S_i |= t | not t)`` derived per Theorem 3.5.
    """

    name: str
    precision: float
    recall: float
    false_positive_rate: float

    def __post_init__(self) -> None:
        check_probability(self.precision, "precision")
        check_probability(self.recall, "recall")
        check_probability(self.false_positive_rate, "false_positive_rate")

    @property
    def is_good(self) -> bool:
        """A *good* source provides true triples more readily than false ones.

        Formally ``r_i > q_i`` (Section 3.1); by Theorem 3.5 this holds
        whenever ``p_i > alpha`` for the alpha used in the derivation.
        """
        return self.recall > self.false_positive_rate

    @property
    def f1(self) -> float:
        """Harmonic mean of precision and recall (for reporting)."""
        if self.precision + self.recall == 0.0:
            return 0.0
        return 2.0 * self.precision * self.recall / (self.precision + self.recall)


def fpr_validity_bound(precision: float, recall: float) -> float:
    """Largest prior ``alpha`` for which Theorem 3.5 yields ``q_i <= 1``.

    The bound is ``p / (p + r - p * r)``; priors above it would imply a
    false-positive rate exceeding 1, i.e. the stated (p, r, alpha) triple is
    jointly infeasible.
    """
    check_probability(precision, "precision")
    check_probability(recall, "recall")
    denominator = precision + recall - precision * recall
    if denominator == 0.0:
        return 1.0  # p = r = 0: any alpha "works" because q = 0 regardless
    return precision / denominator


def derive_false_positive_rate(
    precision: float,
    recall: float,
    prior: float,
    clip: bool = True,
) -> float:
    """Derive ``q_i`` from precision and recall (Theorem 3.5).

    Parameters
    ----------
    precision, recall:
        The source's measured quality.
    prior:
        The a-priori truth probability ``alpha``.
    clip:
        When true (default) an infeasible combination -- ``alpha`` above
        :func:`fpr_validity_bound` -- is clipped to ``q = 1``; when false it
        raises ``ValueError``.  Clipping matches how the estimator copes with
        noisy empirical inputs; strict mode supports the theory tests.
    """
    check_probability(precision, "precision")
    check_probability(recall, "recall")
    check_fraction(prior, "prior")
    if precision == 0.0:
        # A source that is never right: its provisions are all false
        # positives.  The limit of the formula as p -> 0 is +infinity; the
        # honest rate cannot exceed 1.
        if clip:
            return 1.0
        raise ValueError("false-positive rate undefined for precision = 0")
    q = prior / (1.0 - prior) * (1.0 - precision) / precision * recall
    if q > 1.0:
        if clip or q <= 1.0 + 1e-9:  # tolerate float round-off at the bound
            return 1.0
        raise ValueError(
            f"prior {prior} exceeds validity bound "
            f"{fpr_validity_bound(precision, recall):.6f} for "
            f"precision={precision}, recall={recall}"
        )
    return q


def rates_from_counts(
    provided_true: np.ndarray,
    provided_false: np.ndarray,
    covered_true: np.ndarray,
    covered_false: np.ndarray,
    prior: float,
    smoothing: float = 0.0,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(precision, recall, q)`` of sources or source subsets -- the one rule.

    Element-wise over integer counts of the labelled triples the source
    (or every member of the subset) provides and of those in its scope,
    each ratio Laplace-smoothed (:func:`smoothed_ratios`).  ``q`` is
    Theorem 3.5 clipped at 1 when precision is positive.  At precision 0
    every provision is false and the derivation degenerates, so the direct
    count takes over: provided false over covered false.  A source that
    provides nothing thus gets ``q = 0`` -- with ``r = 0`` its silence
    factor ``(1 - r) / (1 - q)`` is exactly 1.

    Each value is the scalar expression ``prior / (1 - prior) * (1 - p) /
    p * r`` evaluated left to right, so singletons, joint batches and
    delta-maintained pair counters agree bit for bit.
    """
    provided = provided_true + provided_false
    precision = smoothed_ratios(provided_true, provided, smoothing)
    recall = smoothed_ratios(provided_true, covered_true, smoothing)
    with np.errstate(divide="ignore", invalid="ignore"):
        derived = prior / (1.0 - prior) * (1.0 - precision) / precision * recall
    derived = np.where(derived > 1.0, 1.0, derived)
    fallback = smoothed_ratios(provided_false, covered_false, smoothing)
    return precision, recall, np.where(precision > 0.0, derived, fallback)


def smoothed_ratios(
    numerator: np.ndarray, denominator: np.ndarray, smoothing: float
) -> np.ndarray:
    """Element-wise ``(num + s) / (den + 2s)``; 0/0 resolves to 0."""
    den = np.add(denominator, 2.0 * smoothing)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = (numerator + smoothing) / den
    return np.where(den == 0.0, 0.0, out)


def source_rates_from_counts(
    counts: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray],
    prior: float,
    smoothing: float = 0.0,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every source's read-only ``(precision, recall, q)`` arrays, from
    :func:`source_counts`, each field range-checked once (``ValueError``
    naming it and the first offending source)."""
    provided, provided_true, in_scope_true, in_scope_false = counts
    rates = rates_from_counts(
        provided_true, provided - provided_true, in_scope_true, in_scope_false,
        prior, smoothing,
    )
    for name, values in zip(("precision", "recall", "false_positive_rate"), rates):
        bad = np.flatnonzero(~((values >= 0.0) & (values <= 1.0)))
        if bad.size:
            raise ValueError(
                f"{name} must be in [0, 1], got {float(values[bad[0]])!r} "
                f"(source {int(bad[0])})"
            )
        values.setflags(write=False)
    return rates


def estimate_source_quality(
    observations: ObservationMatrix,
    labels: np.ndarray,
    prior: float = 0.5,
    smoothing: float = 0.0,
) -> list[SourceQuality]:
    """Measure every source's precision/recall on labelled data.

    Parameters
    ----------
    observations:
        The full observation matrix (training portion).
    labels:
        Boolean array of shape ``(n_triples,)`` giving the gold truth of each
        triple.  Following Section 3.2, the set of true triples used for
        recall is the set of *provided* true triples -- anything labelled
        true here is by construction provided by at least one source.
    prior:
        ``alpha``, used to derive the false-positive rate.
    smoothing:
        Laplace pseudo-count added to numerator and denominator of both
        precision and recall.  ``0`` reproduces the paper's numbers exactly;
        a small positive value (e.g. 0.1) keeps rates off the 0/1 endpoints
        on sparse data.

    Returns
    -------
    One :class:`SourceQuality` per source, in row order.
    """
    labels = np.asarray(labels, dtype=bool)
    if labels.shape != (observations.n_triples,):
        raise ValueError(
            f"labels shape {labels.shape} != ({observations.n_triples},)"
        )
    if smoothing < 0:
        raise ValueError(f"smoothing must be non-negative, got {smoothing}")
    check_fraction(prior, "prior")

    rates = source_rates_from_counts(
        source_counts(
            observations, pack_bool_vector(labels), pack_bool_vector(~labels)
        ),
        prior=prior,
        smoothing=smoothing,
    )
    return [
        SourceQuality(name, *values)
        for name, values in zip(
            observations.source_names, np.stack(rates, axis=1).tolist()
        )
    ]


def source_counts(
    observations: ObservationMatrix,
    true_words: np.ndarray,
    false_words: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Per-source ``(provided, provided_true, in_scope_true, in_scope_false)``.

    Row popcounts of the packed provides and coverage words, through
    ``true_words`` / ``false_words`` (the packed truth labels and their
    complement).  Packed rows zero-pad their tails, so these equal the
    boolean row sums exactly.  The in-scope counts are restricted to the
    triples the source covers (Section 2.2's "scope" note).
    """
    provides = observations.packed_provides.words
    coverage = observations.packed_coverage.words
    return (
        popcount_rows(provides),
        popcount_rows(provides & true_words),
        popcount_rows(coverage & true_words),
        popcount_rows(coverage & false_words),
    )


def estimate_prior(labels: np.ndarray, smoothing: float = 0.0) -> float:
    """Estimate ``alpha`` as the labelled fraction of true triples.

    Section 3.1: "the a-priori probability alpha can be derived from a
    training set".
    """
    labels = np.asarray(labels, dtype=bool)
    if labels.size == 0:
        return 0.5
    alpha = float(smoothed_ratios(labels.sum(), labels.size, smoothing))
    return clamp_probability(alpha, floor=1e-6)
