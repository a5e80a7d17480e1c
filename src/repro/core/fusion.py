"""Unified fusion interface, result objects, and the method registry.

Every algorithm in this repository -- the paper's PrecRec family and every
baseline -- implements :class:`TruthFuser`: given an observation matrix it
assigns each triple a truthfulness score in ``[0, 1]`` (for probabilistic
methods, the posterior ``Pr(t | Ot)``), and triples scoring above a threshold
(0.5 unless stated otherwise) are accepted as true.

Model-based fusers (PrecRec, exact/aggressive/elastic/clustered PrecRecCorr)
share the pattern machinery in :class:`ModelBasedFuser`: two triples with the
same provider set and the same silent-covering set necessarily get the same
probability, so each distinct observation pattern is computed once, and every
fuser computes it through one batched entry point,
:meth:`ModelBasedFuser.pattern_mu_batch`.

A note on priors: the quality model's ``prior`` calibrates the derived
false-positive rates (Theorem 3.5), while the *decision prior* enters the
posterior formula ``Pr(t|Ot) = 1/(1 + (1-a)/a * 1/mu)``.  They coincide by
default; the paper's Section 5 protocol fixes the posterior's ``alpha`` at
0.5 while measuring quality on the gold standard, which corresponds to
passing ``decision_prior=0.5``.
"""

from __future__ import annotations

import time
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

from repro.core.joint import JointQualityModel
from repro.core.observations import ObservationMatrix
from repro.core.patterns import PatternSet
from repro.util.probability import probability_from_mu_array
from repro.util.validation import check_probability

#: Decision threshold used throughout the paper: accept when Pr(t | Ot) > 0.5.
DEFAULT_THRESHOLD = 0.5


@dataclass(frozen=True)
class FusionResult:
    """Outcome of running a fuser over an observation matrix.

    Attributes
    ----------
    method:
        Human-readable method name (e.g. ``"PrecRecCorr"``).
    scores:
        Truthfulness score per triple, shape ``(n_triples,)``.
    threshold:
        Acceptance threshold applied to ``scores``, in ``[0, 1]``.  NaN
        is refused: ``scores >= nan`` would silently accept nothing.
    elapsed_seconds:
        Wall-clock scoring time.
    """

    method: str
    scores: np.ndarray
    threshold: float = DEFAULT_THRESHOLD
    elapsed_seconds: float = 0.0

    def __post_init__(self) -> None:
        scores = np.asarray(self.scores, dtype=float)
        if scores.ndim != 1:
            raise ValueError(f"scores must be 1-D, got shape {scores.shape}")
        check_probability(self.threshold, "threshold")
        object.__setattr__(self, "scores", scores)

    @property
    def accepted(self) -> np.ndarray:
        """Boolean mask of triples accepted as true.

        The comparison is inclusive with a tiny float tolerance: a triple
        whose posterior lands exactly on the threshold (e.g. ``mu = 1`` with
        ``alpha = 0.5``) is accepted, matching the paper's decisions on the
        motivating example (PrecRec accepts t3, whose probability is
        exactly 0.5).
        """
        return self.scores >= self.threshold - 1e-9

    @property
    def n_accepted(self) -> int:
        return int(self.accepted.sum())

    def with_threshold(self, threshold: float) -> "FusionResult":
        """The same result re-thresholded (scores are unchanged)."""
        return FusionResult(
            method=self.method,
            scores=self.scores,
            threshold=threshold,
            elapsed_seconds=self.elapsed_seconds,
        )


class TruthFuser(ABC):
    """Base interface: score triples by truthfulness."""

    #: Subclasses set a default display name; instances may override.
    name: str = "fuser"

    @abstractmethod
    def score(self, observations: ObservationMatrix) -> np.ndarray:
        """Return one truthfulness score per triple, in column order."""

    def fuse(
        self,
        observations: ObservationMatrix,
        threshold: float = DEFAULT_THRESHOLD,
    ) -> FusionResult:
        """Score ``observations`` and package a timed :class:`FusionResult`."""
        start = time.perf_counter()
        scores = self.score(observations)
        elapsed = time.perf_counter() - start
        return FusionResult(
            method=self.name,
            scores=np.asarray(scores, dtype=float),
            threshold=threshold,
            elapsed_seconds=elapsed,
        )


class ModelBasedFuser(TruthFuser):
    """Shared machinery for fusers driven by a :class:`JointQualityModel`.

    Subclasses implement :meth:`pattern_mu_batch`, the likelihood ratio
    ``mu = Pr(Ot | t) / Pr(Ot | not t)`` of every distinct observation
    pattern of a :class:`~repro.core.patterns.PatternSet`; this class
    handles pattern extraction, the scatter back to triples, and the
    posterior transform ``Pr(t | Ot) = 1 / (1 + (1 - a)/a * 1/mu)``.
    Scoring extracts the matrix's distinct patterns once and evaluates
    them in one :meth:`pattern_mu_batch` call; :meth:`pattern_mu` answers
    a single pattern through the same call on a one-row set.
    """

    #: Whether this fuser's per-pattern scores are *bitwise* independent of
    #: which other patterns share their batch.  The inclusion-exclusion
    #: family computes each pattern from its own terms in a fixed order, so
    #: a sub-batch reproduces the full batch exactly -- the property the
    #: delta engine's pattern-level reuse requires.  PrecRec and the
    #: aggressive approximation score through matrix products whose BLAS
    #: reduction may vary in the last ulp with the batch's row count, so
    #: they leave this False and the delta engine only reuses whole
    #: identical requests for them.
    pattern_batch_invariant: bool = False

    def __init__(
        self,
        model: JointQualityModel,
        decision_prior: Optional[float] = None,
    ) -> None:
        if decision_prior is not None and not 0.0 < decision_prior < 1.0:
            raise ValueError(
                f"decision_prior must be in (0, 1), got {decision_prior}"
            )
        self._model = model
        self._decision_prior = decision_prior

    @property
    def model(self) -> JointQualityModel:
        return self._model

    @property
    def prior(self) -> float:
        """The ``alpha`` used in the posterior (decision) formula."""
        if self._decision_prior is not None:
            return self._decision_prior
        return self._model.prior

    @abstractmethod
    def pattern_mu_batch(self, patterns: PatternSet) -> np.ndarray:
        """``mu`` for every distinct pattern of ``patterns``, in row order.

        Row ``k`` is the likelihood ratio of the pattern "the providers of
        row ``k`` assert the triple, its silent sources cover the triple's
        domain but stay quiet".  Values may be non-positive for degenerate
        inputs (Proposition 4.8); the posterior transform maps those to a
        probability of ~0.
        """

    def pattern_mu(
        self, providers: Iterable[int], silent: Iterable[int]
    ) -> float:
        """``mu`` of one observation pattern: a one-row :meth:`pattern_mu_batch`.

        For the paper's worked examples and for inspection; the posterior
        is ``probability_from_mu(mu, fuser.prior)``.  Scoring never comes
        here -- it evaluates all of a matrix's patterns in one batch.
        """
        n_sources = self._model.n_sources
        provider_row = np.zeros((1, n_sources), dtype=bool)
        silent_row = np.zeros((1, n_sources), dtype=bool)
        provider_row[0, list(providers)] = True
        silent_row[0, list(silent)] = True
        one_row = np.zeros(1, dtype=np.intp)
        pattern = PatternSet(
            provider_matrix=provider_row,
            silent_matrix=silent_row,
            inverse=one_row,
            counts=one_row + 1,
        )
        return float(self.pattern_mu_batch(pattern)[0])

    def invalidate_caches(self) -> None:
        """Drop cached per-request state (a no-op here).

        The explicit invalidation hook for long-lived serving processes:
        call it when the state a fuser cached against has been replaced
        (e.g. after refitting the joint model).  Subclasses that hold
        caches -- the compiled-plan caches and delta memos of the
        inclusion-exclusion fusers -- override this to clear them.
        """

    def enable_delta_memo(self, max_entries: int = 200_000) -> None:
        """Opt this fuser into per-pattern result reuse across requests.

        The serving-layer hook behind ``ScoringSession(delta="auto")``:
        subclasses with a delta fast path (the inclusion-exclusion fusers)
        attach a :class:`~repro.core.plans.PatternValueMemo` so batches
        whose pattern sets *overlap* previously-seen ones only compute
        their novel rows.  The default is a no-op -- fusers whose batch
        path is already a couple of matrix products (PrecRec, aggressive)
        gain nothing from row-level reuse.
        """

    def score(self, observations: ObservationMatrix) -> np.ndarray:
        if observations.n_sources != self._model.n_sources:
            raise ValueError(
                f"observation matrix has {observations.n_sources} sources but "
                f"the quality model covers {self._model.n_sources}"
            )
        patterns = observations.patterns()
        probabilities = self.pattern_probabilities(patterns)
        return patterns.scatter(probabilities).astype(float, copy=False)

    def pattern_probabilities(self, patterns: PatternSet) -> np.ndarray:
        """Posterior probability for every distinct pattern of ``patterns``.

        The per-pattern half of :meth:`score`, exposed so the
        delta-scoring layer (:mod:`repro.core.deltas`) can evaluate *only*
        a request's novel patterns: every value depends on its own pattern
        alone, so a
        sub-batch evaluates bit-identically to the same rows inside a full
        batch.
        """
        return probability_from_mu_array(
            np.asarray(self.pattern_mu_batch(patterns), dtype=float),
            self.prior,
        )
