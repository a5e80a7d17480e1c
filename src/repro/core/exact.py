"""PrecRecCorr, exact solution (Section 4.1, Theorem 4.2).

With correlated sources the observation likelihoods no longer factor per
source.  The paper rewrites them with the inclusion-exclusion principle over
the *non-providing* sources:

    Pr(Ot | t)     = sum_{S* subset of St-bar} (-1)^{|S*|} r_{St union S*}   (Eq. 10)
    Pr(Ot | not t) = sum_{S* subset of St-bar} (-1)^{|S*|} q_{St union S*}   (Eq. 11)

and ``mu = Pr(Ot | t) / Pr(Ot | not t)`` feeds the usual posterior formula.

The sums have ``2^{|St-bar|}`` terms, so exact computation is only feasible
for small source sets (or small correlation clusters -- see
:mod:`repro.core.clustering`).  The fuser refuses patterns beyond
``max_silent_sources`` with an actionable error instead of silently hanging.

Numerical notes
---------------
With *empirically measured* joint recalls the numerator telescopes to the
(non-negative) empirical frequency of the exact observation pattern among
true triples: under full coverage and no smoothing every ``r_S`` is a
fraction of the same true triples, so the alternating sum counts the true
triples whose providers within ``St union St-bar`` are exactly ``St``
(``tests/test_paper_oracle.py`` enumerates every pattern to check this).  Joint false-positive rates, however, are *derived* via
Theorem 3.5 and need not be mutually consistent, so the denominator can dip
below zero on noisy estimates; both sums are therefore floored at a tiny
positive value before the ratio is taken.
"""

from __future__ import annotations

import numpy as np

from repro.core.fusion import ModelBasedFuser
from repro.core.joint import JointQualityModel
from repro.core.patterns import PatternSet
from repro.core.plans import (
    DEFAULT_PLAN_CACHE_ENTRIES,
    CompiledPlanCache,
    ExactUnionPlan,
    PatternValueMemo,
    likelihoods_with_memo,
    pattern_digest,
)


class ExactCorrelationFuser(ModelBasedFuser):
    """The paper's PRECRECCORR method, computed exactly (Theorem 4.2).

    Parameters
    ----------
    model:
        Joint quality model supplying ``r_{S*}`` and ``q_{S*}`` for arbitrary
        subsets.
    max_silent_sources:
        Upper bound on ``|St-bar|`` per pattern; patterns with more silent
        sources raise ``ValueError`` (each one costs ``2^{|St-bar|}`` model
        look-ups).  Use :class:`repro.core.clustering.ClusteredCorrelationFuser`
        or :class:`repro.core.elastic.ElasticFuser` beyond this scale.
    max_plan_cache_entries:
        LRU cap on cached compiled plans (with their batch-evaluated model
        parameters), keyed by pattern digest -- repeated ``score`` calls on
        a serving process skip collect, compile, and model evaluation.
        ``0`` disables the cache.
    """

    name = "PrecRecCorr"

    #: Per-pattern values are computed from each pattern's own terms in a
    #: fixed order -- sub-batches reproduce full batches bit-for-bit.
    pattern_batch_invariant = True

    def __init__(
        self,
        model: JointQualityModel,
        max_silent_sources: int = 20,
        decision_prior: float | None = None,
        max_plan_cache_entries: int = DEFAULT_PLAN_CACHE_ENTRIES,
    ) -> None:
        super().__init__(model, decision_prior=decision_prior)
        if max_silent_sources < 0:
            raise ValueError(
                f"max_silent_sources must be non-negative, got {max_silent_sources}"
            )
        self._max_silent = max_silent_sources
        self._plan_cache = CompiledPlanCache(max_plan_cache_entries)
        self._delta_memo: PatternValueMemo | None = None

    @property
    def plan_cache(self) -> CompiledPlanCache:
        """The compiled-plan cache (stats / eviction diagnostics)."""
        return self._plan_cache

    @property
    def delta_memo(self) -> PatternValueMemo | None:
        """The per-pattern likelihood memo, or ``None`` before opting in."""
        return self._delta_memo

    def enable_delta_memo(self, max_entries: int = 200_000) -> None:
        """Attach the per-pattern likelihood memo (idempotent).

        With the memo attached, :meth:`pattern_likelihoods_batch` requests
        whose digest misses the plan cache evaluate only their *novel*
        pattern rows (through a sub-batch compiled plan) and gather the
        rest from the memo -- the delta fast path streaming serving relies
        on.  Identical repeated requests still hit the plan-cache digest
        first, so the memo adds no cost to the warm path.
        """
        if self._delta_memo is None:
            self._delta_memo = PatternValueMemo(max_entries)

    def invalidate_caches(self) -> None:
        """Drop compiled plans and delta memos."""
        self._plan_cache.invalidate()
        if self._delta_memo is not None:
            self._delta_memo.invalidate()

    def _check_silent_width(self, n_silent: int) -> None:
        if n_silent > self._max_silent:
            raise ValueError(
                f"exact inclusion-exclusion over {n_silent} silent sources "
                f"needs 2^{n_silent} terms (limit {self._max_silent}); use "
                "ElasticFuser or ClusteredCorrelationFuser for this scale"
            )

    def pattern_likelihoods_batch(
        self, provider_matrix: np.ndarray, silent_matrix: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Floored ``(Pr(Ot | t), Pr(Ot | not t))`` arrays for many patterns.

        Rows of ``provider_matrix`` / ``silent_matrix`` (boolean,
        ``(n_patterns, n_sources)``) are evaluated through the
        shared :class:`~repro.core.plans.ExactUnionPlan` -- all subset
        unions collected once, ``(r, q)`` from one vectorized model call,
        inclusion-exclusion sums accumulated in the paper's term order,
        so every pattern's value depends only on its own terms
        (``tests/reference.py`` walks them one by one).

        The plan is compiled to flat index/sign arrays and memoised --
        together with its batch-evaluated ``(r, q)`` values, which depend
        only on the (fixed) model -- in the digest-keyed plan cache, so
        repeated calls skip collect, compile, and model evaluation
        entirely.
        """
        provider_matrix = np.asarray(provider_matrix, dtype=bool)
        silent_matrix = np.asarray(silent_matrix, dtype=bool)
        memo = self._delta_memo
        if memo is None:
            key = (
                "exact", self._max_silent,
                pattern_digest(provider_matrix, silent_matrix),
            )
            compiled, (recalls, fprs) = self._plan_cache.get_or_compute(
                key,
                lambda: self._compile_entry(provider_matrix, silent_matrix),
            )
            return compiled.accumulate(recalls, fprs)
        return likelihoods_with_memo(
            self._plan_cache,
            memo,
            ("exact", self._max_silent),
            self._compile_entry,
            provider_matrix,
            silent_matrix,
        )

    def _compile_entry(
        self, provider_matrix: np.ndarray, silent_matrix: np.ndarray
    ) -> tuple:
        """Collect + compile + batch-evaluate one plan-cache entry."""
        compiled = ExactUnionPlan.build(
            provider_matrix, silent_matrix,
            width_check=self._check_silent_width,
        ).compile()
        params = self.model.joint_params_batch(compiled.rows)
        return compiled, params

    def pattern_mu_batch(self, patterns: PatternSet) -> np.ndarray:
        """Every distinct pattern's ``mu`` from one batched model evaluation.

        Thin wrapper over :meth:`pattern_likelihoods_batch`.
        """
        numerators, denominators = self.pattern_likelihoods_batch(
            patterns.provider_matrix, patterns.silent_matrix
        )
        return numerators / denominators
