"""The elastic approximation of PrecRecCorr (Section 4.3, Algorithm 1).

The elastic scheme starts from the aggressive approximation and *repairs* it
level by level.  Write ``St`` for the providers of a triple and ``St-bar``
for the silent covering sources.  Expanding the aggressive product, the term
of degree ``|St| + l`` aggregates subsets ``S* subset of St-bar`` of size
``l`` with the approximate coefficient ``r_St * prod_{i in S*} C+_i r_i``;
the exact coefficient is the joint recall ``r_{St union S*}``.  Level ``l``
of the algorithm swaps the approximation for the exact value on every
degree-``|St| + l`` term:

    R  = r_St * prod_{i in St-bar} (1 - C+_i r_i)               # level 0
       + sum_{l=1..lambda} sum_{|S*|=l} (-1)^l
             ( r_{St union S*} - r_St * prod_{i in S*} C+_i r_i )

and symmetrically for ``Q`` with ``q`` and ``C-``.  ``mu = R / Q``.

At ``lambda = |St-bar|`` every term is exact and the result equals
Theorem 4.2 (asserted in the tests); at ``lambda = 0`` only the provider-side
joint is exact.  Cost is ``O(n^lambda)`` model look-ups per pattern
(Proposition 4.11), giving the efficiency/accuracy dial the paper tunes in
Figure 5.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.core.fusion import ModelBasedFuser
from repro.core.joint import JointQualityModel
from repro.core.patterns import PatternSet
from repro.core.plans import (
    DEFAULT_PLAN_CACHE_ENTRIES,
    CompiledPlanCache,
    ElasticUnionPlan,
    PatternValueMemo,
    likelihoods_with_memo,
    pattern_digest,
)
from repro.util.validation import check_non_negative_int


class ElasticFuser(ModelBasedFuser):
    """The paper's ELASTIC algorithm (Algorithm 1).

    Parameters
    ----------
    model:
        Joint quality model supplying singleton and joint parameters.
    level:
        The adjustment level ``lambda``.  Level 0 is the cheapest
        configuration (provider-side joint only); the paper finds level 3 a
        good accuracy/cost trade-off on all three datasets (Figure 5).
    universe:
        Source ids over which the aggressive factors are defined; defaults
        to all sources (the clustered fuser passes each cluster).
    max_plan_cache_entries:
        LRU cap on cached compiled plans (with their batch-evaluated model
        parameters), keyed by pattern digest; ``0`` disables the cache.
    """

    #: Per-pattern values are computed from each pattern's own terms in a
    #: fixed order -- sub-batches reproduce full batches bit-for-bit.
    pattern_batch_invariant = True

    def __init__(
        self,
        model: JointQualityModel,
        level: int = 3,
        universe: Optional[Sequence[int]] = None,
        decision_prior: Optional[float] = None,
        max_plan_cache_entries: int = DEFAULT_PLAN_CACHE_ENTRIES,
    ) -> None:
        super().__init__(model, decision_prior=decision_prior)
        self._level = check_non_negative_int(level, "level")
        self.name = f"PrecRecCorr-Elastic{self._level}"
        ids = list(range(model.n_sources)) if universe is None else list(universe)
        c_plus, c_minus = model.aggressive_factors(ids)
        self._eff_recall: dict[int, float] = {}
        self._eff_fpr: dict[int, float] = {}
        for k, i in enumerate(ids):
            self._eff_recall[i] = float(c_plus[k]) * model.recall(i)
            self._eff_fpr[i] = float(c_minus[k]) * model.fpr(i)
        self._plan_cache = CompiledPlanCache(max_plan_cache_entries)
        self._delta_memo: Optional[PatternValueMemo] = None

    @property
    def plan_cache(self) -> CompiledPlanCache:
        """The compiled-plan cache (stats / eviction diagnostics)."""
        return self._plan_cache

    @property
    def delta_memo(self) -> Optional[PatternValueMemo]:
        """The per-pattern likelihood memo, or ``None`` before opting in."""
        return self._delta_memo

    def enable_delta_memo(self, max_entries: int = 200_000) -> None:
        """Attach the per-pattern likelihood memo (idempotent).

        See :meth:`ExactCorrelationFuser.enable_delta_memo`: on plan-cache
        digest misses, only novel pattern rows are evaluated; known rows
        gather from the memo, bit-identically to a full-batch evaluation.
        The memo key is the pattern row alone -- the fuser's level and
        universe-specific aggressive factors are fixed per instance.
        """
        if self._delta_memo is None:
            self._delta_memo = PatternValueMemo(max_entries)

    def invalidate_caches(self) -> None:
        """Drop compiled plans and delta memos."""
        self._plan_cache.invalidate()
        if self._delta_memo is not None:
            self._delta_memo.invalidate()

    @property
    def level(self) -> int:
        """The adjustment level ``lambda``."""
        return self._level

    def pattern_likelihoods_batch(
        self, provider_matrix: np.ndarray, silent_matrix: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Floored ``(R, Q)`` of Algorithm 1 for many patterns at once.

        The batch entry point the clustered fuser drives once per request
        for its oversized correlation cluster: rows of ``provider_matrix`` /
        ``silent_matrix`` (boolean, ``(n_patterns, n_sources)``; set only
        on this fuser's universe) are evaluated through the shared
        :class:`~repro.core.plans.ElasticUnionPlan` -- base sets and every
        level-``1..lambda`` union collected once, evaluated in bulk via
        :meth:`JointQualityModel.joint_params_batch`, Algorithm 1's sums
        accumulated in its term order, so every pattern's value depends
        only on its own terms (``tests/reference.py`` walks them one by
        one).

        The plan is compiled (aggressive factors baked in) and memoised
        together with its batch-evaluated ``(r, q)`` values in the
        digest-keyed plan cache, so repeated calls skip collect, compile,
        and model evaluation entirely.
        """
        provider_matrix = np.asarray(provider_matrix, dtype=bool)
        silent_matrix = np.asarray(silent_matrix, dtype=bool)
        memo = self._delta_memo
        if memo is None:
            key = (
                "elastic", self._level,
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
            ("elastic", self._level),
            self._compile_entry,
            provider_matrix,
            silent_matrix,
        )

    def _compile_entry(
        self, provider_matrix: np.ndarray, silent_matrix: np.ndarray
    ) -> tuple:
        """Collect + compile + batch-evaluate one plan-cache entry."""
        compiled = ElasticUnionPlan.build(
            provider_matrix, silent_matrix, self._level
        ).compile(self._eff_recall, self._eff_fpr)
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
