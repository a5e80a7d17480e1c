"""PrecRec: Bayesian fusion of independent sources (Section 3, Theorem 3.1).

Under source independence the likelihood ratio factors per source:

    mu = prod_{Si in St} r_i / q_i * prod_{Si in St-bar} (1 - r_i) / (1 - q_i)

and the posterior is ``Pr(t | Ot) = 1 / (1 + (1 - a)/a * 1/mu)``.  A *good*
source (``r_i > q_i``) pushes the probability up when it provides the triple
and down when it stays silent (Proposition 3.2).

The implementation works in log space so that hundreds of sources cannot
overflow the ratio, and clamps each rate away from {0, 1} so a single
degenerate estimate cannot produce an infinite log-odds swing.  Because the
ratio factorises, batch scoring evaluates *every* distinct pattern
with two matrix-vector products (see :meth:`PrecRecFuser.pattern_mu_batch`).
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.fusion import DEFAULT_MU_CACHE_ENTRIES, ModelBasedFuser
from repro.core.joint import JointQualityModel
from repro.core.patterns import PatternSet
from repro.util.probability import clamp_probability


class PrecRecFuser(ModelBasedFuser):
    """The paper's PRECREC method (Theorem 3.1).

    Only the singleton parameters ``(r_i, q_i)`` of the quality model are
    consulted; any joint information the model carries is ignored, which is
    precisely the independence assumption.

    Parameters
    ----------
    model:
        Quality model supplying per-source recall and false-positive rate
        plus the prior ``alpha``.
    decision_prior:
        Optional override of the ``alpha`` used in the posterior formula
        (the paper's Section 5 protocol fixes it at 0.5).
    max_cache_entries:
        Cap on the per-pattern memo used by the per-pattern scoring paths.
    """

    name = "PrecRec"

    def __init__(
        self,
        model: JointQualityModel,
        decision_prior: float | None = None,
        max_cache_entries: int = DEFAULT_MU_CACHE_ENTRIES,
        workers: int | None = None,
        shard_size: int | None = None,
        parallel_backend: str = "thread",
    ) -> None:
        # The workers/shard_size knobs are accepted for API uniformity
        # (make_fuser forwards them to every model-based fuser); PrecRec's
        # batch path is two matrix-vector products, which numpy already
        # saturates, so no sharded dispatch is wired here.
        super().__init__(
            model,
            decision_prior=decision_prior,
            max_cache_entries=max_cache_entries,
            workers=workers,
            shard_size=shard_size,
            parallel_backend=parallel_backend,
        )
        # Pre-compute each source's two log-contributions once; scoring a
        # pattern is then a sum of lookups (or, batched, a matrix product).
        self._log_provide: list[float] = []
        self._log_silent: list[float] = []
        for i in range(model.n_sources):
            r = clamp_probability(model.recall(i))
            q = clamp_probability(model.fpr(i))
            self._log_provide.append(math.log(r) - math.log(q))
            self._log_silent.append(math.log1p(-r) - math.log1p(-q))
        self._log_provide_vec = np.asarray(self._log_provide, dtype=float)
        self._log_silent_vec = np.asarray(self._log_silent, dtype=float)

    def pattern_mu(self, providers: frozenset[int], silent: frozenset[int]) -> float:
        return math.exp(self.pattern_log_mu(providers, silent))

    def pattern_log_mu(
        self, providers: frozenset[int], silent: frozenset[int]
    ) -> float:
        """``log mu`` -- exposed for tests and for very large source sets."""
        total = 0.0
        for i in providers:
            total += self._log_provide[i]
        for i in silent:
            total += self._log_silent[i]
        return total

    def pattern_mu_batch(self, patterns: PatternSet) -> np.ndarray:
        """All pattern ``mu`` values via two matrix-vector products."""
        log_mu = (
            patterns.provider_matrix @ self._log_provide_vec
            + patterns.silent_matrix @ self._log_silent_vec
        )
        with np.errstate(over="ignore"):
            return np.exp(log_mu)
