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

from repro.core.fusion import ModelBasedFuser
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
    """

    name = "PrecRec"

    def __init__(
        self,
        model: JointQualityModel,
        decision_prior: float | None = None,
    ) -> None:
        super().__init__(model, decision_prior=decision_prior)
        # Pre-compute each source's two log-contributions once; scoring is
        # then two matrix-vector products.
        log_provide: list[float] = []
        log_silent: list[float] = []
        for i in range(model.n_sources):
            r = clamp_probability(model.recall(i))
            q = clamp_probability(model.fpr(i))
            log_provide.append(math.log(r) - math.log(q))
            log_silent.append(math.log1p(-r) - math.log1p(-q))
        self._log_provide_vec = np.asarray(log_provide, dtype=float)
        self._log_silent_vec = np.asarray(log_silent, dtype=float)

    def pattern_mu_batch(self, patterns: PatternSet) -> np.ndarray:
        """All pattern ``mu`` values via two matrix-vector products."""
        log_mu = (
            patterns.provider_matrix @ self._log_provide_vec
            + patterns.silent_matrix @ self._log_silent_vec
        )
        with np.errstate(over="ignore"):
            return np.exp(log_mu)
