"""The aggressive approximation of PrecRecCorr (Section 4.2, Definition 4.5).

Under partial-independence assumptions (Eq. 18-19) the exponential
inclusion-exclusion sum collapses back into a per-source product: each
recall ``r_i`` is replaced by ``C+_i r_i`` and each false-positive rate
``q_i`` by ``C-_i q_i``, where

    C+_i = r_{1..n} / (r_i * r_{S minus i})     (Eq. 14)
    C-_i = q_{1..n} / (q_i * q_{S minus i})     (Eq. 15)

so the whole computation is linear in the number of sources and needs only
``2n + 1`` correlation parameters.

The price (Proposition 4.8): with extreme correlation the approximation
degrades -- replicas of one source yield the uninformative prior ``alpha``
for every triple, and pairwise-complementary sources can make a factor
``C+_i r_i`` exceed 1, turning a silent-source term ``(1 - C+_i r_i)``
negative and the "probability" invalid.  ``mu`` is reported raw so callers
(and the test for Proposition 4.8) can observe the failure; the posterior
transform maps non-positive ``mu`` to ~0.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.fusion import ModelBasedFuser
from repro.core.joint import JointQualityModel
from repro.core.patterns import PatternSet


def _signed_log(values: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Decompose reals into ``(log |x|, x < 0, x == 0)`` for batch products.

    The aggressive factors can push an effective rate past 1, making a
    silent-source term ``(1 - C+_i r_i)`` negative (Proposition 4.8), so a
    plain log-space product is not enough: magnitude, sign parity, and
    exact zeros are tracked separately.
    """
    magnitudes = np.abs(values)
    zeros = magnitudes == 0.0
    with np.errstate(divide="ignore"):
        logs = np.where(zeros, 0.0, np.log(np.where(zeros, 1.0, magnitudes)))
    return logs, values < 0.0, zeros


class AggressiveFuser(ModelBasedFuser):
    """The paper's linear-time aggressive approximation (Definition 4.5).

    Parameters
    ----------
    model:
        Joint quality model; only ``r_i``, ``q_i`` and the two aggressive
        factor vectors over all of its sources are consulted.
    """

    name = "PrecRecCorr-Aggressive"

    def __init__(
        self,
        model: JointQualityModel,
        decision_prior: Optional[float] = None,
    ) -> None:
        super().__init__(model, decision_prior=decision_prior)
        c_plus, c_minus = model.aggressive_factors()
        # Effective per-source rates ``C+_i r_i`` and ``C-_i q_i``.
        sources = range(model.n_sources)
        self._eff_recall = np.array(
            [float(c_plus[i]) * model.recall(i) for i in sources], dtype=float
        )
        self._eff_fpr = np.array(
            [float(c_minus[i]) * model.fpr(i) for i in sources], dtype=float
        )

    def effective_rates(self, source_id: int) -> tuple[float, float]:
        """``(C+_i r_i, C-_i q_i)`` for one source -- exposed for inspection.

        Values above 1 signal the anti-correlation degeneracy of
        Proposition 4.8.
        """
        return (
            float(self._eff_recall[source_id]),
            float(self._eff_fpr[source_id]),
        )

    def pattern_mu_batch(self, patterns: PatternSet) -> np.ndarray:
        """All pattern ``mu`` values via sign-tracked log-space products."""
        eff_r = self._eff_recall
        eff_q = self._eff_fpr
        numerator = self._batch_product(patterns, eff_r, 1.0 - eff_r)
        denominator = self._batch_product(patterns, eff_q, 1.0 - eff_q)
        zero_den = denominator == 0.0
        with np.errstate(divide="ignore", invalid="ignore"):
            mu = np.where(zero_den, 1.0, numerator) / np.where(
                zero_den, 1.0, denominator
            )
        return np.where(
            zero_den, np.where(numerator > 0, np.inf, 0.0), mu
        )

    @staticmethod
    def _batch_product(
        patterns: PatternSet,
        provider_factors: np.ndarray,
        silent_factors: np.ndarray,
    ) -> np.ndarray:
        """``prod_{i in providers} a_i * prod_{i in silent} b_i`` per pattern."""
        log_p, neg_p, zero_p = _signed_log(provider_factors)
        log_s, neg_s, zero_s = _signed_log(silent_factors)
        provider = patterns.provider_matrix
        silent = patterns.silent_matrix
        log_magnitude = provider @ log_p + silent @ log_s
        negatives = provider @ neg_p.astype(np.int64) + silent @ neg_s.astype(
            np.int64
        )
        has_zero = (
            provider @ zero_p.astype(np.int64) + silent @ zero_s.astype(np.int64)
        ) > 0
        with np.errstate(over="ignore"):
            magnitude = np.exp(log_magnitude)
        signed = np.where(negatives % 2 == 1, -magnitude, magnitude)
        return np.where(has_zero, 0.0, signed)
