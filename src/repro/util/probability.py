"""Probability numerics shared by all fusion algorithms.

The paper's formulas multiply ratios of recalls and false-positive rates; in
real data those parameters frequently touch 0 or 1 (a source that never makes
a mistake in the training sample, a subset of sources that never intersects).
The helpers here keep every computation inside the open interval (0, 1) so
that log-space math and odds ratios stay finite.
"""

from __future__ import annotations

import math

import numpy as np

#: Smallest probability-like value we allow.  Estimated rates are clamped to
#: ``[PROBABILITY_FLOOR, 1 - PROBABILITY_FLOOR]`` before entering any ratio,
#: which bounds a single source's log-odds contribution to ~ +/- 27.6.
PROBABILITY_FLOOR = 1e-12


def clamp_probability(value: float, floor: float = PROBABILITY_FLOOR) -> float:
    """Clamp ``value`` into the open interval ``(0, 1)``.

    Parameters
    ----------
    value:
        Any float; NaN is mapped to ``floor`` (a NaN estimate means "no
        evidence", and the floor is the least-informative defensible value).
    floor:
        Distance kept from both endpoints.

    Examples
    --------
    >>> clamp_probability(1.5)
    0.999999999999
    >>> clamp_probability(-0.2, floor=1e-6)
    1e-06
    """
    if math.isnan(value):
        return floor
    return min(max(value, floor), 1.0 - floor)


def safe_divide(numerator: float, denominator: float, default: float = 1.0) -> float:
    """Return ``numerator / denominator``, or ``default`` when undefined.

    The correlation factors of the paper (Eq. 14-17) are ratios of joint
    rates; when the denominator is zero the sources involved never co-occur
    in the training data and the factor carries no information, so callers
    fall back to the independence value ``1.0`` by default.
    """
    if denominator == 0.0:
        return default
    return numerator / denominator


def log_odds(probability: float) -> float:
    """Return ``log(p / (1 - p))`` with clamping for endpoint safety."""
    p = clamp_probability(probability)
    return math.log(p) - math.log1p(-p)


def odds_to_probability(odds: float) -> float:
    """Invert an odds ratio ``p / (1 - p)`` back into a probability."""
    if math.isinf(odds):
        return 1.0 - PROBABILITY_FLOOR if odds > 0 else PROBABILITY_FLOOR
    if odds <= 0.0:
        return PROBABILITY_FLOOR
    return clamp_probability(odds / (1.0 + odds))


def probability_from_mu(mu: float, prior: float) -> float:
    """Apply the paper's posterior formula ``Pr = 1 / (1 + (1-a)/a * 1/mu)``.

    ``mu`` is the likelihood ratio ``Pr(Ot | t) / Pr(Ot | not t)`` produced by
    any of the fusion rules (Theorems 3.1 and 4.2, Definition 4.5,
    Algorithm 1) and ``prior`` is the a-priori truth probability ``alpha``.
    """
    alpha = clamp_probability(prior)
    if mu <= 0.0:
        return PROBABILITY_FLOOR
    if math.isinf(mu):
        return 1.0 - PROBABILITY_FLOOR
    posterior_odds = (alpha / (1.0 - alpha)) * mu
    return odds_to_probability(posterior_odds)


def probability_from_mu_array(mu: np.ndarray, prior: float) -> np.ndarray:
    """Vectorized :func:`probability_from_mu` over an array of ``mu`` values.

    Element-wise semantics mirror the scalar transform exactly: non-positive
    or NaN likelihood ratios map to the probability floor, infinite ones to
    the ceiling, everything else through the posterior odds formula.
    """
    alpha = clamp_probability(prior)
    mu = np.asarray(mu, dtype=float)
    ratio = alpha / (1.0 - alpha)
    with np.errstate(over="ignore", invalid="ignore"):
        odds = ratio * mu
        probabilities = odds / (1.0 + odds)
    probabilities = np.where(np.isinf(odds), 1.0 - PROBABILITY_FLOOR, probabilities)
    probabilities = np.clip(
        probabilities, PROBABILITY_FLOOR, 1.0 - PROBABILITY_FLOOR
    )
    return np.where(
        np.isnan(mu) | (mu <= 0.0), PROBABILITY_FLOOR, probabilities
    )
