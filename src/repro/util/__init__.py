"""Shared utilities: probability numerics, subset iteration, validation, RNG.

These helpers are deliberately small and dependency-free so that the core
fusion modules stay focused on the paper's math.
"""

from repro.util.probability import (
    PROBABILITY_FLOOR,
    clamp_probability,
    log_odds,
    odds_to_probability,
    probability_from_mu,
    safe_divide,
)
from repro.util.rng import ensure_rng
from repro.util.subsets import (
    iter_subsets_of_size,
    subset_parity,
)
from repro.util.validation import (
    check_fraction,
    check_positive,
    check_probability,
)

__all__ = [
    "PROBABILITY_FLOOR",
    "clamp_probability",
    "log_odds",
    "odds_to_probability",
    "probability_from_mu",
    "safe_divide",
    "ensure_rng",
    "iter_subsets_of_size",
    "subset_parity",
    "check_fraction",
    "check_positive",
    "check_probability",
]
