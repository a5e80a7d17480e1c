"""Seeded random-number-generator plumbing for reproducible experiments.

Every stochastic component (synthetic generators, the LTM Gibbs sampler, the
crowd-label simulator) accepts either a seed or a ``numpy.random.Generator``
and routes it through :func:`ensure_rng`, so an experiment is reproducible
from a single integer.
"""

from __future__ import annotations

from typing import Optional, Union

import numpy as np

RngLike = Union[int, np.random.Generator, None]


def ensure_rng(seed_or_rng: RngLike = None) -> np.random.Generator:
    """Coerce ``seed_or_rng`` into a ``numpy.random.Generator``.

    ``None`` produces a freshly seeded generator; an ``int`` produces a
    deterministic generator; an existing generator passes through untouched
    (so callers can share one stream across components).
    """
    if seed_or_rng is None:
        return np.random.default_rng()
    if isinstance(seed_or_rng, np.random.Generator):
        return seed_or_rng
    if isinstance(seed_or_rng, (int, np.integer)):
        return np.random.default_rng(int(seed_or_rng))
    raise TypeError(
        "expected an int seed, a numpy Generator, or None; "
        f"got {type(seed_or_rng).__name__}"
    )
