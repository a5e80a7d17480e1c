"""Subset iteration helpers for the inclusion-exclusion computations.

The exact solution (Theorem 4.2) sums over every subset of the non-providing
sources; the elastic approximation (Algorithm 1) sums over subsets of bounded
size.  The compiled plans walk them one size at a time, in
``itertools.combinations`` order within a size.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterator, Sequence, Tuple


def iter_subsets_of_size(items: Sequence[int], size: int) -> Iterator[Tuple[int, ...]]:
    """Yield every subset of ``items`` with exactly ``size`` elements."""
    if size < 0:
        raise ValueError(f"subset size must be non-negative, got {size}")
    yield from combinations(items, size)


def subset_parity(subset_size: int) -> int:
    """Return ``(-1) ** subset_size`` -- the inclusion-exclusion sign."""
    return -1 if subset_size % 2 else 1
