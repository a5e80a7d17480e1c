"""Independence tests of 2x2 contingency tables, on scipy's own kernels.

Correlation detection (:mod:`repro.core.clustering`) decides every
candidate source pair by testing its integer 2x2 table for independence:
the Yates-corrected chi-square test, or Fisher's exact test when an
expected cell count is below 5.  The public scipy entry points
(``chi2_contingency``, ``fisher_exact``) spend almost all of their time
on argument handling around a handful of special-function calls, so this
module replays their 2x2 algorithms directly on the kernels they call:

- chi-square: margin-product expected counts, the Yates adjustment, the
  Pearson statistic and ``special.chdtrc``, element-wise over all tables;
- Fisher (two-sided): scipy 1.17's algorithm -- the mode test with its
  ``1e-14`` relative tolerance, the ``1 + 1e-14`` gamma, the binary
  search for the far tail, the support edges and the clip to ``[0, 1]``
  that ``rv_discrete`` applies -- on the Boost ``_hypergeom_pmf``,
  ``_hypergeom_cdf`` and ``_hypergeom_sf`` ufuncs.

Every p-value is bit-equal to the scipy function it replaces;
``tests/test_independence.py`` pins this against ``stats.fisher_exact``
on every table up to a total of 20 plus a seeded sample of larger ones,
so a scipy upgrade that changes either algorithm fails loudly.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, Union

import numpy as np

#: A Boost hypergeometric kernel: ``(k, good, draws, total) -> float``.
_Kernel = Callable[[float, float, float, float], float]


@lru_cache(maxsize=1)
def _hypergeom_kernels() -> tuple[_Kernel, _Kernel, _Kernel]:
    """scipy's hypergeometric ``(pmf, cdf, sf)`` ufuncs, imported on the
    first Fisher test: ``scipy.special`` is about half the time of
    ``import repro``, and most processes never test a table."""
    from scipy.special import _ufuncs

    return (
        _ufuncs._hypergeom_pmf,
        _ufuncs._hypergeom_cdf,
        _ufuncs._hypergeom_sf,
    )

#: Relative tolerance of scipy's "the table is the mode" test, and the
#: factor it widens the two-sided tail threshold by.
_EPSILON = 1e-14
_GAMMA = 1 + _EPSILON


def _clip(value: float) -> float:
    """``np.clip(value, 0, 1)`` on a scalar (NaN and -0.0 pass through)."""
    return min(max(value, 0.0), 1.0)


class _Hypergeom:
    """``hypergeom(total, good, draws)`` pmf/cdf/sf as ``rv_discrete`` has them.

    Inside the support ``[max(0, draws - (total - good)), min(good,
    draws)]`` each method is the clipped Boost kernel; outside it the pmf
    is 0, the cdf 0 below and 1 from the upper edge on, and the sf 1
    below the lower edge and 0 from the upper edge on.
    """

    __slots__ = ("args", "low", "high", "_pmf", "_cdf", "_sf")

    def __init__(self, total: int, good: int, draws: int) -> None:
        self._pmf, self._cdf, self._sf = _hypergeom_kernels()
        # Kernel argument order: (k, good, draws, total).
        self.args = (float(good), float(draws), float(total))
        self.low = max(draws - (total - good), 0)
        self.high = min(good, draws)

    def pmf(self, k: int) -> float:
        if self.low <= k <= self.high:
            return _clip(float(self._pmf(float(k), *self.args)))
        return 0.0

    def cdf(self, k: int) -> float:
        if k >= self.high:
            return 1.0
        if k < self.low:
            return 0.0
        return _clip(float(self._cdf(float(k), *self.args)))

    def sf(self, k: int) -> float:
        if k < self.low:
            return 1.0
        if k >= self.high:
            return 0.0
        return _clip(float(self._sf(float(k), *self.args)))


def _binary_search(
    pmf: Callable[[int], float], target: float, lo: int, hi: int
) -> int:
    """scipy's ``_binary_search_for_binom_tst``: ``i`` with ``a(i) <= d < a(i+1)``."""
    while lo < hi:
        mid = lo + (hi - lo) // 2
        value = pmf(mid)
        if value < target:
            lo = mid + 1
        elif value > target:
            hi = mid - 1
        else:
            return mid
    if pmf(lo) <= target:
        return lo
    return lo - 1


def fisher_pvalue(n11: int, n10: int, n01: int, n00: int) -> float:
    """Two-sided Fisher exact p-value of ``[[n11, n10], [n01, n00]]``.

    Bit-equal to ``scipy.stats.fisher_exact(table).pvalue`` (scipy 1.17):
    a zero row or column margin gives 1.0, as there.
    """
    row0, row1 = n11 + n10, n01 + n00
    col0 = n11 + n01
    if row0 == 0 or row1 == 0 or col0 == 0 or n10 + n00 == 0:
        return 1.0
    dist = _Hypergeom(row0 + row1, row0, col0)
    mode = int((col0 + 1) * (row0 + 1) / (row0 + row1 + 2))
    p_exact = dist.pmf(n11)
    p_mode = dist.pmf(mode)
    larger = max(p_exact, p_mode)
    # 0/0 is NaN in scipy's numpy arithmetic, so the test is false there.
    if larger > 0.0 and abs(p_exact - p_mode) / larger <= _EPSILON:
        return 1.0
    if n11 < mode:
        p_value = dist.cdf(n11)
        if dist.pmf(col0) > p_exact * _GAMMA:
            return p_value
        guess = _binary_search(
            lambda x: -dist.pmf(x), -p_exact * _GAMMA, mode, col0
        )
        p_value = p_value + dist.sf(guess)
    else:
        p_value = dist.sf(n11 - 1)
        if dist.pmf(0) > p_exact * _GAMMA:
            return p_value
        guess = _binary_search(dist.pmf, p_exact * _GAMMA, 0, mode)
        p_value = p_value + dist.cdf(guess)
    return min(p_value, 1.0)


def decide_tables(
    n11: np.ndarray,
    n10: np.ndarray,
    n01: np.ndarray,
    n00: np.ndarray,
    alpha: Union[float, np.ndarray],
) -> np.ndarray:
    """Reject independence at ``alpha``, per table; degenerate margins never do.

    ``alpha`` is one level for every table or one per table.  Tables whose
    expected counts are all at least 5 take the chi-square test
    (``chi2_contingency(table, correction=True)``), the rest Fisher's
    exact test (:func:`fisher_pvalue`).
    """
    alpha = np.broadcast_to(np.asarray(alpha, dtype=float), n11.shape)
    out = np.zeros(n11.size, dtype=bool)
    row0 = (n11 + n10).astype(float)
    row1 = (n01 + n00).astype(float)
    col0 = (n11 + n01).astype(float)
    col1 = (n10 + n00).astype(float)
    total = row0 + row1
    valid = (
        (total > 0) & (row0 != 0) & (row1 != 0) & (col0 != 0) & (col1 != 0)
    )
    ids = np.flatnonzero(valid)
    if ids.size == 0:
        return out  # degenerate margins: no evidence either way
    row0, row1 = row0[ids], row1[ids]
    col0, col1 = col0[ids], col1[ids]
    total = total[ids]
    expected = np.stack(
        [
            row0 * col0 / total,
            row0 * col1 / total,
            row1 * col0 / total,
            row1 * col1 / total,
        ],
        axis=1,
    )
    fisher = expected.min(axis=1) < 5.0
    chi = ~fisher
    if chi.any():
        observed = np.stack(
            [n11[ids], n10[ids], n01[ids], n00[ids]], axis=1
        ).astype(float)[chi]
        expected_chi = expected[chi]
        # Yates continuity correction exactly as chi2_contingency applies
        # it for dof=1, then the Pearson statistic and chi2(1) survival
        # function -- scipy's own operation sequence, replayed in bulk.
        difference = expected_chi - observed
        adjustment = np.minimum(0.5, np.abs(difference)) * np.sign(difference)
        adjusted = observed + adjustment
        statistic = ((adjusted - expected_chi) ** 2 / expected_chi).sum(axis=1)
        from scipy.special import chdtrc  # first use: see _hypergeom_kernels

        p_values = chdtrc(1.0, statistic)
        out[ids[chi]] = p_values < alpha[ids[chi]]
    for k in ids[fisher].tolist():
        p_value = fisher_pvalue(
            int(n11[k]), int(n10[k]), int(n01[k]), int(n00[k])
        )
        out[k] = p_value < alpha[k]
    return out
