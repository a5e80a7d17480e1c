"""2x2 independence tests replayed on scipy's kernels.

:func:`repro.core.independence.fisher_pvalue` replays scipy's two-sided
Fisher algorithm on the Boost hypergeometric ufuncs.  Its p-values must be
*bit-equal* to ``scipy.stats.fisher_exact`` -- on every table up to a total
of 20 and on a seeded sample of larger ones -- so a scipy upgrade that
changes the algorithm fails here loudly instead of silently moving a
correlation edge.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

from repro.core.api import fuse
from repro.core.independence import decide_tables, fisher_pvalue
from repro.data.registry import get_dataset


def _scipy_pvalue(table: tuple[int, int, int, int]) -> float:
    n11, n10, n01, n00 = table
    return float(stats.fisher_exact([[n11, n10], [n01, n00]]).pvalue)


def _all_tables(max_total: int):
    for total in range(max_total + 1):
        for n11 in range(total + 1):
            for n10 in range(total - n11 + 1):
                for n01 in range(total - n11 - n10 + 1):
                    yield (n11, n10, n01, total - n11 - n10 - n01)


def _sampled_tables(seed: int, count: int, max_total: int):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        total = int(rng.integers(21, max_total + 1))
        cuts = np.sort(rng.integers(0, total + 1, size=3))
        cells = np.diff(np.concatenate([[0], cuts, [total]]))
        yield tuple(int(cell) for cell in rng.permutation(cells))


class TestFisherPValue:
    def test_every_table_up_to_total_20_is_bit_equal(self):
        mismatches = [
            table
            for table in _all_tables(20)
            if fisher_pvalue(*table) != _scipy_pvalue(table)
        ]
        assert mismatches == []

    def test_sampled_larger_tables_are_bit_equal(self):
        mismatches = [
            table
            for table in _sampled_tables(seed=2014, count=400, max_total=3000)
            if fisher_pvalue(*table) != _scipy_pvalue(table)
        ]
        assert mismatches == []

    @pytest.mark.parametrize(
        "table", [(0, 0, 3, 4), (3, 4, 0, 0), (0, 3, 0, 4), (5, 0, 7, 0)]
    )
    def test_zero_margin_gives_one(self, table):
        assert fisher_pvalue(*table) == 1.0 == _scipy_pvalue(table)

    def test_returns_plain_float(self):
        assert type(fisher_pvalue(8, 2, 1, 5)) is float
        assert fisher_pvalue(8, 2, 1, 5) == 0.034965034965034975


class TestDecideTables:
    def test_matches_scipy_per_branch(self):
        tables = np.array(
            list(_sampled_tables(seed=11, count=200, max_total=400))
            + [(40, 30, 20, 60), (3, 1, 2, 90), (0, 0, 5, 5)],
            dtype=np.int64,
        )
        alpha = 0.01
        got = decide_tables(*tables.T, alpha)
        for table, decision in zip(tables.tolist(), got.tolist()):
            matrix = np.array(table, dtype=float).reshape(2, 2)
            if (matrix.sum(axis=0) == 0).any() or (matrix.sum(axis=1) == 0).any():
                assert decision is False
                continue
            expected = (
                matrix.sum(axis=1, keepdims=True)
                @ matrix.sum(axis=0, keepdims=True)
                / matrix.sum()
            )
            if expected.min() < 5.0:
                p_value = stats.fisher_exact(matrix.astype(int)).pvalue
            else:
                p_value = stats.chi2_contingency(matrix, correction=True)[1]
            assert decision == (float(p_value) < alpha), table


_LAZY_SCIPY_CHILD = """
import hashlib, sys
import repro
assert "scipy.special" not in sys.modules, "scipy.special imported by repro"
from repro.core.api import fuse
from repro.data.registry import get_dataset
data = get_dataset("synthetic-correlated")
result = fuse(data.observations, data.labels, method="clustered")
assert "scipy.special" in sys.modules, "no significance test ran"
print(hashlib.sha1(result.scores.tobytes()).hexdigest())
"""


def test_scipy_special_is_imported_on_the_first_test():
    """``import repro`` leaves ``scipy.special`` unloaded, and a clustered
    fit that loads it on its first table gives the in-process scores."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    child = subprocess.run(
        [sys.executable, "-c", _LAZY_SCIPY_CHILD],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert child.returncode == 0, child.stderr
    data = get_dataset("synthetic-correlated")
    result = fuse(data.observations, data.labels, method="clustered")
    want = hashlib.sha1(result.scores.tobytes()).hexdigest()
    assert child.stdout.strip() == want
