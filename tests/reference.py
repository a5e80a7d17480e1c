"""Test-only reference implementations (oracles).

The union plans in :mod:`repro.core.plans` enumerate subset unions with
array kernels.  This module keeps the straightforward per-term walk they
replaced -- every pattern's unions visited one by one in
:func:`~repro.util.subsets.iter_subsets` order and deduplicated by int
bitmask in a :class:`UnionCollector` -- together with the per-term loops
that froze a plan into flat arrays.  The property tests check that the
array-built plans and compiled arrays equal these exactly.

Correlation detection in :mod:`repro.core.clustering` decides both sides
in one array pass and tests independence on scipy's kernels directly.
Its oracle here is the scalar walk it replaced: one side at a time, one
pair at a time through the model's scalar queries, each table tested with
``scipy.stats.chi2_contingency`` / ``scipy.stats.fisher_exact``, and
clusters as ``networkx`` connected components.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, Mapping, Optional

import networkx as nx
import numpy as np
from scipy import stats

from repro.core.clustering import SourcePartition
from repro.util.subsets import (
    count_subsets,
    iter_subsets,
    iter_subsets_of_size,
    subset_parity,
)


class UnionCollector:
    """Deduplicating collector of subset-union rows.

    Keys each union by an int bitmask, materialises a boolean source row
    only on first sighting, and hands back the distinct rows in that order.
    """

    __slots__ = ("_bits", "_index", "_rows", "_n_sources")

    def __init__(self, n_sources: int) -> None:
        self._bits = [1 << i for i in range(n_sources)]
        self._index: dict[int, int] = {}
        self._rows: list[np.ndarray] = []
        self._n_sources = n_sources

    def __len__(self) -> int:
        return len(self._rows)

    def mask_of(self, source_ids: Iterable[int]) -> int:
        """Bitmask of distinct in-range source ids (``ValueError`` otherwise)."""
        mask = 0
        n = self._n_sources
        for i in source_ids:
            if not 0 <= i < n:
                raise ValueError(
                    f"source id {i} out of range for {n} sources"
                )
            bit = 1 << i
            if mask & bit:
                raise ValueError(
                    f"duplicate source id {i} in union; ids must be distinct"
                )
            mask |= bit
        return mask

    def bit(self, source_id: int) -> int:
        """The single-source bitmask; raises ``ValueError`` out of range."""
        if not 0 <= source_id < self._n_sources:
            raise ValueError(
                f"source id {source_id} out of range for "
                f"{self._n_sources} sources"
            )
        return self._bits[source_id]

    def add(
        self, mask: int, base_row: np.ndarray, extra_ids: Iterable[int]
    ) -> int:
        """Index of the union ``base_row | extra_ids`` identified by ``mask``.

        A writable ``base_row`` is copied before it is stored (a live view
        would let a later in-place mutation corrupt the collected rows);
        read-only rows are stored as-is.
        """
        index = self._index.get(mask)
        if index is None:
            index = len(self._rows)
            self._index[mask] = index
            if extra_ids:
                row = base_row.copy()
                row[list(extra_ids)] = True
            elif base_row.flags.writeable:
                row = base_row.copy()
            else:
                row = base_row
            self._rows.append(row)
        return index

    def rows(self) -> np.ndarray:
        """All distinct union rows, shape ``(n_distinct, n_sources)``."""
        if not self._rows:
            return np.zeros((0, self._n_sources), dtype=bool)
        return np.array(self._rows, dtype=bool)


def pattern_source_lists(
    provider_matrix: np.ndarray, silent_matrix: np.ndarray
) -> tuple[list[list[int]], list[list[int]]]:
    """Sorted provider / silent id lists for each pattern row."""
    return (
        [np.flatnonzero(row).tolist() for row in provider_matrix],
        [np.flatnonzero(row).tolist() for row in silent_matrix],
    )


def exact_union_plan(
    provider_matrix: np.ndarray,
    silent_matrix: np.ndarray,
    width_check: Optional[Callable[[int], None]] = None,
) -> tuple[np.ndarray, list[list[int]], list[int]]:
    """``(rows, silent_lists, term_index)``: every subset union, walked."""
    provider_lists, silent_lists = pattern_source_lists(
        provider_matrix, silent_matrix
    )
    collector = UnionCollector(provider_matrix.shape[1])
    term_index: list[int] = []
    for k, silent in enumerate(silent_lists):
        if width_check is not None:
            width_check(len(silent))
        base_mask = collector.mask_of(provider_lists[k])
        for subset in iter_subsets(silent):
            mask = base_mask
            for i in subset:
                mask |= collector.bit(i)
            term_index.append(
                collector.add(mask, provider_matrix[k], subset)
            )
    return collector.rows(), silent_lists, term_index


def elastic_union_plan(
    provider_matrix: np.ndarray, silent_matrix: np.ndarray, level: int
) -> tuple[np.ndarray, list[list[int]], list[int], list[int]]:
    """``(rows, silent_lists, base_index, term_index)`` of Algorithm 1."""
    provider_lists, silent_lists = pattern_source_lists(
        provider_matrix, silent_matrix
    )
    collector = UnionCollector(provider_matrix.shape[1])
    base_index: list[int] = []
    term_index: list[int] = []
    for k, silent in enumerate(silent_lists):
        base_row = provider_matrix[k]
        base_mask = collector.mask_of(provider_lists[k])
        base_index.append(collector.add(base_mask, base_row, ()))
        for size in range(1, min(level, len(silent)) + 1):
            for subset in iter_subsets_of_size(silent, size):
                mask = base_mask
                for i in subset:
                    mask |= collector.bit(i)
                term_index.append(collector.add(mask, base_row, subset))
    return collector.rows(), silent_lists, base_index, term_index


def column_major_layout(
    lengths: list[int],
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``(order, step_counts, positions, lanes)``, one step at a time."""
    lengths_arr = np.asarray(lengths, dtype=np.int64)
    order = np.argsort(-lengths_arr, kind="stable")
    sorted_lengths = lengths_arr[order].tolist()
    starts = np.concatenate([[0], np.cumsum(lengths_arr)[:-1]]).astype(np.int64)
    max_len = sorted_lengths[0] if sorted_lengths else 0
    step_counts = [
        sum(1 for length in sorted_lengths if length > step)
        for step in range(max_len)
    ]
    positions: list[int] = []
    lanes: list[int] = []
    for step, count in enumerate(step_counts):
        for lane in range(count):
            positions.append(int(starts[order[lane]]) + step)
            lanes.append(lane)
    return (
        order,
        np.asarray(step_counts, dtype=np.int64),
        np.asarray(positions, dtype=np.int64),
        np.asarray(lanes, dtype=np.int64),
    )


def compiled_exact_arrays(
    silent_lists: list[list[int]], term_index: list[int]
) -> dict[str, np.ndarray]:
    """The flat arrays a compiled exact plan holds, from per-term loops."""
    order, step_counts, positions, _ = column_major_layout(
        [1 << len(silent) for silent in silent_lists]
    )
    signs = [
        float(subset_parity(size))
        for silent in silent_lists
        for size in range(len(silent) + 1)
        for _ in range(math.comb(len(silent), size))
    ]
    return {
        "order": order,
        "step_counts": step_counts,
        "term_gather": np.asarray(term_index, dtype=np.int64)[positions],
        "term_signs": np.asarray(signs, dtype=float)[positions],
    }


def compiled_elastic_arrays(
    silent_lists: list[list[int]],
    base_index: list[int],
    term_index: list[int],
    level: int,
    eff_recall: Mapping[int, float],
    eff_fpr: Mapping[int, float],
) -> dict[str, np.ndarray]:
    """The flat arrays a compiled elastic plan holds, from per-term loops."""
    n_patterns = len(silent_lists)
    order, step_counts, positions, lanes = column_major_layout(
        [
            count_subsets(len(silent), min(level, len(silent))) - 1
            for silent in silent_lists
        ]
    )
    max_silent = max((len(s) for s in silent_lists), default=0)
    silent_r = np.ones((n_patterns, max_silent), dtype=float)
    silent_q = np.ones((n_patterns, max_silent), dtype=float)
    for sorted_pos, original in enumerate(order.tolist()):
        for column, i in enumerate(silent_lists[original]):
            silent_r[sorted_pos, column] = 1.0 - eff_recall[i]
            silent_q[sorted_pos, column] = 1.0 - eff_fpr[i]
    signs: list[float] = []
    eff_r: list[list[float]] = []
    eff_q: list[list[float]] = []
    for silent in silent_lists:
        for size in range(1, min(level, len(silent)) + 1):
            for subset in iter_subsets_of_size(silent, size):
                signs.append(float(subset_parity(size)))
                padding = [1.0] * (level - size)
                eff_r.append([eff_recall[i] for i in subset] + padding)
                eff_q.append([eff_fpr[i] for i in subset] + padding)
    n_terms = len(signs)
    return {
        "order": order,
        "step_counts": step_counts,
        "base_gather": np.asarray(base_index, dtype=np.int64)[order],
        "silent_r_factors": silent_r,
        "silent_q_factors": silent_q,
        "term_gather": np.asarray(term_index, dtype=np.int64)[positions],
        "term_signs": np.asarray(signs, dtype=float)[positions],
        "term_pattern_pos": lanes,
        "term_eff_r": np.asarray(eff_r, dtype=float).reshape(n_terms, level)[
            positions
        ],
        "term_eff_q": np.asarray(eff_q, dtype=float).reshape(n_terms, level)[
            positions
        ],
    }


# ----------------------------------------------------------------------
# Correlation detection: the scalar pair walk and networkx components
# ----------------------------------------------------------------------


def significant(
    joint_rate: float, rate_i: float, rate_j: float, trials: int, alpha: float
) -> bool:
    """Independence test of one pair's 2x2 contingency table.

    Reconstructs integer counts from the rates, then applies the chi-square
    test of independence -- Fisher's exact test when any expected cell
    count is below 5 (the usual chi-square validity rule).
    """
    n11 = int(round(joint_rate * trials))
    n1 = int(round(rate_i * trials))
    n2 = int(round(rate_j * trials))
    n11 = min(n11, n1, n2)
    n10 = n1 - n11
    n01 = n2 - n11
    n00 = trials - n1 - n2 + n11
    if n00 < 0:
        return True  # margins overlap so much that dependence is forced
    table = np.array([[n11, n10], [n01, n00]], dtype=float)
    row_sums = table.sum(axis=1, keepdims=True)
    col_sums = table.sum(axis=0, keepdims=True)
    total = table.sum()
    if total <= 0 or (row_sums == 0).any() or (col_sums == 0).any():
        return False  # degenerate margin: no evidence either way
    expected = row_sums @ col_sums / total
    if expected.min() < 5.0:
        _, p_value = stats.fisher_exact(table.astype(int))
    else:
        _, p_value, _, _ = stats.chi2_contingency(table, correction=True)
    return float(p_value) < alpha


def pairwise_correlations(
    model,
    side: str = "true",
    min_phi: float = 0.15,
    min_expected: float = 2.0,
    significance: float = 0.05,
) -> list[tuple[int, int, float, float]]:
    """One side's edges as ``(i, j, factor, phi)``, row-major, pair by pair."""
    n = model.n_sources
    alpha = significance / max(n * (n - 1) // 2, 1)
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if side == "true":
                rate_i, rate_j = model.recall(i), model.recall(j)
                factor = model.correlation_true([i, j])
                joint = model.joint_recall([i, j])
            else:
                rate_i, rate_j = model.fpr(i), model.fpr(j)
                factor = model.correlation_false([i, j])
                joint = model.joint_fpr([i, j])
            denominator = math.sqrt(
                rate_i * (1.0 - rate_i) * rate_j * (1.0 - rate_j)
            )
            phi = (
                0.0 if denominator <= 0.0
                else (joint - rate_i * rate_j) / denominator
            )
            if abs(phi) < min_phi:
                continue
            counts = model.joint_coverage_counts([i, j])
            if counts is not None:
                trials = counts[0] if side == "true" else counts[1]
                if rate_i * rate_j * trials < min_expected:
                    continue
                if not significant(joint, rate_i, rate_j, trials, alpha):
                    continue
            edges.append((i, j, factor, phi))
    return edges


def correlation_clusters(model, side: str = "true", **thresholds) -> SourcePartition:
    """One side's partition: networkx components of the scalar edges."""
    graph = nx.Graph()
    graph.add_nodes_from(range(model.n_sources))
    graph.add_edges_from(
        (i, j) for i, j, _, _ in pairwise_correlations(model, side, **thresholds)
    )
    return SourcePartition(
        clusters=tuple(
            frozenset(component)
            for component in nx.connected_components(graph)
        )
    )
