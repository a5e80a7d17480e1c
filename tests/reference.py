"""Test-only reference implementations (oracles).

The paper's definitions, written as the straightforward walks the
production code was optimised away from:

- **Likelihoods per pattern** -- Eq. 10-11 (Theorem 4.2) for exact
  PrecRecCorr, Algorithm 1 for elastic, Definition 4.5 with the Eq. 14-15
  aggressive factors, and Theorem 3.1 for PrecRec, each walked term by
  term over a model's scalar ``joint_recall`` / ``joint_fpr`` queries.
  :func:`triple_scores` scores every triple through them, one pattern at a
  time.  The inclusion-exclusion families sum in the same term order as the
  compiled plans, so they must agree with production exactly; PrecRec and
  the aggressive family vectorise through matrix products and agree to
  1e-9.
- **Source quality** -- :func:`quality_from_counts` derives one source's
  precision, recall and Theorem 3.5 ``q`` from its four counts in scalar
  arithmetic; the array rule (``quality.rates_from_counts``) must return
  the same floats for every source at once.
- **Joint statistics** -- :class:`MaskJointModel` counts the scope-aware
  ``r_S`` / ``q_S`` of a subset with full-width boolean masks and derives
  ``q_S`` by Theorem 3.5, falling back to the direct false-triple count
  when the joint precision is zero.  The packed-popcount model must return
  the same floats.
- **Plan walks** -- :func:`accumulate_exact_plan` /
  :func:`accumulate_elastic_plan` re-run a built union plan's sums one term
  at a time.  Union enumeration has its own per-term oracle: every
  pattern's unions visited in :func:`iter_subsets` order and deduplicated by int bitmask in a :class:`UnionCollector`,
  together with the per-term loops that froze a plan into flat arrays.

Correlation detection in :mod:`repro.core.clustering` decides both sides
in one array pass and tests independence on scipy's kernels directly.
Its oracle here is the scalar walk it replaced: one side at a time, one
pair at a time through the model's scalar queries, each table tested with
``scipy.stats.chi2_contingency`` / ``scipy.stats.fisher_exact``, and
clusters as ``networkx`` connected components.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, Iterator, Mapping, Optional, Sequence

import networkx as nx
import numpy as np
from scipy import stats

from repro.core.clustering import SourcePartition
from repro.core.joint import JointQualityModel
from repro.core.quality import SourceQuality
from repro.util.probability import (
    PROBABILITY_FLOOR,
    clamp_probability,
    probability_from_mu,
    safe_divide,
)
from repro.util.subsets import iter_subsets_of_size, subset_parity


def iter_subsets(items: Sequence[int]) -> Iterator[tuple[int, ...]]:
    """Yield every subset of ``items`` (including the empty set) as a tuple.

    Subsets come in order of increasing size, lexicographic within a size
    -- the term order of Eq. 10-11 and of Algorithm 1's levels, which the
    compiled plans follow.

    >>> list(iter_subsets([1, 2]))
    [(), (1,), (2,), (1, 2)]
    """
    for size in range(len(items) + 1):
        yield from iter_subsets_of_size(items, size)


def count_subsets(n_items: int, max_size: int | None = None) -> int:
    """Number of subsets of an ``n_items``-element set, optionally bounded."""
    if n_items < 0:
        raise ValueError(f"n_items must be non-negative, got {n_items}")
    if max_size is None or max_size >= n_items:
        return 2 ** n_items
    total = 0
    term = 1  # C(n, 0)
    for k in range(max_size + 1):
        total += term
        term = term * (n_items - k) // (k + 1)
    return total


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


def pattern_sets(
    patterns,
) -> tuple[list[frozenset[int]], list[frozenset[int]]]:
    """Provider / silent-covering source sets of each row of a ``PatternSet``.

    The per-pattern walks below take sets; production never builds them.
    """
    providers, silents = pattern_source_lists(
        patterns.provider_matrix, patterns.silent_matrix
    )
    return (
        [frozenset(ids) for ids in providers],
        [frozenset(ids) for ids in silents],
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


def accumulate_exact_plan(
    plan, recalls: np.ndarray, fprs: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """An :class:`~repro.core.plans.ExactUnionPlan`'s floored Eq. 10-11
    sums, one term at a time in ``iter_subsets`` order."""
    recall_list = np.asarray(recalls, dtype=float).tolist()
    fpr_list = np.asarray(fprs, dtype=float).tolist()
    term_index = np.asarray(plan.term_index).tolist()
    silent_lists = [np.flatnonzero(row).tolist() for row in plan.silent_matrix]
    numerators = np.empty(len(silent_lists), dtype=float)
    denominators = np.empty(len(silent_lists), dtype=float)
    position = 0
    for k, silent in enumerate(silent_lists):
        numerator = 0.0
        denominator = 0.0
        for subset in iter_subsets(silent):
            sign = subset_parity(len(subset))
            index = term_index[position]
            position += 1
            numerator += sign * recall_list[index]
            denominator += sign * fpr_list[index]
        numerators[k] = max(numerator, PROBABILITY_FLOOR)
        denominators[k] = max(denominator, PROBABILITY_FLOOR)
    return numerators, denominators


def accumulate_elastic_plan(
    plan,
    recalls: np.ndarray,
    fprs: np.ndarray,
    eff_recall: Mapping[int, float],
    eff_fpr: Mapping[int, float],
) -> tuple[np.ndarray, np.ndarray]:
    """An :class:`~repro.core.plans.ElasticUnionPlan`'s floored Algorithm 1
    sums: the level-0 aggressive product, then the exact swap-ins level by
    level, one term at a time."""
    recall_list = np.asarray(recalls, dtype=float).tolist()
    fpr_list = np.asarray(fprs, dtype=float).tolist()
    base_index = np.asarray(plan.base_index).tolist()
    term_index = np.asarray(plan.term_index).tolist()
    silent_lists = [np.flatnonzero(row).tolist() for row in plan.silent_matrix]
    numerators = np.empty(len(silent_lists), dtype=float)
    denominators = np.empty(len(silent_lists), dtype=float)
    position = 0
    for k, silent in enumerate(silent_lists):
        r_st = recall_list[base_index[k]]
        q_st = fpr_list[base_index[k]]
        numerator = r_st
        denominator = q_st
        for i in silent:
            numerator *= 1.0 - eff_recall[i]
            denominator *= 1.0 - eff_fpr[i]
        for size in range(1, min(plan.level, len(silent)) + 1):
            sign = subset_parity(size)
            for subset in iter_subsets_of_size(silent, size):
                approx_r = r_st
                approx_q = q_st
                for i in subset:
                    approx_r *= eff_recall[i]
                    approx_q *= eff_fpr[i]
                index = term_index[position]
                position += 1
                numerator += sign * (recall_list[index] - approx_r)
                denominator += sign * (fpr_list[index] - approx_q)
        numerators[k] = max(numerator, PROBABILITY_FLOOR)
        denominators[k] = max(denominator, PROBABILITY_FLOOR)
    return numerators, denominators


# ----------------------------------------------------------------------
# The paper's likelihoods, per pattern, over scalar model queries
# ----------------------------------------------------------------------


def exact_likelihoods(
    model, providers: Iterable[int], silent: Iterable[int]
) -> tuple[float, float]:
    """``(Pr(Ot | t), Pr(Ot | not t))`` by Eq. 10 and 11, floored > 0.

    ``sum_{S* subset of St-bar} (-1)^{|S*|} r_{St union S*}`` and the same
    with ``q``, over the subsets of the silent set in ``iter_subsets``
    order.
    """
    base = sorted(providers)
    numerator = 0.0
    denominator = 0.0
    for subset in iter_subsets(sorted(silent)):
        sign = subset_parity(len(subset))
        union = base + list(subset)
        numerator += sign * model.joint_recall(union)
        denominator += sign * model.joint_fpr(union)
    return (
        max(numerator, PROBABILITY_FLOOR),
        max(denominator, PROBABILITY_FLOOR),
    )


def aggressive_factors(
    model, universe: Optional[Sequence[int]] = None
) -> tuple[list[float], list[float]]:
    """``(C+_i, C-_i)`` of Eq. 14-15 over ``universe``, by scalar queries.

    ``C+_i = r_S / (r_i * r_{S minus i})``, 1 where the denominator
    vanishes; entry ``k`` belongs to ``universe[k]``.  ``S`` holds only the
    universe's sources with ``r_j > 0``: one with ``r_j = 0`` is constant
    given truth, so independent, and gets ``C+_j = 1`` (the limit of
    Eq. 14 as ``r_j -> 0``).  ``C-`` likewise over the sources with
    ``q_j > 0``.
    """
    ids = list(range(model.n_sources)) if universe is None else list(universe)

    def factors(rate, joint):
        members = [i for i in ids if rate(i) > 0.0]
        whole = joint(members)
        return [
            safe_divide(
                whole, rate(i) * joint([j for j in members if j != i])
            )
            if rate(i) > 0.0
            else 1.0
            for i in ids
        ]

    return (
        factors(model.recall, model.joint_recall),
        factors(model.fpr, model.joint_fpr),
    )


def effective_rates(
    model, universe: Optional[Sequence[int]] = None
) -> tuple[dict[int, float], dict[int, float]]:
    """``({i: C+_i r_i}, {i: C-_i q_i})`` over ``universe``."""
    ids = list(range(model.n_sources)) if universe is None else list(universe)
    c_plus, c_minus = aggressive_factors(model, ids)
    return (
        {i: c_plus[k] * model.recall(i) for k, i in enumerate(ids)},
        {i: c_minus[k] * model.fpr(i) for k, i in enumerate(ids)},
    )


def elastic_likelihoods(
    model,
    providers: Iterable[int],
    silent: Iterable[int],
    level: int,
    eff_recall: Mapping[int, float],
    eff_fpr: Mapping[int, float],
) -> tuple[float, float]:
    """Algorithm 1's floored ``(R, Q)`` at adjustment level ``level``.

    Level 0 keeps the exact provider-side joint and the aggressive
    silent-side product (lines 1-2); each level ``l`` then swaps the
    approximate coefficient of every size-``l`` silent subset for the
    exact joint (lines 3-7).
    """
    base = sorted(providers)
    silent_sorted = sorted(silent)
    r_st = model.joint_recall(base)
    q_st = model.joint_fpr(base)
    numerator = r_st
    denominator = q_st
    for i in silent_sorted:
        numerator *= 1.0 - eff_recall[i]
        denominator *= 1.0 - eff_fpr[i]
    for size in range(1, min(level, len(silent_sorted)) + 1):
        sign = subset_parity(size)
        for subset in iter_subsets_of_size(silent_sorted, size):
            approx_r = r_st
            approx_q = q_st
            for i in subset:
                approx_r *= eff_recall[i]
                approx_q *= eff_fpr[i]
            union = base + list(subset)
            numerator += sign * (model.joint_recall(union) - approx_r)
            denominator += sign * (model.joint_fpr(union) - approx_q)
    return (
        max(numerator, PROBABILITY_FLOOR),
        max(denominator, PROBABILITY_FLOOR),
    )


def precrec_mu(model, providers: Iterable[int], silent: Iterable[int]) -> float:
    """Theorem 3.1's ``mu`` with every rate clamped into ``(0, 1)``."""
    logs = []
    for i in providers:
        r = clamp_probability(model.recall(i))
        q = clamp_probability(model.fpr(i))
        logs.append(math.log(r / q))
    for i in silent:
        r = clamp_probability(model.recall(i))
        q = clamp_probability(model.fpr(i))
        logs.append(math.log((1.0 - r) / (1.0 - q)))
    return math.exp(math.fsum(logs))


def aggressive_mu(
    providers: Iterable[int],
    silent: Iterable[int],
    eff_recall: Mapping[int, float],
    eff_fpr: Mapping[int, float],
) -> float:
    """Definition 4.5's ``mu``: the per-source product over effective rates.

    Reported raw (it may be negative, Proposition 4.8); a vanishing
    denominator gives ``inf`` for a positive numerator and 0 otherwise.
    """
    numerator = 1.0
    denominator = 1.0
    for i in providers:
        numerator *= eff_recall[i]
        denominator *= eff_fpr[i]
    for i in silent:
        numerator *= 1.0 - eff_recall[i]
        denominator *= 1.0 - eff_fpr[i]
    if denominator == 0.0:
        return math.inf if numerator > 0 else 0.0
    return numerator / denominator


def triple_scores(
    observations,
    model,
    method: str,
    prior: Optional[float] = None,
    level: int = 3,
    true_partition: Optional[SourcePartition] = None,
    false_partition: Optional[SourcePartition] = None,
    exact_cluster_limit: int = 12,
    elastic_level: int = 3,
) -> np.ndarray:
    """Every triple's ``Pr(t | Ot)`` from the per-pattern definitions.

    ``method`` is ``"precrec"``, ``"exact"``, ``"aggressive"``,
    ``"elastic"`` (at ``level``) or ``"clustered"``.  The clustered form
    takes both partitions: per cluster it evaluates the restricted pattern
    exactly up to ``exact_cluster_limit`` sources and elastically at
    ``elastic_level`` (factors over the cluster) beyond, and combines the
    true side's ``log Pr(Ot|t)`` and the false side's ``log Pr(Ot|not t)``
    in partition order.  Each triple's providers and silent covering
    sources come straight from the boolean matrices; ``prior`` is the
    decision ``alpha`` (the model's by default).  Patterns repeat, so each
    distinct one is scored once.
    """
    alpha = model.prior if prior is None else prior
    provides = np.asarray(observations.provides, dtype=bool)
    silent_matrix = np.asarray(observations.coverage, dtype=bool) & ~provides
    rates: dict = {}

    def rates_over(universe):
        key = tuple(universe) if universe is not None else None
        if key not in rates:
            rates[key] = effective_rates(model, universe)
        return rates[key]

    def cluster_likelihoods(cluster, providers, silent):
        if len(cluster) <= exact_cluster_limit:
            return exact_likelihoods(model, providers, silent)
        eff_r, eff_q = rates_over(sorted(cluster))
        return elastic_likelihoods(
            model, providers, silent, elastic_level, eff_r, eff_q
        )

    def mu_of(providers, silent):
        if method == "precrec":
            return precrec_mu(model, providers, silent)
        if method == "exact":
            numerator, denominator = exact_likelihoods(model, providers, silent)
            return numerator / denominator
        if method == "aggressive":
            return aggressive_mu(providers, silent, *rates_over(None))
        if method == "elastic":
            numerator, denominator = elastic_likelihoods(
                model, providers, silent, level, *rates_over(None)
            )
            return numerator / denominator
        if method == "clustered":
            log_numerator = 0.0
            for cluster in true_partition.clusters:
                r_side, _ = cluster_likelihoods(
                    cluster, providers & cluster, silent & cluster
                )
                log_numerator += math.log(max(r_side, PROBABILITY_FLOOR))
            log_denominator = 0.0
            for cluster in false_partition.clusters:
                _, q_side = cluster_likelihoods(
                    cluster, providers & cluster, silent & cluster
                )
                log_denominator += math.log(max(q_side, PROBABILITY_FLOOR))
            return math.exp(log_numerator - log_denominator)
        raise ValueError(f"unknown method {method!r}")

    scores = np.empty(provides.shape[1], dtype=float)
    seen: dict = {}
    for j in range(provides.shape[1]):
        pattern = (
            frozenset(np.flatnonzero(provides[:, j]).tolist()),
            frozenset(np.flatnonzero(silent_matrix[:, j]).tolist()),
        )
        if pattern not in seen:
            seen[pattern] = probability_from_mu(mu_of(*pattern), alpha)
        scores[j] = seen[pattern]
    return scores


# ----------------------------------------------------------------------
# Source quality from counts, one source at a time
# ----------------------------------------------------------------------


def quality_from_counts(
    name: str,
    provided: int,
    provided_true: int,
    in_scope_true: int,
    in_scope_false: int,
    prior: float = 0.5,
    smoothing: float = 0.0,
) -> SourceQuality:
    """Section 3.2 for one source, in scalar Python arithmetic.

    Precision and recall are ``(n + s) / (d + 2s)`` with 0/0 read as 0;
    ``q`` is Theorem 3.5 clipped at 1 when precision is positive, else
    provided false over covered false.  :class:`SourceQuality` checks each
    field, so an out-of-range count raises ``ValueError`` naming it.
    """

    def ratio(numerator: int, denominator: int) -> float:
        if denominator + 2.0 * smoothing == 0.0:
            return 0.0
        return (numerator + smoothing) / (denominator + 2.0 * smoothing)

    precision = ratio(provided_true, provided)
    recall = ratio(provided_true, in_scope_true)
    if precision > 0.0:
        q = prior / (1.0 - prior) * (1.0 - precision) / precision * recall
        fpr = 1.0 if q > 1.0 else q
    else:
        fpr = ratio(provided - provided_true, in_scope_false)
    return SourceQuality(
        name=name, precision=precision, recall=recall, false_positive_rate=fpr
    )


def qualities_from_counts(
    names: Sequence[str],
    counts: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray],
    prior: float = 0.5,
    smoothing: float = 0.0,
) -> list[SourceQuality]:
    """:func:`quality_from_counts` per source, from ``source_counts``."""
    provided, provided_true, in_scope_true, in_scope_false = counts
    return [
        quality_from_counts(
            name,
            int(provided[i]),
            int(provided_true[i]),
            int(in_scope_true[i]),
            int(in_scope_false[i]),
            prior=prior,
            smoothing=smoothing,
        )
        for i, name in enumerate(names)
    ]


# ----------------------------------------------------------------------
# Joint statistics by boolean masks
# ----------------------------------------------------------------------


class MaskJointModel(JointQualityModel):
    """Scope-aware joint parameters counted with full-width boolean masks.

    For a non-empty subset ``S`` the triples every member provides are the
    AND of their ``provides`` rows, and the triples every member covers
    (the subset's joint scope) the AND of their ``coverage`` rows.  Then

    - ``r_S`` = provided true / covered true, and
    - ``q_S`` = Theorem 3.5 from ``p_S`` = provided true / provided and
      ``r_S`` (clipped at 1), or, when ``p_S`` is 0 and the derivation
      degenerates, provided false / covered false,

    each ratio Laplace-smoothed as ``(n + s) / (d + 2s)`` with 0/0 read as
    0.  The empty subset has ``r = q = 1``.  A singleton's quality is its
    subset's ``(p, r, q)`` -- one rule for singletons and joints.  Scoring
    goes through the base class's row-by-row ``joint_params_batch``.
    """

    def __init__(self, observations, labels, prior: float = 0.5, smoothing: float = 0.0):
        super().__init__(observations.source_names, prior)
        self._provides = np.asarray(observations.provides, dtype=bool)
        self._coverage = np.asarray(observations.coverage, dtype=bool)
        self._labels = np.asarray(labels, dtype=bool)
        self._smoothing = float(smoothing)
        self._counts_memo: dict[tuple[int, ...], tuple[int, int, int, int]] = {}
        self._qualities = [
            SourceQuality(
                name=name,
                precision=self.joint_precision([i]),
                recall=self.joint_recall([i]),
                false_positive_rate=self.joint_fpr([i]),
            )
            for i, name in enumerate(observations.source_names)
        ]

    def _ratio(self, numerator: int, denominator: int) -> float:
        s = self._smoothing
        if denominator + 2.0 * s == 0.0:
            return 0.0
        return (numerator + s) / (denominator + 2.0 * s)

    def _counts(self, ids: list[int]) -> tuple[int, int, int, int]:
        """``(provided true, provided false, covered true, covered false)``."""
        key = tuple(ids)
        counts = self._counts_memo.get(key)
        if counts is None:
            provided = np.logical_and.reduce(self._provides[ids], axis=0)
            scope = np.logical_and.reduce(self._coverage[ids], axis=0)
            labels = self._labels
            counts = (
                int((provided & labels).sum()),
                int((provided & ~labels).sum()),
                int((scope & labels).sum()),
                int((scope & ~labels).sum()),
            )
            self._counts_memo[key] = counts
        return counts

    def joint_precision(self, source_ids: Iterable[int]) -> float:
        ids = sorted(set(source_ids))
        if not ids:
            return 1.0
        provided_true, provided_false, _, _ = self._counts(ids)
        return self._ratio(provided_true, provided_true + provided_false)

    def joint_recall(self, source_ids: Iterable[int]) -> float:
        ids = sorted(set(source_ids))
        if not ids:
            return 1.0
        provided_true, _, covered_true, _ = self._counts(ids)
        return self._ratio(provided_true, covered_true)

    def joint_fpr(self, source_ids: Iterable[int]) -> float:
        ids = sorted(set(source_ids))
        if not ids:
            return 1.0
        provided_true, provided_false, covered_true, covered_false = (
            self._counts(ids)
        )
        precision = self._ratio(provided_true, provided_true + provided_false)
        if precision == 0.0:
            return self._ratio(provided_false, covered_false)
        recall = self._ratio(provided_true, covered_true)
        alpha = self.prior
        q = alpha / (1.0 - alpha) * (1.0 - precision) / precision * recall
        return min(q, 1.0)

    def joint_coverage_counts(
        self, source_ids: Iterable[int]
    ) -> tuple[int, int]:
        ids = sorted(set(source_ids))
        if not ids:
            return self.evidence_counts()
        _, _, covered_true, covered_false = self._counts(ids)
        return covered_true, covered_false

    def evidence_counts(self) -> tuple[int, int]:
        return int(self._labels.sum()), int((~self._labels).sum())

    def source_quality(self, source_id: int) -> SourceQuality:
        return self._qualities[int(source_id)]


# ----------------------------------------------------------------------
# Correlation detection: the scalar pair walk and networkx components
# ----------------------------------------------------------------------


def significant(
    joint_rate: float, rate_i: float, rate_j: float, trials: int, alpha: float
) -> bool:
    """Does one pair's 2x2 contingency table reject independence at ``alpha``?"""
    return pair_p_value(joint_rate, rate_i, rate_j, trials) < alpha


def pair_p_value(
    joint_rate: float, rate_i: float, rate_j: float, trials: int
) -> float:
    """Independence p-value of one pair's 2x2 contingency table.

    Reconstructs integer counts from the rates, then applies the chi-square
    test of independence -- Fisher's exact test when any expected cell
    count is below 5 (the usual chi-square validity rule).  Forced
    dependence reads 0 and a degenerate margin (no evidence either way)
    reads infinity, so ``p < alpha`` is the decision at every level.
    """
    n11 = int(round(joint_rate * trials))
    n1 = int(round(rate_i * trials))
    n2 = int(round(rate_j * trials))
    n11 = min(n11, n1, n2)
    n10 = n1 - n11
    n01 = n2 - n11
    n00 = trials - n1 - n2 + n11
    if n00 < 0:
        return 0.0  # margins overlap so much that dependence is forced
    table = np.array([[n11, n10], [n01, n00]], dtype=float)
    row_sums = table.sum(axis=1, keepdims=True)
    col_sums = table.sum(axis=0, keepdims=True)
    total = table.sum()
    if total <= 0 or (row_sums == 0).any() or (col_sums == 0).any():
        return math.inf  # degenerate margin: no evidence either way
    expected = row_sums @ col_sums / total
    if expected.min() < 5.0:
        _, p_value = stats.fisher_exact(table.astype(int))
    else:
        _, p_value, _, _ = stats.chi2_contingency(table, correction=True)
    return float(p_value)


def pairwise_correlations(
    model,
    side: str = "true",
    min_phi: float = 0.15,
    min_expected: float = 2.0,
    significance: float = 0.05,
) -> list[tuple[int, int, float, float]]:
    """One side's edges as ``(i, j, factor, phi)``, row-major, pair by pair.

    The Bonferroni level divides ``significance`` by the side's testable
    pairs: those whose two sources both have a rate strictly inside
    (0, 1) on that side.
    """
    n = model.n_sources
    rate = model.recall if side == "true" else model.fpr
    varying = sum(1 for i in range(n) if 0.0 < rate(i) < 1.0)
    alpha = significance / max(varying * (varying - 1) // 2, 1)
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
