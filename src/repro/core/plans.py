"""Shared union-plan machinery for the inclusion-exclusion fusers.

The exact solver (Theorem 4.2), the elastic approximation (Algorithm 1),
and the clustered fuser built on top of both all evaluate sums whose terms
are joint-model look-ups ``r_{S}`` / ``q_{S}`` over subset unions
``providers + S*``.  Their batched execution paths share one pipeline:

1. **collect** -- enumerate each pattern's unions exactly once, as array
   kernels: patterns are grouped by silent-set size, every group's unions
   come from one memoised subset table (:func:`subset_table`, by size and
   then lexicographically) as packed words, and one
   :func:`~repro.core.patterns.unique_rows` sort deduplicates them, re-ranked
   to first-sighting order (most unions repeat across patterns);
2. **evaluate** -- hand the distinct union rows to
   :meth:`~repro.core.joint.JointQualityModel.joint_params_batch` in one
   vectorized call;
3. **accumulate** -- sum each pattern's terms in *the paper's term order*
   (Eq. 10-11 over subsets by size; Algorithm 1 level by level), gathering
   from the batched results, so every score stays bit-identical to the
   per-term walk of the definitions (``tests/reference.py`` keeps that
   walk as the oracle).

This module holds the pipeline; :mod:`repro.core.exact` and
:mod:`repro.core.elastic` wrap it behind ``pattern_likelihoods_batch`` /
``pattern_mu_batch``.  :mod:`repro.core.clustering` drives the elastic
entry point once per oversized cluster, and scores its small clusters
without a union plan: :meth:`CompiledExactPlan.from_codes` collects their
terms straight from the integer restriction codes of
:class:`~repro.core.patterns.RestrictionTable` -- the same terms in the
same order as :meth:`ExactUnionPlan.build` over the decoded sub-patterns,
and a union's joint value does not depend on the rest of the batch, so
the sums are bit-identical -- and the same ``accumulate`` adds them up.

Compile-once, execute-many
--------------------------
Serving traffic repeats the *same* scoring work: the model is fitted rarely
while ``score`` runs over and over, often on batches that share their
pattern set.  Two layers split that cost:

- :class:`CompiledExactPlan` / :class:`CompiledElasticPlan` freeze a built
  plan into flat numpy arrays (a ``term_gather`` index into the distinct
  union rows, a ``+/-1`` sign vector from subset parity, and per-pattern
  segment structure), so the accumulate step is a handful of vectorized
  gathers plus a segmented column sweep;
- :class:`CompiledPlanCache` memoises compiled plans (and, at the fusers'
  discretion, their batch-evaluated model parameters) under a
  :func:`pattern_digest` key, so repeated ``score`` calls skip the collect
  and compile steps entirely.

A note on ``np.add.reduceat``: the obvious segment-sum primitive is *not*
usable here -- numpy reduces segments with pairwise summation, whose
rounding differs from a left-to-right accumulation, breaking the
bit-identity contract.  The compiled plans instead lay terms out
step-major over patterns sorted by term count (stable, descending) and run
``acc[:k] += column`` once per step: every pattern's terms are added
strictly left-to-right in the paper's term order, each step is one
vectorized add over the patterns still active, and the result is bitwise
equal to the per-term walk.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from typing import Any, Callable, Iterable, Mapping, NamedTuple, Optional

from repro.core import faults
from repro.core.locktrace import make_lock

import numpy as np

from repro.core.bitset import pack_bool_rows, unpack_bool_rows
from repro.core.patterns import (
    RestrictionTable,
    packed_pattern_rows,
    unique_codes,
    unique_rows,
)
from repro.util.probability import PROBABILITY_FLOOR
from repro.util.subsets import iter_subsets_of_size, subset_parity

#: Default cap on cached compiled plans per fuser.  Each entry holds the
#: plan's flat index/sign arrays plus (for the fusers that attach them) the
#: batch-evaluated model parameters, so -- mirroring the joint model's
#: ``max_cache_entries`` memo policy -- the cache is bounded and long-lived
#: serving processes cannot grow without limit.  Eviction is least-recently-used.
DEFAULT_PLAN_CACHE_ENTRIES = 64


class SubsetTable(NamedTuple):
    """Subsets of ``range(n_items)`` with at most ``max_size`` members.

    Rows are ordered by size, then lexicographically (the paper's term
    order); rows ``size_starts[s]:size_starts[s + 1]``
    are the subsets of size ``s``.  Each non-empty subset is its
    ``parents`` row (itself without its largest member, one size down)
    plus member ``lasts``, so a plan builds every size's unions from the
    size below in one vectorized step.  A table of *all* the subsets
    (``max_size == n_items``) also holds each one as an ``int64``
    bitmask, from which a coded plan builds a group's unions in one
    product; such a table over more than 62 items would not fit memory.
    """

    #: ``(n_subsets,)`` row of each subset minus its largest member.
    parents: np.ndarray
    #: ``(n_subsets,)`` position of each subset's largest member.
    lasts: np.ndarray
    #: ``(max_size + 2,)`` first row of each subset size, then ``n_subsets``.
    size_starts: np.ndarray
    #: ``(n_subsets,)`` inclusion-exclusion signs ``(-1)^{|subset|}``.
    signs: np.ndarray
    #: ``(n_subsets,)`` ``int64`` bitmask of each subset (bit ``j``: item
    #: ``j``) in a table of all subsets; empty in a size-capped table.
    masks: np.ndarray

    @property
    def n_subsets(self) -> int:
        return self.signs.shape[0]

    @property
    def max_size(self) -> int:
        return self.size_starts.shape[0] - 2

    def rows_of_size(self, size: int) -> slice:
        return slice(self.size_starts[size], self.size_starts[size + 1])


#: Memoised subset tables, keyed by ``(n_items, max_size)``.  Module-global
#: mutable state is banned in repro.core (REP004) because caches that
#: outlive a model generation corrupt delta-vs-cold comparisons; this memo
#: is exempt because each value is a pure deterministic function of its
#: integer key alone -- no model state.  The exact plans ask for
#: ``(size, size)`` and the elastic ones for ``(size, min(lambda, size))``
#: per silent-set size, so it holds at most ``n_sources + 1`` entries per
#: plan kind and level.
# reprolint: allow[REP004]
_SUBSET_TABLES: dict[tuple[int, int], SubsetTable] = {}


def subset_table(n_items: int, max_size: Optional[int] = None) -> SubsetTable:
    """The (memoised) subsets of ``range(n_items)`` of at most ``max_size``."""
    cap = n_items if max_size is None else min(max_size, n_items)
    key = (n_items, cap)
    table = _SUBSET_TABLES.get(key)
    if table is None:
        parents = [0]
        lasts = [0]
        masks = [0]
        counts = [1]
        previous: dict[tuple[int, ...], int] = {(): 0}
        for size in range(1, cap + 1):
            current: dict[tuple[int, ...], int] = {}
            for subset in iter_subsets_of_size(range(n_items), size):
                current[subset] = len(parents)
                parents.append(previous[subset[:-1]])
                lasts.append(subset[-1])
                masks.append(masks[parents[-1]] | 1 << subset[-1])
            counts.append(len(current))
            previous = current
        size_starts = np.zeros(cap + 2, dtype=np.intp)
        np.cumsum(counts, out=size_starts[1:])
        signs = np.empty(len(parents), dtype=float)
        for size in range(cap + 1):
            signs[size_starts[size] : size_starts[size + 1]] = subset_parity(
                size
            )
        table = SubsetTable(
            np.array(parents, dtype=np.intp),
            np.array(lasts, dtype=np.intp),
            size_starts,
            signs,
            np.array(masks if cap == n_items else [], dtype=np.int64),
        )
        for array in table:
            array.setflags(write=False)
        _SUBSET_TABLES[key] = table
    return table


def _starts(lengths: np.ndarray) -> np.ndarray:
    """Exclusive prefix sums: where each segment of ``lengths`` begins."""
    starts = np.zeros(lengths.shape[0], dtype=np.intp)
    np.cumsum(lengths[:-1], out=starts[1:])
    return starts


#: Patterns of one silent-set size: ``(indices, silent ids, subset table)``.
_SizeGroup = tuple[np.ndarray, np.ndarray, SubsetTable]


def _size_groups(
    silent_matrix: np.ndarray, max_size: Optional[int]
) -> list[_SizeGroup]:
    """Patterns grouped by silent-set size: ``(indices, silent ids, table)``.

    ``silent ids[i]`` lists pattern ``indices[i]``'s silent sources in
    ascending order, and ``table`` is the group's subset table (subsets of
    at most ``max_size`` members; all of them when ``None``).
    """
    sizes = np.count_nonzero(silent_matrix, axis=1)
    order = np.argsort(sizes, kind="stable")
    sorted_sizes = sizes[order]
    ids = np.nonzero(silent_matrix[order])[1]
    changes = (np.flatnonzero(np.diff(sorted_sizes)) + 1).tolist()
    bounds = [0, *changes, len(order)]
    groups: list[_SizeGroup] = []
    offset = 0
    for begin, end in zip(bounds[:-1], bounds[1:]):
        if begin == end:
            continue
        size = int(sorted_sizes[begin])
        count = end - begin
        groups.append(
            (
                order[begin:end],
                ids[offset : offset + count * size].reshape(count, size),
                subset_table(size, max_size),
            )
        )
        offset += count * size
    return groups


def _enumerate_unions(
    provider_matrix: np.ndarray,
    silent_matrix: np.ndarray,
    max_size: Optional[int],
) -> tuple[np.ndarray, np.ndarray, list[_SizeGroup], np.ndarray]:
    """Every pattern's subset unions, deduplicated in first-sighting order.

    Pattern ``k``'s terms are its providers joined with each subset of its
    silent set of at most ``max_size`` members, in subset-table order;
    terms run pattern by pattern.  Each silent-size group builds its
    unions as packed words, one OR per subset size (a subset's union is
    its parent's union plus one source bit), and one :func:`unique_rows`
    sort over all terms deduplicates them; the distinct rows are then
    renumbered by first occurrence.  Returns
    ``(rows, term_index, groups, lengths)``: the distinct boolean union
    rows, each term's row, the silent-size groups (silent ids are source
    ids) and each pattern's term count, which the compile step reuses.
    """
    n_patterns, n_sources = provider_matrix.shape
    # Unions only set columns that some pattern provides or leaves silent
    # (a cluster's members, on the clustered route), so the terms are
    # packed over those columns alone.
    columns = np.flatnonzero(
        provider_matrix.any(axis=0) | silent_matrix.any(axis=0)
    )
    groups = _size_groups(silent_matrix[:, columns], max_size)
    lengths = np.zeros(n_patterns, dtype=np.intp)
    for indices, _, table in groups:
        lengths[indices] = table.n_subsets
    source_groups = [
        (indices, columns[ids], table) for indices, ids, table in groups
    ]
    starts = _starts(lengths)
    base = pack_bool_rows(provider_matrix[:, columns])
    n_words = base.shape[1]
    words = np.empty((int(lengths.sum()), n_words), dtype=np.uint64)
    if not words.shape[0]:
        no_rows = np.zeros((0, n_sources), dtype=bool)
        return no_rows, np.zeros(0, dtype=np.intp), source_groups, lengths
    for indices, ids, table in groups:
        n_group, size = ids.shape
        unions = np.empty((n_group, table.n_subsets, n_words), dtype=np.uint64)
        unions[:, 0] = base[indices]
        if size:
            # bits[p, j]: the packed single-source row of silent id j.
            bits = np.zeros((n_group, size, n_words), dtype=np.uint64)
            bits[np.arange(n_group)[:, None], np.arange(size), ids >> 6] = (
                np.left_shift(np.uint64(1), (ids & 63).astype(np.uint64))
            )
            for subset_size in range(1, table.max_size + 1):
                block = table.rows_of_size(subset_size)
                np.bitwise_or(
                    unions[:, table.parents[block]],
                    bits[:, table.lasts[block]],
                    out=unions[:, block],
                )
        words[starts[indices, None] + np.arange(table.n_subsets)] = unions
    first, inverse = unique_rows(words)
    sighting = np.argsort(first)
    rank = np.empty_like(sighting)
    rank[sighting] = np.arange(sighting.size)
    rows = np.zeros((sighting.size, n_sources), dtype=bool)
    rows[:, columns] = unpack_bool_rows(words[first[sighting]], columns.size)
    return rows, rank[inverse], source_groups, lengths


class ExactUnionPlan:
    """Batched Eq. 10-11 plan over a set of ``(providers, silent)`` patterns.

    :meth:`build` performs the collect step (every subset union of every
    pattern, deduplicated); :meth:`compile` freezes the plan into the
    :class:`CompiledExactPlan` whose ``accumulate`` runs the
    inclusion-exclusion sums per pattern in the paper's term order over the
    batch-evaluated ``(r, q)`` values, flooring both sides at
    ``PROBABILITY_FLOOR``.
    """

    __slots__ = ("rows", "silent_matrix", "term_index", "groups", "lengths")

    def __init__(
        self,
        rows: np.ndarray,
        silent_matrix: np.ndarray,
        term_index: np.ndarray,
        groups: list[_SizeGroup],
        lengths: np.ndarray,
    ) -> None:
        self.rows = rows
        self.silent_matrix = silent_matrix
        self.term_index = term_index
        self.groups = groups
        self.lengths = lengths

    @classmethod
    def build(
        cls,
        provider_matrix: np.ndarray,
        silent_matrix: np.ndarray,
        width_check: Optional[Callable[[int], None]] = None,
    ) -> "ExactUnionPlan":
        """Collect every subset union of every pattern, once each.

        ``rows`` holds the distinct unions in order of first appearance
        and ``term_index`` each term's row, terms running pattern by
        pattern in subset-table order.  ``width_check`` (when given)
        receives silent-set sizes before any union is enumerated -- the
        exact fuser passes its ``max_silent_sources`` guard -- in pattern
        order of first appearance, so it raises for the first offending
        pattern.
        """
        provider_matrix = np.asarray(provider_matrix, dtype=bool)
        silent_matrix = np.asarray(silent_matrix, dtype=bool)
        if width_check is not None:
            sizes = np.count_nonzero(silent_matrix, axis=1)
            distinct, first = np.unique(sizes, return_index=True)
            for size in distinct[np.argsort(first)].tolist():
                width_check(size)
        rows, term_index, groups, lengths = _enumerate_unions(
            provider_matrix, silent_matrix, None
        )
        return cls(rows, silent_matrix, term_index, groups, lengths)

    def compile(self) -> "CompiledExactPlan":
        """Freeze this plan into flat numpy arrays (see module docstring)."""
        return CompiledExactPlan.from_plan(self)


class ElasticUnionPlan:
    """Batched Algorithm 1 plan over a set of ``(providers, silent)`` patterns.

    :meth:`build` collects each pattern's base provider set plus every
    level-``1..lambda`` union; :meth:`compile` freezes it into the
    :class:`CompiledElasticPlan` whose ``accumulate`` replays Algorithm 1
    per pattern (level-0 aggressive product, then exact swap-ins level by
    level) over the batch-evaluated values.
    """

    __slots__ = (
        "rows", "silent_matrix", "base_index", "term_index", "level",
        "groups", "lengths",
    )

    def __init__(
        self,
        rows: np.ndarray,
        silent_matrix: np.ndarray,
        base_index: np.ndarray,
        term_index: np.ndarray,
        level: int,
        groups: list[_SizeGroup],
        lengths: np.ndarray,
    ) -> None:
        self.rows = rows
        self.silent_matrix = silent_matrix
        self.base_index = base_index
        self.term_index = term_index
        self.level = level
        self.groups = groups
        self.lengths = lengths

    @classmethod
    def build(
        cls,
        provider_matrix: np.ndarray,
        silent_matrix: np.ndarray,
        level: int,
    ) -> "ElasticUnionPlan":
        """Collect each pattern's base set and level-``1..lambda`` unions.

        A pattern's terms are the size-``0..lambda`` prefix of its subset
        table: the empty subset (its base provider set, ``base_index``)
        followed by the swap-in unions (``term_index``), numbered like
        :meth:`ExactUnionPlan.build`.
        """
        provider_matrix = np.asarray(provider_matrix, dtype=bool)
        silent_matrix = np.asarray(silent_matrix, dtype=bool)
        rows, index, groups, lengths = _enumerate_unions(
            provider_matrix, silent_matrix, level
        )
        starts = _starts(lengths)
        swap_in = np.ones(index.shape[0], dtype=bool)
        swap_in[starts] = False
        return cls(
            rows, silent_matrix, index[starts], index[swap_in], level,
            groups, lengths,
        )

    def compile(
        self, eff_recall: Mapping[int, float], eff_fpr: Mapping[int, float]
    ) -> "CompiledElasticPlan":
        """Freeze this plan (with the fuser's aggressive factors baked in)."""
        return CompiledElasticPlan.from_plan(self, eff_recall, eff_fpr)


# ----------------------------------------------------------------------
# Compiled plans: the execute-many half of the pipeline
# ----------------------------------------------------------------------


def _column_major_layout(
    lengths: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Step-major term layout over patterns sorted by term count.

    ``lengths[k]`` is pattern ``k``'s term count in the row-major term
    arrays.  Returns ``(order, step_counts, positions, lanes)``:

    - ``order``: pattern permutation, descending term count (stable);
    - ``step_counts``: for step ``c``, how many sorted patterns still have
      a ``c``-th term (a non-increasing prefix length);
    - ``positions``: indices into the row-major term arrays, laid out
      step-major -- step ``c`` holds the ``c``-th term of each active
      pattern, so a sweep of ``acc[:k] += column`` adds every pattern's
      terms strictly left-to-right in the paper's term order;
    - ``lanes``: each step-major term's pattern position in ``order``.
    """
    lengths = np.asarray(lengths, dtype=np.int64)
    n = lengths.shape[0]
    order = np.argsort(-lengths, kind="stable")
    sorted_lengths = lengths[order]
    max_len = int(sorted_lengths[0]) if n else 0
    if max_len == 0:
        empty = np.zeros(0, dtype=np.int64)
        return order, empty, empty, empty
    # Active-prefix length per step: how many sorted lengths exceed c.
    step_counts = np.searchsorted(
        -sorted_lengths, -np.arange(max_len, dtype=np.int64), side="left"
    )
    lanes = np.arange(int(step_counts.sum()), dtype=np.int64)
    lanes -= np.repeat(_starts(step_counts), step_counts)
    steps = np.repeat(np.arange(max_len, dtype=np.int64), step_counts)
    positions = _starts(lengths)[order][lanes] + steps
    return order, step_counts, positions, lanes


class CompiledExactPlan:
    """An :class:`ExactUnionPlan` frozen into flat numpy arrays.

    ``accumulate`` is two gathers (``recalls[term_gather] * term_signs``)
    and a segmented column sweep that sums each pattern's terms
    left-to-right in the paper's term order (see the module docstring for
    why ``np.add.reduceat`` cannot be used), flooring at
    ``PROBABILITY_FLOOR`` -- results are bit-identical to the per-term
    walk of Eq. 10-11.
    """

    __slots__ = (
        "rows", "n_patterns", "order", "term_gather", "term_signs",
        "step_counts", "_steps",
    )

    def __init__(
        self,
        rows: np.ndarray,
        n_patterns: int,
        order: np.ndarray,
        term_gather: np.ndarray,
        term_signs: np.ndarray,
        step_counts: np.ndarray,
    ) -> None:
        self.rows = rows
        self.n_patterns = n_patterns
        self.order = order
        self.term_gather = term_gather
        self.term_signs = term_signs
        self.step_counts = step_counts
        self._steps = step_counts.tolist()

    @classmethod
    def from_plan(cls, plan: ExactUnionPlan) -> "CompiledExactPlan":
        # Row-major signs: each silent-size group's table signs, per pattern.
        signs = np.empty(int(plan.lengths.sum()), dtype=float)
        starts = _starts(plan.lengths)
        for indices, _, table in plan.groups:
            signs[starts[indices, None] + np.arange(table.n_subsets)] = (
                table.signs
            )
        return cls._laid_out(plan.rows, plan.lengths, plan.term_index, signs)

    @classmethod
    def from_codes(
        cls, table: RestrictionTable, keys: np.ndarray
    ) -> "CompiledExactPlan":
        """The exact plan of coded restrictions, one pattern per key.

        ``keys`` are distinct :meth:`RestrictionTable.keys` of a coded
        table (the clustered fuser's exact group).  Each decodes to a
        cluster and cluster-local provider and silent codes; its terms
        are ``provider | subset`` over the silent code's subsets in
        subset-table order -- per silent-set size, one product of the
        silent bits with the subset table's membership bits -- each named
        by its subset id (:meth:`RestrictionTable.subset_ids`).  One
        :func:`~repro.core.patterns.unique_codes` pass deduplicates
        the ids, and ``rows`` holds the touched unions in id order.  The
        terms and their order are those :meth:`ExactUnionPlan.build` finds
        for the decoded boolean patterns, and a union's joint value does
        not depend on the rest of the batch, so ``accumulate`` gives the
        same bits.
        """
        cluster, providers, silents = table.decode(keys)
        silent_bits = np.right_shift.outer(silents, np.arange(table.widest))
        # Largest silent sets first: the step-major layout's own order, so
        # the terms are built in the order the sweep reads them.
        groups = _size_groups((silent_bits & 1).astype(bool), None)[::-1]
        patterns = np.concatenate(
            [indices for indices, _, _ in groups] or [np.zeros(0, np.intp)]
        )
        lengths = np.repeat(
            [subsets.n_subsets for _, _, subsets in groups],
            [indices.shape[0] for indices, _, _ in groups],
        ).astype(np.intp)
        local = np.empty(int(lengths.sum()), dtype=np.int64)
        signs = np.empty(local.shape[0], dtype=float)
        begin = 0
        for indices, ids, subsets in groups:
            end = begin + indices.shape[0] * subsets.n_subsets
            shape = (indices.shape[0], subsets.n_subsets)
            members = (
                np.right_shift.outer(subsets.masks, np.arange(ids.shape[1])).T
                & 1
            )
            unions = local[begin:end].reshape(shape)
            np.matmul(np.left_shift(1, ids), members, out=unions)
            unions += providers[indices, None]
            signs[begin:end].reshape(shape)[...] = subsets.signs
            begin = end
        terms = table.subset_ids(np.repeat(cluster[patterns], lengths), local)
        touched, term_index = unique_codes(terms, table.subset_space)
        return cls._laid_out(
            table.subset_rows(touched), lengths, term_index, signs, patterns
        )

    @classmethod
    def _laid_out(
        cls,
        rows: np.ndarray,
        lengths: np.ndarray,
        term_index: np.ndarray,
        signs: np.ndarray,
        patterns: Optional[np.ndarray] = None,
    ) -> "CompiledExactPlan":
        """Step-major arrays of row-major terms, ``lengths[i]`` per run.

        Run ``i`` holds the terms of pattern ``patterns[i]`` (of pattern
        ``i`` when ``None``).
        """
        order, step_counts, positions, _ = _column_major_layout(lengths)
        return cls(
            rows=rows,
            n_patterns=lengths.shape[0],
            order=order if patterns is None else patterns[order],
            term_gather=np.asarray(term_index, dtype=np.int64)[positions],
            term_signs=signs[positions],
            step_counts=step_counts,
        )

    def accumulate(
        self, recalls: np.ndarray, fprs: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Per-pattern floored ``(Pr(Ot | t), Pr(Ot | not t))`` arrays."""
        n = self.n_patterns
        numerators = np.empty(n, dtype=float)
        denominators = np.empty(n, dtype=float)
        if n == 0:
            return numerators, denominators
        recalls = np.asarray(recalls, dtype=float)
        fprs = np.asarray(fprs, dtype=float)
        signed_r = recalls[self.term_gather] * self.term_signs
        signed_q = fprs[self.term_gather] * self.term_signs
        acc_r = np.zeros(n, dtype=float)
        acc_q = np.zeros(n, dtype=float)
        position = 0
        for k in self._steps:
            end = position + k
            acc_r[:k] += signed_r[position:end]
            acc_q[:k] += signed_q[position:end]
            position = end
        np.maximum(acc_r, PROBABILITY_FLOOR, out=acc_r)
        np.maximum(acc_q, PROBABILITY_FLOOR, out=acc_q)
        numerators[self.order] = acc_r
        denominators[self.order] = acc_q
        return numerators, denominators


def _dense_factors(
    factors: Mapping[int, float], silent_matrix: np.ndarray
) -> np.ndarray:
    """Per-source array of ``factors``; ``KeyError`` for a silent source
    without one."""
    n_sources = silent_matrix.shape[1]
    dense = np.ones(n_sources, dtype=float)
    known = np.zeros(n_sources, dtype=bool)
    for source, value in factors.items():
        if 0 <= source < n_sources:
            dense[source] = value
            known[source] = True
    missing = np.flatnonzero(silent_matrix.any(axis=0) & ~known)
    if missing.size:
        raise KeyError(int(missing[0]))
    return dense


class CompiledElasticPlan:
    """An :class:`ElasticUnionPlan` frozen into flat numpy arrays.

    The fuser's effective aggressive factors (``C+_i r_i`` / ``C-_i q_i``)
    are baked in at compile time: the level-0 silent-side products become a
    padded factor matrix multiplied column by column (padding with exact
    ``1.0`` is a bitwise no-op), the per-term approximate coefficients a
    padded ``(n_terms, level)`` factor matrix, and the level-``1..lambda``
    adjustments the same segmented column sweep as the exact plan -- every
    multiply and add follows Algorithm 1's operation order, so results are
    bit-identical to its per-term walk.
    """

    __slots__ = (
        "rows", "n_patterns", "level", "order", "base_gather",
        "silent_r_factors", "silent_q_factors", "term_gather", "term_signs",
        "term_pattern_pos", "term_eff_r", "term_eff_q", "step_counts",
        "_steps",
    )

    def __init__(
        self,
        rows: np.ndarray,
        n_patterns: int,
        level: int,
        order: np.ndarray,
        base_gather: np.ndarray,
        silent_r_factors: np.ndarray,
        silent_q_factors: np.ndarray,
        term_gather: np.ndarray,
        term_signs: np.ndarray,
        term_pattern_pos: np.ndarray,
        term_eff_r: np.ndarray,
        term_eff_q: np.ndarray,
        step_counts: np.ndarray,
    ) -> None:
        self.rows = rows
        self.n_patterns = n_patterns
        self.level = level
        self.order = order
        self.base_gather = base_gather
        self.silent_r_factors = silent_r_factors
        self.silent_q_factors = silent_q_factors
        self.term_gather = term_gather
        self.term_signs = term_signs
        self.term_pattern_pos = term_pattern_pos
        self.term_eff_r = term_eff_r
        self.term_eff_q = term_eff_q
        self.step_counts = step_counts
        self._steps = step_counts.tolist()

    @classmethod
    def from_plan(
        cls,
        plan: ElasticUnionPlan,
        eff_recall: Mapping[int, float],
        eff_fpr: Mapping[int, float],
    ) -> "CompiledElasticPlan":
        silent = plan.silent_matrix
        n_patterns = silent.shape[0]
        level = plan.level
        recall_of = _dense_factors(eff_recall, silent)
        fpr_of = _dense_factors(eff_fpr, silent)
        groups = plan.groups
        # Swap-in terms only: every subset but the empty one.
        lengths = plan.lengths - 1
        order, step_counts, positions, lanes = _column_major_layout(lengths)

        # Level-0 factors: row j lists sorted pattern j's silent sources.
        sizes = np.count_nonzero(silent, axis=1)[order]
        silent_r = np.ones((n_patterns, int(sizes.max(initial=0))))
        silent_q = np.ones_like(silent_r)
        pattern, source = np.nonzero(silent[order])
        column = np.arange(pattern.shape[0]) - np.repeat(_starts(sizes), sizes)
        silent_r[pattern, column] = 1.0 - recall_of[source]
        silent_q[pattern, column] = 1.0 - fpr_of[source]

        # Swap-in terms, row-major: each group's table rows after the
        # empty subset.  Row t of `chain` lists subset t's member factors
        # in ascending order, 1.0-padded: its parent's row plus one factor.
        n_terms = int(lengths.sum())
        signs = np.empty(n_terms, dtype=float)
        eff_r = np.ones((n_terms, level), dtype=float)
        eff_q = np.ones((n_terms, level), dtype=float)
        starts = _starts(lengths)
        for indices, ids, table in groups:
            terms = starts[indices, None] + np.arange(table.n_subsets - 1)
            signs[terms] = table.signs[1:]
            for factors, out in ((recall_of, eff_r), (fpr_of, eff_q)):
                chain = np.ones((indices.shape[0], table.n_subsets, level))
                for size in range(1, table.max_size + 1):
                    block = table.rows_of_size(size)
                    chain[:, block] = chain[:, table.parents[block]]
                    last = ids[:, table.lasts[block]]
                    chain[:, block, size - 1] = factors[last]
                out[terms] = chain[:, 1:]

        return cls(
            rows=plan.rows,
            n_patterns=n_patterns,
            level=level,
            order=order,
            base_gather=np.asarray(plan.base_index, dtype=np.int64)[order],
            silent_r_factors=silent_r,
            silent_q_factors=silent_q,
            term_gather=np.asarray(plan.term_index, dtype=np.int64)[positions],
            term_signs=signs[positions],
            term_pattern_pos=lanes,
            term_eff_r=eff_r[positions],
            term_eff_q=eff_q[positions],
            step_counts=step_counts,
        )

    def accumulate(
        self, recalls: np.ndarray, fprs: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Per-pattern floored ``(R, Q)`` of Algorithm 1."""
        n = self.n_patterns
        numerators = np.empty(n, dtype=float)
        denominators = np.empty(n, dtype=float)
        if n == 0:
            return numerators, denominators
        recalls = np.asarray(recalls, dtype=float)
        fprs = np.asarray(fprs, dtype=float)
        r_base = recalls[self.base_gather]
        q_base = fprs[self.base_gather]

        # Level 0: exact provider-side joint, aggressive silent-side chain.
        num = r_base.copy()
        den = q_base.copy()
        for column in range(self.silent_r_factors.shape[1]):
            num *= self.silent_r_factors[:, column]
            den *= self.silent_q_factors[:, column]

        # Levels 1..lambda: swap-in adjustments in Algorithm 1's term order.
        if self.term_gather.shape[0]:
            approx_r = r_base[self.term_pattern_pos]
            approx_q = q_base[self.term_pattern_pos]
            for column in range(self.term_eff_r.shape[1]):
                approx_r *= self.term_eff_r[:, column]
                approx_q *= self.term_eff_q[:, column]
            contrib_r = self.term_signs * (recalls[self.term_gather] - approx_r)
            contrib_q = self.term_signs * (fprs[self.term_gather] - approx_q)
            position = 0
            for k in self._steps:
                end = position + k
                num[:k] += contrib_r[position:end]
                den[:k] += contrib_q[position:end]
                position = end

        np.maximum(num, PROBABILITY_FLOOR, out=num)
        np.maximum(den, PROBABILITY_FLOOR, out=den)
        numerators[self.order] = num
        denominators[self.order] = den
        return numerators, denominators


# ----------------------------------------------------------------------
# The plan cache: skip collect + compile on repeated score calls
# ----------------------------------------------------------------------


def pattern_digest(
    provider_matrix: np.ndarray, silent_matrix: np.ndarray
) -> bytes:
    """Content digest of a pattern-matrix pair (the plan-cache key).

    Pattern matrices are frozen (read-only) once extracted, so hashing
    their bytes identifies the scoring workload: two observation batches
    with the same distinct patterns share one compiled plan regardless of
    how many triples map onto each pattern.
    """
    provider_matrix = np.ascontiguousarray(provider_matrix, dtype=bool)
    silent_matrix = np.ascontiguousarray(silent_matrix, dtype=bool)
    digest = hashlib.sha1()
    digest.update(repr((provider_matrix.shape, silent_matrix.shape)).encode())
    digest.update(provider_matrix.tobytes())
    digest.update(silent_matrix.tobytes())
    return digest.digest()


def pattern_row_keys(
    provider_matrix: np.ndarray,
    silent_matrix: np.ndarray,
    packed: Optional[np.ndarray] = None,
) -> list[bytes]:
    """One content key per pattern *row* (the delta-memo key).

    Where :func:`pattern_digest` identifies a whole scoring workload, the
    row keys identify individual patterns, so per-pattern results can be
    reused across requests whose pattern *sets* differ (the streaming case:
    consecutive batches share almost all of their patterns but rarely their
    digests).  Each key is a serialised
    :func:`repro.core.patterns.packed_pattern_rows` row -- identical to
    hashing the full-width boolean row pair, at a fraction of the cost.
    ``packed`` is that packing when the caller already holds it (a
    :class:`~repro.core.patterns.PatternSet`'s ``packed_rows``).
    """
    if packed is None:
        packed = packed_pattern_rows(provider_matrix, silent_matrix)
    return [row.tobytes() for row in packed]


def likelihoods_with_memo(
    plan_cache: "CompiledPlanCache",
    memo: "PatternValueMemo",
    key_prefix: tuple,
    compile_entry: Callable[[np.ndarray, np.ndarray], tuple],
    provider_matrix: np.ndarray,
    silent_matrix: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Delta fast path shared by the inclusion-exclusion fusers.

    Digest first, then per-pattern memo reuse: a warm plan-cache hit on
    ``key_prefix + (digest,)`` runs the unchanged compiled path (the memo
    adds no cost to identical repeats); a digest *miss* -- the streaming
    case, where consecutive requests share almost all patterns but not
    their digest -- gathers every known row from ``memo`` and evaluates
    only the novel rows through a sub-batch plan built by
    ``compile_entry``, scatter-merged in input order.  Each row's
    likelihoods depend on its own terms alone, so the result is
    bit-identical to a full-batch evaluation.  ``key_prefix`` carries the
    fuser's structural options (``("exact", max_silent)`` /
    ``("elastic", level)``).  Only the *seeding* batch -- the fuser's
    first workload, against an empty memo -- compiles through the cache's
    single-flight path under the full digest, byte-identical in keying to
    the memo-less path, and is parked in the memo unkeyed
    (:meth:`PatternValueMemo.seed`).  Every later novel
    set (a delta step's handful of new patterns) is compiled directly
    *without* caching: its digest is unique to that step, and storing it
    would only churn the LRU out from under the warm entries identical
    repeats rely on.  The probe above it does not count a miss, so the
    cache diagnostics record each workload once (the seeding compute or
    a warm hit) rather than double-counting delta steps.
    """
    key = key_prefix + (pattern_digest(provider_matrix, silent_matrix),)
    entry = plan_cache.get(key, count_miss=False)
    if entry is not None:
        compiled, (recalls, fprs) = entry
        return compiled.accumulate(recalls, fprs)
    if len(memo) == 0:
        generation = memo.generation
        compiled, (recalls, fprs) = plan_cache.get_or_compute(
            key, lambda: compile_entry(provider_matrix, silent_matrix)
        )
        numerators, denominators = compiled.accumulate(recalls, fprs)
        memo.seed(
            provider_matrix, silent_matrix, (numerators, denominators),
            generation=generation,
        )
        return numerators, denominators
    keys = pattern_row_keys(provider_matrix, silent_matrix)
    values, novel = memo.lookup(keys)
    n_patterns = provider_matrix.shape[0]
    numerators = np.empty(n_patterns, dtype=float)
    denominators = np.empty(n_patterns, dtype=float)
    for position, value in enumerate(values):
        if value is not None:
            numerators[position], denominators[position] = value
    if novel.size:
        generation = memo.generation
        compiled, (recalls, fprs) = compile_entry(
            provider_matrix[novel], silent_matrix[novel]
        )
        sub_nums, sub_dens = compiled.accumulate(recalls, fprs)
        numerators[novel] = sub_nums
        denominators[novel] = sub_dens
        memo.store(
            [keys[i] for i in novel.tolist()],
            list(zip(sub_nums.tolist(), sub_dens.tolist())),
            generation=generation,
        )
    return numerators, denominators


class PatternValueMemo:
    """Bounded memo of deterministic per-pattern values, keyed by row bytes.

    The delta-scoring layer's companion to :class:`CompiledPlanCache`:
    where the plan cache memoises whole workloads under one digest, this
    memo holds one entry per distinct pattern (keys from
    :func:`pattern_row_keys`), so a request whose pattern set is *almost*
    a previously-seen one only computes its novel rows.  Values are opaque
    to the memo -- the inclusion-exclusion fusers store ``(numerator,
    denominator)`` likelihood pairs, the score-level delta engine stores
    posterior probabilities.

    Entries are evicted oldest-first beyond ``max_entries`` (every stored
    value is a pure function of the owning component's fixed state, so an
    evicted entry is recomputed bit-identically on demand).
    ``max_entries=0`` disables storage.

    The first batch an empty memo receives is all novel by definition,
    and a fit-and-score-once session never looks anything up.  So
    :meth:`seed` parks that batch as ``(pattern rows, values)`` without
    building row keys, and the first later :meth:`lookup` keys it under
    the lock; only sessions that score again pay the key-building, once.
    ``len`` and :attr:`stats` count parked rows as entries.

    Thread-safety: :meth:`lookup` reads the dict *without* the lock (reads
    are GIL-atomic, stored values are deterministic pure functions of the
    owner's fixed state, and a racing clear only turns a hit into a
    benign recompute), so concurrent scorers never serialise on the memo;
    the lock guards :meth:`store`, :meth:`seed`, seed keying and
    :meth:`invalidate`, whose ``generation`` token drops writes that
    predate the latest invalidation, so a refit can never resurrect
    values computed against replaced state.  The hit/miss counters are
    unlocked diagnostics -- approximate by at most the thread count.
    """

    __slots__ = (
        "_entries", "_max_entries", "_lock", "_generation", "_seeds",
        "_seeded_rows", "hits", "misses", "evictions",
    )

    def __init__(self, max_entries: int = 200_000) -> None:
        if max_entries < 0:
            raise ValueError(
                f"max_entries must be non-negative, got {max_entries}"
            )
        self._max_entries = int(max_entries)
        self._lock = make_lock("PatternValueMemo._lock")
        # guarded-by: _lock
        self._entries: OrderedDict = OrderedDict()
        # guarded-by: _lock
        self._generation = 0
        # Parked, not yet keyed batches: (provider rows, silent rows,
        # value columns) each -- see seed().
        # guarded-by: _lock
        self._seeds: list[tuple[np.ndarray, np.ndarray, tuple]] = []
        # guarded-by: _lock
        self._seeded_rows = 0
        # Hit/miss counters are deliberately unlocked diagnostics (see
        # class docstring); evictions only moves under the store lock.
        self.hits = 0
        self.misses = 0
        # guarded-by: _lock
        self.evictions = 0

    def __len__(self) -> int:
        return min(len(self._entries) + self._seeded_rows, self._max_entries)

    @property
    def max_entries(self) -> int:
        return self._max_entries

    @property
    def generation(self) -> int:
        """Bumped by :meth:`invalidate`; stale stores are dropped."""
        return self._generation

    def lookup(self, keys: list[bytes]) -> tuple[list, np.ndarray]:
        """``(values, novel_idx)`` for a batch of row keys.

        ``values[i]`` is the memoised value for ``keys[i]`` or ``None``;
        ``novel_idx`` lists the positions with no entry, in input order
        (the rows the caller must compute and :meth:`store`).  Lock-free:
        see the class docstring.
        """
        if self._seeds:
            self._key_seeds()
        novel: list[int] = []
        values: list = []
        hits = 0
        entries = self._entries
        for position, key in enumerate(keys):
            value = entries.get(key)
            if value is None:
                novel.append(position)
            else:
                hits += 1
            values.append(value)
        self.hits += hits
        self.misses += len(novel)
        return values, np.asarray(novel, dtype=np.int64)

    def store(
        self,
        keys: list[bytes],
        values: Iterable[Any],
        generation: Optional[int] = None,
    ) -> None:
        """Store ``keys[i] -> values[i]``, evicting oldest beyond the cap.

        ``generation`` (from :attr:`generation`, snapshotted before the
        values were computed) guards against a concurrent
        :meth:`invalidate`: a stale batch is silently dropped.
        """
        if self._max_entries == 0:
            return
        if self._seeds:
            self._key_seeds()  # keep insertion (eviction) order
        with self._lock:
            if generation is not None and generation != self._generation:
                return
            self._insert(keys, values)

    # guarded-by: _lock
    def _insert(self, keys: list[bytes], values: Iterable[Any]) -> None:
        entries = self._entries
        for key, value in zip(keys, values):
            entries[key] = value
        while len(entries) > self._max_entries:
            entries.popitem(last=False)
            self.evictions += 1

    def seed(
        self,
        provider_matrix: np.ndarray,
        silent_matrix: np.ndarray,
        columns: tuple[np.ndarray, ...],
        generation: Optional[int] = None,
    ) -> None:
        """Park a computed batch; its row keys are built on a later lookup.

        Row ``i`` of the pattern matrices maps to ``columns[0][i]`` for one
        value column, or to ``tuple(column[i] for column in columns)`` --
        exactly what :meth:`store` would hold for the same batch.  The
        arrays are copied where the caller could still write them.  Seeded
        rows count as misses, as an eager lookup-then-store would count
        them, and ``generation`` drops a stale seed as it drops a stale
        store.
        """
        if self._max_entries == 0:
            return
        parked = tuple(
            np.array(array) if array.flags.writeable else array
            for array in (provider_matrix, silent_matrix, *columns)
        )
        with self._lock:
            if generation is not None and generation != self._generation:
                return
            self._seeds.append((parked[0], parked[1], parked[2:]))
            self._seeded_rows += provider_matrix.shape[0]
            self.misses += provider_matrix.shape[0]

    def _key_seeds(self) -> None:
        """Key every parked seed into the entries, oldest first."""
        with self._lock:
            for provider_matrix, silent_matrix, columns in self._seeds:
                if len(columns) == 1:
                    values: list = columns[0].tolist()
                else:
                    values = list(zip(*(column.tolist() for column in columns)))
                self._insert(
                    pattern_row_keys(provider_matrix, silent_matrix), values
                )
            # Cleared last: a lock-free reader that sees no seeds also
            # sees every keyed entry.
            self._seeds = []
            self._seeded_rows = 0

    def invalidate(self) -> None:
        """Drop every entry and parked seed (the refit hook); stats survive."""
        with self._lock:
            self._entries.clear()
            self._seeds = []
            self._seeded_rows = 0
            self._generation += 1

    @property
    def stats(self) -> dict:
        """Counters for benchmarks and serving diagnostics."""
        with self._lock:
            return {
                "entries": len(self),
                "max_entries": self._max_entries,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "generation": self._generation,
            }


class CompiledPlanCache:
    """Bounded LRU cache of compiled plans (and attached evaluations).

    Keys are caller-supplied tuples -- the fusers use
    ``(kind, options..., pattern_digest(...))`` -- and values are opaque to
    the cache (compiled plans, optionally bundled with their batch model
    parameters or per-cluster log tables).  The cache is bounded by
    ``max_entries`` with least-recently-used eviction, mirroring the joint
    model's ``max_cache_entries`` memo policy: a serving process cannot
    grow without limit no matter how many distinct workloads it sees.
    ``max_entries=0`` disables caching (every call recompiles).

    Thread-safety
    -------------
    Every operation is safe under concurrent scoring: a lock guards the
    LRU structure, and :meth:`get_or_compute` is *single-flight* -- when
    several threads miss the same key simultaneously (many sessions
    scoring a fresh workload), exactly one runs the factory while the rest
    wait and reuse its result, so each plan digest is compiled at most
    once per generation (the ``computes`` stat counts factory runs).
    :meth:`invalidate` bumps an internal generation counter; a factory
    already in flight when the invalidation lands completes for its caller
    but its result is *not* stored, so a refit can never resurrect plans
    compiled against the replaced model state.
    """

    __slots__ = (
        "_entries", "_max_entries", "_lock", "_inflight", "_generation",
        "hits", "misses", "evictions", "computes",
    )

    def __init__(self, max_entries: int = DEFAULT_PLAN_CACHE_ENTRIES) -> None:
        if max_entries < 0:
            raise ValueError(
                f"max_entries must be non-negative, got {max_entries}"
            )
        self._max_entries = int(max_entries)
        self._lock = make_lock("CompiledPlanCache._lock")
        # guarded-by: _lock
        self._entries: OrderedDict = OrderedDict()
        # guarded-by: _lock
        self._inflight: dict = {}
        # guarded-by: _lock
        self._generation = 0
        # guarded-by: _lock
        self.hits = 0
        # guarded-by: _lock
        self.misses = 0
        # guarded-by: _lock
        self.evictions = 0
        # guarded-by: _lock
        self.computes = 0

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def max_entries(self) -> int:
        return self._max_entries

    @property
    def generation(self) -> int:
        """Bumped by :meth:`invalidate`; stale in-flight results are dropped."""
        return self._generation

    def get(self, key: object, count_miss: bool = True) -> Any:
        """The cached value for ``key`` (LRU-touched), or ``None``.

        ``count_miss=False`` probes without recording a miss -- for
        callers that will either follow up with :meth:`get_or_compute`
        (which counts the authoritative miss) or bypass the cache
        entirely, so serving diagnostics count each workload once.
        """
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                if count_miss:
                    self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return entry

    def put(self, key: object, value: Any) -> Any:
        """Store ``value`` (evicting LRU entries beyond the cap); return it."""
        with self._lock:
            self._store_locked(key, value)
        return value

    # guarded-by: _lock (every caller holds the cache lock)
    def _store_locked(self, key: object, value: Any) -> None:
        if self._max_entries == 0:
            return
        self._entries[key] = value
        self._entries.move_to_end(key)
        while len(self._entries) > self._max_entries:
            self._entries.popitem(last=False)
            self.evictions += 1

    def get_or_compute(self, key: object, factory: Callable[[], Any]) -> Any:
        """The cached value for ``key``, computing it once on a miss.

        The locked get-or-compute every fuser scores through: a hit is a
        locked LRU touch; on a miss exactly one caller runs ``factory()``
        (outside the lock -- compiles are expensive) while concurrent
        missers of the same key block until the result lands, then reuse
        it.  If the factory raises, waiters retry (one of them becomes the
        next computer); if :meth:`invalidate` fires mid-compute, the
        result is returned to the caller but not stored.  With
        ``max_entries=0`` every call computes (caching disabled), matching
        :meth:`get`/:meth:`put` semantics -- and without single-flight
        blocking, since concurrent callers of a disabled cache should
        compute in parallel, not queue behind each other.
        """
        if self._max_entries == 0:
            with self._lock:
                self.misses += 1
            faults.trip(faults.SITE_COMPILE)
            value = factory()
            with self._lock:
                self.computes += 1
            return value
        while True:
            with self._lock:
                entry = self._entries.get(key)
                if entry is not None:
                    self._entries.move_to_end(key)
                    self.hits += 1
                    return entry
                waiter = self._inflight.get(key)
                if waiter is None:
                    done = threading.Event()
                    self._inflight[key] = done
                    generation = self._generation
                    self.misses += 1
                    break
            waiter.wait()
        try:
            # Injection site: a compile-time fault exercises the
            # single-flight release path (waiters retry, nothing stored).
            faults.trip(faults.SITE_COMPILE)
            value = factory()
        except BaseException:
            # Release waiters without storing; one of them recomputes.
            with self._lock:
                self.computes += 1
                self._inflight.pop(key, None)
            done.set()
            raise
        # Store before waking waiters, so a woken waiter either finds the
        # entry or (post-invalidation) becomes the next computer.
        with self._lock:
            self.computes += 1
            if self._generation == generation:
                self._store_locked(key, value)
            self._inflight.pop(key, None)
        done.set()
        return value

    def invalidate(self) -> None:
        """Drop every cached plan (the model-refit hook); stats survive.

        Safe against in-flight scores: computes started before the
        invalidation finish for their callers but are not stored, and the
        next request for their key recompiles under the new generation.
        """
        with self._lock:
            self._entries.clear()
            self._generation += 1

    @property
    def stats(self) -> dict:
        """Counters for benchmarks and serving diagnostics."""
        with self._lock:
            return {
                "entries": len(self),
                "max_entries": self._max_entries,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "computes": self.computes,
                "generation": self._generation,
            }
