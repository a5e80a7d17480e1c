"""Unique observation patterns of a matrix (the engine's dedup layer).

Two triples with the same provider set and the same silent-covering set
necessarily receive the same score from every model-based fuser -- the
likelihood ratio ``mu`` depends on the observation *pattern*, not the triple.
The legacy scoring loop exploits this only through memoisation: it still
walks every column, builds two frozensets per triple, and hashes them.

This module extracts the distinct ``(providers, silent)`` patterns of an
:class:`~repro.core.observations.ObservationMatrix` **once**, by sorting the
bit-packed columns (:func:`unique_rows`), and returns pattern ids plus the
inverse index mapping every triple to its pattern.  A fuser then evaluates
each distinct pattern exactly once and scatters the results back -- turning
``O(n_triples)`` model walks into ``O(n_unique_patterns)``, with the
remaining per-triple work a single vectorized gather.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from typing import Iterable, Sequence

import numpy as np

from repro.core.bitset import pack_bool_rows


@dataclass(frozen=True)
class PatternSet:
    """The distinct observation patterns of one observation matrix.

    Attributes
    ----------
    provider_matrix, silent_matrix:
        Boolean arrays of shape ``(n_patterns, n_sources)``: row ``k`` marks
        the providers (resp. silent covering sources) of pattern ``k``.
    inverse:
        ``(n_triples,)`` integer array; ``inverse[j]`` is the pattern id of
        triple ``j``, so ``pattern_values[inverse]`` scatters per-pattern
        results back to triples.
    counts:
        ``(n_patterns,)`` multiplicities: how many triples share each
        pattern.  ``counts.sum() == n_triples``.
    """

    provider_matrix: np.ndarray
    silent_matrix: np.ndarray
    inverse: np.ndarray
    counts: np.ndarray

    @cached_property
    def provider_sets(self) -> tuple[frozenset[int], ...]:
        """Pattern provider rows as frozensets, for set-keyed evaluation.

        Built lazily: the batched fusers (PrecRec, aggressive, and the
        bitmask-keyed inclusion-exclusion paths) never materialise them.
        """
        return tuple(
            frozenset(np.flatnonzero(row).tolist())
            for row in self.provider_matrix
        )

    @cached_property
    def silent_sets(self) -> tuple[frozenset[int], ...]:
        """Pattern silent-covering rows as frozensets (lazy, see above)."""
        return tuple(
            frozenset(np.flatnonzero(row).tolist())
            for row in self.silent_matrix
        )

    @property
    def n_patterns(self) -> int:
        return self.provider_matrix.shape[0]

    @property
    def n_triples(self) -> int:
        return int(self.inverse.shape[0])

    @property
    def n_sources(self) -> int:
        return self.provider_matrix.shape[1]

    @property
    def dedup_ratio(self) -> float:
        """``n_triples / n_patterns`` -- the work saved by deduplication."""
        if self.n_patterns == 0:
            return 1.0
        return self.n_triples / self.n_patterns

    def scatter(self, pattern_values: np.ndarray) -> np.ndarray:
        """Expand one value per pattern into one value per triple."""
        pattern_values = np.asarray(pattern_values)
        if pattern_values.shape != (self.n_patterns,):
            raise ValueError(
                f"pattern values shape {pattern_values.shape} != "
                f"({self.n_patterns},)"
            )
        return pattern_values[self.inverse]


def packed_pattern_rows(
    provider_matrix: np.ndarray, silent_matrix: np.ndarray
) -> np.ndarray:
    """Bit-packed ``[provider words | silent words]`` row per pattern.

    The single source of truth for the pattern-row layout: it backs the
    dedup packing of :func:`extract_patterns`, the delta-memo keys
    (:func:`repro.core.plans.pattern_row_keys`), and the delta engine's
    dirty-column dedup -- all of which must produce byte-identical rows
    for per-pattern reuse to line up.
    """
    provider_matrix = np.ascontiguousarray(provider_matrix, dtype=bool)
    silent_matrix = np.ascontiguousarray(silent_matrix, dtype=bool)
    return np.concatenate(
        [pack_bool_rows(provider_matrix), pack_bool_rows(silent_matrix)],
        axis=1,
    )


def unique_rows(words: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distinct rows of a 2-D ``uint64`` word array: ``(first_index, inverse)``.

    The pattern layer's one row-dedup kernel.  A stable ``np.lexsort`` over
    the word columns (first word most significant) groups equal rows while
    keeping them in input order, one adjacent-row compare marks where each
    group starts, and a ``cumsum`` scattered through the sort order numbers
    the groups.  The result equals ``np.unique(words, axis=0,
    return_index=True, return_inverse=True)`` exactly -- distinct rows in
    lexicographic word order, ``first_index`` the first occurrence of each,
    ``inverse`` flattened -- without the structured-void view and sort that
    make ``np.unique(axis=0)`` slow on the many small per-cluster inputs.
    """
    words = np.asarray(words, dtype=np.uint64)
    if words.ndim != 2 or words.shape[1] == 0:
        raise ValueError(f"expected a 2-D word array, got shape {words.shape}")
    order = np.lexsort(words.T[::-1])
    ordered = words[order]
    starts = np.empty(order.shape[0], dtype=bool)
    starts[:1] = True
    np.any(ordered[1:] != ordered[:-1], axis=1, out=starts[1:])
    inverse = np.empty(order.shape[0], dtype=np.intp)
    inverse[order] = np.cumsum(starts) - 1
    return order[starts], inverse


def extract_patterns(
    provides: np.ndarray, coverage: np.ndarray
) -> PatternSet:
    """Extract the unique ``(providers, silent)`` patterns of a matrix.

    ``provides`` and ``coverage`` are the boolean ``(n_sources, n_triples)``
    arrays of an observation matrix.  Columns are bit-packed (so a pattern is
    a short tuple of ``uint64`` words rather than an ``n_sources``-long
    vector) and deduplicated with one :func:`unique_rows` sort, so patterns
    come out in lexicographic word order.
    """
    provides = np.asarray(provides, dtype=bool)
    coverage = np.asarray(coverage, dtype=bool)
    if provides.shape != coverage.shape or provides.ndim != 2:
        raise ValueError(
            f"provides {provides.shape} and coverage {coverage.shape} must be "
            "equal-shape 2-D arrays"
        )
    silent = coverage & ~provides

    # One packed row per *triple*: [provider words | silent words].
    combined = packed_pattern_rows(provides.T, silent.T)
    first_index, inverse = unique_rows(combined)

    provider_matrix = provides.T[first_index].copy()
    silent_matrix = silent.T[first_index].copy()
    provider_matrix.setflags(write=False)
    silent_matrix.setflags(write=False)
    counts = np.bincount(inverse, minlength=first_index.shape[0])
    return PatternSet(
        provider_matrix=provider_matrix,
        silent_matrix=silent_matrix,
        inverse=inverse,
        counts=counts,
    )


#: Upper bound on the ``uint64`` words :func:`restricted_unique_patterns`
#: stacks before it deduplicates (32 MiB).  Wide inputs with many clusters
#: are restricted in cluster blocks of at most this size and the blocks'
#: distinct rows merged by a second sort, so memory stays bounded without
#: changing the result.
RESTRICT_BLOCK_WORDS = 1 << 22


def restricted_unique_patterns(
    provider_matrix: np.ndarray,
    silent_matrix: np.ndarray,
    clusters: Sequence[Iterable[int]],
) -> tuple[np.ndarray, np.ndarray, list[np.ndarray]]:
    """Distinct sub-patterns after restricting patterns to each cluster.

    The clustered fuser's decomposition step: restricting global observation
    patterns to a correlation cluster (``providers & cluster``,
    ``silent & cluster``) collapses many global patterns onto the same
    cluster-local sub-pattern, so an evaluator only needs to score the
    distinct restrictions.  All clusters one evaluator serves are handled in
    one pass: each cluster's restriction is a bitwise AND of the packed
    ``[provider | silent]`` pattern words (:func:`packed_pattern_rows`) with
    the cluster's packed mask, and one :func:`unique_rows` sort over every
    cluster's restricted rows, stacked in cluster order, deduplicates them
    together -- equal to ``np.unique(stacked, axis=0, return_index=True,
    return_inverse=True)`` exactly.  (Above :data:`RESTRICT_BLOCK_WORDS`
    the stack is sorted in cluster blocks whose distinct rows are merged by
    a second sort, which yields the same result.)

    Returns ``(sub_providers, sub_silent, inverses)``: one shared table of
    read-only boolean matrices of shape ``(n_subpatterns, n_sources)`` --
    full source width, each row zero outside the cluster it came from --
    plus one inverse index per cluster, in cluster order, mapping every
    input pattern to its restriction's row (``values[inverses[c]]``
    scatters per-sub-pattern results back to patterns for cluster ``c``).
    """
    provider_matrix = np.asarray(provider_matrix, dtype=bool)
    silent_matrix = np.asarray(silent_matrix, dtype=bool)
    if provider_matrix.shape != silent_matrix.shape or provider_matrix.ndim != 2:
        raise ValueError(
            f"provider {provider_matrix.shape} and silent {silent_matrix.shape} "
            "must be equal-shape 2-D arrays"
        )
    n_patterns, n_sources = provider_matrix.shape
    masks = np.zeros((len(clusters), n_sources), dtype=bool)
    for mask, cluster in zip(masks, clusters):
        members = np.fromiter((int(i) for i in cluster), dtype=np.intp)
        if members.size and not (
            0 <= members.min() and members.max() < n_sources
        ):
            raise ValueError(
                f"member ids {sorted(members.tolist())} out of range for "
                f"{n_sources} sources"
            )
        mask[members] = True
    words = packed_pattern_rows(provider_matrix, silent_matrix)
    mask_words = packed_pattern_rows(masks, masks)
    if n_patterns == 0 or not len(clusters):
        first_index = np.zeros(0, dtype=np.intp)
        inverse = np.zeros(len(clusters) * n_patterns, dtype=np.intp)
    else:
        first_index, inverse = _stacked_unique_rows(words, mask_words)
    cluster_of, pattern_of = np.divmod(first_index, max(n_patterns, 1))
    sub_providers = provider_matrix[pattern_of] & masks[cluster_of]
    sub_silent = silent_matrix[pattern_of] & masks[cluster_of]
    sub_providers.setflags(write=False)
    sub_silent.setflags(write=False)
    return (
        sub_providers,
        sub_silent,
        list(inverse.reshape(len(clusters), n_patterns)),
    )


def _stacked_unique_rows(
    words: np.ndarray, mask_words: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`unique_rows` of ``words & mask`` stacked over every mask row.

    Clusters are restricted and sorted in blocks of at most
    :data:`RESTRICT_BLOCK_WORDS` words.  With more than one block, a second
    sort over the blocks' distinct rows merges them: it keeps rows in
    lexicographic order, and since each block reports a row's first
    occurrence within it and blocks come in cluster order, the merged first
    indices are the first occurrences in the whole stack.
    """
    n_patterns = words.shape[0]
    per_block = max(1, RESTRICT_BLOCK_WORDS // words.size)
    firsts: list[np.ndarray] = []
    inverses: list[np.ndarray] = []
    rows: list[np.ndarray] = []
    n_distinct = 0
    for start in range(0, mask_words.shape[0], per_block):
        block = mask_words[start : start + per_block, None, :] & words
        block = block.reshape(-1, words.shape[1])
        first, inverse = unique_rows(block)
        firsts.append(first + start * n_patterns)
        inverses.append(inverse + n_distinct)
        rows.append(block[first])
        n_distinct += first.shape[0]
    if len(firsts) == 1:
        return firsts[0], inverses[0]
    merged_first, merged_inverse = unique_rows(np.concatenate(rows))
    return (
        np.concatenate(firsts)[merged_first],
        merged_inverse[np.concatenate(inverses)],
    )
