"""Unique observation patterns of a matrix (the engine's dedup layer).

Two triples with the same provider set and the same silent-covering set
necessarily receive the same score from every model-based fuser -- the
likelihood ratio ``mu`` depends on the observation *pattern*, not the triple.
A per-triple scoring loop exploits this only through memoisation: it still
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

import itertools
from dataclasses import dataclass, field
from typing import Iterable, Literal, Optional, Sequence, Union, overload

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
    packed_rows:
        :func:`packed_pattern_rows` of the two matrices when
        :func:`extract_patterns` built them for its dedup (the delta memo
        keys patterns by these rows), else ``None``.
    """

    provider_matrix: np.ndarray
    silent_matrix: np.ndarray
    inverse: np.ndarray
    counts: np.ndarray
    packed_rows: Optional[np.ndarray] = field(
        default=None, repr=False, compare=False
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
    packed_rows = combined[first_index]
    for array in (provider_matrix, silent_matrix, packed_rows):
        array.setflags(write=False)
    counts = np.bincount(inverse, minlength=first_index.shape[0])
    return PatternSet(
        provider_matrix=provider_matrix,
        silent_matrix=silent_matrix,
        inverse=inverse,
        counts=counts,
        packed_rows=packed_rows,
    )


#: Upper bound on the ``uint64`` words the masked-word path of
#: :func:`restricted_unique_patterns` stacks before it deduplicates
#: (32 MiB).  Wide inputs with many clusters are restricted in cluster
#: blocks of at most this size and the blocks' distinct rows merged by a
#: second sort, so memory stays bounded without changing the result.
RESTRICT_BLOCK_WORDS = 1 << 22

#: Widest cluster whose restriction fits one 64-bit integer code: a
#: ``k``-member cluster's code takes ``2k`` bits (a provider and a silent
#: bit per member) above the cluster's offset in the shared key space.
CODE_MAX_MEMBERS = 31

#: Key spaces up to this size are deduplicated through a dense table
#: indexed by key; larger ones with one ``np.unique`` sort.
DENSE_KEY_SPACE = 1 << 16


class RestrictionTable:
    """The per-cluster tables :func:`restricted_unique_patterns` runs on.

    Built once per group of clusters (the clustered fuser builds one per
    evaluator at construction), so a request neither re-validates member
    ids nor rebuilds masks.  ``masks`` / ``mask_words`` are the clusters'
    boolean and packed ``[provider | silent]`` masks.  When every cluster
    has at most :data:`CODE_MAX_MEMBERS` members and the clusters' key
    ranges fit ``int64``, the table also holds the integer-code layout:
    cluster ``c``'s restriction of a pattern is the key ``offset_c +
    provider_bits + (silent_bits << k_c)``, where bit ``j`` of each half is
    the cluster's ``j``-th smallest member.  :meth:`keys` builds them with
    one gather and one shift of every member's provider and silent rows,
    then two adds per member slot; clusters are sorted by size, so every
    slot's clusters form a prefix.  Codes use the narrowest unsigned type
    that holds ``2k`` bits, and ``key_space`` is the size of the shared
    key range.  :meth:`unique_keys` deduplicates the keys and
    :meth:`decode` splits them back into cluster-local codes.  A coded
    table also numbers the subsets of its clusters in ``range(subset_space)``
    (:meth:`subset_ids`), and :meth:`subset_rows` turns ids back into
    boolean source rows.  Wider groups take the masked-word path
    (``coded`` is ``False``).
    """

    __slots__ = (
        "n_sources", "masks", "mask_words", "coded", "key_space",
        "subset_space", "widest", "_rows", "_shifts", "_slot_counts",
        "_unsort", "_offsets", "_sizes", "_members", "_subset_offsets",
    )

    def __init__(
        self, clusters: Sequence[Iterable[int]], n_sources: int
    ) -> None:
        self.n_sources = int(n_sources)
        member_lists = [[int(i) for i in cluster] for cluster in clusters]
        ids = np.fromiter(
            itertools.chain.from_iterable(member_lists), dtype=np.intp
        )
        if ids.size and not (0 <= ids.min() and ids.max() < n_sources):
            for members in member_lists:
                if not all(0 <= i < n_sources for i in members):
                    raise ValueError(
                        f"member ids {sorted(members)} out of range for "
                        f"{n_sources} sources"
                    )
        masks = np.zeros((len(member_lists), n_sources), dtype=bool)
        owner = np.repeat(
            np.arange(len(member_lists)), [len(m) for m in member_lists]
        )
        masks[owner, ids] = True
        masks.setflags(write=False)
        self.masks = masks
        self.mask_words = packed_pattern_rows(masks, masks)
        sizes = masks.sum(axis=1)
        spans = [4 ** size for size in sizes.tolist()]
        offsets = [0, *itertools.accumulate(spans)]
        widest = int(sizes.max(initial=0))
        self.coded = widest <= CODE_MAX_MEMBERS and offsets[-1] < 2**63
        if not self.coded:
            return
        # Members slot by slot: slot j lists the j-th smallest member of
        # every cluster with more than j members, clusters by size
        # (descending, stable), so each slot's clusters are a prefix.
        # Provider rows come first, then the same ids as silent rows.
        order = np.argsort(-sizes, kind="stable")
        cluster_pos, member = np.nonzero(masks[order])
        slot = np.arange(member.size) - np.repeat(
            np.cumsum(sizes[order]) - sizes[order], sizes[order]
        )
        # Each cluster's members ascending, padded to the widest.
        members = np.zeros((len(member_lists), widest), dtype=np.intp)
        members[order[cluster_pos], slot] = member
        by_slot = np.lexsort((cluster_pos, slot))
        member = member[by_slot]
        slot = slot[by_slot]
        width = sizes[order][cluster_pos[by_slot]]
        code_type = np.min_scalar_type((1 << 2 * widest) - 1)
        self._rows = np.concatenate([member, member + n_sources])
        self._shifts = np.concatenate([slot, width + slot]).astype(code_type)
        self._slot_counts = np.bincount(slot, minlength=widest).tolist()
        self._unsort = np.argsort(order)
        self._offsets = np.array(offsets[:-1], dtype=np.int64)
        self.key_space = offsets[-1]
        # Cluster-local layout: the members behind each code bit, and
        # where each cluster's subset ids begin (see subset_ids).
        self.widest = widest
        self._sizes = sizes.astype(np.int64)
        self._members = members
        subset_offsets = np.zeros(len(member_lists) + 1, dtype=np.int64)
        np.cumsum(np.left_shift(1, self._sizes) - 1, out=subset_offsets[1:])
        self._subset_offsets = subset_offsets[:-1]
        self.subset_space = int(subset_offsets[-1]) + 1

    @property
    def n_clusters(self) -> int:
        return self.masks.shape[0]

    def keys(
        self, provider_matrix: np.ndarray, silent_matrix: np.ndarray
    ) -> np.ndarray:
        """``(n_clusters, n_patterns)`` int64 restriction keys (coded only).

        Two patterns restrict to the same sub-pattern of cluster ``c`` iff
        their keys in row ``c`` are equal, and keys of different clusters
        never collide.
        """
        both = np.concatenate([provider_matrix.T, silent_matrix.T])
        code_type = self._shifts.dtype
        bits = np.left_shift(
            both[self._rows], self._shifts[:, None], dtype=code_type
        )
        half = bits.shape[0] // 2
        provider_bits, silent_bits = bits[:half], bits[half:]
        codes = np.zeros((len(self._unsort), both.shape[1]), dtype=code_type)
        position = 0
        for count in self._slot_counts:
            end = position + count
            codes[:count] += provider_bits[position:end]
            codes[:count] += silent_bits[position:end]
            position = end
        return codes[self._unsort].astype(np.int64) + self._offsets[:, None]

    def unique_keys(
        self, provider_matrix: np.ndarray, silent_matrix: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Distinct restriction keys, ascending, and where each one lands.

        Returns ``(keys, inverse)``: ``inverse[c, p]`` is the position in
        ``keys`` of pattern ``p``'s restriction to cluster ``c`` (coded
        only).
        """
        keys = self.keys(provider_matrix, silent_matrix)
        distinct, inverse = unique_codes(keys.reshape(-1), self.key_space)
        return distinct, inverse.reshape(keys.shape)

    def decode(
        self, keys: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(cluster, provider code, silent code)`` of each key (coded only).

        The codes are cluster-local: bit ``j`` stands for the cluster's
        ``j``-th smallest member.
        """
        cluster = np.searchsorted(self._offsets, keys, side="right") - 1
        local = keys - self._offsets[cluster]
        width = self._sizes[cluster]
        return cluster, local & (np.left_shift(1, width) - 1), local >> width

    def subset_ids(self, cluster: np.ndarray, codes: np.ndarray) -> np.ndarray:
        """Ids of cluster-local subset codes (coded only).

        The non-empty subsets of cluster ``c`` take the ids after the
        ``2^k - 1`` of each earlier cluster, in code order, and the empty
        subset of every cluster is id 0, so equal sets share an id there
        too.
        """
        return np.where(codes > 0, codes + self._subset_offsets[cluster], 0)

    def subset_rows(self, ids: np.ndarray) -> np.ndarray:
        """Boolean ``(len(ids), n_sources)`` member rows of subset ids."""
        cluster = np.maximum(
            np.searchsorted(self._subset_offsets, ids, side="left") - 1, 0
        )
        codes = ids - self._subset_offsets[cluster]
        row, slot = np.nonzero(
            np.right_shift.outer(codes, np.arange(self.widest)) & 1
        )
        rows = np.zeros((ids.shape[0], self.n_sources), dtype=bool)
        rows[row, self._members[cluster[row], slot]] = True
        return rows


def unique_codes(
    codes: np.ndarray, space: int
) -> tuple[np.ndarray, np.ndarray]:
    """Distinct values of 1-D integer ``codes`` in ``range(space)``.

    Returns ``(distinct, inverse)``: the distinct codes, ascending, as
    ``int64``, and each input code's position among them.  Spaces up to
    :data:`DENSE_KEY_SPACE` are deduplicated through a dense presence
    table indexed by code, larger ones with one ``np.unique`` sort.
    """
    if space <= DENSE_KEY_SPACE:
        seen = np.zeros(space, dtype=bool)
        seen[codes] = True
        distinct = np.flatnonzero(seen)
        rank = np.empty(space, dtype=np.intp)
        rank[distinct] = np.arange(distinct.size)
        return distinct.astype(np.int64, copy=False), rank[codes]
    distinct, inverse = np.unique(codes, return_inverse=True)
    return distinct, inverse.reshape(-1)


#: A coded restriction's distinct keys, ascending, and each key's row in
#: the shared sub-pattern table.
RestrictionKeys = tuple[np.ndarray, np.ndarray]


@overload
def restricted_unique_patterns(
    provider_matrix: np.ndarray,
    silent_matrix: np.ndarray,
    clusters: Union[RestrictionTable, Sequence[Iterable[int]]],
    return_keys: Literal[False] = ...,
) -> tuple[np.ndarray, np.ndarray, list[np.ndarray]]: ...


@overload
def restricted_unique_patterns(
    provider_matrix: np.ndarray,
    silent_matrix: np.ndarray,
    clusters: Union[RestrictionTable, Sequence[Iterable[int]]],
    return_keys: Literal[True],
) -> tuple[
    np.ndarray, np.ndarray, list[np.ndarray], Optional[RestrictionKeys]
]: ...


def restricted_unique_patterns(
    provider_matrix: np.ndarray,
    silent_matrix: np.ndarray,
    clusters: Union[RestrictionTable, Sequence[Iterable[int]]],
    return_keys: bool = False,
) -> Union[
    tuple[np.ndarray, np.ndarray, list[np.ndarray]],
    tuple[
        np.ndarray, np.ndarray, list[np.ndarray], Optional[RestrictionKeys]
    ],
]:
    """Distinct sub-patterns after restricting patterns to each cluster.

    The clustered fuser's decomposition step: restricting global observation
    patterns to a correlation cluster (``providers & cluster``,
    ``silent & cluster``) collapses many global patterns onto the same
    cluster-local sub-pattern, so an evaluator only needs to score the
    distinct restrictions.  All clusters one evaluator serves are handled in
    one pass whose result equals one :func:`unique_rows` sort of every
    cluster's restricted ``[provider | silent]`` words, stacked in cluster
    order -- i.e. ``np.unique(stacked, axis=0, return_index=True,
    return_inverse=True)``.  ``clusters`` is a :class:`RestrictionTable`
    (built once and reused) or a sequence of member-id collections.

    On a coded table every (cluster, pattern) restriction becomes one
    integer key (:meth:`RestrictionTable.keys`); the keys are deduplicated
    in one 1-D pass (a dense seen-table for key spaces up to
    :data:`DENSE_KEY_SPACE`, else ``np.unique``), and one small
    :func:`unique_rows` over the distinct restricted rows merges equal rows
    of different clusters into lexicographic word order.  Otherwise each
    cluster's restriction is a word-AND of the packed pattern words with
    its mask, and the stack is sorted in blocks of at most
    :data:`RESTRICT_BLOCK_WORDS` words whose distinct rows a second sort
    merges.  Both paths give the same result.

    Returns ``(sub_providers, sub_silent, inverses)``: one shared table of
    read-only boolean matrices of shape ``(n_subpatterns, n_sources)`` --
    full source width, each row zero outside the cluster it came from --
    plus one inverse index per cluster, in cluster order, mapping every
    input pattern to its restriction's row (``values[inverses[c]]``
    scatters per-sub-pattern results back to patterns for cluster ``c``).
    With ``return_keys`` a fourth item follows: on a coded table the
    distinct restriction keys the dedup already found, ascending, with
    each key's row in the shared table (:data:`RestrictionKeys`); ``None``
    on the masked-word path, which has no keys, and for empty input.
    """
    provider_matrix = np.asarray(provider_matrix, dtype=bool)
    silent_matrix = np.asarray(silent_matrix, dtype=bool)
    if provider_matrix.shape != silent_matrix.shape or provider_matrix.ndim != 2:
        raise ValueError(
            f"provider {provider_matrix.shape} and silent {silent_matrix.shape} "
            "must be equal-shape 2-D arrays"
        )
    n_patterns, n_sources = provider_matrix.shape
    if isinstance(clusters, RestrictionTable):
        table = clusters
        if table.n_sources != n_sources:
            raise ValueError(
                f"restriction table for {table.n_sources} sources applied to "
                f"{n_sources}-source patterns"
            )
    else:
        table = RestrictionTable(clusters, n_sources)
    n_clusters = table.n_clusters
    restriction_keys: Optional[RestrictionKeys] = None
    if n_patterns == 0 or n_clusters == 0:
        first_index = np.zeros(0, dtype=np.intp)
        inverse = np.zeros(n_clusters * n_patterns, dtype=np.intp)
    elif table.coded:
        first_index, inverse, restriction_keys = _coded_unique_rows(
            table, provider_matrix, silent_matrix
        )
    else:
        first_index, inverse = _stacked_unique_rows(
            packed_pattern_rows(provider_matrix, silent_matrix),
            table.mask_words,
        )
    cluster_of, pattern_of = np.divmod(first_index, max(n_patterns, 1))
    sub_providers = provider_matrix[pattern_of] & table.masks[cluster_of]
    sub_silent = silent_matrix[pattern_of] & table.masks[cluster_of]
    sub_providers.setflags(write=False)
    sub_silent.setflags(write=False)
    inverses = list(inverse.reshape(n_clusters, n_patterns))
    if return_keys:
        return sub_providers, sub_silent, inverses, restriction_keys
    return sub_providers, sub_silent, inverses


def _coded_unique_rows(
    table: RestrictionTable,
    provider_matrix: np.ndarray,
    silent_matrix: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, RestrictionKeys]:
    """``(representative, inverse, keys)`` of the stacked restrictions.

    ``representative[d]`` is a stacked index (``cluster * n_patterns +
    pattern``) of some occurrence of distinct row ``d``; rows are numbered
    in lexicographic word order like :func:`_stacked_unique_rows`, which
    fixes the row *contents* and ``inverse`` (not which occurrence
    represents a row).  ``keys`` are the distinct keys, ascending, and
    their rows.
    """
    n_patterns = provider_matrix.shape[0]
    distinct, key_inverse = table.unique_keys(provider_matrix, silent_matrix)
    key_inverse = key_inverse.reshape(-1)
    representative = np.empty(distinct.size, dtype=np.intp)
    representative[key_inverse] = np.arange(key_inverse.size)
    cluster_of, pattern_of = np.divmod(representative, n_patterns)
    words = packed_pattern_rows(
        provider_matrix[pattern_of], silent_matrix[pattern_of]
    )
    words &= table.mask_words[cluster_of]
    first, row_inverse = unique_rows(words)
    return (
        representative[first],
        row_inverse[key_inverse],
        (distinct, row_inverse),
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
