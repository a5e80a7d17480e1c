"""Bit-packed boolean rows with vectorized popcount (the engine's base layer).

The correlation machinery keeps asking one kind of question: "how many
triples does this subset of sources jointly provide / cover, and how many of
those are labelled true?"  Answering it with full-width boolean masks costs
``O(n_triples)`` bytes per query; packing each source's row into ``uint64``
words makes the same intersection a word-wise AND over ``n_triples / 64``
words followed by a popcount -- the standard bit-level representation used
for subset-intersection statistics at scale (cf. correlation sketches).
Many subsets are intersected at once by :meth:`PackedMatrix.and_reduce_batch`,
in one pass per member slot of the widest subset.

:class:`PackedMatrix` is the only class here; everything downstream
(:mod:`repro.core.patterns`, :class:`repro.core.joint.EmpiricalJointModel`)
consumes it through :class:`repro.core.observations.ObservationMatrix`'s
``packed_provides`` / ``packed_coverage`` properties.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

#: Bits per packed word.
WORD_BITS = 64

if hasattr(np, "bitwise_count"):  # numpy >= 2.0

    def _word_popcounts(words: np.ndarray) -> np.ndarray:
        """Per-word set-bit counts (vectorized hardware popcount)."""
        return np.bitwise_count(words)

else:  # pragma: no cover - exercised only on numpy < 2.0
    _BYTE_POPCOUNT = np.array(
        [bin(value).count("1") for value in range(256)], dtype=np.uint64
    )

    def _word_popcounts(words: np.ndarray) -> np.ndarray:
        """Per-word set-bit counts via a byte lookup table."""
        as_bytes = np.ascontiguousarray(words).view(np.uint8)
        return _BYTE_POPCOUNT[as_bytes].reshape(*words.shape, 8).sum(axis=-1)


def pack_bool_rows(matrix: np.ndarray) -> np.ndarray:
    """Pack a 2-D boolean array into little-endian ``uint64`` words per row.

    The result has shape ``(n_rows, ceil(n_bits / 64))``; bit ``j`` of row
    ``i`` (counting from the least significant bit of the first word) is
    ``matrix[i, j]``.  Tail bits beyond ``n_bits`` are zero, so popcounts
    never see padding.
    """
    matrix = np.ascontiguousarray(matrix, dtype=bool)
    if matrix.ndim != 2:
        raise ValueError(f"expected a 2-D boolean array, got shape {matrix.shape}")
    n_rows, n_bits = matrix.shape
    n_words = max((n_bits + WORD_BITS - 1) // WORD_BITS, 1)
    as_bytes = np.packbits(matrix, axis=1, bitorder="little")
    padded = np.zeros((n_rows, n_words * 8), dtype=np.uint8)
    padded[:, : as_bytes.shape[1]] = as_bytes
    return padded.view(np.uint64)


def unpack_bool_rows(words: np.ndarray, n_bits: int) -> np.ndarray:
    """Inverse of :func:`pack_bool_rows`: the ``(n_rows, n_bits)`` booleans."""
    words = np.ascontiguousarray(words, dtype=np.uint64)
    as_bytes = words.view(np.uint8).reshape(words.shape[0], -1)
    return np.unpackbits(
        as_bytes, axis=1, count=n_bits, bitorder="little"
    ).view(bool)


def pack_bool_vector(vector: np.ndarray) -> np.ndarray:
    """Pack a 1-D boolean array into ``uint64`` words (shape ``(n_words,)``)."""
    vector = np.asarray(vector, dtype=bool)
    if vector.ndim != 1:
        raise ValueError(f"expected a 1-D boolean array, got shape {vector.shape}")
    return pack_bool_rows(vector[None, :])[0]


def popcount(words: np.ndarray) -> int:
    """Total number of set bits in an array of ``uint64`` words."""
    return int(_word_popcounts(words).sum())


def popcount_rows(words: np.ndarray) -> np.ndarray:
    """Set-bit count per row of a 2-D ``uint64`` word array."""
    return _word_popcounts(words).sum(axis=1).astype(np.int64)


class PackedMatrix:
    """Read-only bit-packed view of a boolean matrix, one bit row per row.

    The workhorse methods answer subset-intersection counting queries:
    :meth:`and_reduce` ANDs a set of rows into one word vector and
    :meth:`count` / :meth:`count_with` popcount the result, optionally
    through an extra word-mask (e.g. the packed truth labels).
    """

    __slots__ = ("_words", "_n_bits", "_full")

    def __init__(self, words: np.ndarray, n_bits: int) -> None:
        words = np.asarray(words, dtype=np.uint64)
        if words.ndim != 2:
            raise ValueError(f"words must be 2-D, got shape {words.shape}")
        if n_bits > words.shape[1] * WORD_BITS:
            raise ValueError(
                f"{n_bits} bits do not fit in {words.shape[1]} words per row"
            )
        self._words = words
        self._words.setflags(write=False)
        self._n_bits = int(n_bits)
        self._full = None  # lazily built all-ones row with the tail masked

    @classmethod
    def from_bool(cls, matrix: np.ndarray) -> "PackedMatrix":
        """Pack a 2-D boolean array."""
        matrix = np.asarray(matrix, dtype=bool)
        return cls(pack_bool_rows(matrix), matrix.shape[1])

    # -- shape ---------------------------------------------------------

    @property
    def n_rows(self) -> int:
        return self._words.shape[0]

    @property
    def n_bits(self) -> int:
        """Logical row width (number of matrix columns)."""
        return self._n_bits

    @property
    def n_words(self) -> int:
        return self._words.shape[1]

    @property
    def words(self) -> np.ndarray:
        """The packed words, shape ``(n_rows, n_words)``, read-only."""
        return self._words

    # -- queries -------------------------------------------------------

    def full_row(self) -> np.ndarray:
        """All-ones word vector with tail padding cleared (the empty-subset
        intersection, matching the ``r_empty = q_empty = 1`` convention)."""
        if self._full is None:
            ones = np.ones(self._n_bits, dtype=bool)
            full = pack_bool_rows(ones[None, :])[0]
            full.setflags(write=False)
            self._full = full
        return self._full

    def and_reduce(self, row_ids: Sequence[int]) -> np.ndarray:
        """Word-wise AND of the given rows; the empty set yields all ones."""
        ids = np.asarray(list(row_ids), dtype=int)
        if ids.size == 0:
            return self.full_row().copy()
        if ids.size == 1:
            return self._words[ids[0]].copy()
        return np.bitwise_and.reduce(self._words[ids], axis=0)

    def count(self, row_ids: Sequence[int]) -> int:
        """Number of columns set in every given row (``|intersection|``)."""
        return popcount(self.and_reduce(row_ids))

    def count_with(self, row_ids: Sequence[int], mask_words: np.ndarray) -> int:
        """Like :meth:`count`, further intersected with a packed mask."""
        return popcount(self.and_reduce(row_ids) & mask_words)

    def row_counts(self) -> np.ndarray:
        """Set-bit count of every row, shape ``(n_rows,)``."""
        return popcount_rows(self._words)

    def and_reduce_batch(self, subsets: np.ndarray) -> np.ndarray:
        """Intersection words for *many* subsets at once.

        ``subsets`` is boolean with shape ``(n_subsets, n_rows)``; the result
        has shape ``(n_subsets, n_words)`` where row ``s`` is the word-wise
        AND of the packed rows selected by ``subsets[s]`` (all-ones for an
        empty selection).

        One pass per *member slot*, so a batch costs as many passes as its
        widest subset, however many matrix rows the batch selects in all.
        The subsets are restricted to the columns some subset selects (a
        correlation cluster names a handful of sources, and the others are
        never read) and ordered by size, largest first and stably; slot
        ``j`` then ANDs each subset's ``j``-th member row into the prefix of
        subsets with more than ``j`` members, and the rows are scattered
        back to input order.  AND is exact and order-free, so the words
        equal a per-subset :meth:`and_reduce`.
        """
        subsets = np.asarray(subsets, dtype=bool)
        if subsets.ndim != 2 or subsets.shape[1] != self.n_rows:
            raise ValueError(
                f"subsets shape {subsets.shape} != (n_subsets, {self.n_rows})"
            )
        used = np.flatnonzero(subsets.any(axis=0))
        restricted = subsets[:, used]
        sizes = restricted.sum(axis=1)
        order = np.argsort(-sizes, kind="stable")
        sizes = sizes[order]
        # Row-major nonzero: each subset's members, ascending, in size order.
        members = used[np.nonzero(restricted[order])[1]]
        starts = np.cumsum(sizes) - sizes
        width = int(sizes[0]) if sizes.size else 0
        # prefix[j]: the number of subsets with more than j members.
        prefix = np.searchsorted(-sizes, -np.arange(width), side="left")
        ordered = np.empty((subsets.shape[0], self.n_words), dtype=np.uint64)
        ordered[int(prefix[0]) if width else 0 :] = self.full_row()
        for slot, count in enumerate(prefix.tolist()):
            rows = self._words[members[starts[:count] + slot]]
            if slot:
                ordered[:count] &= rows
            else:
                ordered[:count] = rows
        out = np.empty_like(ordered)
        out[order] = ordered
        return out

    def __repr__(self) -> str:
        return (
            f"PackedMatrix(n_rows={self.n_rows}, n_bits={self.n_bits}, "
            f"n_words={self.n_words})"
        )
