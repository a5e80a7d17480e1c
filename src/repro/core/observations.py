"""The source-observation matrix: who claims what.

This is the single input structure every fusion algorithm consumes.  It
records, for ``n`` sources and ``m`` triples, the boolean fact
``provides[i, j] = (S_i |= t_j)`` together with an optional *coverage* mask
implementing the paper's scope rule: the observation set ``Ot`` for a triple
``t`` "contains the observation that a source S_i does not provide t only if
S_i provides other data in the domain of t" (Section 2.1).

Nothing here knows about truth labels; gold standards live alongside the
matrix in :class:`repro.data.model.FusionDataset`.
"""

from __future__ import annotations

import weakref
from typing import TYPE_CHECKING, Iterable, Mapping, Optional, Sequence

import numpy as np

from repro.core.bitset import PackedMatrix
from repro.core.triples import Triple, TripleIndex

if TYPE_CHECKING:
    from repro.core.patterns import PatternSet


class ObservationMatrix:
    """Dense boolean sources-by-triples observation matrix.

    Parameters
    ----------
    provides:
        Boolean array of shape ``(n_sources, n_triples)``;
        ``provides[i, j]`` is true iff source ``i`` outputs triple ``j``.
    source_names:
        Names for the rows, unique, in row order.
    triple_index:
        Optional :class:`TripleIndex` giving meaning to the columns.  Purely
        synthetic workloads may omit it and refer to triples by id.
    coverage:
        Optional boolean array, same shape, where ``coverage[i, j]`` is true
        iff source ``i``'s scope includes triple ``j``'s domain.  A source
        counts as a *non-provider* of ``t_j`` only where it covers ``t_j``
        but does not provide it.  Defaults to full coverage, the behaviour
        used throughout the paper's main-text examples.
    """

    def __init__(
        self,
        provides: np.ndarray,
        source_names: Sequence[str],
        triple_index: Optional[TripleIndex] = None,
        coverage: Optional[np.ndarray] = None,
    ) -> None:
        provides = np.asarray(provides, dtype=bool)
        if provides.ndim != 2:
            raise ValueError(f"provides must be 2-D, got shape {provides.shape}")
        n_sources, n_triples = provides.shape
        if len(source_names) != n_sources:
            raise ValueError(
                f"{len(source_names)} source names for {n_sources} matrix rows"
            )
        if len(set(source_names)) != len(source_names):
            raise ValueError("source names must be unique")
        if triple_index is not None and len(triple_index) != n_triples:
            raise ValueError(
                f"triple index has {len(triple_index)} entries for "
                f"{n_triples} matrix columns"
            )
        if coverage is None:
            coverage = np.ones_like(provides, dtype=bool)
        else:
            coverage = np.asarray(coverage, dtype=bool)
            if coverage.shape != provides.shape:
                raise ValueError(
                    f"coverage shape {coverage.shape} != provides shape {provides.shape}"
                )
            if np.any(provides & ~coverage):
                raise ValueError(
                    "a source provides a triple outside its declared coverage"
                )
        self._provides = provides
        self._provides.setflags(write=False)
        self._coverage = coverage
        self._coverage.setflags(write=False)
        self._source_names = tuple(str(name) for name in source_names)
        self._source_ids = {name: i for i, name in enumerate(self._source_names)}
        self._triple_index = triple_index
        # Lazy caches for the vectorized engine; safe because the matrix is
        # immutable (both arrays are write-locked above).
        self._packed_provides: Optional[PackedMatrix] = None
        self._packed_coverage: Optional[PackedMatrix] = None
        self._patterns = None
        # The last diff against a predecessor, written only by
        # repro.core.deltas.dirty_columns: (weak reference to the
        # predecessor, its read-only dirty column ids).  One tuple swapped
        # by single assignment, so a racing reader sees a whole pair; the
        # weak reference keeps a long stream from chaining its matrices.
        self._diff_memo: Optional[
            tuple[weakref.ref[ObservationMatrix], np.ndarray]
        ] = None

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------

    @classmethod
    def from_source_outputs(
        cls,
        outputs: Mapping[str, Iterable[Triple]],
        scopes: Optional[Mapping[str, Iterable[str]]] = None,
    ) -> "ObservationMatrix":
        """Build a matrix from per-source triple collections.

        ``outputs`` maps each source name to the triples it provides (the
        paper's ``O_i`` sets).  ``scopes`` optionally maps a source name to
        the set of domains it covers; omitted sources cover every domain
        observed in the data.
        """
        index = TripleIndex()
        for source_triples in outputs.values():
            for triple in source_triples:
                index.add(triple)
        names = list(outputs.keys())
        provides = np.zeros((len(names), len(index)), dtype=bool)
        for row, name in enumerate(names):
            for triple in outputs[name]:
                provides[row, index.id_of(triple)] = True
        coverage = None
        if scopes is not None:
            coverage = np.ones_like(provides, dtype=bool)
            domains = np.array([t.domain for t in index], dtype=object)
            for row, name in enumerate(names):
                if name in scopes:
                    covered = set(scopes[name])
                    coverage[row, :] = np.array(
                        [d in covered for d in domains], dtype=bool
                    )
            coverage |= provides  # providing a triple implies covering it
        return cls(provides, names, triple_index=index, coverage=coverage)

    # ------------------------------------------------------------------
    # Shape and identity
    # ------------------------------------------------------------------

    @property
    def n_sources(self) -> int:
        return self._provides.shape[0]

    @property
    def n_triples(self) -> int:
        return self._provides.shape[1]

    @property
    def source_names(self) -> tuple[str, ...]:
        return self._source_names

    @property
    def triple_index(self) -> Optional[TripleIndex]:
        return self._triple_index

    def source_id(self, name: str) -> int:
        """Row index of the source called ``name``."""
        return self._source_ids[name]

    # ------------------------------------------------------------------
    # Raw views (read-only)
    # ------------------------------------------------------------------

    @property
    def provides(self) -> np.ndarray:
        """The full boolean matrix ``(n_sources, n_triples)``, read-only."""
        return self._provides

    @property
    def coverage(self) -> np.ndarray:
        """The coverage mask, read-only; all-true when scopes were not given."""
        return self._coverage

    @property
    def has_partial_coverage(self) -> bool:
        """Whether any source declares less than full coverage."""
        return not bool(self._coverage.all())

    # ------------------------------------------------------------------
    # Bit-packed views and observation patterns (the vectorized engine)
    # ------------------------------------------------------------------

    @property
    def packed_provides(self) -> PackedMatrix:
        """``provides`` packed into uint64 words, one bit row per source.

        Built lazily and cached; subset-intersection counts against this
        view cost a word-wise AND plus a popcount instead of a full-width
        boolean reduction.
        """
        if self._packed_provides is None:
            self._packed_provides = PackedMatrix.from_bool(self._provides)
        return self._packed_provides

    @property
    def packed_coverage(self) -> PackedMatrix:
        """``coverage`` packed into uint64 words (see :attr:`packed_provides`)."""
        if self._packed_coverage is None:
            self._packed_coverage = PackedMatrix.from_bool(self._coverage)
        return self._packed_coverage

    def _adopt_packed_coverage(self, previous: "ObservationMatrix") -> None:
        """Share ``previous``'s packed coverage if it holds our coverage array.

        Both arrays are write-locked, so one array object means one set of
        words; a matrix built on its predecessor's coverage (a stream
        step) then never packs it again.  An equal but distinct array is
        left to pack lazily.
        """
        if (
            previous._coverage is self._coverage
            and self._packed_coverage is None
        ):
            self._packed_coverage = previous._packed_coverage

    def patterns(self) -> "PatternSet":
        """The distinct ``(providers, silent)`` observation patterns.

        Returns a cached :class:`repro.core.patterns.PatternSet`; model-based
        fusers score each distinct pattern once and scatter the results back
        through its inverse index.
        """
        if self._patterns is None:
            from repro.core.patterns import extract_patterns

            self._patterns = extract_patterns(self._provides, self._coverage)
        return self._patterns

    # ------------------------------------------------------------------
    # Per-triple and per-source queries
    # ------------------------------------------------------------------

    def providers_of(self, triple_id: int) -> np.ndarray:
        """Ids of sources that provide triple ``triple_id`` (the set St)."""
        return np.flatnonzero(self._provides[:, triple_id])

    def silent_covering_sources(self, triple_id: int) -> np.ndarray:
        """Ids of sources that *cover* the triple but do not provide it.

        This is the paper's ``St-bar`` restricted by scope: only these
        sources' silence is evidence against the triple.
        """
        column = self._provides[:, triple_id]
        covered = self._coverage[:, triple_id]
        return np.flatnonzero(covered & ~column)

    def output_size(self, source_id: int) -> int:
        """Number of triples provided by ``source_id`` (``|O_i|``)."""
        return int(self._provides[source_id].sum())

    def support_counts(self) -> np.ndarray:
        """Number of providers per triple, shape ``(n_triples,)``."""
        return self._provides.sum(axis=0)

    def restricted_to_sources(
        self,
        source_ids: Sequence[int],
        prune_empty_triples: bool = False,
    ) -> "ObservationMatrix":
        """A new matrix containing only the given source rows.

        A convenience for carving per-cluster sub-problems out
        of a wide matrix (the clustered fuser itself restricts *patterns*
        via :func:`repro.core.patterns.restricted_unique_patterns` instead).
        With ``prune_empty_triples`` the result also drops the columns no
        kept source provides, so sub-problems do not carry dead columns
        (and dead patterns) through the engine.
        """
        ids = list(source_ids)
        restricted = ObservationMatrix(
            self._provides[ids, :].copy(),
            [self._source_names[i] for i in ids],
            triple_index=self._triple_index,
            coverage=self._coverage[ids, :].copy(),
        )
        if prune_empty_triples:
            return restricted.restricted_to_triples(
                restricted.provides.any(axis=0)
            )
        return restricted

    def restricted_to_triples(self, triple_mask: np.ndarray) -> "ObservationMatrix":
        """A new matrix containing only columns where ``triple_mask`` is true.

        When the matrix carries a triple index, a fresh index over the kept
        triples (in their new column order) is attached to the result.
        """
        mask = np.asarray(triple_mask, dtype=bool)
        if mask.shape != (self.n_triples,):
            raise ValueError(
                f"triple mask shape {mask.shape} != ({self.n_triples},)"
            )
        new_index = None
        if self._triple_index is not None:
            kept = (self._triple_index[int(j)] for j in np.flatnonzero(mask))
            new_index = TripleIndex(kept)
        return ObservationMatrix(
            self._provides[:, mask].copy(),
            self._source_names,
            triple_index=new_index,
            coverage=self._coverage[:, mask].copy(),
        )

    def __repr__(self) -> str:
        return (
            f"ObservationMatrix(n_sources={self.n_sources}, "
            f"n_triples={self.n_triples}, "
            f"partial_coverage={self.has_partial_coverage})"
        )
