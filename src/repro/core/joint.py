"""Joint source quality and correlation factors (Sections 2.2 and 4.2).

Correlation between sources is captured non-parametrically by the *joint*
precision and recall of source subsets:

    p_{S*} = Pr(t | S* |= t)        joint precision     (Eq. 3)
    r_{S*} = Pr(S* |= t | t)        joint recall        (Eq. 4)

with the joint false-positive rate ``q_{S*}`` derived from ``p_{S*}`` and
``r_{S*}`` by the same Theorem 3.5 formula used for single sources.  From
these the paper defines correlation factors

    C_{S*}  = r_{S*} / prod_i r_i   (Eq. 16; >1 positive, <1 negative)
    C!_{S*} = q_{S*} / prod_i q_i   (Eq. 17)

and the per-source *aggressive* factors over a universe ``S``

    C+_i = r_S / (r_i * r_{S \\ i})  (Eq. 14)
    C-_i = q_S / (q_i * q_{S \\ i})  (Eq. 15)

This module provides two implementations behind one interface:

- :class:`EmpiricalJointModel` measures every joint parameter from labelled
  training data (with optional Laplace smoothing), memoising by subset;
- :class:`ExplicitJointModel` serves parameters supplied directly (used by
  the paper's worked examples and by tests), falling back to independence
  products for unspecified subsets.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING, Iterable, Mapping, Optional, Sequence

import numpy as np

from repro.core.bitset import (
    WORD_BITS,
    PackedMatrix,
    pack_bool_vector,
    popcount,
    popcount_rows,
)
from repro.core.observations import ObservationMatrix

if TYPE_CHECKING:  # deltas imports joint at runtime; annotation-only here
    from repro.core.deltas import WordDiff
from repro.core.quality import (
    SourceQuality,
    rates_from_counts,
    smoothed_ratios,
    source_counts,
    source_rates_from_counts,
)
from repro.util.probability import safe_divide
from repro.util.validation import (
    check_fraction,
    check_non_negative,
    check_probability,
)

SubsetKey = frozenset[int]

#: ``(r, q)`` of every source pair in :func:`pair_indices` order (see
#: ``pair_joint_params``).
PairParams = tuple[np.ndarray, np.ndarray]

#: Rows per chunk in :meth:`EmpiricalJointModel.joint_params_batch` --
#: bounds the batched AND accumulator at a few tens of MB even when a fuser
#: asks for hundreds of thousands of subset unions over a wide matrix.
_BATCH_CHUNK = 32_768

#: Above this dirty-*word* fraction :meth:`EmpiricalJointModel.refit_delta`
#: falls back to an exact recount (a cold model build): subtract/add over
#: nearly every word costs two passes where the recount costs one, and the
#: carried caches are mostly invalidated anyway.
DEFAULT_REFIT_CHURN_FRACTION = 0.75


@lru_cache(maxsize=64)
def pair_indices(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Row-major upper-triangle source pairs ``(ii, jj)`` of ``n`` sources.

    The pair order of every per-pair array here and in correlation
    detection.  Cached and shared read-only: callers index them, never
    write.
    """
    ii, jj = np.triu_indices(n, k=1)
    ii.setflags(write=False)
    jj.setflags(write=False)
    return ii, jj


def _gather_words(words: np.ndarray, word_ids: np.ndarray) -> np.ndarray:
    """Select ``word_ids`` columns of a packed array, zero beyond its width.

    The word diff is computed over the *padded* common width of two
    generations; a word id past this array's real width corresponds to
    pure padding and contributes an all-zero word (``pack_bool_rows``
    zero-pads, so this matches what a physically padded array would hold).
    """
    out = np.zeros(words.shape[:-1] + (word_ids.size,), dtype=np.uint64)
    in_range = word_ids < words.shape[-1]
    if in_range.any():
        out[..., in_range] = words[..., word_ids[in_range]]
    return out


def _block_popcounts(words: np.ndarray, block: int) -> np.ndarray:
    """Set bits per ``block``-word run of each row, ``(n_rows, n_blocks)``."""
    return popcount_rows(words.reshape(-1, block)).reshape(words.shape[0], -1)


class _JointCounts:
    """Updatable integer sufficient statistics of one model generation.

    Every parameter the empirical model serves is a pure float function of
    these exact integer counts, which is what makes the delta-refit path
    bit-identical to a cold fit: ``refit_delta`` transports the integers
    with popcount add/subtract over dirty words only, then re-derives the
    floats through the one array rule a cold build uses
    (:func:`~repro.core.quality.rates_from_counts`).

    The per-source arrays are seeded at construction from the popcounts
    the singleton rates are derived from; the per-pair arrays are
    built lazily by the first :meth:`EmpiricalJointModel.pair_joint_params`
    call (``None`` until then) and the coverage pair is kept only under
    partial coverage.
    """

    __slots__ = (
        "src_provided",
        "src_provided_true",
        "src_in_scope_true",
        "src_in_scope_false",
        "pair_provided_true",
        "pair_provided_false",
        "pair_covered_true",
        "pair_covered_false",
    )

    def __init__(
        self,
        src_provided: np.ndarray,
        src_provided_true: np.ndarray,
        src_in_scope_true: np.ndarray,
        src_in_scope_false: np.ndarray,
    ) -> None:
        self.src_provided = src_provided
        self.src_provided_true = src_provided_true
        self.src_in_scope_true = src_in_scope_true
        self.src_in_scope_false = src_in_scope_false
        self.pair_provided_true: Optional[np.ndarray] = None
        self.pair_provided_false: Optional[np.ndarray] = None
        self.pair_covered_true: Optional[np.ndarray] = None
        self.pair_covered_false: Optional[np.ndarray] = None


@dataclass(frozen=True)
class ModelRefitStats:
    """What one :meth:`EmpiricalJointModel.refit_delta` call actually did."""

    #: ``"delta"`` (incremental count transport) or ``"cold"`` (exact
    #: recount fallback -- a full model rebuild).
    mode: str
    #: Why the cold fallback fired (``None`` on the delta path).
    reason: Optional[str]
    #: Dirty ``uint64`` words vs the padded total (64-column granularity).
    dirty_words: int
    total_words: int
    #: Sources whose provides/coverage bits changed.
    dirty_sources: int
    #: Did any label bit change (flushes truth-conditioned caches)?
    labels_changed: bool
    #: Memoised subset entries carried into the new generation.
    carried_cache_entries: int
    #: Row ids of the dirty sources (empty on the cold path) -- consumed
    #: by the session's partition/evaluator carry, which must know *which*
    #: sources changed, not just how many.
    dirty_source_ids: tuple[int, ...] = ()

    @property
    def dirty_word_fraction(self) -> float:
        """Churn measure: fraction of packed words touched by the diff."""
        return float(self.dirty_words) / float(max(self.total_words, 1))


def _as_key(source_ids: Iterable[int]) -> SubsetKey:
    return frozenset(int(i) for i in source_ids)


class JointQualityModel(ABC):
    """Interface every fuser consumes: joint r / q for arbitrary subsets."""

    def __init__(self, source_names: Sequence[str], prior: float) -> None:
        check_fraction(prior, "prior")
        self._source_names = tuple(source_names)
        self._prior = prior
        # Memoised pair batch (see pair_joint_params) and per-source rates
        # (see source_rates): both clustering sides and the
        # correlation-matrix method consume the same values, and the
        # model's parameters are fixed after construction.  A racing
        # duplicate compute under threads is deterministic and benign
        # (either store wins with identical arrays).
        self._pair_params_cache: Optional[PairParams] = None
        self._source_rates_cache: Optional[np.ndarray] = None

    @property
    def source_names(self) -> tuple[str, ...]:
        return self._source_names

    @property
    def n_sources(self) -> int:
        return len(self._source_names)

    @property
    def prior(self) -> float:
        """The a-priori truth probability ``alpha``."""
        return self._prior

    # -- primitive parameters -----------------------------------------

    @abstractmethod
    def joint_recall(self, source_ids: Iterable[int]) -> float:
        """``r_{S*}``; the empty subset has recall 1 by convention."""

    @abstractmethod
    def joint_fpr(self, source_ids: Iterable[int]) -> float:
        """``q_{S*}``; the empty subset has false-positive rate 1."""

    @abstractmethod
    def source_quality(self, source_id: int) -> SourceQuality:
        """Singleton quality (p_i, r_i, q_i) for one source."""

    def evidence_counts(self) -> Optional[tuple[int, int]]:
        """``(n_true, n_false)`` training counts, or ``None`` if parameter-only.

        Clustering uses the counts to ignore pairwise correlation estimates
        whose expected co-support is too small to be trustworthy.
        """
        return None

    def joint_coverage_counts(
        self, source_ids: Iterable[int]
    ) -> Optional[tuple[int, int]]:
        """``(n_true, n_false)`` triples covered by *every* source in the set.

        Under full coverage this equals :meth:`evidence_counts`; empirical
        models with scopes restrict to the joint coverage, which is the
        sample size behind the corresponding joint recall / fpr estimates.
        """
        return self.evidence_counts()

    def joint_params_batch(
        self, subsets: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(r_{S*}, q_{S*})`` arrays for many subsets at once.

        ``subsets`` is boolean with shape ``(n_subsets, n_sources)``.  The
        default answers row by row through :meth:`joint_recall` /
        :meth:`joint_fpr`, so every value is exactly the scalar query's;
        models that count subsets in bulk (the empirical model) override
        it with a vectorized sweep that returns the same values.
        """
        subsets = self._check_subsets(subsets)
        recalls = np.empty(subsets.shape[0], dtype=float)
        fprs = np.empty(subsets.shape[0], dtype=float)
        for row, subset in enumerate(subsets):
            ids = np.flatnonzero(subset).tolist()
            recalls[row] = self.joint_recall(ids)
            fprs[row] = self.joint_fpr(ids)
        return recalls, fprs

    def _check_subsets(self, subsets: np.ndarray) -> np.ndarray:
        """``subsets`` as a boolean ``(n_subsets, n_sources)`` matrix."""
        subsets = np.asarray(subsets, dtype=bool)
        if subsets.ndim != 2 or subsets.shape[1] != self.n_sources:
            raise ValueError(
                f"subsets shape {subsets.shape} != (n_subsets, {self.n_sources})"
            )
        return subsets

    # -- derived quantities (shared by both implementations) ----------

    def recall(self, source_id: int) -> float:
        return float(self.source_rates()[0, int(source_id)])

    def fpr(self, source_id: int) -> float:
        return float(self.source_rates()[1, int(source_id)])

    def source_rates(self) -> np.ndarray:
        """``(2, n_sources)`` array: every source's recall, then its fpr.

        Row 0 holds every source's recall, row 1 its fpr, in source
        order (read-only, memoised).
        """
        rates = self._source_rates_cache
        if rates is None:
            qualities = [self.source_quality(i) for i in range(self.n_sources)]
            rates = np.array(
                [
                    [q.recall for q in qualities],
                    [q.false_positive_rate for q in qualities],
                ],
                dtype=float,
            ).reshape(2, self.n_sources)
            rates.setflags(write=False)
            self._source_rates_cache = rates
        return rates

    def correlation_true(self, source_ids: Iterable[int]) -> float:
        """``C_{S*} = r_{S*} / prod r_i`` (Eq. 16); 1 when undefined."""
        ids = list(source_ids)
        independent = float(np.prod([self.recall(i) for i in ids])) if ids else 1.0
        return safe_divide(self.joint_recall(ids), independent, default=1.0)

    def correlation_false(self, source_ids: Iterable[int]) -> float:
        """``C!_{S*} = q_{S*} / prod q_i`` (Eq. 17); 1 when undefined."""
        ids = list(source_ids)
        independent = float(np.prod([self.fpr(i) for i in ids])) if ids else 1.0
        return safe_divide(self.joint_fpr(ids), independent, default=1.0)

    def aggressive_factors(
        self, universe: Optional[Sequence[int]] = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Per-source factors ``(C+_i, C-_i)`` over ``universe`` (Eq. 14-15).

        ``universe`` defaults to all sources.  The returned arrays are
        indexed positionally: entry ``k`` belongs to ``universe[k]``.  When a
        factor's denominator vanishes (the relevant subsets never co-occur in
        training data) the factor falls back to 1, i.e. independence.

        A source with ``r_i = 0`` never provides a true triple: given truth
        it is a constant, hence independent of every other source.  Its
        ``C+_i`` is 1 and the other sources' ``C+`` are taken over the
        universe without it -- the limit of Eq. 14 as ``r_i -> 0``, where
        ``r_S`` and ``r_{S \\ j}`` would otherwise both vanish.  Likewise a
        source with ``q_i = 0`` on the ``C-`` side.
        """
        ids = list(range(self.n_sources)) if universe is None else list(universe)
        c_plus = np.ones(len(ids))
        c_minus = np.ones(len(ids))
        recall_side = [k for k, i in enumerate(ids) if self.recall(i) > 0.0]
        fpr_side = [k for k, i in enumerate(ids) if self.fpr(i) > 0.0]
        recalls, fprs = self._leave_one_out_params([ids[k] for k in recall_side])
        if fpr_side != recall_side:
            _, fprs = self._leave_one_out_params([ids[k] for k in fpr_side])
        for row, k in enumerate(recall_side, start=1):
            c_plus[k] = safe_divide(
                float(recalls[0]),
                self.recall(ids[k]) * float(recalls[row]),
                default=1.0,
            )
        for row, k in enumerate(fpr_side, start=1):
            c_minus[k] = safe_divide(
                float(fprs[0]), self.fpr(ids[k]) * float(fprs[row]), default=1.0
            )
        return c_plus, c_minus

    def _leave_one_out_params(
        self, ids: Sequence[int]
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(r, q)`` of ``ids`` (row 0) and of each ``ids`` minus ``ids[k]``
        (row ``k + 1``), from one batch call."""
        rows = np.zeros((len(ids) + 1, self.n_sources), dtype=bool)
        rows[:, ids] = True
        rows[np.arange(1, len(ids) + 1), ids] = False
        return self.joint_params_batch(rows)

    def pair_joint_params(self) -> PairParams:
        """``(r, q)`` for every source pair via one batch call.

        Entry ``k`` of each array is the joint recall / fpr of pair ``k``
        of :func:`pair_indices` -- values bit-identical to the scalar
        ``joint_recall``/``joint_fpr`` queries.  The batch is memoised:
        the model's parameters are fixed after construction, and both
        clustering sides consume the same values.
        """
        cached = self._pair_params_cache
        if cached is None:
            n = self.n_sources
            ii, jj = pair_indices(n)
            rows = np.zeros((ii.size, n), dtype=bool)
            rows[np.arange(ii.size), ii] = True
            rows[np.arange(ii.size), jj] = True
            cached = self.joint_params_batch(rows)
            self._pair_params_cache = cached
        return cached

    def pair_coverage_counts(
        self,
    ) -> Optional[tuple[np.ndarray, np.ndarray]]:
        """``(covered_true, covered_false)`` arrays for every source pair.

        Aligned with :meth:`pair_joint_params`'s pair order.  ``None`` when
        batch pair statistics are unavailable; callers fall back to scalar
        :meth:`joint_coverage_counts` queries.
        """
        return None

    def pairwise_correlations(self) -> tuple[np.ndarray, np.ndarray]:
        """Matrices ``(C_true, C_false)`` of pairwise correlation factors.

        Entry ``[i, j]`` is ``C_{ij}`` (resp. ``C!_{ij}``); the diagonal is
        left at 1.  Every pair's joint parameters come from the one batch
        call of :meth:`pair_joint_params`; the factor arithmetic replays
        :meth:`correlation_true` / :meth:`correlation_false` on those
        values, so both agree bit-for-bit.
        """
        n = self.n_sources
        c_true = np.ones((n, n))
        c_false = np.ones((n, n))
        ii, jj = pair_indices(n)
        r_pairs, q_pairs = self.pair_joint_params()
        for i, j, r_pair, q_pair in zip(
            ii.tolist(), jj.tolist(), r_pairs.tolist(), q_pairs.tolist()
        ):
            independent_r = float(np.prod([self.recall(i), self.recall(j)]))
            independent_q = float(np.prod([self.fpr(i), self.fpr(j)]))
            c_true[i, j] = c_true[j, i] = safe_divide(
                r_pair, independent_r, default=1.0
            )
            c_false[i, j] = c_false[j, i] = safe_divide(
                q_pair, independent_q, default=1.0
            )
        return c_true, c_false


class EmpiricalJointModel(JointQualityModel):
    """Joint parameters measured from labelled training data.

    Parameters
    ----------
    observations:
        Training observation matrix.
    labels:
        Gold truth per triple (boolean, one per matrix column).
    prior:
        ``alpha``.  Pass :func:`repro.core.quality.estimate_prior` output to
        use the labelled truth fraction.
    smoothing:
        Laplace pseudo-count applied to all joint precision/recall ratios;
        ``0`` reproduces the paper's example tables exactly.
    max_cache_entries:
        Memoisation cap per parameter family.  Wide datasets (BOOK-scale)
        touch millions of distinct subsets during inclusion-exclusion;
        beyond the cap values are recomputed instead of stored, bounding
        memory at a small constant factor of the cap.
    """

    def __init__(
        self,
        observations: ObservationMatrix,
        labels: np.ndarray,
        prior: float = 0.5,
        smoothing: float = 0.0,
        max_cache_entries: int = 200_000,
    ) -> None:
        super().__init__(observations.source_names, prior)
        labels = np.asarray(labels, dtype=bool)
        if labels.shape != (observations.n_triples,):
            raise ValueError(
                f"labels shape {labels.shape} != ({observations.n_triples},)"
            )
        smoothing = check_non_negative(smoothing, "smoothing")
        if max_cache_entries < 0:
            raise ValueError(
                f"max_cache_entries must be non-negative, got {max_cache_entries}"
            )
        self._observations = observations
        self._labels = labels
        self._smoothing = float(smoothing)
        self._max_cache = int(max_cache_entries)
        self._n_true = int(labels.sum())
        self._partial_coverage = observations.has_partial_coverage
        self._true_words = pack_bool_vector(labels)
        self._false_words = pack_bool_vector(~labels)
        # The singleton rates and the delta-refit counters come from the
        # same per-source popcounts.
        self._counts = _JointCounts(
            *source_counts(observations, self._true_words, self._false_words)
        )
        self._derive_source_rates()
        self._recall_cache: dict[SubsetKey, float] = {}
        self._fpr_cache: dict[SubsetKey, float] = {}
        self._precision_cache: dict[SubsetKey, float] = {}
        self._coverage_cache: dict[SubsetKey, tuple[int, int]] = {}
        self._count_rows_cache: Optional[
            tuple[PackedMatrix, np.ndarray, np.ndarray]
        ] = None

    # -- estimation ----------------------------------------------------
    #
    # All joint parameters are *scope-aware*: they are estimated over the
    # subset's joint coverage, i.e. the triples every member could have
    # provided.  Under full coverage this reduces to the plain global
    # fractions the paper's examples use; with partial coverage it keeps the
    # joint estimates consistent with the (already scope-aware) singleton
    # quality, without which every pair of narrow-scope sources would look
    # spuriously anti-correlated.

    def _intersection_counts(self, key: SubsetKey) -> tuple[int, int]:
        """``(provided_true, provided_false)`` of the subset's intersection.

        ANDs the subset's bit-packed provider rows and popcounts through
        the packed label masks.
        """
        words = self._observations.packed_provides.and_reduce(sorted(key))
        return (
            popcount(words & self._true_words),
            popcount(words & self._false_words),
        )

    def joint_precision(self, source_ids: Iterable[int]) -> float:
        """``p_{S*}``: labelled-true fraction of the subset's intersection."""
        key = _as_key(source_ids)
        if not key:
            return 1.0
        cached = self._precision_cache.get(key)
        if cached is not None:
            return cached
        provided_true, provided_false = self._intersection_counts(key)
        value = float(smoothed_ratios(
            provided_true, provided_true + provided_false, self._smoothing
        ))
        self._store(self._precision_cache, key, value)
        return value

    def joint_recall(self, source_ids: Iterable[int]) -> float:
        key = _as_key(source_ids)
        if not key:
            return 1.0
        cached = self._recall_cache.get(key)
        if cached is not None:
            return cached
        provided_true, _ = self._intersection_counts(key)
        covered_true, _ = self.joint_coverage_counts(key)
        value = float(smoothed_ratios(provided_true, covered_true, self._smoothing))
        self._store(self._recall_cache, key, value)
        return value

    def joint_fpr(self, source_ids: Iterable[int]) -> float:
        """``q_{S*}`` derived from joint precision/recall (Theorem 3.5).

        When the subset's intersection is entirely false (joint precision 0,
        where the derivation degenerates) we fall back to the direct count
        of jointly-provided false triples -- the only estimate available,
        and exactly the signal that matters for sources correlated on
        mistakes (Scenario 3 of Example 4.1).  Singletons follow the same
        rule (:func:`~repro.core.quality.rates_from_counts`), so
        ``fpr(i) == joint_fpr({i})``.
        """
        key = _as_key(source_ids)
        if not key:
            return 1.0
        cached = self._fpr_cache.get(key)
        if cached is not None:
            return cached
        provided_true, provided_false = self._intersection_counts(key)
        covered_true, covered_false = self.joint_coverage_counts(key)
        _, _, fpr = rates_from_counts(
            provided_true, provided_false, covered_true, covered_false,
            self.prior, self._smoothing,
        )
        value = float(fpr)
        self._store(self._fpr_cache, key, value)
        return value

    def joint_coverage_counts(self, source_ids: Iterable[int]) -> tuple[int, int]:
        """``(covered_true, covered_false)`` for the subset's joint scope."""
        key = _as_key(source_ids)
        if not self._partial_coverage or not key:
            return self.evidence_counts()
        cached = self._coverage_cache.get(key)
        if cached is not None:
            return cached
        words = self._observations.packed_coverage.and_reduce(sorted(key))
        value = (
            popcount(words & self._true_words),
            popcount(words & self._false_words),
        )
        if len(self._coverage_cache) < self._max_cache:
            self._coverage_cache[key] = value
        return value

    def joint_params_batch(
        self, subsets: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Vectorized ``(r_{S*}, q_{S*})`` for many subsets in bulk.

        The joint words of *all* requested subsets come from one
        :meth:`PackedMatrix.and_reduce_batch` call over :meth:`_count_rows`
        (one pass per member slot), the counts from two masked
        popcounts, and the Theorem 3.5 derivation runs element-wise in the
        same operation order as the scalar path -- so every returned value
        is bit-identical to the corresponding :meth:`joint_recall` /
        :meth:`joint_fpr` call.
        """
        subsets = self._check_subsets(subsets)
        n_subsets = subsets.shape[0]
        recalls = np.empty(n_subsets, dtype=float)
        fprs = np.empty(n_subsets, dtype=float)
        for start in range(0, n_subsets, _BATCH_CHUNK):
            stop = min(start + _BATCH_CHUNK, n_subsets)
            recalls[start:stop], fprs[start:stop] = self._params_chunk(
                subsets[start:stop]
            )
        return recalls, fprs

    def _count_rows(self) -> tuple[PackedMatrix, np.ndarray, np.ndarray]:
        """``(rows, true mask, false mask)`` that every joint count ANDs.

        Under partial coverage a source's row is its ``[provides |
        coverage]`` words and each mask repeats the packed labels twice, so
        one AND over a subset's rows and one masked popcount per label side
        give its provided and covered counts together
        (:func:`_block_popcounts` splits the halves).  Under full coverage
        the rows are the provides words alone.  Built on first use and
        kept: the model's inputs never change.
        """
        cached = self._count_rows_cache
        if cached is None:
            provides = self._observations.packed_provides
            if self._partial_coverage:
                words = np.concatenate(
                    [provides.words, self._observations.packed_coverage.words],
                    axis=1,
                )
                cached = (
                    PackedMatrix(words, words.shape[1] * WORD_BITS),
                    np.tile(self._true_words, 2),
                    np.tile(self._false_words, 2),
                )
            else:
                cached = (provides, self._true_words, self._false_words)
            self._count_rows_cache = cached
        return cached

    def _params_chunk(
        self, subsets: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        rows, true_mask, false_mask = self._count_rows()
        joint = rows.and_reduce_batch(subsets)
        n_words = self._true_words.size
        trues = _block_popcounts(joint & true_mask, n_words)
        falses = _block_popcounts(joint & false_mask, n_words)
        if self._partial_coverage:
            covered_true, covered_false = trues[:, 1], falses[:, 1]
        else:
            n_true, n_false = self.evidence_counts()
            covered_true = np.full(len(subsets), n_true, dtype=np.int64)
            covered_false = np.full(len(subsets), n_false, dtype=np.int64)
        return self._params_from_counts(
            trues[:, 0],
            falses[:, 0],
            covered_true,
            covered_false,
            empty=~subsets.any(axis=1),
        )

    def _params_from_counts(
        self,
        provided_true: np.ndarray,
        provided_false: np.ndarray,
        covered_true: np.ndarray,
        covered_false: np.ndarray,
        empty: Optional[np.ndarray] = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(r, q)`` arrays from integer count arrays -- the shared float path.

        Both the batched popcount sweep (:meth:`_params_chunk`) and the
        delta-maintained pair counters funnel through the rule the
        singletons follow (:func:`~repro.core.quality.rates_from_counts`),
        so identical integers always produce bit-identical parameters.
        """
        _, recall, fpr = rates_from_counts(
            provided_true, provided_false, covered_true, covered_false,
            self.prior, self._smoothing,
        )
        if empty is not None:
            recall = np.where(empty, 1.0, recall)
            fpr = np.where(empty, 1.0, fpr)
        return recall, fpr

    def _derive_source_rates(self) -> None:
        """Every source's ``(p, r, q)`` from the per-source counters, in
        one array pass; ``source_rates`` serves the ``(r, q)`` rows."""
        c = self._counts
        counts = (
            c.src_provided, c.src_provided_true,
            c.src_in_scope_true, c.src_in_scope_false,
        )
        self._precisions, recalls, fprs = source_rates_from_counts(
            counts, self.prior, self._smoothing
        )
        rates = np.stack([recalls, fprs])
        rates.setflags(write=False)
        self._source_rates_cache = rates

    # -- updatable count state (delta refit) ---------------------------

    def sufficient_statistics(self) -> "dict[str, np.ndarray]":
        """The per-source integer counters every served float derives from.

        Used by the persistence layer as a snapshot integrity
        cross-check: a recovered model rebuilt from the snapshotted
        matrices must reproduce these integers exactly, or the snapshot
        is treated as corrupt.
        """
        counts = self._counts
        return {
            "src_provided": np.asarray(counts.src_provided, dtype=np.int64),
            "src_provided_true": np.asarray(
                counts.src_provided_true, dtype=np.int64
            ),
            "src_in_scope_true": np.asarray(
                counts.src_in_scope_true, dtype=np.int64
            ),
        }

    def _build_pair_counts(self, counts: _JointCounts) -> None:
        """Populate the per-pair counters by chunked packed popcounts."""
        ii, jj = pair_indices(self.n_sources)
        rows, true_mask, false_mask = self._count_rows()
        words = rows.words
        n_words = self._true_words.size
        n_halves = words.shape[1] // n_words
        trues = np.empty((ii.size, n_halves), dtype=np.int64)
        falses = np.empty((ii.size, n_halves), dtype=np.int64)
        for start in range(0, ii.size, _BATCH_CHUNK):
            stop = min(start + _BATCH_CHUNK, ii.size)
            joint = words[ii[start:stop]] & words[jj[start:stop]]
            trues[start:stop] = _block_popcounts(joint & true_mask, n_words)
            falses[start:stop] = _block_popcounts(joint & false_mask, n_words)
        counts.pair_provided_true = trues[:, 0]
        counts.pair_provided_false = falses[:, 0]
        if self._partial_coverage:
            counts.pair_covered_true = trues[:, 1]
            counts.pair_covered_false = falses[:, 1]

    def _pair_coverage_arrays(
        self, counts: _JointCounts
    ) -> tuple[np.ndarray, np.ndarray]:
        """Per-pair ``(covered_true, covered_false)``; full coverage is flat."""
        if self._partial_coverage:
            return counts.pair_covered_true, counts.pair_covered_false
        n = self.n_sources
        n_pairs = n * (n - 1) // 2
        n_true, n_false = self.evidence_counts()
        return (
            np.full(n_pairs, n_true, dtype=np.int64),
            np.full(n_pairs, n_false, dtype=np.int64),
        )

    def pair_joint_params(self) -> PairParams:
        """All-pairs ``(r, q)`` served from the updatable counters.

        Same contract (and bit-identical values) as the base-class batch
        path: the counters hold exactly the integers
        ``and_reduce_batch`` + popcount would produce, and the float
        derivation goes through :meth:`_params_from_counts` either way.
        Keeping the counts around is what lets :meth:`refit_delta`
        transport them to the next generation with dirty-word updates
        instead of a full O(pairs x words) recount.
        """
        cached = self._pair_params_cache
        if cached is not None:
            return cached
        counts = self._counts
        if counts.pair_provided_true is None:
            self._build_pair_counts(counts)
        covered_true, covered_false = self._pair_coverage_arrays(counts)
        cached = self._params_from_counts(
            counts.pair_provided_true,
            counts.pair_provided_false,
            covered_true,
            covered_false,
        )
        self._pair_params_cache = cached
        return cached

    def pair_coverage_counts(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-pair scope counts aligned with :meth:`pair_joint_params`."""
        counts = self._counts
        if self._partial_coverage and counts.pair_covered_true is None:
            self._build_pair_counts(counts)
        return self._pair_coverage_arrays(counts)

    # -- incremental refit ---------------------------------------------

    def refit_delta(
        self,
        observations: ObservationMatrix,
        labels: np.ndarray,
        prior: Optional[float] = None,
        smoothing: Optional[float] = None,
        max_churn_fraction: float = DEFAULT_REFIT_CHURN_FRACTION,
    ) -> tuple["EmpiricalJointModel", ModelRefitStats]:
        """A new model for ``(observations, labels)``, built incrementally.

        Computes the word-level diff against this model's training snapshot
        (:func:`~repro.core.deltas.dirty_words`) and transports the integer
        sufficient statistics: for each dirty ``uint64`` word, old-word
        popcounts are subtracted and new-word popcounts added -- cost
        proportional to churn, not dataset size.  Float parameters are then
        re-derived from the updated integers through the same code paths a
        cold build uses, so the returned model is **bit-identical** to
        ``EmpiricalJointModel(observations, labels, ...)`` (pinned by
        ``tests/test_refit_delta.py``).  Memoised subset entries whose
        source sets do not intersect the dirty sources are carried over
        (their counts provably did not change); the rest are dropped.

        Falls back to an exact recount (a plain cold construction) when the
        diff is unavailable (``None``: source sets differ) or the
        dirty-word fraction exceeds ``max_churn_fraction``.

        Returns ``(new_model, stats)``.  This model is left untouched and
        remains fully usable (the session retires it after the swap).
        """
        if not 0.0 <= max_churn_fraction <= 1.0:
            raise ValueError(
                "max_churn_fraction must be in [0, 1], "
                f"got {max_churn_fraction}"
            )
        new_prior = self.prior if prior is None else prior
        new_smoothing = (
            self._smoothing
            if smoothing is None
            else check_non_negative(smoothing, "smoothing")
        )
        check_fraction(new_prior, "prior")
        labels = np.asarray(labels, dtype=bool)
        if labels.shape != (observations.n_triples,):
            raise ValueError(
                f"labels shape {labels.shape} != ({observations.n_triples},)"
            )

        def _cold(reason: str, diff: Optional["WordDiff"] = None) -> tuple[
            "EmpiricalJointModel", ModelRefitStats
        ]:
            model = EmpiricalJointModel(
                observations,
                labels,
                prior=new_prior,
                smoothing=new_smoothing,
                max_cache_entries=self._max_cache,
            )
            return model, ModelRefitStats(
                mode="cold",
                reason=reason,
                dirty_words=(
                    diff.word_ids.size if diff is not None else 0
                ),
                total_words=(diff.n_words if diff is not None else 0),
                dirty_sources=(
                    int(diff.dirty_sources.sum()) if diff is not None else 0
                ),
                labels_changed=(
                    diff.labels_changed if diff is not None else True
                ),
                carried_cache_entries=0,
            )

        from repro.core.deltas import dirty_words

        diff = dirty_words(self._observations, observations, self._labels, labels)
        if diff is None:
            return _cold("source sets differ")
        if diff.dirty_fraction > max_churn_fraction:
            return _cold(
                f"churn {diff.dirty_fraction:.2f} > {max_churn_fraction}",
                diff,
            )
        return self._refit_from_diff(
            observations, labels, new_prior, new_smoothing, diff
        )

    def _refit_from_diff(
        self,
        observations: ObservationMatrix,
        labels: np.ndarray,
        prior: float,
        smoothing: float,
        diff: "WordDiff",
    ) -> tuple["EmpiricalJointModel", ModelRefitStats]:
        """The delta path proper: transport counts, re-derive floats."""
        cls = type(self)
        new = cls.__new__(cls)
        JointQualityModel.__init__(new, observations.source_names, prior)
        new._observations = observations
        new._labels = labels
        new._smoothing = smoothing
        new._max_cache = self._max_cache
        new._partial_coverage = observations.has_partial_coverage
        new._count_rows_cache = None
        if diff.labels_changed:
            new._true_words = pack_bool_vector(labels)
            new._false_words = pack_bool_vector(~labels)
            new._n_true = int(labels.sum())
        else:
            # labels_changed=False implies identical labels *and* width
            # (appended/removed columns always flip a label-packing bit).
            new._true_words = self._true_words
            new._false_words = self._false_words
            new._n_true = self._n_true

        # Integer count transport over dirty words only.
        word_ids = diff.word_ids
        old_counts = self._counts
        old_provides = _gather_words(
            self._observations.packed_provides.words, word_ids
        )
        new_provides = _gather_words(
            observations.packed_provides.words, word_ids
        )
        old_coverage = _gather_words(
            self._observations.packed_coverage.words, word_ids
        )
        new_coverage = _gather_words(
            observations.packed_coverage.words, word_ids
        )
        old_true = _gather_words(self._true_words, word_ids)
        new_true = _gather_words(new._true_words, word_ids)
        old_false = _gather_words(self._false_words, word_ids)
        new_false = _gather_words(new._false_words, word_ids)
        counts = _JointCounts(
            src_provided=old_counts.src_provided
            + popcount_rows(new_provides)
            - popcount_rows(old_provides),
            src_provided_true=old_counts.src_provided_true
            + popcount_rows(new_provides & new_true)
            - popcount_rows(old_provides & old_true),
            src_in_scope_true=old_counts.src_in_scope_true
            + popcount_rows(new_coverage & new_true)
            - popcount_rows(old_coverage & old_true),
            src_in_scope_false=old_counts.src_in_scope_false
            + popcount_rows(new_coverage & new_false)
            - popcount_rows(old_coverage & old_false),
        )
        if (
            old_counts.pair_provided_true is not None
            and new._partial_coverage == self._partial_coverage
        ):
            ii, jj = pair_indices(self.n_sources)
            old_inter = old_provides[ii] & old_provides[jj]
            new_inter = new_provides[ii] & new_provides[jj]
            counts.pair_provided_true = (
                old_counts.pair_provided_true
                + popcount_rows(new_inter & new_true)
                - popcount_rows(old_inter & old_true)
            )
            counts.pair_provided_false = (
                old_counts.pair_provided_false
                + popcount_rows(new_inter & new_false)
                - popcount_rows(old_inter & old_false)
            )
            if new._partial_coverage:
                old_scope = old_coverage[ii] & old_coverage[jj]
                new_scope = new_coverage[ii] & new_coverage[jj]
                counts.pair_covered_true = (
                    old_counts.pair_covered_true
                    + popcount_rows(new_scope & new_true)
                    - popcount_rows(old_scope & old_true)
                )
                counts.pair_covered_false = (
                    old_counts.pair_covered_false
                    + popcount_rows(new_scope & new_false)
                    - popcount_rows(old_scope & old_false)
                )
        new._counts = counts
        new._derive_source_rates()  # as a cold build does
        dirty_sources = diff.dirty_sources

        # Selective memo carry-over: an entry is valid iff every count and
        # every formula input behind it is unchanged -- its source set must
        # avoid the dirty sources, labels must be identical, and the knobs
        # the cached float depends on must match.
        dirty_set = frozenset(np.flatnonzero(dirty_sources).tolist())

        def _carry(cache: dict, valid: bool) -> dict:
            if not valid or diff.labels_changed:
                return {}
            if not dirty_set:
                return dict(cache)
            return {
                key: value
                for key, value in cache.items()
                if dirty_set.isdisjoint(key)
            }

        same_smoothing = smoothing == self._smoothing
        new._coverage_cache = _carry(self._coverage_cache, True)
        new._recall_cache = _carry(self._recall_cache, same_smoothing)
        new._precision_cache = _carry(self._precision_cache, same_smoothing)
        new._fpr_cache = _carry(
            self._fpr_cache, same_smoothing and prior == self.prior
        )
        carried = (
            len(new._coverage_cache)
            + len(new._recall_cache)
            + len(new._precision_cache)
            + len(new._fpr_cache)
        )
        return new, ModelRefitStats(
            mode="delta",
            reason=None,
            dirty_words=int(word_ids.size),
            total_words=int(diff.n_words),
            dirty_sources=int(dirty_sources.sum()),
            labels_changed=bool(diff.labels_changed),
            carried_cache_entries=carried,
            dirty_source_ids=tuple(
                int(i) for i in np.flatnonzero(dirty_sources)
            ),
        )

    @property
    def smoothing(self) -> float:
        """Laplace pseudo-count all quality ratios were computed with."""
        return self._smoothing

    def source_quality(self, source_id: int) -> SourceQuality:
        """Built on demand from the source-rate arrays."""
        i = int(source_id)
        rates = self.source_rates()
        return SourceQuality(
            name=self._source_names[i],
            precision=float(self._precisions[i]),
            recall=float(rates[0, i]),
            false_positive_rate=float(rates[1, i]),
        )

    def source_qualities(self) -> list[SourceQuality]:
        """All singleton qualities in row order."""
        return [self.source_quality(i) for i in range(self.n_sources)]

    def evidence_counts(self) -> tuple[int, int]:
        n_false = int((~self._labels).sum())
        return self._n_true, n_false

    def _store(self, cache: dict[SubsetKey, float], key: SubsetKey, value: float) -> None:
        if len(cache) < self._max_cache:
            cache[key] = value


class ExplicitJointModel(JointQualityModel):
    """Joint parameters supplied directly by the caller.

    Unspecified subsets default to independence products of the singleton
    parameters, so a partially-specified model degrades gracefully.  This is
    the vehicle for the paper's worked examples, where joint recalls such as
    ``r_1245 = 0.22`` are given rather than measured.
    """

    def __init__(
        self,
        qualities: Sequence[SourceQuality],
        prior: float = 0.5,
        joint_recalls: Optional[Mapping[frozenset[int], float]] = None,
        joint_fprs: Optional[Mapping[frozenset[int], float]] = None,
    ) -> None:
        super().__init__([q.name for q in qualities], prior)
        self._qualities = list(qualities)
        self._recalls = self._checked(joint_recalls, "joint_recalls")
        self._fprs = self._checked(joint_fprs, "joint_fprs")

    def _checked(
        self, params: Optional[Mapping[frozenset[int], float]], name: str
    ) -> dict[SubsetKey, float]:
        """``params`` keyed by subset, each id known and each value in [0, 1].

        NaN, infinities and out-of-range values raise ``ValueError`` here
        instead of surfacing as silently floored likelihoods at scoring time.
        """
        checked: dict[SubsetKey, float] = {}
        for subset, value in (params or {}).items():
            key = _as_key(subset)
            for i in key:
                if not 0 <= i < self.n_sources:
                    raise ValueError(f"joint parameter names unknown source id {i}")
            checked[key] = check_probability(float(value), f"{name}[{sorted(key)}]")
        return checked

    def joint_recall(self, source_ids: Iterable[int]) -> float:
        key = _as_key(source_ids)
        if not key:
            return 1.0
        if key in self._recalls:
            return self._recalls[key]
        if len(key) == 1:
            return self._qualities[next(iter(key))].recall
        return float(np.prod([self.joint_recall([i]) for i in sorted(key)]))

    def joint_fpr(self, source_ids: Iterable[int]) -> float:
        key = _as_key(source_ids)
        if not key:
            return 1.0
        if key in self._fprs:
            return self._fprs[key]
        if len(key) == 1:
            return self._qualities[next(iter(key))].false_positive_rate
        return float(np.prod([self.joint_fpr([i]) for i in sorted(key)]))

    def source_quality(self, source_id: int) -> SourceQuality:
        return self._qualities[int(source_id)]


class IndependentJointModel(ExplicitJointModel):
    """A joint model that *assumes* independence everywhere.

    Feeding this into the exact correlation fuser must reproduce the
    independent PrecRec result (Corollary 4.3); the equivalence is asserted
    in the test suite.
    """

    def __init__(self, qualities: Sequence[SourceQuality], prior: float = 0.5) -> None:
        super().__init__(qualities, prior=prior, joint_recalls=None, joint_fprs=None)
