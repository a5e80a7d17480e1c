"""Incremental delta scoring: work per request proportional to what changed.

Streaming serving traffic rarely scores *new* matrices -- consecutive
requests differ from the previous one by a handful of triple columns (a few
sources asserted or retracted a few claims).  The compile-once/execute-many
plan cache makes repeated scoring of the *same* matrix cheap, but a matrix
that differs by one triple changes the pattern digest and re-runs pattern
extraction, plan compilation, and model evaluation from scratch.  This
module closes that gap with three reuse levels:

1. **word-level diffing** (:func:`dirty_columns`) -- consecutive packed
   observation matrices are XORed at the ``uint64`` word level; a request
   whose words all match the previous one returns the previous scores
   outright, and otherwise only the *dirty* triple columns (64-triple
   word granularity, conservative by construction) are re-examined.  The
   diff is memoised on the new matrix, so the WAL, this scorer and the
   lane router diffing one stream step share a single pass, and clean
   scores are copied over as one prefix;
2. **per-pattern probability memo** -- every triple's score is a pure
   function of its ``(providers, silent)`` pattern, so dirty columns
   whose patterns were scored before gather their probability from a
   :class:`~repro.core.plans.PatternValueMemo` without touching the model;
3. **novel-pattern sub-batches** -- only genuinely new patterns reach the
   fuser (as a sub-batch :class:`~repro.core.patterns.PatternSet`), and
   the results are scatter-merged back in column order.  Inside the
   fuser, the likelihood memo that ``enable_delta_memo`` attaches sends
   only unseen work through ``joint_params_batch`` + compiled-plan
   execution: the exact and elastic fusers memoise per-pattern
   likelihoods by row bytes, and the clustered fuser memoises
   per-cluster log-likelihoods by integer restriction code, so a novel
   global pattern whose cluster restrictions were all seen before is a
   key look-up and a gather-sum.

Because each reuse level returns exactly the bits a cold run would compute
(level 1 reuses a previous request's own output for bit-identical columns,
levels 2-3 rely on per-pattern independence), delta scores are
**bit-identical to cold scores** -- pinned by the hypothesis suite in
``tests/test_deltas.py``, whose BOOK-like replay also checks that 1-5%
churn stays on the delta path.

The scorer is deliberately conservative: mismatched source counts or a
dirty fraction beyond ``churn_fraction`` fall back to the cold path
(which still reuses known patterns through the memo -- the case
micro-batched fused matrices hit).
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.core.bitset import pack_bool_vector
from repro.core.fusion import ModelBasedFuser
from repro.core.observations import ObservationMatrix
from repro.core.patterns import PatternSet, extract_patterns
from repro.core.plans import PatternValueMemo, pattern_row_keys

#: Above this dirty-column fraction the delta path stops paying off (the
#: per-column bookkeeping approaches full extraction cost) and the scorer
#: falls back to the cold path.
DEFAULT_CHURN_FRACTION = 0.5


def dirty_columns(
    previous: ObservationMatrix, current: ObservationMatrix
) -> Optional[np.ndarray]:
    """Triple columns of ``current`` that may differ from ``previous``.

    XORs the bit-packed ``provides`` and ``coverage`` words of both
    matrices, OR-reduces the per-source difference words into one
    dirty-bit vector (bit ``j`` of word ``w`` is set iff column
    ``64 w + j`` differs in *any* source row), and unpacks that vector
    back into column ids -- so the diff costs one pass over
    ``n_sources x n_words`` ``uint64`` words plus one byte per column.
    Columns beyond the previous matrix's width are always dirty (an
    appended column has no previous score to reuse even when its packed
    bits happen to match padding), and a column reported clean is
    guaranteed bit-identical in both ``provides`` and ``coverage`` -- the
    property that makes score reuse exact.  The ids come back sorted.

    Each ``(previous, current)`` pair is diffed once: the result is
    memoised on ``current`` against a weak reference to ``previous``, so
    the WAL, the delta scorer and the lane router, which all diff the
    same stream step, share one pass over the words.  A call with any
    other ``previous`` recomputes and replaces the memo.  When both
    matrices hold the same coverage array, its words are not compared and
    ``current`` shares ``previous``'s packed coverage.  A matrix diffed
    against itself is clean without reading a word.  The returned ids are
    read-only.

    Returns ``None`` when the matrices are incomparable (different source
    counts).
    """
    if previous.n_sources != current.n_sources:
        return None
    if previous is current:
        columns = np.zeros(0, dtype=np.int64)
        columns.setflags(write=False)
        return columns
    memo = current._diff_memo
    if memo is not None and memo[0]() is previous:
        return memo[1]
    columns = _diff_columns(previous, current)
    columns.setflags(write=False)
    current._diff_memo = (weakref.ref(previous), columns)
    return columns


def _diff_columns(
    previous: ObservationMatrix, current: ObservationMatrix
) -> np.ndarray:
    """The word-diff kernel behind :func:`dirty_columns` (no memo)."""
    prev_provides = previous.packed_provides.words
    new_provides = current.packed_provides.words
    shared_words = min(prev_provides.shape[1], new_provides.shape[1])
    diff_words = (
        prev_provides[:, :shared_words] ^ new_provides[:, :shared_words]
    )
    if current.coverage is previous.coverage:
        current._adopt_packed_coverage(previous)
    else:
        diff_words |= (
            previous.packed_coverage.words[:, :shared_words]
            ^ current.packed_coverage.words[:, :shared_words]
        )
    diff_bits = np.bitwise_or.reduce(diff_words, axis=0)
    # Bit j of word w is column 64 w + j.  Every column past the shared
    # width is dirty: an appended column has no previous score to reuse,
    # even where its bits happen to match the old padding.
    shared = min(previous.n_triples, current.n_triples)
    columns = np.flatnonzero(
        np.unpackbits(
            diff_bits.view(np.uint8), count=shared, bitorder="little"
        ).view(bool)
    )
    if current.n_triples > shared:
        columns = np.concatenate(
            [columns, np.arange(shared, current.n_triples, dtype=np.int64)]
        )
    return columns


@dataclass(frozen=True)
class WordDiff:
    """Word-level diff between two labelled training snapshots.

    Produced by :func:`dirty_words` and consumed by
    :meth:`~repro.core.joint.EmpiricalJointModel.refit_delta`: the joint
    model's popcount statistics are updated by subtracting old-word and
    adding new-word popcounts for exactly the ``word_ids`` listed here.
    Both snapshots are compared over a common padded width of ``n_words``
    ``uint64`` words (``pack_bool_rows`` zero-pads tail bits, so padding
    never contributes spurious counts).
    """

    #: Dirty ``uint64`` word indices over the padded common width -- a word
    #: is dirty when *any* source's provides/coverage bits or any label bit
    #: inside it changed (conservative 64-column granularity).
    word_ids: np.ndarray
    #: Per-source flag: did any of this source's provides/coverage words
    #: change?  Drives selective memo invalidation (a cached subset whose
    #: sources are all clean keeps its exact counts).
    dirty_sources: np.ndarray
    #: Did any label bit change?  When true, *every* truth-conditioned count
    #: is suspect and per-subset caches are flushed wholesale (counters are
    #: still updated incrementally -- label words are part of the diff).
    labels_changed: bool
    #: The padded word width both snapshots were compared over.
    n_words: int

    @property
    def dirty_fraction(self) -> float:
        """Fraction of words dirty -- the churn measure for fallback."""
        return float(self.word_ids.size) / float(max(self.n_words, 1))


def dirty_words(
    previous: ObservationMatrix,
    current: ObservationMatrix,
    previous_labels: np.ndarray,
    current_labels: np.ndarray,
) -> Optional[WordDiff]:
    """Word-level diff of two labelled snapshots, or ``None`` if incomparable.

    Unlike :func:`dirty_columns` (column ids for score reuse), this returns
    ``uint64`` *word* ids -- the granularity at which
    :class:`~repro.core.joint.EmpiricalJointModel` stores its packed
    popcount statistics.  A word is dirty when any source's ``provides`` or
    ``coverage`` bits changed inside it, or when any label bit changed
    (labels are diffed through both their true *and* complement packings,
    which makes width-boundary words dirty automatically: growing the
    matrix turns previously-padding bits of the last shared word into real
    ``~labels`` bits).

    Returns ``None`` when the source sets differ (different count or
    names) -- the caller must fall back to an exact recount.
    """
    if previous.n_sources != current.n_sources:
        return None
    if previous.source_names != current.source_names:
        return None
    labels_identical = current_labels is previous_labels
    previous_labels = np.asarray(previous_labels, dtype=bool)
    current_labels = np.asarray(current_labels, dtype=bool)
    if previous_labels.shape != (previous.n_triples,):
        return None
    if current_labels.shape != (current.n_triples,):
        return None
    prev_provides = previous.packed_provides.words
    new_provides = current.packed_provides.words
    prev_coverage = previous.packed_coverage.words
    new_coverage = current.packed_coverage.words
    n_words = max(prev_provides.shape[1], new_provides.shape[1])

    def _pad(words: np.ndarray) -> np.ndarray:
        if words.shape[-1] == n_words:
            return words
        pad_width = [(0, 0)] * (words.ndim - 1) + [
            (0, n_words - words.shape[-1])
        ]
        return np.pad(words, pad_width)

    row_diff = (_pad(prev_provides) ^ _pad(new_provides)) | (
        _pad(prev_coverage) ^ _pad(new_coverage)
    )
    dirty_sources = row_diff.any(axis=1)
    if row_diff.shape[0]:
        word_bits = np.bitwise_or.reduce(row_diff, axis=0)
    else:
        word_bits = np.zeros(n_words, dtype=np.uint64)
    if labels_identical:
        # Same labels object on both sides: the shape checks above force
        # equal n_triples, so both packings (and the padding-boundary
        # complement trick) are provably identical -- skip the 4 packs.
        labels_changed = False
        word_ids = np.flatnonzero(word_bits)
    else:
        label_bits = (
            _pad(pack_bool_vector(previous_labels))
            ^ _pad(pack_bool_vector(current_labels))
        ) | (
            _pad(pack_bool_vector(~previous_labels))
            ^ _pad(pack_bool_vector(~current_labels))
        )
        labels_changed = bool(label_bits.any())
        word_ids = np.flatnonzero(word_bits | label_bits)
    return WordDiff(
        word_ids=word_ids,
        dirty_sources=dirty_sources,
        labels_changed=labels_changed,
        n_words=n_words,
    )


class _Snapshot:
    """One served request: the matrix plus its (private) score vector."""

    __slots__ = ("observations", "scores")

    def __init__(
        self, observations: ObservationMatrix, scores: np.ndarray
    ) -> None:
        self.observations = observations
        self.scores = scores


class DeltaScorer:
    """Incremental scoring wrapper around one :class:`ModelBasedFuser`.

    Owned by :class:`~repro.core.api.ScoringSession` (one scorer per fuser
    generation -- ``refit`` swaps fuser and scorer together, so stale
    per-pattern memos cannot survive a generation bump).  ``score`` picks
    the cheapest path that stays bit-identical to a cold run:

    - **identical** -- the packed words match the previous request
      exactly: return a copy of the previous scores (zero plan
      executions, zero model calls);
    - **delta** -- a small dirty-column set: reuse previous scores for
      clean columns, the per-pattern memo for dirty columns with known
      patterns, and batch only the novel patterns;
    - **cold** -- no usable previous request or churn beyond
      ``churn_fraction``: full pattern extraction, with known patterns
      still gathered from the memo (the micro-batching case).

    Pattern-level reuse (the delta and memo-filtered-cold paths) requires
    the fuser's per-pattern scores to be bitwise independent of batch
    composition (``ModelBasedFuser.pattern_batch_invariant``).  For fusers
    without that guarantee (PrecRec, aggressive -- BLAS matrix products),
    the scorer keeps only the identical-request fast path, which is exact
    for any fuser.

    Thread-safety: the snapshot is an immutable object swapped by single
    assignment, the memo is internally locked, and every computed value is
    a deterministic pure function of the fuser's fixed state -- racing
    requests can duplicate work but never mix generations or tear scores
    (the session binds one scorer per call, same discipline as the fuser
    swap).
    """

    def __init__(
        self,
        fuser: ModelBasedFuser,
        churn_fraction: float = DEFAULT_CHURN_FRACTION,
        max_memo_entries: int = 200_000,
    ) -> None:
        if not 0.0 <= churn_fraction <= 1.0:
            raise ValueError(
                f"churn_fraction must be in [0, 1], got {churn_fraction}"
            )
        self._fuser = fuser
        self._churn_fraction = float(churn_fraction)
        self._pattern_reuse = bool(
            getattr(fuser, "pattern_batch_invariant", False)
        )
        self._memo = PatternValueMemo(max_memo_entries)
        self._prev: Optional[_Snapshot] = None
        # Mode/volume counters; plain ints (diagnostics -- a lost increment
        # under a thread race is acceptable, mirroring PatternValueMemo).
        self._identical = 0
        self._delta = 0
        self._cold = 0
        self._dirty_columns = 0
        self._reused_columns = 0
        self._novel_patterns = 0
        self._reused_patterns = 0

    @property
    def fuser(self) -> ModelBasedFuser:
        """The fuser this scorer computes through (fixed for its lifetime)."""
        return self._fuser

    @property
    def memo(self) -> PatternValueMemo:
        """The per-pattern probability memo (diagnostics)."""
        return self._memo

    @property
    def stats(self) -> dict:
        """Serving diagnostics: path counts, reuse volumes, memo counters."""
        return {
            "identical": self._identical,
            "delta": self._delta,
            "cold": self._cold,
            "dirty_columns": self._dirty_columns,
            "reused_columns": self._reused_columns,
            "novel_patterns": self._novel_patterns,
            "reused_patterns": self._reused_patterns,
            "memo": self._memo.stats,
        }

    def invalidate(self) -> None:
        """Drop the previous-request snapshot and the pattern memo."""
        self._prev = None
        self._memo.invalidate()

    # -- scoring paths -------------------------------------------------

    def score(
        self, observations: ObservationMatrix, snapshot: bool = True
    ) -> np.ndarray:
        """One truthfulness score per triple, bit-identical to a cold run.

        ``snapshot=False`` scores without installing this request as the
        previous-request snapshot -- for out-of-band requests (the
        micro-batcher's fused concatenations) that would otherwise break
        the streaming sequence's delta continuity.  The pattern memo is
        still consulted and extended either way.
        """
        prev = self._prev
        if prev is not None:
            dirty = dirty_columns(prev.observations, observations)
            if dirty is not None:
                n_current = observations.n_triples
                if (
                    dirty.size == 0
                    and n_current == prev.observations.n_triples
                ):
                    self._identical += 1
                    return prev.scores.copy()
                if self._pattern_reuse and dirty.size <= (
                    self._churn_fraction * max(n_current, 1)
                ):
                    return self._score_delta(
                        prev, observations, dirty, snapshot
                    )
        self._cold += 1
        if not self._pattern_reuse:
            # No pattern-level reuse guarantee: score plainly, keeping the
            # snapshot so identical repeats still short-circuit.
            scores = self._fuser.score(observations)
            if snapshot:
                self._prev = _Snapshot(observations, scores.copy())
            return scores
        return self._score_full(observations, snapshot)

    def _pattern_values(self, patterns: PatternSet) -> np.ndarray:
        """Probability per distinct pattern row: memo first, batch the rest.

        Against an empty memo every row of ``patterns`` is novel: the whole
        set is evaluated and parked as the memo's seed, with no row keys
        built (:meth:`PatternValueMemo.seed`).  Otherwise novel rows are
        evaluated as a sub-batch :class:`PatternSet` through the fuser's
        ``pattern_probabilities`` (bit-identical to the same rows inside a
        full batch -- per-pattern independence) and memoised.
        """
        provider_rows = patterns.provider_matrix
        silent_rows = patterns.silent_matrix
        if len(self._memo) == 0:
            generation = self._memo.generation
            probabilities = np.asarray(
                self._fuser.pattern_probabilities(patterns), dtype=float
            )
            self._memo.seed(
                provider_rows, silent_rows, (probabilities,),
                generation=generation,
            )
            self._novel_patterns += int(probabilities.size)
            return probabilities
        keys = pattern_row_keys(
            provider_rows, silent_rows, patterns.packed_rows
        )
        values, novel = self._memo.lookup(keys)
        probabilities = np.empty(len(keys), dtype=float)
        for position, value in enumerate(values):
            if value is not None:
                probabilities[position] = value
        self._reused_patterns += len(keys) - novel.size
        if novel.size:
            generation = self._memo.generation
            novel_set = PatternSet(
                provider_matrix=provider_rows[novel],
                silent_matrix=silent_rows[novel],
                inverse=np.arange(novel.size, dtype=np.int64),
                counts=np.ones(novel.size, dtype=np.int64),
            )
            novel_probs = np.asarray(
                self._fuser.pattern_probabilities(novel_set), dtype=float
            )
            probabilities[novel] = novel_probs
            self._memo.store(
                [keys[i] for i in novel.tolist()],
                novel_probs.tolist(),
                generation=generation,
            )
            self._novel_patterns += int(novel.size)
        return probabilities

    def _score_full(
        self, observations: ObservationMatrix, snapshot: bool = True
    ) -> np.ndarray:
        """Cold path: full pattern extraction, memo-filtered evaluation."""
        fuser = self._fuser
        if observations.n_sources != fuser.model.n_sources:
            # Delegate shape validation (and its error message) to the fuser.
            return fuser.score(observations)
        patterns = observations.patterns()
        probabilities = self._pattern_values(patterns)
        scores = patterns.scatter(probabilities).astype(float, copy=False)
        if snapshot:
            self._prev = _Snapshot(observations, scores.copy())
        return scores

    def _score_delta(
        self,
        prev: _Snapshot,
        observations: ObservationMatrix,
        dirty: np.ndarray,
        snapshot: bool = True,
    ) -> np.ndarray:
        """Delta path: previous scores for clean columns, memo for dirty."""
        self._delta += 1
        self._dirty_columns += int(dirty.size)
        # The dirty columns form a small observation submatrix; its
        # distinct patterns come from the same extraction (and therefore
        # the same packed-row dedup) the cold path uses, so the memo keys
        # line up by construction.
        dirty_patterns = extract_patterns(
            observations.provides[:, dirty],
            observations.coverage[:, dirty],
        )
        probabilities = self._pattern_values(dirty_patterns)
        inverse = dirty_patterns.inverse
        n_current = observations.n_triples
        scores = np.empty(n_current, dtype=float)
        # Copy the shared prefix whole, then overwrite the dirty columns:
        # dirty_columns marks every appended column dirty, so no column
        # past the previous width keeps an unwritten slot.
        shared = min(n_current, prev.scores.size)
        scores[:shared] = prev.scores[:shared]
        scores[dirty] = probabilities[inverse]
        self._reused_columns += n_current - int(dirty.size)
        if snapshot:
            self._prev = _Snapshot(observations, scores.copy())
        return scores
