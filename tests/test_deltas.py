"""The incremental delta-scoring engine (repro.core.deltas).

Five layers of guarantees:

- **diff mechanics** -- word-level matrix diffing reports exactly the
  columns whose ``provides`` / ``coverage`` bits changed (plus appended
  columns), and ``None`` for incomparable matrices; the result is
  memoised on the new matrix per previous matrix (held weakly), shared
  coverage is neither re-packed nor re-compared, and a checkpointed
  stream runs the diff kernel at most once per step;
- **memo mechanics** -- the :class:`PatternValueMemo` contract: bounded
  storage, oldest-first eviction, generation-guarded stores, counters;
- **delta equivalence** -- hypothesis-driven: random mutation sequences
  scored through a ``delta="auto"`` session equal a ``delta="off"``
  (cold) session *bit for bit*, for every fuser family, including width changes, full churn, and refits;
- **clustered log tables** -- a clustered delta step whose cluster
  restrictions are all known reads them by restriction code (no
  restriction pass, no evaluator call), a new restriction extends its
  table, the table honours ``max_entries`` and ``invalidate_caches``,
  and an uncoded (32-member) cluster keeps its evaluator memo -- every
  case bit-identical to a ``delta="off"`` twin;
- **serving integration** -- the empty delta runs zero plan executions,
  refit generation bumps discard stale memos, and
  ``run_serving(mutate_frac=...)`` replays a mutation trace with exact
  zero drift.
"""

from __future__ import annotations

import gc
import sys
import threading
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    ClusteredCorrelationFuser,
    DeltaScorer,
    ObservationMatrix,
    PatternValueMemo,
    ScoringSession,
    SourcePartition,
    dirty_columns,
    fit_model,
)
from repro.core import clustering, deltas, plans
from repro.core.bitset import PackedMatrix
from repro.core.elastic import ElasticFuser
from repro.core.patterns import CODE_MAX_MEMBERS, RestrictionTable
from repro.data import (
    CorrelationGroup,
    SyntheticConfig,
    generate,
    uniform_sources,
)
from repro.eval import mutation_trace, run_serving
from repro.persist import Checkpointer
from repro.persist.format import (
    decode_payload,
    encode_frame,
    encode_payload,
    read_frame,
)
from repro.persist.wal import RECORD_MUTATION, mutation_record


def _dataset(seed=5, n_sources=8, n_triples=240, correlated=True):
    groups = []
    if correlated and n_sources >= 6:
        groups = [
            CorrelationGroup(
                members=(0, 1, 2), mode="overlap_true", strength=0.85
            ),
            CorrelationGroup(
                members=(3, 4, 5), mode="overlap_false", strength=0.85
            ),
        ]
    config = SyntheticConfig(
        sources=uniform_sources(n_sources, precision=0.65, recall=0.45),
        n_triples=n_triples,
        true_fraction=0.5,
        groups=tuple(groups),
    )
    return generate(config, seed=seed)


def _matrix(provides, coverage=None):
    names = [f"s{i}" for i in range(provides.shape[0])]
    return ObservationMatrix(
        np.asarray(provides, dtype=bool), names, coverage=coverage
    )


def _fresh(matrix):
    """A content-equal copy with its own arrays and no cached state."""
    return ObservationMatrix(
        matrix.provides.copy(),
        matrix.source_names,
        coverage=matrix.coverage.copy(),
    )


def _redraw(matrix, rng, columns):
    """A stream step: claims in ``columns`` random triples re-drawn inside
    the unchanged coverage, which the new matrix shares by identity."""
    picked = rng.choice(matrix.n_triples, size=columns, replace=False)
    provides = matrix.provides.copy()
    provides[:, picked] = (
        rng.random((matrix.n_sources, columns)) < 0.4
    ) & matrix.coverage[:, picked]
    return ObservationMatrix(
        provides, matrix.source_names, coverage=matrix.coverage
    )


def _count_kernel_runs(monkeypatch):
    """Count runs of the unmemoised diff kernel behind dirty_columns."""
    runs = []
    kernel = deltas._diff_columns

    def counting(previous, current):
        runs.append(1)
        return kernel(previous, current)

    monkeypatch.setattr(deltas, "_diff_columns", counting)
    return runs


# ----------------------------------------------------------------------
# Diff mechanics
# ----------------------------------------------------------------------


class TestDirtyColumns:
    def test_identical_matrices_have_no_dirty_columns(self):
        matrix = _matrix(np.eye(4, 100, dtype=bool))
        clone = _matrix(np.eye(4, 100, dtype=bool))
        assert dirty_columns(matrix, clone).size == 0

    def test_single_bit_flip_marks_exactly_that_column(self):
        provides = np.zeros((3, 200), dtype=bool)
        provides[1, 77] = True
        before = _matrix(provides)
        flipped = provides.copy()
        flipped[1, 77] = False
        flipped[2, 130] = True
        after = _matrix(flipped)
        assert dirty_columns(before, after).tolist() == [77, 130]

    def test_coverage_change_is_dirty_even_with_same_provides(self):
        provides = np.zeros((3, 90), dtype=bool)
        coverage = np.ones((3, 90), dtype=bool)
        before = _matrix(provides, coverage.copy())
        narrowed = coverage.copy()
        narrowed[0, 33] = False
        after = _matrix(provides, narrowed)
        assert dirty_columns(before, after).tolist() == [33]

    def test_appended_columns_are_always_dirty(self):
        before = _matrix(np.zeros((2, 64), dtype=bool))
        # The appended columns are all-false provides with (default)
        # all-true coverage -- word content alone would flag them, so also
        # check all-false coverage, where only the width rule can.
        coverage = np.zeros((2, 70), dtype=bool)
        after = _matrix(np.zeros((2, 70), dtype=bool), coverage)
        dirty = dirty_columns(before, after)
        assert set(range(64, 70)) <= set(dirty.tolist())
        # Growth inside one word: no word is added and the new columns'
        # bits equal the old padding, so only the width rule flags them.
        narrow = _matrix(np.zeros((2, 60), dtype=bool), np.zeros((2, 60), bool))
        wider = _matrix(np.zeros((2, 63), dtype=bool), np.zeros((2, 63), bool))
        assert dirty_columns(narrow, wider).tolist() == [60, 61, 62]

    def test_removed_trailing_columns_do_not_dirty_the_shared_prefix(self):
        provides = np.zeros((2, 130), dtype=bool)
        provides[0, 5] = True
        before = _matrix(provides)
        after = _matrix(provides[:, :100])
        dirty = dirty_columns(before, after)
        # Columns 100..127 share word 1 with removed bits, so word-level
        # content may flag nothing (the removed bits were zero); whatever
        # is flagged must stay inside the new width.
        assert (dirty < 100).all()

    def test_mismatched_source_counts_are_incomparable(self):
        assert dirty_columns(
            _matrix(np.zeros((2, 10), dtype=bool)),
            _matrix(np.zeros((3, 10), dtype=bool)),
        ) is None

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        n_sources=st.integers(1, 5),
        widths=st.tuples(st.integers(0, 200), st.integers(0, 200)),
        share_coverage=st.booleans(),
    )
    def test_matches_a_boolean_column_reference(
        self, seed, n_sources, widths, share_coverage
    ):
        rng = np.random.default_rng(seed)
        wide = max(widths)
        coverage = rng.random((n_sources, wide)) < 0.8
        provides = (rng.random((n_sources, wide)) < 0.5) & coverage
        before = _matrix(provides[:, : widths[0]], coverage[:, : widths[0]])
        changed = provides.copy()
        flips = rng.random(changed.shape) < 0.02
        changed[flips] = ~changed[flips]
        changed &= coverage
        if share_coverage and widths[0] == widths[1]:
            new_coverage = before.coverage
        else:
            new_coverage = coverage[:, : widths[1]].copy()
            dropped = rng.random(new_coverage.shape) < 0.02
            new_coverage[dropped & ~changed[:, : widths[1]]] = False
        after = _matrix(changed[:, : widths[1]], new_coverage)
        shared = min(widths)
        differs = (
            (before.provides[:, :shared] != after.provides[:, :shared])
            | (before.coverage[:, :shared] != after.coverage[:, :shared])
        ).any(axis=0)
        expected = np.flatnonzero(differs).tolist() + list(
            range(shared, widths[1])
        )
        assert dirty_columns(before, after).tolist() == expected

    def test_a_matrix_against_itself_reads_no_words(self, monkeypatch):
        runs = _count_kernel_runs(monkeypatch)
        matrix = _matrix(np.eye(4, 100, dtype=bool))
        dirty = dirty_columns(matrix, matrix)
        assert dirty.size == 0 and not dirty.flags.writeable
        assert runs == []
        assert matrix._packed_provides is None  # never packed

    def test_same_previous_reuses_the_memo(self, monkeypatch):
        runs = _count_kernel_runs(monkeypatch)
        before = _matrix(np.eye(3, 200, dtype=bool))
        after = _matrix(np.eye(3, 200, k=1, dtype=bool))
        first = dirty_columns(before, after)
        assert dirty_columns(before, after) is first
        assert len(runs) == 1

    def test_equal_but_distinct_previous_recomputes(self, monkeypatch):
        runs = _count_kernel_runs(monkeypatch)
        before = _matrix(np.eye(3, 200, dtype=bool))
        after = _matrix(np.eye(3, 200, k=1, dtype=bool))
        first = dirty_columns(before, after)
        second = dirty_columns(_fresh(before), after)
        assert second is not first
        assert np.array_equal(second, first)
        assert len(runs) == 2
        # The memo now belongs to the clone: the original recomputes too.
        dirty_columns(before, after)
        assert len(runs) == 3

    def test_collected_previous_recomputes_and_is_not_kept_alive(
        self, monkeypatch
    ):
        runs = _count_kernel_runs(monkeypatch)
        after = _matrix(np.eye(3, 200, k=1, dtype=bool))
        before = _matrix(np.eye(3, 200, dtype=bool))
        expected = dirty_columns(before, after).copy()
        alive = weakref.ref(before)
        del before
        gc.collect()
        assert alive() is None  # the memo held its previous weakly
        again = dirty_columns(_matrix(np.eye(3, 200, dtype=bool)), after)
        assert np.array_equal(again, expected)
        assert len(runs) == 2

    def test_result_is_read_only(self):
        dirty = dirty_columns(
            _matrix(np.eye(3, 200, dtype=bool)),
            _matrix(np.eye(3, 200, k=1, dtype=bool)),
        )
        assert dirty.size and not dirty.flags.writeable
        with pytest.raises(ValueError):
            dirty[0] = 0

    def test_shared_coverage_shares_its_packed_words(self):
        rng = np.random.default_rng(4)
        coverage = rng.random((5, 300)) < 0.8
        provides = (rng.random((5, 300)) < 0.5) & coverage
        before = _matrix(provides, coverage)
        packed = before.packed_coverage
        flipped = provides.copy()
        flipped[2, 17] = not flipped[2, 17] and coverage[2, 17]
        flipped[4, 250] = False
        after = _matrix(flipped, before.coverage)
        dirty = dirty_columns(before, after)
        assert after.packed_coverage is packed
        assert np.array_equal(
            after.packed_coverage.words,
            PackedMatrix.from_bool(coverage).words,
        )
        assert np.array_equal(dirty, dirty_columns(_fresh(before), after))
        # An equal but distinct coverage array is packed and diffed anew.
        copied = _matrix(flipped, coverage.copy())
        assert np.array_equal(dirty_columns(before, copied), dirty)
        assert copied.packed_coverage is not packed
        assert np.array_equal(copied.packed_coverage.words, packed.words)

    def test_threads_diffing_one_matrix_agree_with_the_kernel(self):
        rng = np.random.default_rng(9)
        coverage = rng.random((6, 700)) < 0.9
        current = _matrix((rng.random((6, 700)) < 0.5) & coverage, coverage)
        previous = []
        for k in range(8):
            # Half share current's coverage array, half carry a copy.
            shared = current.coverage if k % 2 else coverage.copy()
            provides = current.provides.copy()
            cols = rng.choice(700, size=5 * (k + 1), replace=False)
            provides[:, cols] = (rng.random((6, cols.size)) < 0.5) & (
                coverage[:, cols]
            )
            previous.append(_matrix(provides, shared))
        expected = [
            deltas._diff_columns(_fresh(prev), _fresh(current))
            for prev in previous
        ]
        barrier = threading.Barrier(len(previous))
        failures = []

        def hammer(k):
            barrier.wait()
            for _ in range(300):
                got = dirty_columns(previous[k], current)
                if not np.array_equal(got, expected[k]):
                    failures.append(k)
                    return

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=hammer, args=(k,))
                for k in range(len(previous))
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert failures == []
        assert np.array_equal(
            current.packed_coverage.words,
            PackedMatrix.from_bool(coverage).words,
        )


# ----------------------------------------------------------------------
# Memo mechanics
# ----------------------------------------------------------------------


class TestPatternValueMemo:
    def test_lookup_store_roundtrip_and_counters(self):
        memo = PatternValueMemo(max_entries=8)
        values, novel = memo.lookup([b"a", b"b"])
        assert values == [None, None] and novel.tolist() == [0, 1]
        memo.store([b"a", b"b"], [1.0, 2.0])
        values, novel = memo.lookup([b"a", b"b", b"c"])
        assert values[:2] == [1.0, 2.0] and novel.tolist() == [2]
        stats = memo.stats
        assert stats["hits"] == 2 and stats["misses"] == 3
        assert stats["entries"] == 2

    def test_eviction_is_oldest_first_and_counted(self):
        memo = PatternValueMemo(max_entries=2)
        memo.store([b"a", b"b", b"c"], [1.0, 2.0, 3.0])
        assert len(memo) == 2
        assert memo.stats["evictions"] == 1
        values, _ = memo.lookup([b"a", b"b", b"c"])
        assert values == [None, 2.0, 3.0]

    def test_generation_guard_drops_stale_stores(self):
        memo = PatternValueMemo(max_entries=8)
        generation = memo.generation
        memo.invalidate()
        memo.store([b"a"], [1.0], generation=generation)
        assert len(memo) == 0  # stale batch dropped
        memo.store([b"a"], [1.0], generation=memo.generation)
        assert len(memo) == 1

    def test_zero_entries_disables_storage(self):
        memo = PatternValueMemo(max_entries=0)
        memo.store([b"a"], [1.0])
        assert len(memo) == 0

    def test_negative_cap_rejected(self):
        with pytest.raises(ValueError, match="max_entries"):
            PatternValueMemo(max_entries=-1)


class TestLazyMemoSeed:
    """An empty memo parks its first batch unkeyed (PatternValueMemo.seed)."""

    @staticmethod
    def _seeded(max_entries=64, rows=6):
        # Row r provides the sources of r's binary digits: distinct rows.
        providers = (np.arange(rows)[:, None] >> np.arange(10)) & 1 == 1
        silent = ~providers
        silent[:, 5:] = False
        keys = plans.pattern_row_keys(providers, silent)
        assert len(set(keys)) == rows
        memo = PatternValueMemo(max_entries=max_entries)
        memo.seed(providers, silent, (np.arange(rows, dtype=float),))
        return memo, keys

    def test_seed_is_keyed_on_first_lookup(self):
        memo, keys = self._seeded()
        assert len(memo) == 6 and memo.stats["entries"] == 6
        assert memo.stats["misses"] == 6  # as an eager lookup would count
        values, novel = memo.lookup(keys + [b"other"])
        assert values == [0.0, 1.0, 2.0, 3.0, 4.0, 5.0, None]
        assert novel.tolist() == [6]
        assert memo.stats["hits"] == 6 and len(memo) == 6

    def test_two_columns_become_tuples(self):
        providers = np.array([[True, False], [False, True]])
        silent = ~providers
        memo = PatternValueMemo()
        memo.seed(
            providers, silent,
            (np.array([0.25, 0.5]), np.array([0.75, 1.0])),
        )
        values, _ = memo.lookup(plans.pattern_row_keys(providers, silent))
        assert values == [(0.25, 0.75), (0.5, 1.0)]

    def test_invalidate_drops_an_unkeyed_seed(self):
        memo, keys = self._seeded()
        memo.invalidate()
        assert len(memo) == 0
        values, novel = memo.lookup(keys)
        assert values == [None] * 6 and novel.size == 6

    def test_stale_generation_seed_is_ignored(self):
        memo = PatternValueMemo()
        generation = memo.generation
        memo.invalidate()
        providers = np.eye(3, dtype=bool)
        memo.seed(providers, ~providers, (np.ones(3),), generation=generation)
        assert len(memo) == 0 and memo.stats["misses"] == 0
        memo.seed(
            providers, ~providers, (np.ones(3),), generation=memo.generation
        )
        assert len(memo) == 3

    def test_seed_evicts_like_an_eager_store(self):
        memo, keys = self._seeded(max_entries=4)
        assert len(memo) == 4
        values, _ = memo.lookup(keys)
        assert values == [None, None, 2.0, 3.0, 4.0, 5.0]
        assert memo.stats["evictions"] == 2

    def test_seed_copies_writeable_inputs(self):
        providers = np.eye(3, dtype=bool)
        silent = ~providers
        values = np.array([1.0, 2.0, 3.0])
        memo = PatternValueMemo()
        memo.seed(providers, silent, (values,))
        keys = plans.pattern_row_keys(providers, silent)
        providers[:] = False
        values[:] = -1.0
        assert memo.lookup(keys)[0] == [1.0, 2.0, 3.0]

    def test_concurrent_first_lookups_agree(self):
        memo, keys = self._seeded(max_entries=1000, rows=200)
        barrier = threading.Barrier(8)
        results = [None] * 8

        def worker(index):
            barrier.wait()
            results[index] = memo.lookup(keys)

        threads = [
            threading.Thread(target=worker, args=(index,))
            for index in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        expected = [float(value) for value in range(200)]
        for values, novel in results:
            assert values == expected and novel.size == 0
        assert len(memo) == 200

    @pytest.mark.parametrize("method", ("exact", "clustered"))
    def test_scoring_once_builds_no_row_keys(self, method, monkeypatch):
        calls = []
        real = plans.pattern_row_keys

        def counting(*args):
            calls.append(1)
            return real(*args)

        monkeypatch.setattr(plans, "pattern_row_keys", counting)
        monkeypatch.setattr(deltas, "pattern_row_keys", counting)
        dataset = _dataset(seed=21, n_triples=300)
        session = ScoringSession(
            dataset.observations, dataset.labels, method=method
        )
        try:
            session.score(dataset.observations)
            assert calls == []
            mutated = dataset.observations.provides.copy()
            mutated[0, :20] = ~mutated[0, :20]
            session.score(_named(mutated, dataset.observations))
            assert calls  # a second request keys the seeds, once
        finally:
            session.close()

    @pytest.mark.parametrize("method", ("exact", "clustered"))
    def test_lazy_seed_equals_eager_seed(self, method, monkeypatch):
        dataset = _dataset(seed=22, n_triples=300)
        steps = [dataset.observations]
        rng = np.random.default_rng(22)
        for _ in range(4):
            provides = steps[-1].provides.copy()
            columns = rng.choice(provides.shape[1], size=12, replace=False)
            rows = rng.integers(0, provides.shape[0], size=12)
            provides[rows, columns] = ~provides[rows, columns]
            steps.append(_named(provides, dataset.observations))

        def run():
            session = ScoringSession(
                dataset.observations, dataset.labels, method=method
            )
            try:
                scores = [session.score(step) for step in steps]
                stats = session.cache_stats()
                return scores, stats["delta"], _evaluator_memo_stats(session)
            finally:
                session.close()

        lazy = run()

        def eager_seed(self, providers, silent, columns, generation=None):
            values = (
                columns[0].tolist() if len(columns) == 1
                else list(zip(*(column.tolist() for column in columns)))
            )
            self.misses += providers.shape[0]
            self.store(
                plans.pattern_row_keys(providers, silent), values,
                generation=generation,
            )

        monkeypatch.setattr(PatternValueMemo, "seed", eager_seed)
        eager = run()
        assert all(
            np.array_equal(a, b) for a, b in zip(lazy[0], eager[0])
        )
        assert lazy[1] == eager[1]
        assert lazy[2] == eager[2]
        assert lazy[1]["memo"]["hits"] > 0


def _named(provides, like):
    return ObservationMatrix(provides, like.source_names, coverage=like.coverage)


def _evaluator_memo_stats(session):
    """The fuser's sub-pattern reuse state below the score-level memo.

    Exact and elastic fusers report their row memo's counters.  The
    clustered fuser keeps a log table per coded evaluator group instead
    of evaluator memos, so it reports the tables' contents (and the memo
    counters of any evaluator that still has one).
    """
    fuser = session.fuser
    if not hasattr(fuser, "log_tables"):
        return [fuser.delta_memo.stats]
    tables = [
        tuple(array.tolist() for array in table)
        for table in fuser.log_tables
        if table is not None
    ]
    assert tables and all(keys for keys, _, _ in tables)
    return tables + [
        evaluator.delta_memo.stats
        for evaluator in fuser.elastic_evaluators().values()
        if evaluator.delta_memo is not None
    ]


# ----------------------------------------------------------------------
# Delta equivalence: delta scores == cold scores, exactly
# ----------------------------------------------------------------------


class TestDeltaEquivalence:
    @settings(max_examples=6, deadline=None)
    @given(
        seed=st.integers(0, 40),
        n_triples=st.integers(20, 160),
        frac=st.floats(0.01, 0.25),
        steps=st.integers(1, 3),
        method=st.sampled_from(("exact", "elastic", "clustered")),
    )
    def test_random_mutation_sequences_score_bit_identically(
        self, seed, n_triples, frac, steps, method
    ):
        dataset = _dataset(seed=seed, n_triples=n_triples)
        observations, labels = dataset.observations, dataset.labels
        session = ScoringSession(observations, labels, method=method)
        reference = ScoringSession(
            observations, labels, method=method, delta="off"
        )
        for matrix in [observations] + mutation_trace(
            observations, steps, frac, seed=seed
        ):
            assert np.array_equal(
                session.score(matrix), reference.score(matrix)
            )

    def test_full_churn_falls_back_to_cold_scoring(self):
        first = _dataset(seed=11, n_triples=150)
        second = _dataset(seed=12, n_triples=150)
        session = ScoringSession(
            first.observations, first.labels, method="exact"
        )
        reference = ScoringSession(
            first.observations, first.labels, method="exact", delta="off"
        )
        for matrix in (first.observations, second.observations):
            assert np.array_equal(
                session.score(matrix), reference.score(matrix)
            )
        stats = session.cache_stats()["delta"]
        assert stats["cold"] == 2 and stats["delta"] == 0

    def test_width_changes_are_handled(self):
        dataset = _dataset(seed=13, n_triples=180)
        observations = dataset.observations
        session = ScoringSession(
            observations, dataset.labels, method="elastic"
        )
        reference = ScoringSession(
            observations, dataset.labels, method="elastic", delta="off"
        )
        shrink_mask = np.ones(observations.n_triples, dtype=bool)
        shrink_mask[100:] = False
        trace = [
            observations,
            observations.restricted_to_triples(shrink_mask),
            observations,  # grows back
        ]
        for matrix in trace:
            served = session.score(matrix)
            assert np.abs(served - reference.score(matrix)).max() == 0.0
        # Both width changes went through the delta path's prefix copy.
        assert session.cache_stats()["delta"]["delta"] == 2

    @pytest.mark.parametrize("frac", (0.01, 0.05))
    def test_book_like_replay_takes_the_delta_path_every_step(
        self, book_like, frac
    ):
        dataset = book_like(24, 1200)
        observations, labels = dataset.observations, dataset.labels
        session = ScoringSession(observations, labels, method="precreccorr")
        reference = ScoringSession(
            observations, labels, method="precreccorr", delta="off"
        )
        session.score(observations)
        before = dict(session.cache_stats()["delta"])
        trace = mutation_trace(observations, 4, frac, seed=int(frac * 1000))
        for matrix in trace:
            assert np.array_equal(
                session.score(matrix), reference.score(matrix)
            )
        after = session.cache_stats()["delta"]
        # Streaming churn of 1-5% never falls back to cold scoring, and
        # only the dirty columns' distinct patterns are scored afresh.
        assert after["delta"] - before["delta"] == len(trace)
        assert after["cold"] == before["cold"]
        novel = after["novel_patterns"] - before["novel_patterns"]
        dirty = after["dirty_columns"] - before["dirty_columns"]
        assert 0 < novel <= dirty


class TestDeltaServingBehaviour:
    def test_empty_delta_runs_zero_plan_executions(self):
        dataset = _dataset(seed=17)
        session = ScoringSession(
            dataset.observations, dataset.labels, method="exact"
        )
        first = session.score(dataset.observations)
        computes = session.cache_stats()["computes"]
        memo_stats = session.delta_scorer.memo.stats
        # A content-identical rebuild of the matrix, not the same object.
        clone = ObservationMatrix(
            dataset.observations.provides.copy(),
            dataset.observations.source_names,
            coverage=dataset.observations.coverage.copy(),
        )
        second = session.score(clone)
        assert np.array_equal(first, second)
        stats = session.cache_stats()
        assert stats["computes"] == computes  # zero plan executions
        assert stats["delta"]["identical"] == 1
        assert stats["delta"]["memo"]["misses"] == memo_stats["misses"]

    @pytest.mark.parametrize("method", ("exact", "clustered"))
    def test_delta_steps_do_not_churn_the_plan_cache(self, method):
        # Every delta step's novel sub-batch carries a never-recurring
        # digest; caching those would evict the seeded entries and fill
        # the LRU with dead plans.  Only the seeding workload is stored.
        dataset = _dataset(seed=18, n_triples=300)
        session = ScoringSession(
            dataset.observations, dataset.labels, method=method
        )
        rng = np.random.default_rng(3)
        current = dataset.observations
        session.score(current)
        for _ in range(20):
            provides = current.provides.copy()
            columns = rng.choice(current.n_triples, 5, replace=False)
            rows = rng.integers(0, current.n_sources, 5)
            provides[rows, columns] ^= True
            current = ObservationMatrix(
                provides, current.source_names, coverage=current.coverage
            )
            session.score(current)
        stats = session.cache_stats()
        assert stats["evictions"] == 0
        assert stats["entries"] <= 2  # the seeded workload only

    def test_checkpointed_stream_diffs_each_step_once(
        self, tmp_path, monkeypatch
    ):
        # The WAL and the delta scorer both diff every step against the
        # same previous matrix; the memo on the new matrix lets them
        # share one kernel run (the refit's self-diff reads no words).
        steps, refit_every = 200, 50
        dataset = _dataset(seed=21, n_triples=320)
        labels = dataset.labels
        session = ScoringSession(
            dataset.observations, labels, method="clustered"
        )
        checkpointer = Checkpointer.attach(
            session, dataset.observations, labels, tmp_path
        )
        session.score(dataset.observations)
        runs = _count_kernel_runs(monkeypatch)
        rng = np.random.default_rng(21)
        logged = [dataset.observations]
        delta_steps = 0
        try:
            for step in range(1, steps + 1):
                current = _redraw(logged[-1], rng, 4)
                checkpointer.log_mutation(current, step=step - 1)
                logged.append(current)
                if step % refit_every == 0:
                    # A refit swaps in a fresh scorer and its counters.
                    delta_steps += session.cache_stats()["delta"]["delta"]
                    session.refit_delta(current, labels)
                session.score(current)
        finally:
            checkpointer.close()
            session.attach_checkpointer(None)
        assert len(runs) <= steps
        assert delta_steps >= steps - 2 * steps // refit_every

        # Every mutation frame is byte-identical to the one built from
        # fresh copies: no memo, no shared coverage.
        data = (tmp_path / "wal.log").read_bytes()
        offset, mutations = 0, 0
        while offset < len(data):
            payload, end = read_frame(data, offset)
            meta, _ = decode_payload(payload)
            if meta["type"] == RECORD_MUTATION:
                mutations += 1
                previous, current = logged[mutations - 1], logged[mutations]
                record = mutation_record(
                    _fresh(previous), _fresh(current), labels,
                    seq=meta["seq"], step=meta["step"],
                )
                assert data[offset:end] == encode_frame(
                    encode_payload(*record)
                )
            offset = end
        assert mutations == steps
        session.close()

    def test_returned_scores_are_decoupled_from_the_snapshot(self):
        dataset = _dataset(seed=19)
        session = ScoringSession(
            dataset.observations, dataset.labels, method="exact"
        )
        first = session.score(dataset.observations)
        pristine = first.copy()
        first[:] = -1.0  # a misbehaving caller must not poison the cache
        assert np.array_equal(session.score(dataset.observations), pristine)

    def test_delta_across_refit_discards_stale_memos(self):
        dataset = _dataset(seed=23)
        observations, labels = dataset.observations, dataset.labels
        session = ScoringSession(observations, labels, method="exact")
        session.score(observations)
        old_scorer = session.delta_scorer
        session.refit(observations, labels, smoothing=1.0)
        assert session.delta_scorer is not old_scorer
        reference = ScoringSession(
            observations, labels, method="exact", smoothing=1.0,
            delta="off",
        )
        # Same matrix as before the refit: a stale memo would resurrect
        # the old generation's probabilities here.
        assert np.array_equal(
            session.score(observations), reference.score(observations)
        )
        assert session.cache_stats()["delta"]["identical"] == 0

    def test_identical_fast_path_for_non_invariant_fusers(self):
        # PrecRec's matmul is not batch-size invariant, so only whole
        # identical requests are reused -- and they must be, exactly.
        dataset = _dataset(seed=29)
        session = ScoringSession(
            dataset.observations, dataset.labels, method="precrec"
        )
        first = session.score(dataset.observations)
        second = session.score(dataset.observations)
        assert np.array_equal(first, second)
        stats = session.cache_stats()["delta"]
        assert stats["identical"] == 1
        assert stats["novel_patterns"] == 0  # no pattern-level reuse

    def test_invalid_delta_mode_rejected(self):
        dataset = _dataset(seed=37, n_sources=4, n_triples=40,
                           correlated=False)
        with pytest.raises(ValueError, match="delta"):
            ScoringSession(
                dataset.observations, dataset.labels, delta="maybe"
            )


# ----------------------------------------------------------------------
# Clustered log tables: per-restriction reuse keyed by restriction code
# ----------------------------------------------------------------------


def _clustered_pair(seed=61, n_triples=300):
    """A warmed clustered delta session and its ``delta="off"`` twin."""
    dataset = _dataset(seed=seed, n_triples=n_triples)
    session = ScoringSession(
        dataset.observations, dataset.labels, method="clustered"
    )
    twin = ScoringSession(
        dataset.observations, dataset.labels, method="clustered",
        delta="off",
    )
    assert isinstance(session.fuser, ClusteredCorrelationFuser)
    steps = [dataset.observations] + mutation_trace(
        dataset.observations, 3, 0.03, seed=seed
    )
    for matrix in steps:
        assert np.array_equal(session.score(matrix), twin.score(matrix))
    return session, twin, steps[-1]


def _table_entries(fuser):
    return [
        None if table is None else table[0].size for table in fuser.log_tables
    ]


def _joined_components(fuser):
    """Source sets that are unions of clusters on both sides."""
    owner = list(range(fuser.model.n_sources))

    def find(i):
        while owner[i] != i:
            owner[i] = owner[owner[i]]
            i = owner[i]
        return i

    for partition in (fuser.true_partition, fuser.false_partition):
        for cluster in partition.clusters:
            first, *rest = sorted(cluster)
            for member in rest:
                owner[find(member)] = find(first)
    components: dict[int, list[int]] = {}
    for source in range(fuser.model.n_sources):
        components.setdefault(find(source), []).append(source)
    return list(components.values())


def _recombined_step(fuser, matrix):
    """``matrix`` with column 0 rebuilt from two columns' restrictions.

    The new column takes one joined component's rows from column ``i``
    and every other row from column ``j``, so each cluster restriction of
    its pattern is one the fuser has already scored, while the global
    pattern itself is new to the stream.
    """
    provides, coverage = matrix.provides, matrix.coverage
    seen = {
        (provides[:, k].tobytes(), coverage[:, k].tobytes())
        for k in range(matrix.n_triples)
    }
    rows = np.zeros(matrix.n_sources, dtype=bool)
    rows[_joined_components(fuser)[0]] = True
    for i in range(matrix.n_triples):
        for j in range(matrix.n_triples):
            column = np.where(rows, provides[:, i], provides[:, j])
            covered = np.where(rows, coverage[:, i], coverage[:, j])
            if (column.tobytes(), covered.tobytes()) not in seen:
                new_provides, new_coverage = provides.copy(), coverage.copy()
                new_provides[:, 0], new_coverage[:, 0] = column, covered
                return ObservationMatrix(
                    new_provides, matrix.source_names, coverage=new_coverage
                )
    raise AssertionError("no recombined pattern is new")


class TestClusteredLogTable:
    def test_known_restrictions_skip_restriction_and_evaluation(
        self, monkeypatch
    ):
        session, twin, current = _clustered_pair()
        fuser = session.fuser
        assert len(_joined_components(fuser)) >= 2
        step = _recombined_step(fuser, current)

        calls = []

        def spy(name, real):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return real(*args, **kwargs)
            return wrapper

        # The restriction passes (the exact group's key dedup, an elastic
        # group's sub-pattern table) and the evaluations (the exact group's
        # code plan, an elastic evaluator's batch).
        for owner, name, kind in (
            (clustering, "restricted_unique_patterns", "restrict"),
            (RestrictionTable, "unique_keys", "restrict"),
            (ClusteredCorrelationFuser, "_exact_logs", "evaluate"),
            (ElasticFuser, "pattern_likelihoods_batch", "evaluate"),
            (ClusteredCorrelationFuser, "pattern_mu_batch", "mu"),
        ):
            monkeypatch.setattr(owner, name, spy(kind, getattr(owner, name)))
        before = _table_entries(fuser)
        scores = session.score(step)
        assert calls == ["mu"]
        assert _table_entries(fuser) == before
        # The spies do see a restriction the table lacks: a source that
        # stops covering a triple of this fully covered stream.
        coverage = step.coverage.copy()
        source, triple = np.argwhere(~step.provides)[0]
        coverage[source, triple] = False
        novel = ObservationMatrix(
            step.provides, step.source_names, coverage=coverage
        )
        novel_scores = session.score(novel)
        assert {"restrict", "evaluate"} <= set(calls[1:])
        monkeypatch.undo()
        assert np.array_equal(scores, twin.score(step))
        assert np.array_equal(novel_scores, twin.score(novel))
        session.close()
        twin.close()

    def test_new_restriction_extends_the_table(self):
        session, twin, current = _clustered_pair(seed=62)
        fuser = session.fuser
        before = sum(_table_entries(fuser))
        # The dataset covers every triple fully, so a source that stops
        # covering one makes a restriction no earlier request had.
        coverage = current.coverage.copy()
        source, triple = np.argwhere(~current.provides)[0]
        coverage[source, triple] = False
        step = ObservationMatrix(
            current.provides, current.source_names, coverage=coverage
        )
        assert np.array_equal(session.score(step), twin.score(step))
        assert sum(_table_entries(fuser)) > before
        session.close()
        twin.close()

    def test_invalidate_caches_empties_the_table(self):
        session, twin, current = _clustered_pair(seed=63)
        fuser = session.fuser
        assert all(entries for entries in _table_entries(fuser))
        fuser.invalidate_caches()
        assert set(_table_entries(fuser)) == {0}
        step = mutation_trace(current, 1, 0.03, seed=1)[0]
        assert np.array_equal(session.score(step), twin.score(step))
        assert all(entries for entries in _table_entries(fuser))
        session.close()
        twin.close()

    def test_max_entries_caps_the_table(self):
        dataset = _dataset(seed=64)
        model = fit_model(dataset.observations, dataset.labels)
        fuser = ClusteredCorrelationFuser(model)
        fuser.enable_delta_memo(max_entries=5)
        scorer = DeltaScorer(fuser)
        twin = ClusteredCorrelationFuser(
            model,
            true_partition=fuser.true_partition,
            false_partition=fuser.false_partition,
        )
        steps = [dataset.observations] + mutation_trace(
            dataset.observations, 4, 0.05, seed=64
        )
        for matrix in steps:
            assert np.array_equal(scorer.score(matrix), twin.score(matrix))
        assert max(_table_entries(fuser)) == 5
        with pytest.raises(ValueError, match="max_entries"):
            fuser.enable_delta_memo(max_entries=-1)

    def test_uncoded_cluster_keeps_its_evaluator_memo(self):
        n_sources = CODE_MAX_MEMBERS + 3
        dataset = _dataset(seed=65, n_sources=n_sources, n_triples=60)
        model = fit_model(dataset.observations, dataset.labels)
        wide = frozenset(range(CODE_MAX_MEMBERS + 1))
        partition = SourcePartition(
            (wide,) + tuple(
                frozenset([source])
                for source in range(CODE_MAX_MEMBERS + 1, n_sources)
            )
        )
        fuser = ClusteredCorrelationFuser(
            model, true_partition=partition, false_partition=partition
        )
        twin = ClusteredCorrelationFuser(
            model, true_partition=partition, false_partition=partition
        )
        fuser.enable_delta_memo()
        scorer = DeltaScorer(fuser)
        steps = [dataset.observations] + mutation_trace(
            dataset.observations, 3, 0.05, seed=65
        )
        for matrix in steps:
            assert np.array_equal(scorer.score(matrix), twin.score(matrix))
        elastic = fuser.elastic_evaluators()[wide]
        assert elastic.delta_memo is not None and len(elastic.delta_memo)
        entries = _table_entries(fuser)
        assert None in entries and any(entries)


# ----------------------------------------------------------------------
# run_serving mutation traces
# ----------------------------------------------------------------------


class TestStreamingServing:
    def test_mutation_trace_steps_differ_and_are_valid(self):
        dataset = _dataset(seed=41)
        trace = mutation_trace(dataset.observations, 3, 0.05, seed=1)
        assert len(trace) == 3
        previous = dataset.observations
        for matrix in trace:
            assert matrix.n_triples == previous.n_triples
            assert not np.array_equal(matrix.provides, previous.provides)
            assert not np.any(matrix.provides & ~matrix.coverage)
            previous = matrix

    def test_run_serving_replays_mutations_with_zero_drift(self):
        dataset = _dataset(seed=43)
        report = run_serving(
            dataset, method="precreccorr", repeats=4, mutate_frac=0.05
        )
        assert report.repeats == 4
        assert report.mutate_frac == 0.05
        assert report.delta == "auto"
        assert report.max_warm_drift == 0.0
        assert report.delta_stats["delta"] + report.delta_stats["cold"] >= 1
        assert report.plan_cache_stats["computes"] >= 1

    def test_run_serving_delta_off_reports_unchecked_drift(self):
        dataset = _dataset(seed=47)
        report = run_serving(
            dataset, method="precreccorr", repeats=3, mutate_frac=0.05,
            delta="off",
        )
        assert report.delta == "off"
        # No delta layer means no independent reference: the report says
        # "unchecked" (NaN) instead of a vacuous 0.0.
        assert np.isnan(report.max_warm_drift)
        assert report.delta_stats == {}

    def test_run_serving_rejects_bad_mutate_frac(self):
        dataset = _dataset(seed=53, n_sources=4, n_triples=40,
                           correlated=False)
        with pytest.raises(ValueError, match="mutate_frac"):
            run_serving(dataset, repeats=2, mutate_frac=1.5)
