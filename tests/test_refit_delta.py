"""Incremental delta-aware refit (PR 6).

Five layers of guarantees:

- **word-diff mechanics** -- :func:`repro.core.deltas.dirty_words`
  reports exactly the packed ``uint64`` words whose provides/coverage or
  label bits changed, flags dirty sources and label churn, and returns
  ``None`` for incomparable snapshots;
- **model bit-identity** -- :meth:`EmpiricalJointModel.refit_delta`
  produces a model whose every score is *exactly* equal (diff 0.0, not
  approx) to a cold :func:`fit_model`, across mutation streams, width
  changes, label flips, parameter overrides, and the full-churn /
  incomparable-diff fallbacks;
- **session bit-identity** -- hypothesis-driven: mutation streams
  refitted through ``ScoringSession.refit_delta`` score bit-identically
  to a cold-refitting session for every fuser family, including under concurrent scoring (no mixed-generation vectors);
- **carry machinery** -- the vectorized significance batch equals the
  scalar oracle test (``tests/reference.py``) table-for-table, detection
  state round-trips through :func:`refresh_partition_state` exactly,
  ``_components_partition`` reproduces networkx component order, and the
  session-carried :class:`SignificanceMemo` changes decisions never;
- **serving integration** -- ``run_serving(refit_every=...)`` verifies
  every refit against a lockstep cold-refit oracle, records wall-clock
  and counters, and EM warm starts save iterations while landing on the
  cold fixed point.
"""

from __future__ import annotations

import threading

import networkx as nx
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import ObservationMatrix, ScoringSession, fit_model, fuse
from repro.core.api import check_refit_mode
import reference
from repro.core.clustering import (
    SignificanceMemo,
    _components_partition,
    _significant_batch,
    detect_partition_state,
    refresh_partition_state,
)
from repro.core.deltas import dirty_words
from repro.core.joint import EmpiricalJointModel
from repro.data import (
    CorrelationGroup,
    SyntheticConfig,
    generate,
    uniform_sources,
)
from repro.eval import mutation_trace, run_serving


def _dataset(seed=5, n_sources=10, n_triples=260, correlated=True):
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


def _matrix(provides, coverage=None, names=None):
    provides = np.asarray(provides, dtype=bool)
    if names is None:
        names = [f"s{i}" for i in range(provides.shape[0])]
    return ObservationMatrix(provides, names, coverage=coverage)


def _mutate_sources(observations, source_ids, column_slice, seed=0):
    """Flip ~half the covered bits of ``source_ids`` inside one window."""
    rng = np.random.default_rng(seed)
    provides = observations.provides.copy()
    coverage = observations.coverage.copy()
    cols = np.arange(observations.n_triples)[column_slice]
    for s in source_ids:
        flip = cols[rng.random(cols.size) < 0.5]
        flip = flip[coverage[s, flip]]
        provides[s, flip] = ~provides[s, flip]
    return ObservationMatrix(
        provides, observations.source_names, coverage=coverage
    )


# ----------------------------------------------------------------------
# Word-diff mechanics
# ----------------------------------------------------------------------


class TestDirtyWords:
    def test_identical_snapshots_have_empty_diff(self):
        matrix = _matrix(np.eye(4, 200, dtype=bool))
        labels = np.arange(200) % 2 == 0
        diff = dirty_words(matrix, _matrix(np.eye(4, 200, dtype=bool)),
                           labels, labels.copy())
        assert diff is not None
        assert diff.word_ids.size == 0
        assert not diff.labels_changed
        assert not diff.dirty_sources.any()
        assert diff.dirty_fraction == 0.0

    def test_single_bit_flip_dirties_exactly_one_word(self):
        provides = np.zeros((3, 300), dtype=bool)
        labels = np.zeros(300, dtype=bool)
        before = _matrix(provides)
        changed = provides.copy()
        changed[1, 130] = True  # word 130 // 64 == 2
        diff = dirty_words(before, _matrix(changed), labels, labels)
        assert diff.word_ids.tolist() == [2]
        assert diff.dirty_sources.tolist() == [False, True, False]
        assert not diff.labels_changed

    def test_coverage_change_is_dirty_even_with_same_provides(self):
        provides = np.zeros((2, 100), dtype=bool)
        coverage = np.ones((2, 100), dtype=bool)
        narrowed = coverage.copy()
        narrowed[0, 70] = False
        diff = dirty_words(
            _matrix(provides, coverage), _matrix(provides, narrowed),
            np.zeros(100, dtype=bool), np.zeros(100, dtype=bool),
        )
        assert diff.word_ids.tolist() == [1]
        assert diff.dirty_sources.tolist() == [True, False]

    def test_label_flip_sets_labels_changed_and_dirties_its_word(self):
        matrix = _matrix(np.zeros((2, 150), dtype=bool))
        labels = np.zeros(150, dtype=bool)
        flipped = labels.copy()
        flipped[80] = True  # word 1
        diff = dirty_words(matrix, matrix, labels, flipped)
        assert diff.labels_changed
        assert 1 in diff.word_ids.tolist()
        assert not diff.dirty_sources.any()

    def test_identical_labels_object_fast_path_matches_copy(self):
        dataset = _dataset(seed=3, n_triples=190)
        mutated = _mutate_sources(
            dataset.observations, [1, 4], slice(20, 60), seed=9
        )
        labels = dataset.labels
        fast = dirty_words(dataset.observations, mutated, labels, labels)
        slow = dirty_words(
            dataset.observations, mutated, labels, labels.copy()
        )
        assert np.array_equal(fast.word_ids, slow.word_ids)
        assert fast.labels_changed == slow.labels_changed == False  # noqa: E712
        assert np.array_equal(fast.dirty_sources, slow.dirty_sources)

    def test_width_growth_dirties_the_boundary_word(self):
        # Growing from 100 to 110 columns turns padding bits of word 1
        # into real ~labels bits: the complement packing must flag it.
        before = _matrix(np.zeros((2, 100), dtype=bool))
        after = _matrix(np.zeros((2, 110), dtype=bool))
        diff = dirty_words(
            before, after,
            np.zeros(100, dtype=bool), np.zeros(110, dtype=bool),
        )
        assert diff is not None
        assert 1 in diff.word_ids.tolist()

    def test_mismatched_sources_are_incomparable(self):
        a = _matrix(np.zeros((2, 50), dtype=bool))
        b = _matrix(np.zeros((3, 50), dtype=bool))
        labels = np.zeros(50, dtype=bool)
        assert dirty_words(a, b, labels, labels) is None
        renamed = _matrix(np.zeros((2, 50), dtype=bool),
                          names=["x0", "x1"])
        assert dirty_words(a, renamed, labels, labels) is None


# ----------------------------------------------------------------------
# Model-level bit-identity
# ----------------------------------------------------------------------


def _assert_models_bit_identical(delta_model, cold_model):
    for i in range(delta_model.n_sources):
        a, b = delta_model.source_quality(i), cold_model.source_quality(i)
        assert (a.precision, a.recall, a.false_positive_rate) == (
            b.precision, b.recall, b.false_positive_rate
        )
    rng = np.random.default_rng(0)
    for _ in range(12):
        size = int(rng.integers(1, min(6, delta_model.n_sources + 1)))
        subset = rng.choice(
            delta_model.n_sources, size=size, replace=False
        ).tolist()
        assert delta_model.joint_recall(subset) == cold_model.joint_recall(
            subset
        )
        assert delta_model.joint_fpr(subset) == cold_model.joint_fpr(subset)


class TestModelRefitDelta:
    def test_low_churn_takes_delta_path_and_is_bit_identical(self):
        dataset = _dataset(seed=7, n_triples=320)
        model = fit_model(dataset.observations, dataset.labels)
        mutated = _mutate_sources(
            dataset.observations, [2, 5], slice(40, 80), seed=1
        )
        new_model, stats = model.refit_delta(mutated, dataset.labels)
        assert stats.mode == "delta"
        assert stats.dirty_words > 0
        assert set(stats.dirty_source_ids) == {2, 5}
        assert not stats.labels_changed
        cold = fit_model(mutated, dataset.labels)
        _assert_models_bit_identical(new_model, cold)

    def test_label_churn_is_still_bit_identical(self):
        # prior pinned on both sides: model-level refit_delta keeps its
        # own prior when none is given, while fit_model re-estimates from
        # the (here: changed) labels -- the session reconciles the two.
        dataset = _dataset(seed=8, n_triples=280)
        model = fit_model(dataset.observations, dataset.labels, prior=0.5)
        flipped = dataset.labels.copy()
        flipped[10:14] = ~flipped[10:14]
        new_model, stats = model.refit_delta(dataset.observations, flipped)
        assert stats.labels_changed
        _assert_models_bit_identical(
            new_model, fit_model(dataset.observations, flipped, prior=0.5)
        )

    def test_full_churn_falls_back_to_exact_recount(self):
        first = _dataset(seed=11, n_triples=200)
        second = _dataset(seed=12, n_triples=200)
        model = fit_model(first.observations, first.labels, prior=0.5)
        new_model, stats = model.refit_delta(
            second.observations, second.labels
        )
        assert stats.mode == "cold"
        assert stats.reason is not None
        _assert_models_bit_identical(
            new_model,
            fit_model(second.observations, second.labels, prior=0.5),
        )

    def test_zero_churn_threshold_forces_cold(self):
        dataset = _dataset(seed=13, n_triples=200)
        model = fit_model(dataset.observations, dataset.labels)
        mutated = _mutate_sources(
            dataset.observations, [0], slice(0, 10), seed=2
        )
        _, stats = model.refit_delta(
            mutated, dataset.labels, max_churn_fraction=0.0
        )
        assert stats.mode == "cold"

    def test_width_growth_by_a_full_word_is_bit_identical(self):
        dataset = _dataset(seed=14, n_triples=256)
        model = fit_model(dataset.observations, dataset.labels, prior=0.5)
        extra = _dataset(seed=15, n_sources=10, n_triples=64)
        provides = np.concatenate(
            [dataset.observations.provides, extra.observations.provides],
            axis=1,
        )
        coverage = np.concatenate(
            [dataset.observations.coverage, extra.observations.coverage],
            axis=1,
        )
        grown = ObservationMatrix(
            provides, dataset.observations.source_names, coverage=coverage
        )
        labels = np.concatenate([dataset.labels, extra.labels])
        new_model, stats = model.refit_delta(grown, labels)
        _assert_models_bit_identical(
            new_model, fit_model(grown, labels, prior=0.5)
        )
        shrunk, stats = new_model.refit_delta(
            dataset.observations, dataset.labels
        )
        _assert_models_bit_identical(
            shrunk,
            fit_model(dataset.observations, dataset.labels, prior=0.5),
        )

    def test_parameter_overrides_match_cold_fits(self):
        dataset = _dataset(seed=16, n_triples=220)
        model = fit_model(dataset.observations, dataset.labels)
        mutated = _mutate_sources(
            dataset.observations, [3], slice(30, 70), seed=3
        )
        new_model, _ = model.refit_delta(
            mutated, dataset.labels, prior=0.4, smoothing=0.5
        )
        _assert_models_bit_identical(
            new_model,
            fit_model(mutated, dataset.labels, prior=0.4, smoothing=0.5),
        )


# ----------------------------------------------------------------------
# Session-level bit-identity
# ----------------------------------------------------------------------

METHODS = ("exact", "elastic", "clustered", "precrec")


class TestSessionRefitDelta:
    @settings(
        max_examples=5, deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        seed=st.integers(0, 30),
        n_triples=st.integers(80, 220),
        frac=st.floats(0.01, 0.2),
        method=st.sampled_from(METHODS),
    )
    def test_mutation_streams_refit_bit_identically(
        self, seed, n_triples, frac, method
    ):
        dataset = _dataset(seed=seed, n_triples=n_triples)
        labels = dataset.labels
        session = ScoringSession(dataset.observations, labels, method=method)
        cold = ScoringSession(
            dataset.observations, labels, method=method, delta="off"
        )
        for matrix in mutation_trace(
            dataset.observations, 3, frac, seed=seed
        ):
            session.refit_delta(matrix, labels)
            cold.refit(matrix, labels)
            delta_scores = session.score(matrix)
            cold_scores = cold.score(matrix)
            assert float(np.abs(delta_scores - cold_scores).max()) == 0.0

    def test_refit_counters_and_stats_surface(self):
        dataset = _dataset(seed=21, n_triples=240)
        session = ScoringSession(
            dataset.observations, dataset.labels, method="clustered"
        )
        session.score(dataset.observations)
        mutated = _mutate_sources(
            dataset.observations, [1, 6], slice(50, 90), seed=4
        )
        session.refit_delta(mutated, dataset.labels)
        session.refit(mutated, dataset.labels)
        stats = session.cache_stats()["refit"]
        assert stats["delta_refits"] == 1
        assert stats["cold_refits"] == 1
        assert len(stats["dirty_word_fractions"]) == 1
        assert 0.0 < stats["dirty_word_fractions"][0] <= 1.0
        assert len(stats["seconds"]) == 2
        # refit() resets last_refit_stats, dropping the "last" block.
        last = stats.get("last")
        assert last is None or last["mode"] in ("delta", "cold")
        assert "significance_memo" in stats

    @pytest.mark.parametrize("frac", (0.01, 0.05))
    def test_source_local_churn_stays_on_the_delta_path(
        self, book_like, frac
    ):
        # The streaming shape refit_delta exists for: between refits two
        # sources re-deliver one contiguous window, so most packed words
        # are clean and every refit transports counts instead of
        # recounting -- and still equals a cold refit bit for bit.
        dataset = book_like(24, 1200)
        labels = dataset.labels
        session = ScoringSession(
            dataset.observations, labels, method="precreccorr"
        )
        cold = ScoringSession(
            dataset.observations, labels, method="precreccorr", delta="off"
        )
        rng = np.random.default_rng(int(frac * 1000) + 17)
        window = max(1, round(frac * dataset.observations.n_triples))
        matrix = dataset.observations
        refits = 4
        for _ in range(refits):
            start = int(rng.integers(0, matrix.n_triples - window + 1))
            sources = rng.choice(matrix.n_sources, size=2, replace=False)
            matrix = _mutate_sources(
                matrix, sources, slice(start, start + window),
                seed=int(rng.integers(1 << 30)),
            )
            session.refit_delta(matrix, labels)
            cold.refit(matrix, labels)
            assert np.array_equal(session.score(matrix), cold.score(matrix))
        stats = session.cache_stats()["refit"]
        assert stats["delta_refits"] == refits
        assert stats["cold_refits"] == 0
        assert len(stats["dirty_word_fractions"]) == refits
        assert all(f < 1.0 for f in stats["dirty_word_fractions"])

    def test_refit_delta_rejects_unknown_overrides(self):
        dataset = _dataset(seed=22, n_triples=120)
        session = ScoringSession(
            dataset.observations, dataset.labels, method="exact"
        )
        with pytest.raises(ValueError, match="prior/smoothing"):
            session.refit_delta(
                dataset.observations, dataset.labels, threshold=0.7
            )

    def test_prior_override_refit_matches_cold_fuse(self):
        dataset = _dataset(seed=23, n_triples=200)
        session = ScoringSession(
            dataset.observations, dataset.labels, method="clustered"
        )
        mutated = _mutate_sources(
            dataset.observations, [2], slice(10, 50), seed=5
        )
        session.refit_delta(mutated, dataset.labels, prior=0.35)
        reference = fuse(
            mutated, dataset.labels, method="clustered", prior=0.35
        )
        assert float(
            np.abs(session.score(mutated) - reference.scores).max()
        ) == 0.0


class TestRefitUnderConcurrentScoring:
    def test_scores_are_never_mixed_generation(self):
        dataset = _dataset(seed=31, n_triples=300)
        labels = dataset.labels
        session = ScoringSession(
            dataset.observations, labels, method="clustered"
        )
        probe = dataset.observations
        matrices = [dataset.observations] + mutation_trace(
            dataset.observations, 4, 0.05, seed=31
        )
        # Every generation's legitimate score vector for the probe.
        references = []
        for matrix in matrices:
            cold = ScoringSession(matrix, labels, method="clustered")
            references.append(cold.score(probe))
        observed: list[np.ndarray] = []
        failures: list[BaseException] = []
        stop = threading.Event()

        def scorer():
            try:
                while not stop.is_set():
                    observed.append(session.score(probe))
            except BaseException as exc:  # pragma: no cover - diagnostic
                failures.append(exc)

        threads = [threading.Thread(target=scorer) for _ in range(2)]
        for thread in threads:
            thread.start()
        try:
            for matrix in matrices[1:]:
                session.refit_delta(matrix, labels)
        finally:
            stop.set()
            for thread in threads:
                thread.join()
        assert not failures
        assert observed
        for vector in observed:
            assert any(
                np.array_equal(vector, reference)
                for reference in references
            ), "a served vector matched no single generation"


# ----------------------------------------------------------------------
# Carry machinery: significance batch, partition state, memo
# ----------------------------------------------------------------------


class TestSignificanceBatch:
    @settings(
        max_examples=40, deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        n11=st.integers(0, 40),
        n10=st.integers(0, 40),
        n01=st.integers(0, 40),
        n00=st.integers(0, 200),
        alpha=st.sampled_from((0.05, 0.005, 1e-4)),
    )
    def test_batch_matches_scalar_test(self, n11, n10, n01, n00, alpha):
        trials = n11 + n10 + n01 + n00
        if trials == 0:
            return
        joint = n11 / trials
        rate_i = (n11 + n10) / trials
        rate_j = (n11 + n01) / trials
        scalar = reference.significant(joint, rate_i, rate_j, trials, alpha)
        batch = _significant_batch(
            np.array([joint]), np.array([rate_i]), np.array([rate_j]),
            np.array([trials]), alpha,
        )
        assert batch.tolist() == [scalar]

    def test_memo_reuses_decisions_without_changing_them(self):
        rng = np.random.default_rng(42)
        trials = rng.integers(20, 300, size=60)
        n11 = (rng.random(60) * 0.3 * trials).astype(int)
        n1 = n11 + (rng.random(60) * 0.3 * trials).astype(int)
        n2 = n11 + (rng.random(60) * 0.3 * trials).astype(int)
        joint, ri, rj = n11 / trials, n1 / trials, n2 / trials
        memo = SignificanceMemo()
        first = _significant_batch(joint, ri, rj, trials, 0.01, memo=memo)
        assert len(memo) > 0
        assert memo.misses > 0 and memo.hits == 0
        second = _significant_batch(joint, ri, rj, trials, 0.01, memo=memo)
        assert np.array_equal(first, second)
        assert memo.hits >= 60
        bare = _significant_batch(joint, ri, rj, trials, 0.01)
        assert np.array_equal(first, bare)

    def test_memo_is_keyed_by_alpha(self):
        memo = SignificanceMemo()
        args = (np.array([0.3]), np.array([0.4]), np.array([0.5]),
                np.array([100]))
        _significant_batch(*args, 0.05, memo=memo)
        hits_before = memo.hits
        _significant_batch(*args, 0.01, memo=memo)
        assert memo.hits == hits_before  # different alpha: no reuse


class TestPartitionState:
    def _wide_dataset(self, seed=17):
        groups = (
            CorrelationGroup(members=(0, 1, 2, 3), mode="overlap_true",
                             strength=0.9),
            CorrelationGroup(members=(5, 6, 7), mode="overlap_false",
                             strength=0.9),
        )
        config = SyntheticConfig(
            sources=uniform_sources(14, precision=0.65, recall=0.4),
            n_triples=600,
            true_fraction=0.5,
            groups=groups,
        )
        return generate(config, seed=seed)

    def test_detection_state_matches_correlation_clusters(self):
        dataset = self._wide_dataset()
        model = fit_model(dataset.observations, dataset.labels)
        state = detect_partition_state(model)
        assert state is not None
        for side, partition in (
            ("true", state.true_partition), ("false", state.false_partition)
        ):
            expected = reference.correlation_clusters(model, side)
            assert partition.clusters == expected.clusters  # order included

    def test_refresh_equals_full_detection(self):
        dataset = self._wide_dataset()
        model = fit_model(dataset.observations, dataset.labels)
        state = detect_partition_state(model)
        mutated = _mutate_sources(
            dataset.observations, [1, 6], slice(100, 180), seed=6
        )
        new_model, stats = model.refit_delta(mutated, dataset.labels)
        assert stats.mode == "delta"
        refreshed = refresh_partition_state(
            state, new_model, stats.dirty_source_ids
        )
        full = detect_partition_state(new_model)
        assert refreshed.true_edges == full.true_edges
        assert refreshed.false_edges == full.false_edges
        assert refreshed.true_partition.clusters == (
            full.true_partition.clusters
        )
        assert refreshed.false_partition.clusters == (
            full.false_partition.clusters
        )

    def test_refresh_with_memo_is_identical(self):
        dataset = self._wide_dataset(seed=19)
        model = fit_model(dataset.observations, dataset.labels)
        memo = SignificanceMemo()
        state = detect_partition_state(model, memo=memo)
        mutated = _mutate_sources(
            dataset.observations, [2], slice(0, 90), seed=7
        )
        new_model, stats = model.refit_delta(mutated, dataset.labels)
        refreshed = refresh_partition_state(
            state, new_model, stats.dirty_source_ids, memo=memo
        )
        full = detect_partition_state(new_model)
        assert refreshed.true_edges == full.true_edges
        assert refreshed.false_edges == full.false_edges

    @settings(max_examples=30, deadline=None)
    @given(
        n=st.integers(1, 12),
        edges=st.lists(
            st.tuples(st.integers(0, 11), st.integers(0, 11)), max_size=20
        ),
    )
    def test_components_partition_matches_networkx_order(self, n, edges):
        edges = [(i, j) for i, j in edges if i < n and j < n and i != j]
        graph = nx.Graph()
        graph.add_nodes_from(range(n))
        graph.add_edges_from(edges)
        expected = tuple(
            frozenset(component)
            for component in nx.connected_components(graph)
        )
        assert _components_partition(n, edges).clusters == expected


# ----------------------------------------------------------------------
# EM warm start
# ----------------------------------------------------------------------


class TestEMWarmStart:
    def _workload(self):
        config = SyntheticConfig(
            sources=uniform_sources(10, precision=0.85, recall=0.5),
            n_triples=2000,
            true_fraction=0.5,
        )
        return generate(config, seed=5)

    def test_warm_start_saves_iterations_and_lands_on_fixed_point(self):
        dataset = self._workload()
        labels = dataset.labels
        session = ScoringSession(
            dataset.observations, labels, method="em", prior=0.5
        )
        session.score(dataset.observations)
        mutated = _mutate_sources(
            dataset.observations, [0, 1], slice(0, 40), seed=1
        )
        session.refit_delta(mutated, labels)
        warm_scores = session.score(mutated)
        cold = ScoringSession(mutated, labels, method="em", prior=0.5)
        cold_scores = cold.score(mutated)
        # Warm EM reaches the same fixed point, not the same bits.
        assert float(np.abs(warm_scores - cold_scores).max()) < 1e-4
        stats = session.cache_stats()["refit"]
        assert stats["delta_refits"] == 1
        warm = stats["em_warm_start"]
        assert warm["warm_scores"] >= 1
        assert warm["iterations_saved"] > 0

    def test_em_refit_without_history_falls_back_cold(self):
        dataset = self._workload()
        session = ScoringSession(
            dataset.observations, dataset.labels, method="em", prior=0.5
        )
        # No score() yet: there are no posteriors to warm-start from.
        session.refit_delta(dataset.observations, dataset.labels)
        stats = session.cache_stats()["refit"]
        assert stats["cold_refits"] == 1
        assert stats["last"]["mode"] == "cold"


# ----------------------------------------------------------------------
# Serving integration
# ----------------------------------------------------------------------


class TestRunServingRefit:
    def test_refit_loop_verifies_bit_identity(self):
        dataset = _dataset(seed=41, n_triples=260)
        report = run_serving(
            dataset, method="clustered", repeats=6, mutate_frac=0.03,
            refit_every=2, refit_mode="delta",
        )
        assert report.refit_count == 3
        assert report.refit_max_score_diff == 0.0
        assert len(report.refit_seconds) == 3
        assert report.refit_every == 2
        assert report.refit_mode == "delta"
        refit = report.refit_stats
        assert refit["delta_refits"] + refit["cold_refits"] == 3
        assert report.refit_mean_seconds > 0.0

    def test_cold_mode_is_also_verified(self):
        dataset = _dataset(seed=42, n_triples=200)
        report = run_serving(
            dataset, method="exact", repeats=4, mutate_frac=0.05,
            refit_every=2, refit_mode="cold",
        )
        assert report.refit_count == 2
        assert report.refit_max_score_diff == 0.0
        assert report.refit_stats["cold_refits"] == 2

    def test_em_warm_refits_record_but_do_not_enforce_drift(self):
        dataset = _dataset(seed=43, n_triples=240, correlated=False)
        report = run_serving(
            dataset, method="em", repeats=4, mutate_frac=0.02,
            refit_every=2, refit_mode="delta",
        )
        assert report.refit_count == 2
        # Recorded (possibly nonzero) -- never raised.
        assert not np.isnan(report.refit_max_score_diff)
        assert np.isfinite(report.max_warm_drift)

    def test_no_refits_leaves_report_fields_empty(self):
        dataset = _dataset(seed=44, n_triples=120)
        report = run_serving(dataset, method="exact", repeats=2)
        assert report.refit_count == 0
        assert report.refit_seconds == ()
        assert np.isnan(report.refit_max_score_diff)

    def test_invalid_refit_arguments_rejected(self):
        dataset = _dataset(seed=45, n_triples=100)
        with pytest.raises(ValueError, match="refit_every"):
            run_serving(dataset, repeats=2, refit_every=-1)
        with pytest.raises(ValueError, match="refit_mode"):
            run_serving(dataset, repeats=2, refit_every=1,
                        refit_mode="warm")
        with pytest.raises(ValueError, match="refit_mode"):
            check_refit_mode("sideways")
