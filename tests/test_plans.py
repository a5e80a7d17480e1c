"""The shared union-plan layer (repro.core.plans).

Covers the :class:`UnionCollector` aliasing regression (collected rows must
not be live views into mutable pattern storage), the exact / elastic union
plans' bit-identity with the scalar ``pattern_likelihoods`` reference, and
the ``pattern_likelihoods_batch`` entry points the clustered fuser drives.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    ElasticFuser,
    ElasticUnionPlan,
    ExactCorrelationFuser,
    ExactUnionPlan,
    UnionCollector,
    fit_model,
    restricted_unique_patterns,
)
from repro.data import SyntheticConfig, generate, uniform_sources


def _dataset(seed=21, n_sources=5, n_triples=80):
    config = SyntheticConfig(
        sources=uniform_sources(n_sources, precision=0.7, recall=0.5),
        n_triples=n_triples,
        true_fraction=0.5,
    )
    return generate(config, seed=seed)


class TestUnionCollectorAliasing:
    def test_mutating_source_row_after_collection_is_harmless(self):
        # Regression: `add` used to store a writable base_row *by reference*
        # when extra_ids was empty, so later in-place mutation of the source
        # row silently corrupted the collected plan.
        collector = UnionCollector(4)
        row = np.array([True, False, True, False])
        collector.add(collector.mask_of([0, 2]), row, ())
        row[:] = False  # mutate after collection
        assert np.array_equal(
            collector.rows(), np.array([[True, False, True, False]])
        )

    def test_read_only_rows_are_stored_without_copy(self):
        collector = UnionCollector(3)
        row = np.array([True, True, False])
        row.setflags(write=False)
        collector.add(collector.mask_of([0, 1]), row, ())
        assert collector._rows[0] is row
        assert np.array_equal(collector.rows(), [[True, True, False]])

    def test_extra_ids_never_leak_into_the_source_row(self):
        collector = UnionCollector(3)
        row = np.array([True, False, False])
        collector.add(collector.mask_of([0, 2]), row, (2,))
        assert np.array_equal(row, [True, False, False])
        assert np.array_equal(collector.rows(), [[True, False, True]])

    def test_duplicate_masks_collapse(self):
        collector = UnionCollector(3)
        row = np.zeros(3, dtype=bool)
        first = collector.add(0b011, np.array([True, True, False]), ())
        second = collector.add(0b011, row, (0, 1))
        assert first == second
        assert len(collector) == 1


class TestUnionCollectorValidation:
    def test_mask_of_rejects_out_of_range_ids(self):
        collector = UnionCollector(4)
        with pytest.raises(ValueError, match="out of range"):
            collector.mask_of([0, 4])
        # A negative id used to wrap around `bits[-1]` and silently label
        # the union with the *highest* source's bit.
        with pytest.raises(ValueError, match="out of range"):
            collector.mask_of([-1])

    def test_mask_of_rejects_duplicate_ids(self):
        collector = UnionCollector(4)
        # Duplicates used to be swallowed by the OR, leaving the mask
        # inconsistent with the id list the caller evaluates.
        with pytest.raises(ValueError, match="duplicate source id"):
            collector.mask_of([2, 0, 2])

    def test_mask_of_accepts_any_order(self):
        collector = UnionCollector(4)
        assert collector.mask_of([3, 0]) == 0b1001
        assert collector.mask_of([]) == 0

    def test_bit_rejects_out_of_range_ids(self):
        collector = UnionCollector(3)
        with pytest.raises(ValueError, match="out of range"):
            collector.bit(3)
        with pytest.raises(ValueError, match="out of range"):
            collector.bit(-1)

    def test_plan_build_still_accepts_valid_matrices(self):
        dataset = _dataset(seed=33, n_sources=4, n_triples=40)
        patterns = dataset.observations.patterns()
        plan = ExactUnionPlan.build(
            patterns.provider_matrix, patterns.silent_matrix
        )
        assert len(plan.term_index) > 0


class TestUnionPlans:
    def test_exact_plan_matches_scalar_likelihoods(self):
        dataset = _dataset()
        model = fit_model(dataset.observations, dataset.labels)
        fuser = ExactCorrelationFuser(model)
        patterns = dataset.observations.patterns()
        plan = ExactUnionPlan.build(
            patterns.provider_matrix, patterns.silent_matrix
        )
        recalls, fprs = model.joint_params_batch(plan.rows)
        numerators, denominators = plan.accumulate(recalls, fprs)
        for k in range(patterns.n_patterns):
            expected = fuser.pattern_likelihoods(
                patterns.provider_sets[k], patterns.silent_sets[k]
            )
            assert (numerators[k], denominators[k]) == expected

    @pytest.mark.parametrize("level", [0, 1, 3])
    def test_elastic_plan_matches_scalar_likelihoods(self, level):
        dataset = _dataset(seed=22)
        model = fit_model(dataset.observations, dataset.labels)
        fuser = ElasticFuser(model, level=level)
        patterns = dataset.observations.patterns()
        plan = ElasticUnionPlan.build(
            patterns.provider_matrix, patterns.silent_matrix, level
        )
        recalls, fprs = model.joint_params_batch(plan.rows)
        numerators, denominators = plan.accumulate(
            recalls, fprs, fuser._eff_recall, fuser._eff_fpr
        )
        for k in range(patterns.n_patterns):
            expected = fuser.pattern_likelihoods(
                patterns.provider_sets[k], patterns.silent_sets[k]
            )
            assert (numerators[k], denominators[k]) == expected

    def test_exact_plan_width_check_is_applied(self):
        dataset = _dataset()
        model = fit_model(dataset.observations, dataset.labels)
        fuser = ExactCorrelationFuser(model, max_silent_sources=0)
        patterns = dataset.observations.patterns()
        if not patterns.silent_matrix.any():
            pytest.skip("workload produced no silent sources")
        with pytest.raises(ValueError, match="silent sources"):
            ExactUnionPlan.build(
                patterns.provider_matrix,
                patterns.silent_matrix,
                width_check=fuser._check_silent_width,
            )


class TestPatternLikelihoodsBatch:
    @pytest.mark.parametrize("engine", ["vectorized", "legacy"])
    def test_exact_batch_entry_matches_scalar(self, engine):
        # The legacy-engine model has no joint_params_batch, exercising the
        # bitmask-keyed scalar fallback inside the batch entry point.
        dataset = _dataset(seed=23)
        model = fit_model(dataset.observations, dataset.labels, engine=engine)
        fuser = ExactCorrelationFuser(model)
        patterns = dataset.observations.patterns()
        numerators, denominators = fuser.pattern_likelihoods_batch(
            patterns.provider_matrix, patterns.silent_matrix
        )
        for k in range(patterns.n_patterns):
            expected = fuser.pattern_likelihoods(
                patterns.provider_sets[k], patterns.silent_sets[k]
            )
            assert (numerators[k], denominators[k]) == expected

    @pytest.mark.parametrize("engine", ["vectorized", "legacy"])
    def test_elastic_batch_entry_matches_scalar(self, engine):
        dataset = _dataset(seed=24)
        model = fit_model(dataset.observations, dataset.labels, engine=engine)
        fuser = ElasticFuser(model, level=2)
        patterns = dataset.observations.patterns()
        numerators, denominators = fuser.pattern_likelihoods_batch(
            patterns.provider_matrix, patterns.silent_matrix
        )
        for k in range(patterns.n_patterns):
            expected = fuser.pattern_likelihoods(
                patterns.provider_sets[k], patterns.silent_sets[k]
            )
            assert (numerators[k], denominators[k]) == expected

    def test_empty_pattern_batch(self):
        dataset = _dataset(seed=25, n_triples=20)
        model = fit_model(dataset.observations, dataset.labels)
        fuser = ExactCorrelationFuser(model)
        empty = np.zeros((0, model.n_sources), dtype=bool)
        numerators, denominators = fuser.pattern_likelihoods_batch(empty, empty)
        assert numerators.shape == denominators.shape == (0,)


class TestRestrictedUniquePatterns:
    def test_restriction_reconstructs_through_inverse(self):
        dataset = _dataset(seed=26)
        patterns = dataset.observations.patterns()
        clusters = [[0, 2, 3], [1, 4], [2]]
        sub_providers, sub_silent, inverses = restricted_unique_patterns(
            patterns.provider_matrix, patterns.silent_matrix, clusters
        )
        assert len(inverses) == len(clusters)
        for members, inverse in zip(clusters, inverses):
            mask = np.zeros(patterns.n_sources, dtype=bool)
            mask[members] = True
            assert np.array_equal(
                sub_providers[inverse], patterns.provider_matrix & mask
            )
            assert np.array_equal(
                sub_silent[inverse], patterns.silent_matrix & mask
            )
        # Deduplication: sub-pattern rows must be pairwise distinct.
        combined = np.concatenate([sub_providers, sub_silent], axis=1)
        assert len(np.unique(combined, axis=0)) == combined.shape[0]
        # Restriction collapses patterns, never multiplies them.
        assert sub_providers.shape[0] <= len(clusters) * patterns.n_patterns
        single = restricted_unique_patterns(
            patterns.provider_matrix, patterns.silent_matrix, clusters[:1]
        )
        assert single[0].shape[0] <= patterns.n_patterns

    def test_empty_member_set_collapses_to_one_subpattern(self):
        dataset = _dataset(seed=27, n_triples=15)
        patterns = dataset.observations.patterns()
        sub_providers, sub_silent, inverses = restricted_unique_patterns(
            patterns.provider_matrix, patterns.silent_matrix, [[], []]
        )
        assert sub_providers.shape == (1, patterns.n_sources)
        assert not sub_providers.any() and not sub_silent.any()
        for inverse in inverses:
            assert np.array_equal(inverse, np.zeros(patterns.n_patterns))

    def test_out_of_range_members_rejected(self):
        patterns = np.zeros((2, 3), dtype=bool)
        with pytest.raises(ValueError, match="out of range"):
            restricted_unique_patterns(patterns, patterns, [[0], [5]])
        with pytest.raises(ValueError, match="out of range"):
            restricted_unique_patterns(patterns, patterns, [[-1]])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="equal-shape"):
            restricted_unique_patterns(
                np.zeros((2, 3), dtype=bool),
                np.zeros((2, 4), dtype=bool),
                [[0]],
            )
