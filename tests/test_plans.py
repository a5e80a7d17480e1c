"""The shared union-plan layer (repro.core.plans).

Covers the :class:`UnionCollector` aliasing regression (collected rows must
not be live views into mutable pattern storage; the collector now lives in
``tests/reference.py`` as the per-term oracle), the array-built exact /
elastic union plans against that oracle and against the per-pattern walks
of Eq. 10-11 and Algorithm 1 in ``tests/reference.py``, the
``pattern_likelihoods_batch`` entry point the clustered fuser drives, and
the cluster restriction step.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    ElasticFuser,
    ElasticUnionPlan,
    ExactCorrelationFuser,
    ExactUnionPlan,
    ExplicitJointModel,
    fit_model,
    restricted_unique_patterns,
)
from repro.core.patterns import RestrictionTable
from repro.core.plans import (
    CompiledExactPlan,
    _column_major_layout,
    subset_table,
)
from repro.data import SyntheticConfig, generate, uniform_sources

import reference
from reference import UnionCollector, iter_subsets


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
        numerators, denominators = reference.accumulate_exact_plan(
            plan, recalls, fprs
        )
        compiled = plan.compile().accumulate(recalls, fprs)
        batched = fuser.pattern_likelihoods_batch(
            patterns.provider_matrix, patterns.silent_matrix
        )
        providers, silents = reference.pattern_sets(patterns)
        for k in range(patterns.n_patterns):
            expected = reference.exact_likelihoods(
                model, providers[k], silents[k]
            )
            assert (numerators[k], denominators[k]) == expected
            assert (compiled[0][k], compiled[1][k]) == expected
            assert (batched[0][k], batched[1][k]) == expected

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
        eff_recall, eff_fpr = reference.effective_rates(model)
        assert (eff_recall, eff_fpr) == (fuser._eff_recall, fuser._eff_fpr)
        numerators, denominators = reference.accumulate_elastic_plan(
            plan, recalls, fprs, eff_recall, eff_fpr
        )
        compiled = plan.compile(eff_recall, eff_fpr).accumulate(recalls, fprs)
        batched = fuser.pattern_likelihoods_batch(
            patterns.provider_matrix, patterns.silent_matrix
        )
        providers, silents = reference.pattern_sets(patterns)
        for k in range(patterns.n_patterns):
            expected = reference.elastic_likelihoods(
                model, providers[k], silents[k],
                level, eff_recall, eff_fpr,
            )
            assert (numerators[k], denominators[k]) == expected
            assert (compiled[0][k], compiled[1][k]) == expected
            assert (batched[0][k], batched[1][k]) == expected

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


@st.composite
def plan_cases(draw):
    """(provider, silent, level, factors): 1-140 sources, 0-24 patterns
    (some repeated), silent sets of 0-6 sources, lambda from 0 to 7."""
    n_sources = draw(
        st.one_of(st.sampled_from([1, 63, 64, 65, 140]), st.integers(1, 140))
    )
    n_patterns = draw(st.integers(0, 24))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    provider = rng.random((n_patterns, n_sources)) < draw(
        st.sampled_from([0.05, 0.3])
    )
    silent = np.zeros_like(provider)
    for k in range(n_patterns):
        free = np.flatnonzero(~provider[k])
        size = int(rng.integers(0, min(6, free.size) + 1))
        silent[k, rng.choice(free, size=size, replace=False)] = True
    if n_patterns > 1:
        repeats = rng.integers(0, n_patterns, n_patterns // 3)
        provider[: repeats.size] = provider[repeats]
        silent[: repeats.size] = silent[repeats]
    level = draw(st.integers(0, 7))
    recall = dict(enumerate(rng.random(n_sources).tolist()))
    fpr = dict(enumerate(rng.random(n_sources).tolist()))
    return provider, silent, level, recall, fpr


def _assert_arrays_equal(got, want):
    for name, expected in want.items():
        actual = getattr(got, name)
        assert actual.shape == expected.shape, name
        assert np.array_equal(actual, expected), name


class TestArrayPlansMatchOracle:
    """Array-built plans equal the per-term union walk in tests/reference.py."""

    @given(case=plan_cases())
    @settings(max_examples=120, deadline=None)
    def test_exact_plan(self, case):
        provider, silent, _, _, _ = case
        rows, silent_lists, term_index = reference.exact_union_plan(
            provider, silent
        )
        plan = ExactUnionPlan.build(provider, silent)
        assert plan.rows.shape == rows.shape
        assert np.array_equal(plan.rows, rows)
        assert plan.term_index.tolist() == term_index
        assert np.array_equal(plan.silent_matrix, silent)
        _assert_arrays_equal(
            plan.compile(),
            reference.compiled_exact_arrays(silent_lists, term_index),
        )

    @given(case=plan_cases())
    @settings(max_examples=120, deadline=None)
    def test_elastic_plan(self, case):
        provider, silent, level, recall, fpr = case
        rows, silent_lists, base_index, term_index = (
            reference.elastic_union_plan(provider, silent, level)
        )
        plan = ElasticUnionPlan.build(provider, silent, level)
        assert plan.rows.shape == rows.shape
        assert np.array_equal(plan.rows, rows)
        assert plan.base_index.tolist() == base_index
        assert plan.term_index.tolist() == term_index
        _assert_arrays_equal(
            plan.compile(recall, fpr),
            reference.compiled_elastic_arrays(
                silent_lists, base_index, term_index, level, recall, fpr
            ),
        )

    def test_no_patterns(self):
        empty = np.zeros((0, 65), dtype=bool)
        exact = ExactUnionPlan.build(empty, empty)
        assert exact.rows.shape == (0, 65) and exact.term_index.size == 0
        compiled = exact.compile()
        assert compiled.n_patterns == 0 and compiled.term_gather.size == 0
        elastic = ElasticUnionPlan.build(empty, empty, 3)
        assert elastic.rows.shape == (0, 65)
        assert elastic.base_index.size == elastic.term_index.size == 0
        assert elastic.compile({}, {}).n_patterns == 0

    def test_empty_silent_sets_give_one_term_each(self):
        provider = np.array([[1, 0, 1], [0, 0, 0], [1, 0, 1]], dtype=bool)
        silent = np.zeros_like(provider)
        plan = ExactUnionPlan.build(provider, silent)
        assert np.array_equal(plan.rows, provider[:2])
        assert plan.term_index.tolist() == [0, 1, 0]
        elastic = ElasticUnionPlan.build(provider, silent, 2)
        assert elastic.base_index.tolist() == [0, 1, 0]
        assert elastic.term_index.size == 0

    def test_width_check_raises_for_the_first_offending_pattern(self):
        dataset = _dataset()
        fuser = ExactCorrelationFuser(
            fit_model(dataset.observations, dataset.labels),
            max_silent_sources=2,
        )
        provider = np.zeros((4, 8), dtype=bool)
        silent = np.zeros((4, 8), dtype=bool)
        for k, size in enumerate([1, 4, 3, 5]):
            silent[k, :size] = True
        with pytest.raises(ValueError) as oracle:
            reference.exact_union_plan(
                provider, silent, width_check=fuser._check_silent_width
            )
        with pytest.raises(ValueError) as built:
            ExactUnionPlan.build(
                provider, silent, width_check=fuser._check_silent_width
            )
        assert str(built.value) == str(oracle.value)
        assert "over 4 silent sources" in str(built.value)

    def test_subset_tables_follow_iter_subsets_order(self):
        for n_items in range(6):
            for max_size in range(n_items + 2):
                table = subset_table(n_items, max_size)
                subsets: list[tuple[int, ...]] = [()]
                for row in range(1, table.n_subsets):
                    subsets.append(
                        subsets[table.parents[row]] + (table.lasts[row],)
                    )
                want = [
                    s for s in iter_subsets(range(n_items)) if len(s) <= max_size
                ]
                assert subsets == want
                assert table.signs.tolist() == [
                    (-1.0) ** len(s) for s in want
                ]
                if max_size >= n_items:
                    assert table.masks.tolist() == [
                        sum(1 << item for item in s) for s in want
                    ]
                else:
                    assert table.masks.size == 0
        assert subset_table(4) is subset_table(4, 9)

    @given(lengths=st.lists(st.integers(0, 9), max_size=30))
    @settings(max_examples=60, deadline=None)
    def test_column_major_layout(self, lengths):
        got = _column_major_layout(np.array(lengths, dtype=np.int64))
        want = reference.column_major_layout(lengths)
        for got_array, want_array in zip(got, want):
            assert np.array_equal(got_array, want_array)

    def test_missing_aggressive_factor_is_a_key_error(self):
        provider = np.zeros((1, 4), dtype=bool)
        silent = np.array([[False, True, False, True]])
        plan = ElasticUnionPlan.build(provider, silent, 1)
        with pytest.raises(KeyError):
            plan.compile({1: 0.5}, {1: 0.5, 3: 0.5})


@st.composite
def coded_cases(draw):
    """Clusters (possibly overlapping, like a true and a false partition
    in one exact group) over up to 9 sources, and random patterns."""
    n_sources = draw(st.integers(1, 9))
    clusters = draw(
        st.lists(
            st.lists(
                st.integers(0, n_sources - 1),
                min_size=1, max_size=n_sources, unique=True,
            ),
            min_size=1, max_size=5,
        )
    )
    n_patterns = draw(st.integers(0, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    provider = rng.random((n_patterns, n_sources)) < draw(
        st.sampled_from([0.1, 0.4])
    )
    silent = (
        rng.random((n_patterns, n_sources))
        < draw(st.sampled_from([0.3, 0.9]))
    ) & ~provider
    return clusters, provider, silent


def _terms_by_pattern(plan):
    """Each pattern's ``(union row, sign)`` terms, in summation order."""
    terms = [[] for _ in range(plan.n_patterns)]
    position = 0
    for active in plan.step_counts.tolist():
        for lane in range(active):
            row = plan.rows[plan.term_gather[position]]
            terms[plan.order[lane]].append(
                (np.flatnonzero(row).tolist(), plan.term_signs[position])
            )
            position += 1
    return terms


class TestCodedExactPlans:
    """``CompiledExactPlan.from_codes`` against ``ExactUnionPlan``."""

    @given(case=coded_cases())
    @settings(max_examples=150, deadline=None)
    def test_code_plan_has_the_union_plans_terms(self, case):
        clusters, provider, silent = case
        n_patterns, n_sources = provider.shape
        table = RestrictionTable(clusters, n_sources)
        keys, inverse = table.unique_keys(provider, silent)
        assert np.array_equal(keys, np.unique(keys[inverse]))
        # The decoded boolean sub-pattern of every distinct key.
        cluster_of = np.empty(keys.size, dtype=np.intp)
        pattern_of = np.empty(keys.size, dtype=np.intp)
        cluster_of[inverse] = np.arange(len(clusters))[:, None]
        pattern_of[inverse] = np.arange(n_patterns)[None, :]
        masks = table.masks[cluster_of]
        sub_providers = provider[pattern_of] & masks
        sub_silent = silent[pattern_of] & masks
        coded = CompiledExactPlan.from_codes(table, keys)
        oracle = ExactUnionPlan.build(sub_providers, sub_silent).compile()
        assert coded.n_patterns == keys.size
        assert _terms_by_pattern(coded) == _terms_by_pattern(oracle)
        # Each union once per cluster; the empty set once in all.
        ids = [np.flatnonzero(row).tolist() for row in coded.rows]
        assert ids.count([]) <= 1
        if n_patterns:
            dataset = _dataset(seed=n_patterns, n_sources=n_sources)
            model = fit_model(dataset.observations, dataset.labels)
            got = coded.accumulate(*model.joint_params_batch(coded.rows))
            want = oracle.accumulate(*model.joint_params_batch(oracle.rows))
            assert np.array_equal(got[0], want[0])
            assert np.array_equal(got[1], want[1])

    def test_no_keys_make_an_empty_plan(self):
        table = RestrictionTable([[0, 1], [2]], 3)
        coded = CompiledExactPlan.from_codes(table, np.zeros(0, np.int64))
        assert coded.rows.shape == (0, 3)
        numerators, denominators = coded.accumulate(np.zeros(0), np.zeros(0))
        assert numerators.shape == denominators.shape == (0,)


def _model(kind, dataset):
    """The fitted empirical model (its vectorized batch sweep), or an
    explicit model answering through the base class's scalar loop."""
    model = fit_model(dataset.observations, dataset.labels)
    if kind == "vectorized":
        return model
    pairs = [frozenset({0, 1}), frozenset({1, 2}), frozenset({0, 1, 3})]
    return ExplicitJointModel(
        model.source_qualities(),
        prior=model.prior,
        joint_recalls={key: model.joint_recall(key) for key in pairs},
        joint_fprs={key: model.joint_fpr(key) for key in pairs},
    )


class TestPatternLikelihoodsBatch:
    @pytest.mark.parametrize("kind", ["vectorized", "scalar_loop"])
    def test_exact_batch_entry_matches_scalar(self, kind):
        dataset = _dataset(seed=23)
        model = _model(kind, dataset)
        fuser = ExactCorrelationFuser(model)
        patterns = dataset.observations.patterns()
        numerators, denominators = fuser.pattern_likelihoods_batch(
            patterns.provider_matrix, patterns.silent_matrix
        )
        providers, silents = reference.pattern_sets(patterns)
        for k in range(patterns.n_patterns):
            expected = reference.exact_likelihoods(
                model, providers[k], silents[k]
            )
            assert (numerators[k], denominators[k]) == expected

    @pytest.mark.parametrize("kind", ["vectorized", "scalar_loop"])
    def test_elastic_batch_entry_matches_scalar(self, kind):
        dataset = _dataset(seed=24)
        model = _model(kind, dataset)
        fuser = ElasticFuser(model, level=2)
        patterns = dataset.observations.patterns()
        numerators, denominators = fuser.pattern_likelihoods_batch(
            patterns.provider_matrix, patterns.silent_matrix
        )
        eff_recall, eff_fpr = reference.effective_rates(model)
        providers, silents = reference.pattern_sets(patterns)
        for k in range(patterns.n_patterns):
            expected = reference.elastic_likelihoods(
                model, providers[k], silents[k],
                2, eff_recall, eff_fpr,
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
