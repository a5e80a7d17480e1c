"""Compiled plans and the CompiledPlanCache: bit-identity and lifecycle.

Property tests proving the numpy-accumulate path and the warm plan-cache
path are *bit-identical* to the per-term walks of ``tests/reference.py``
(the plan walk, and the per-triple walk of the paper's definitions) across
random grids,
plus the cache's lifecycle contracts: digest keying, LRU eviction at the
boundary, disabled-cache operation, and invalidation after a model refit
through :class:`ScoringSession`.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    ClusteredCorrelationFuser,
    CompiledPlanCache,
    ElasticFuser,
    ExactCorrelationFuser,
    ScoringSession,
    fit_model,
    pattern_digest,
)
from repro.core.plans import ElasticUnionPlan, ExactUnionPlan
from repro.data import (
    CorrelationGroup,
    SyntheticConfig,
    generate,
    uniform_sources,
)

import reference


def _grid(seed, n_sources, n_triples, correlated=False):
    groups = ()
    if correlated and n_sources >= 5:
        groups = (
            CorrelationGroup(
                members=(0, 1, 2), mode="overlap_true", strength=0.85
            ),
            CorrelationGroup(
                members=(3, 4), mode="overlap_false", strength=0.85
            ),
        )
    config = SyntheticConfig(
        sources=uniform_sources(n_sources, precision=0.7, recall=0.45),
        n_triples=n_triples,
        true_fraction=0.5,
        groups=groups,
    )
    return generate(config, seed=seed)


def _assert_identical(reference, candidate):
    assert np.array_equal(reference[0], candidate[0])
    assert np.array_equal(reference[1], candidate[1])


class TestCompiledPlanBitIdentity:
    @settings(deadline=None, max_examples=25)
    @given(
        seed=st.integers(0, 10**6),
        n_sources=st.integers(2, 8),
        n_triples=st.integers(20, 150),
    )
    def test_exact_plan_compile_matches_python_walk(
        self, seed, n_sources, n_triples
    ):
        dataset = _grid(seed, n_sources, n_triples)
        model = fit_model(dataset.observations, dataset.labels)
        patterns = dataset.observations.patterns()
        plan = ExactUnionPlan.build(
            patterns.provider_matrix, patterns.silent_matrix
        )
        recalls, fprs = model.joint_params_batch(plan.rows)
        _assert_identical(
            reference.accumulate_exact_plan(plan, recalls, fprs),
            plan.compile().accumulate(recalls, fprs),
        )

    @settings(deadline=None, max_examples=25)
    @given(
        seed=st.integers(0, 10**6),
        n_sources=st.integers(2, 8),
        n_triples=st.integers(20, 150),
        level=st.integers(0, 4),
    )
    def test_elastic_plan_compile_matches_python_walk(
        self, seed, n_sources, n_triples, level
    ):
        dataset = _grid(seed, n_sources, n_triples)
        model = fit_model(dataset.observations, dataset.labels)
        patterns = dataset.observations.patterns()
        plan = ElasticUnionPlan.build(
            patterns.provider_matrix, patterns.silent_matrix, level
        )
        recalls, fprs = model.joint_params_batch(plan.rows)
        # Arbitrary (even out-of-[0,1]) effective factors: bit-identity is
        # a property of the operation order, not of plausible inputs.
        rng = np.random.default_rng(seed)
        eff_r = {i: float(rng.uniform(-0.5, 1.5)) for i in range(n_sources)}
        eff_q = {i: float(rng.uniform(-0.5, 1.5)) for i in range(n_sources)}
        _assert_identical(
            reference.accumulate_elastic_plan(plan, recalls, fprs, eff_r, eff_q),
            plan.compile(eff_r, eff_q).accumulate(recalls, fprs),
        )

    @settings(deadline=None, max_examples=12)
    @given(
        seed=st.integers(0, 10**6),
        n_sources=st.integers(3, 8),
        n_triples=st.integers(30, 120),
        level=st.integers(0, 3),
    )
    def test_fuser_cold_and_warm_paths_match_python_walk(
        self, seed, n_sources, n_triples, level
    ):
        dataset = _grid(seed, n_sources, n_triples, correlated=True)
        model = fit_model(dataset.observations, dataset.labels)
        for fast, expected in (
            (
                ExactCorrelationFuser(model),
                reference.triple_scores(dataset.observations, model, "exact"),
            ),
            (
                ElasticFuser(model, level=level),
                reference.triple_scores(
                    dataset.observations, model, "elastic", level=level
                ),
            ),
        ):
            cold = fast.score(dataset.observations)
            warm = fast.score(dataset.observations)
            assert np.array_equal(cold, expected)
            assert np.array_equal(warm, expected)
            assert fast.plan_cache.hits >= 1

    @settings(deadline=None, max_examples=6)
    @given(seed=st.integers(0, 10**6), n_triples=st.integers(60, 200))
    def test_clustered_cold_and_warm_paths_match_python_walk(
        self, seed, n_triples
    ):
        dataset = _grid(seed, n_sources=10, n_triples=n_triples,
                        correlated=True)
        model = fit_model(dataset.observations, dataset.labels)
        fast = ClusteredCorrelationFuser(model, exact_cluster_limit=3)
        expected = reference.triple_scores(
            dataset.observations, model, "clustered",
            true_partition=fast.true_partition,
            false_partition=fast.false_partition,
            exact_cluster_limit=3,
        )
        cold = fast.score(dataset.observations)
        warm = fast.score(dataset.observations)
        assert np.array_equal(cold, expected)
        assert np.array_equal(warm, expected)
        assert fast.plan_cache.hits >= 1

    def test_book_like_warm_equals_cold_through_an_elastic_cluster(
        self, book_like
    ):
        dataset = book_like(32, 800)
        model = fit_model(dataset.observations, dataset.labels)
        fuser = ClusteredCorrelationFuser(model, exact_cluster_limit=12)
        # The planted 14-member false-side group is wider than the
        # limit, so one evaluator on the path is elastic.
        assert 14 in fuser.false_partition.sizes
        assert any(
            isinstance(e, ElasticFuser) for e in fuser._false_evaluators
        )
        cold = fuser.score(dataset.observations)
        warm = fuser.score(dataset.observations)
        assert fuser.plan_cache.hits >= 1
        assert np.array_equal(warm, cold)


class TestPatternDigest:
    def test_equal_content_equal_digest(self):
        providers = np.array([[True, False], [False, True]])
        silent = np.array([[False, True], [True, False]])
        assert pattern_digest(providers, silent) == pattern_digest(
            providers.copy(), silent.copy()
        )

    def test_content_changes_change_the_digest(self):
        providers = np.array([[True, False], [False, True]])
        silent = np.array([[False, True], [True, False]])
        baseline = pattern_digest(providers, silent)
        flipped = providers.copy()
        flipped[0, 1] = True
        assert pattern_digest(flipped, silent) != baseline
        # Swapping the two matrices must not collide either.
        assert pattern_digest(silent, providers) != baseline


class TestCompiledPlanCacheLifecycle:
    def test_lru_eviction_at_the_boundary(self):
        cache = CompiledPlanCache(max_entries=2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # touch: "b" becomes the LRU entry
        cache.put("c", 3)
        assert cache.get("b") is None
        assert cache.get("a") == 1 and cache.get("c") == 3
        assert cache.evictions == 1
        assert len(cache) == 2

    def test_zero_entries_disables_storage(self):
        cache = CompiledPlanCache(max_entries=0)
        assert cache.put("a", 1) == 1
        assert cache.get("a") is None
        assert len(cache) == 0

    def test_invalidate_drops_entries_keeps_stats(self):
        cache = CompiledPlanCache(max_entries=4)
        cache.put("a", 1)
        cache.get("a")
        cache.invalidate()
        assert len(cache) == 0
        assert cache.get("a") is None
        assert cache.hits == 1 and cache.misses == 1

    def test_negative_cap_rejected(self):
        with pytest.raises(ValueError, match="max_entries"):
            CompiledPlanCache(max_entries=-1)

    def test_fuser_eviction_boundary_still_scores_correctly(self):
        # Two alternating workloads through a single-entry cache: every
        # call evicts the other plan, and scores must stay bit-identical
        # to an uncached reference throughout.
        first = _grid(11, 5, 60)
        second = _grid(12, 5, 90)
        model = fit_model(first.observations, first.labels)
        fuser = ExactCorrelationFuser(model, max_plan_cache_entries=1)
        expected = {
            id(dataset): reference.triple_scores(
                dataset.observations, model, "exact"
            )
            for dataset in (first, second)
        }
        for dataset in (first, second, first, second):
            assert np.array_equal(
                fuser.score(dataset.observations), expected[id(dataset)]
            )
        assert fuser.plan_cache.evictions >= 3
        assert len(fuser.plan_cache) == 1


class TestScoringSessionLifecycle:
    def test_session_scores_match_one_shot_fuse(self):
        from repro.core import fuse

        dataset = _grid(21, 6, 100, correlated=True)
        session = ScoringSession(
            dataset.observations, dataset.labels, method="precreccorr"
        )
        one_shot = fuse(
            dataset.observations, dataset.labels, method="precreccorr"
        )
        assert np.array_equal(
            session.score(dataset.observations), one_shot.scores
        )

    def test_warm_session_hits_the_plan_cache(self):
        # delta="off" pins the PR 3/4 serving path: a repeated identical
        # request must re-execute through the compiled-plan cache (with
        # the default delta engine it would short-circuit before ever
        # touching the cache -- covered by the test below).
        dataset = _grid(22, 6, 100)
        session = ScoringSession(
            dataset.observations, dataset.labels, method="precreccorr",
            delta="off",
        )
        cold = session.score(dataset.observations)
        warm = session.score(dataset.observations)
        assert np.array_equal(cold, warm)
        stats = session.cache_stats()
        assert stats["hits"] >= 1 and stats["entries"] >= 1

    def test_warm_delta_session_short_circuits_identical_requests(self):
        dataset = _grid(22, 6, 100)
        session = ScoringSession(
            dataset.observations, dataset.labels, method="precreccorr"
        )
        cold = session.score(dataset.observations)
        computes_after_cold = session.cache_stats()["computes"]
        warm = session.score(dataset.observations)
        assert np.array_equal(cold, warm)
        stats = session.cache_stats()
        # The identical repeat ran zero plan executions: same compute
        # count, and the delta layer recorded the short-circuit.
        assert stats["computes"] == computes_after_cold
        assert stats["delta"]["identical"] == 1
        assert stats["delta"]["cold"] == 1

    def test_refit_invalidates_the_retired_fusers_caches(self):
        dataset = _grid(23, 6, 100)
        session = ScoringSession(
            dataset.observations, dataset.labels, method="precreccorr"
        )
        session.score(dataset.observations)
        retired = session.fuser
        assert len(retired.plan_cache) >= 1

        flipped = ~dataset.labels
        session.refit(dataset.observations, flipped)
        assert session.fuser is not retired
        assert len(retired.plan_cache) == 0  # the explicit hook fired

        # Post-refit scores equal a fresh fit on the new labels, bitwise.
        fresh = ScoringSession(
            dataset.observations, flipped, method="precreccorr"
        )
        assert np.array_equal(
            session.score(dataset.observations),
            fresh.score(dataset.observations),
        )

    def test_refit_rejects_unknown_overrides(self):
        dataset = _grid(24, 4, 50)
        session = ScoringSession(dataset.observations, dataset.labels)
        with pytest.raises(ValueError, match="refit accepts"):
            session.refit(dataset.observations, dataset.labels, engine="legacy")

    def test_failed_refit_does_not_poison_the_session(self):
        dataset = _grid(27, 5, 60)
        session = ScoringSession(dataset.observations, dataset.labels)
        before = session.score(dataset.observations)
        with pytest.raises(ValueError, match="smoothing"):
            session.refit(dataset.observations, dataset.labels, smoothing=-5.0)
        # The bad override must not stick: a plain refit still works and
        # reproduces the original fit exactly.
        session.refit(dataset.observations, dataset.labels)
        assert np.array_equal(session.score(dataset.observations), before)

    def test_explicit_invalidate_hook_recompiles_identically(self):
        dataset = _grid(25, 6, 80)
        session = ScoringSession(
            dataset.observations, dataset.labels, method="precreccorr"
        )
        before = session.score(dataset.observations)
        session.fuser.invalidate_caches()
        assert len(session.fuser.plan_cache) == 0
        after = session.score(dataset.observations)
        assert np.array_equal(before, after)

    def test_em_session_has_no_model_and_empty_stats(self):
        dataset = _grid(26, 4, 60)
        session = ScoringSession(
            dataset.observations, dataset.labels, method="em"
        )
        assert session.model is None
        assert session.cache_stats() == {}
        scores = session.score(dataset.observations)
        assert scores.shape == (dataset.observations.n_triples,)
