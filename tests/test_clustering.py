"""Correlation clustering and the clustered (BOOK-scale) fuser."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import reference
from repro.core import (
    ClusteredCorrelationFuser,
    ExactCorrelationFuser,
    IndependentJointModel,
    ObservationMatrix,
    SourcePartition,
    SourceQuality,
    correlation_clusters,
    discovered_correlation_groups,
    fit_model,
    pairwise_correlations,
    pairwise_phi,
)
from repro.core.api import ScoringSession
from repro.core.clustering import (
    _exp_values,
    _log_pair,
    correlation_edges,
    detect_partition_state,
    refresh_partition_state,
)
from repro.core.joint import ExplicitJointModel
from repro.core.elastic import ElasticFuser
from repro.core.plans import ElasticUnionPlan, ExactUnionPlan
from repro.data import CorrelationGroup, SyntheticConfig, generate, uniform_sources
from repro.util.probability import PROBABILITY_FLOOR


def correlated_dataset(seed=0, strength=0.95):
    config = SyntheticConfig(
        sources=uniform_sources(6, precision=0.75, recall=0.5),
        n_triples=1500,
        true_fraction=0.5,
        groups=(
            CorrelationGroup(members=(0, 1, 2), mode="overlap_true", strength=strength),
            CorrelationGroup(members=(3, 4), mode="overlap_false", strength=strength),
        ),
    )
    return generate(config, seed=seed)


class TestPairwisePhi:
    def test_independent_is_zero(self):
        assert pairwise_phi(0.5, 0.5, 0.25) == pytest.approx(0.0)

    def test_perfect_correlation(self):
        assert pairwise_phi(0.5, 0.5, 0.5) == pytest.approx(1.0)

    def test_perfect_anticorrelation(self):
        assert pairwise_phi(0.5, 0.5, 0.0) == pytest.approx(-1.0)

    def test_degenerate_rates(self):
        assert pairwise_phi(0.0, 0.5, 0.0) == 0.0
        assert pairwise_phi(1.0, 0.5, 0.5) == 0.0


class TestPairwiseCorrelations:
    def test_detects_planted_groups(self):
        dataset = correlated_dataset()
        model = fit_model(dataset.observations, dataset.labels)
        true_edges = {
            frozenset((e.source_i, e.source_j))
            for e in pairwise_correlations(model, "true", min_phi=0.25)
        }
        assert {frozenset(p) for p in [(0, 1), (0, 2), (1, 2)]} <= true_edges
        false_edges = {
            frozenset((e.source_i, e.source_j))
            for e in pairwise_correlations(model, "false", min_phi=0.25)
        }
        assert frozenset((3, 4)) in false_edges

    def test_edge_records_sign(self):
        dataset = correlated_dataset()
        model = fit_model(dataset.observations, dataset.labels)
        for edge in pairwise_correlations(model, "true", min_phi=0.25):
            if {edge.source_i, edge.source_j} <= {0, 1, 2}:
                assert edge.positive
                assert edge.factor > 1.0

    def test_independent_sources_produce_no_strong_edges(self):
        config = SyntheticConfig(
            sources=uniform_sources(6, precision=0.75, recall=0.5),
            n_triples=1500,
            true_fraction=0.5,
        )
        dataset = generate(config, seed=77)
        model = fit_model(dataset.observations, dataset.labels)
        # Independent generation; only weak selection-induced dependence
        # remains, which min_phi filters out.
        assert pairwise_correlations(model, "true", min_phi=0.25) == []

    def test_parameter_validation(self, figure1_model):
        with pytest.raises(ValueError, match="min_phi"):
            pairwise_correlations(figure1_model, "true", min_phi=2.0)
        with pytest.raises(ValueError, match="significance"):
            pairwise_correlations(figure1_model, "true", significance=0.0)


class TestCorrelationClusters:
    def test_partition_covers_all_sources(self):
        dataset = correlated_dataset()
        model = fit_model(dataset.observations, dataset.labels)
        partition = correlation_clusters(model, "true", min_phi=0.25)
        members = sorted(i for cluster in partition.clusters for i in cluster)
        assert members == list(range(6))

    def test_planted_cluster_found(self):
        dataset = correlated_dataset()
        model = fit_model(dataset.observations, dataset.labels)
        partition = correlation_clusters(model, "true", min_phi=0.25)
        assert frozenset({0, 1, 2}) in partition.clusters

    def test_discovered_groups_report(self):
        dataset = correlated_dataset()
        model = fit_model(dataset.observations, dataset.labels)
        report = discovered_correlation_groups(model, min_phi=0.25)
        assert (0, 1, 2) in report["true"]
        assert (3, 4) in report["false"]

    def test_partition_validation(self):
        with pytest.raises(ValueError, match="overlap"):
            SourcePartition(clusters=(frozenset({0, 1}), frozenset({1, 2})))

    def test_partition_helpers(self):
        partition = SourcePartition(
            clusters=(frozenset({0, 1, 2}), frozenset({3}), frozenset({4, 5}))
        )
        assert partition.sizes == (3, 2, 1)
        assert partition.nontrivial == (frozenset({0, 1, 2}), frozenset({4, 5}))
        assert partition.cluster_of(4) == frozenset({4, 5})
        with pytest.raises(KeyError):
            partition.cluster_of(9)


class TestClusteredFuser:
    def test_matches_exact_under_independence(self):
        qualities = [
            SourceQuality(f"s{i}", precision=0.8, recall=0.5, false_positive_rate=0.125)
            for i in range(4)
        ]
        model = IndependentJointModel(qualities, prior=0.5)
        singleton_partition = SourcePartition(
            clusters=tuple(frozenset({i}) for i in range(4))
        )
        clustered = ClusteredCorrelationFuser(
            model,
            true_partition=singleton_partition,
            false_partition=singleton_partition,
        )
        exact = ExactCorrelationFuser(model)
        for providers in (frozenset(), frozenset({0}), frozenset({0, 2})):
            silent = frozenset(range(4)) - providers
            assert clustered.pattern_mu(providers, silent) == pytest.approx(
                exact.pattern_mu(providers, silent), rel=1e-9
            )

    def test_matches_exact_with_one_full_cluster(self, figure1, figure1_model):
        full = SourcePartition(clusters=(frozenset(range(5)),))
        clustered = ClusteredCorrelationFuser(
            figure1_model, true_partition=full, false_partition=full
        )
        exact = ExactCorrelationFuser(figure1_model)
        assert np.allclose(
            clustered.score(figure1.observations),
            exact.score(figure1.observations),
            atol=1e-9,
        )

    def test_improves_over_wrong_independence_on_correlated_data(self):
        from repro.core import PrecRecFuser
        from repro.eval import auc_pr

        dataset = correlated_dataset(seed=5)
        model = fit_model(dataset.observations, dataset.labels)
        clustered = ClusteredCorrelationFuser(model, min_phi=0.25)
        independent = PrecRecFuser(model)
        auc_clustered = auc_pr(clustered.score(dataset.observations), dataset.labels)
        auc_independent = auc_pr(
            independent.score(dataset.observations), dataset.labels
        )
        assert auc_clustered > auc_independent

    def test_cluster_limit_validation(self, figure1_model):
        with pytest.raises(ValueError, match="exact_cluster_limit"):
            ClusteredCorrelationFuser(figure1_model, exact_cluster_limit=0)

    def test_oversized_cluster_uses_elastic(self, figure1, figure1_model):
        full = SourcePartition(clusters=(frozenset(range(5)),))
        fuser = ClusteredCorrelationFuser(
            figure1_model,
            true_partition=full,
            false_partition=full,
            exact_cluster_limit=2,
            elastic_level=5,
        )
        # Level 5 >= any silent set here, so elastic equals exact anyway.
        exact = ExactCorrelationFuser(figure1_model)
        assert np.allclose(
            fuser.score(figure1.observations),
            exact.score(figure1.observations),
            atol=1e-9,
        )

    def test_small_clusters_share_one_exact_group(self, monkeypatch):
        # Every small cluster of both sides is scored in one exact group,
        # straight from its restriction codes: no per-cluster evaluator
        # and no ExactCorrelationFuser at all.
        def refuse(*args, **kwargs):
            raise AssertionError("the clustered fuser built an exact fuser")

        monkeypatch.setattr(ExactCorrelationFuser, "__init__", refuse)
        dataset = correlated_dataset()
        model = fit_model(dataset.observations, dataset.labels)
        fuser = ClusteredCorrelationFuser(model, min_phi=0.25)
        exact_groups = [
            clusters
            for evaluator, clusters, _ in fuser._evaluator_groups
            if evaluator is None
        ]
        assert len(exact_groups) == 1 and len(exact_groups[0]) >= 2
        assert set(exact_groups[0]) == {
            cluster
            for cluster in fuser.true_partition.clusters
            + fuser.false_partition.clusters
            if len(cluster) <= 12
        }
        # Grouping must not change scores: each restriction's value is a
        # pure function of the full model.  Compare against the
        # per-triple reference walk.
        np.testing.assert_array_equal(
            fuser.score(dataset.observations),
            reference.triple_scores(
                dataset.observations, model, "clustered",
                true_partition=fuser.true_partition,
                false_partition=fuser.false_partition,
            ),
        )

    def test_cache_cap_is_forwarded_to_cluster_evaluators(self, figure1_model):
        full = SourcePartition(clusters=(frozenset(range(5)),))
        singletons = SourcePartition(
            clusters=tuple(frozenset({i}) for i in range(5))
        )
        fuser = ClusteredCorrelationFuser(
            figure1_model,
            true_partition=full,
            false_partition=singletons,
            exact_cluster_limit=2,  # the full cluster routes to elastic
            max_plan_cache_entries=7,
        )
        evaluators = list(fuser.elastic_evaluators().values())
        assert len(evaluators) == 1
        for cache_owner in [fuser, *evaluators]:
            assert cache_owner.plan_cache.max_entries == 7

    def test_batched_scoring_with_differing_partitions_is_bit_identical(self):
        # True-side and false-side partitions that disagree: the numerator
        # must follow the true-side clusters and the denominator the
        # false-side clusters, exactly as the per-triple reference walk.
        dataset = correlated_dataset(seed=9)
        model = fit_model(dataset.observations, dataset.labels)
        true_partition = SourcePartition(
            clusters=(frozenset({0, 1, 2}), frozenset({3}), frozenset({4, 5}))
        )
        false_partition = SourcePartition(
            clusters=(frozenset({0}), frozenset({1, 3, 4}), frozenset({2, 5}))
        )
        kwargs = dict(
            true_partition=true_partition, false_partition=false_partition
        )
        vectorized = ClusteredCorrelationFuser(model, **kwargs)
        np.testing.assert_array_equal(
            vectorized.score(dataset.observations),
            reference.triple_scores(
                dataset.observations, model, "clustered", **kwargs
            ),
        )


def _random_partition(rng, sources):
    """Shuffle ``sources`` and cut them into clusters of 1-4 sources."""
    order = rng.permutation(sources).tolist()
    clusters = []
    while order:
        size = int(rng.integers(1, 5))
        clusters.append(frozenset(order[:size]))
        order = order[size:]
    return clusters


def _per_cluster_mu(model, patterns, true_partition, false_partition,
                    exact_cluster_limit, elastic_level=3):
    """Reference ``mu``: one evaluator call per cluster and side.

    Restricts the global patterns to each cluster on its own, dedups them
    with ``np.unique``, evaluates them with one ``pattern_likelihoods_batch``
    call of an independent evaluator -- an :class:`ExactCorrelationFuser`
    over the model up to ``exact_cluster_limit`` sources, an elastic one
    over the cluster beyond -- and adds the per-cluster ``math.log`` terms
    in partition order.
    """
    sources = np.arange(patterns.n_sources)
    exact = ExactCorrelationFuser(model)

    def evaluator_of(cluster):
        if len(cluster) <= exact_cluster_limit:
            return exact
        return ElasticFuser(
            model, level=elastic_level, universe=sorted(cluster)
        )

    def side_logs(partition, side):
        total = np.zeros(patterns.n_patterns)
        for cluster in partition.clusters:
            evaluator = evaluator_of(cluster)
            mask = np.isin(sources, sorted(cluster))
            sub_providers = patterns.provider_matrix & mask
            sub_silent = patterns.silent_matrix & mask
            _, first, inverse = np.unique(
                np.concatenate([sub_providers, sub_silent], axis=1),
                axis=0, return_index=True, return_inverse=True,
            )
            values = evaluator.pattern_likelihoods_batch(
                sub_providers[first], sub_silent[first]
            )[side]
            logs = np.array(
                [math.log(max(v, PROBABILITY_FLOOR)) for v in values.tolist()]
            )
            total += logs[inverse.reshape(-1)]
        return total

    numerator = side_logs(true_partition, 0)
    denominator = side_logs(false_partition, 1)
    return np.array([math.exp(v) for v in (numerator - denominator).tolist()])


class TestEvaluatorGroupedScoring:
    """One stacked batch per evaluator equals one call per cluster."""

    @pytest.mark.parametrize("exact_cluster_limit", [2, 12])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_bit_identical_to_per_cluster_reference(
        self, seed, exact_cluster_limit
    ):
        rng = np.random.default_rng(seed)
        n_sources = 14
        config = SyntheticConfig(
            sources=uniform_sources(n_sources, precision=0.7, recall=0.45),
            n_triples=900,
            true_fraction=0.5,
            groups=(
                CorrelationGroup(members=(0, 1, 2), mode="overlap_true"),
                CorrelationGroup(members=(5, 6, 7, 8), mode="overlap_false"),
            ),
        )
        generated = generate(config, seed=seed)
        # Partial coverage: silent and not-covering are distinct states.
        provides = generated.observations.provides
        observations = ObservationMatrix(
            provides,
            generated.observations.source_names,
            coverage=provides | (rng.random(provides.shape) < 0.7),
        )
        model = fit_model(observations, generated.labels)
        # The partitions differ, but share one five-source cluster, so an
        # elastic evaluator serves a cluster on both sides.
        shared = frozenset(rng.choice(n_sources, 5, replace=False).tolist())
        rest = sorted(set(range(n_sources)) - shared)
        true_partition = SourcePartition(
            clusters=(shared, *_random_partition(rng, rest))
        )
        false_partition = SourcePartition(
            clusters=(*_random_partition(rng, rest), shared)
        )
        assert true_partition != false_partition
        kwargs = dict(
            true_partition=true_partition,
            false_partition=false_partition,
            exact_cluster_limit=exact_cluster_limit,
        )
        fuser = ClusteredCorrelationFuser(model, **kwargs)
        if exact_cluster_limit == 2:
            assert any(
                isinstance(e, ElasticFuser) for e in fuser._true_evaluators
            )
        patterns = observations.patterns()
        mu = fuser.pattern_mu_batch(patterns)
        assert np.array_equal(mu, _per_cluster_mu(model, patterns, **kwargs))
        np.testing.assert_array_equal(
            fuser.score(observations),
            reference.triple_scores(
                observations, model, "clustered", **kwargs
            ),
        )

    @pytest.mark.parametrize("exact_cluster_limit", [2, 12])
    def test_one_plan_build_per_evaluator(
        self, exact_cluster_limit, monkeypatch
    ):
        config = SyntheticConfig(
            sources=uniform_sources(32, precision=0.7, recall=0.5),
            n_triples=600,
            true_fraction=0.5,
            groups=(
                CorrelationGroup(members=(0, 1, 2, 3), mode="overlap_true"),
                CorrelationGroup(members=(6, 7, 8), mode="overlap_false"),
                CorrelationGroup(
                    members=(12, 13, 14, 15, 16), mode="overlap_true"
                ),
            ),
        )
        dataset = generate(config, seed=4)
        session = ScoringSession(
            dataset.observations,
            dataset.labels,
            method="precreccorr",
            exact_cluster_limit=exact_cluster_limit,
        )
        builds = {"exact": 0, "elastic": 0}
        plans = (("exact", ExactUnionPlan), ("elastic", ElasticUnionPlan))
        for kind, plan in plans:
            real_build = plan.build.__func__

            def counted(cls, *args, _kind=kind, _build=real_build, **kw):
                builds[_kind] += 1
                return _build(cls, *args, **kw)

            monkeypatch.setattr(plan, "build", classmethod(counted))
        try:
            fuser = session.fuser
            assert isinstance(fuser, ClusteredCorrelationFuser)
            n_clusters = len(fuser.true_partition.clusters) + len(
                fuser.false_partition.clusters
            )
            n_elastic = len(fuser.elastic_evaluators())
            assert n_clusters > 2 + n_elastic
            session.score(dataset.observations)
        finally:
            session.close()
        # The exact group is scored from its restriction codes, without a
        # union plan; each elastic evaluator builds at most one.
        assert builds["exact"] == 0
        assert builds["elastic"] <= n_elastic
        if exact_cluster_limit == 2:
            assert n_elastic >= 1 and builds["elastic"] >= 1


def _cut(rng, n_sources, limit):
    """``range(n_sources)`` shuffled and cut into clusters of 1 to
    ``limit + 1`` sources, the first of exactly ``limit``."""
    order = rng.permutation(n_sources).tolist()
    clusters = [frozenset(order[:limit])]
    order = order[limit:]
    while order:
        size = int(rng.integers(1, limit + 2))
        clusters.append(frozenset(order[:size]))
        order = order[size:]
    return SourcePartition(tuple(clusters))


class TestExactGroup:
    """Small clusters, scored straight from their restriction codes."""

    def test_limit_must_keep_the_exact_group_coded(self, figure1_model):
        n_sources = 70
        rng = np.random.default_rng(0)
        matrix = ObservationMatrix(
            rng.random((n_sources, 40)) < 0.4,
            [f"s{i}" for i in range(n_sources)],
        )
        model = fit_model(matrix, rng.random(40) < 0.5)

        def widest_group(width):
            # Full-width clusters on both sides, one source apart, so no
            # cluster is shared: the widest key range the limit allows.
            def partition(shift):
                order = np.roll(np.arange(n_sources), -shift).tolist()
                return SourcePartition(
                    tuple(
                        frozenset(order[start : start + width])
                        for start in range(0, n_sources, width)
                    )
                )

            return dict(
                true_partition=partition(0),
                false_partition=partition(1),
                exact_cluster_limit=width,
            )

        fuser = ClusteredCorrelationFuser(model, **widest_group(30))
        (table,) = [
            table
            for evaluator, _, table in fuser._evaluator_groups
            if evaluator is None
        ]
        assert table.coded and table.n_clusters == 6
        for limit in (31, 32, 1000):
            with pytest.raises(
                ValueError,
                match="exact_cluster_limit must be at most 30 for 70 sources",
            ):
                ClusteredCorrelationFuser(model, **widest_group(limit))
        # A limit past the model's width binds nothing: figure 1 has five
        # sources.
        ClusteredCorrelationFuser(figure1_model, exact_cluster_limit=1000)

    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_triples=st.sampled_from([63, 64, 65]),
        partial=st.booleans(),
        limit=st.integers(1, 4),
    )
    def test_scores_and_seeded_logs_match_the_oracles(
        self, seed, n_triples, partial, limit
    ):
        rng = np.random.default_rng(seed)
        n_sources = 9
        provides = rng.random((n_sources, n_triples)) < 0.4
        coverage = (
            provides | (rng.random(provides.shape) < 0.6) if partial else None
        )
        matrix = ObservationMatrix(
            provides, [f"s{i}" for i in range(n_sources)], coverage=coverage
        )
        model = fit_model(matrix, rng.random(n_triples) < 0.5)
        # Differing partitions, so the exact group holds overlapping
        # clusters; each has a cluster of exactly the limit, and clusters
        # one wider go elastic.
        kwargs = dict(
            true_partition=_cut(rng, n_sources, limit),
            false_partition=_cut(rng, n_sources, limit),
            exact_cluster_limit=limit,
            elastic_level=1,
        )
        assume(kwargs["true_partition"] != kwargs["false_partition"])
        fuser = ClusteredCorrelationFuser(model, **kwargs)
        np.testing.assert_array_equal(
            fuser.score(matrix),
            reference.triple_scores(matrix, model, "clustered", **kwargs),
        )

        # A delta-serving fuser's seeded log tables hold, key by key, the
        # memo-less fuser's logs, and those of an independent evaluator.
        seeded = ClusteredCorrelationFuser(model, **kwargs)
        seeded.enable_delta_memo()
        patterns = matrix.patterns()
        seeded.pattern_mu_batch(patterns)
        exact = ExactCorrelationFuser(model)
        for index, (evaluator, clusters, table) in enumerate(
            fuser._evaluator_groups
        ):
            known, known_true, known_false = seeded.log_tables[index]
            keys = table.keys(patterns.provider_matrix, patterns.silent_matrix)
            assert np.array_equal(known, np.unique(keys))
            (logs_true, logs_false), inverse = fuser._evaluate_clusters(
                index, patterns
            )
            for cluster, cluster_keys in zip(clusters, keys):
                position = np.searchsorted(known, cluster_keys)
                got = (known_true[position], known_false[position])
                assert np.array_equal(got[0], logs_true[inverse[cluster]])
                assert np.array_equal(got[1], logs_false[inverse[cluster]])
                oracle = exact if evaluator is None else ElasticFuser(
                    model, level=1, universe=sorted(cluster)
                )
                mask = np.isin(np.arange(n_sources), sorted(cluster))
                likelihoods = oracle.pattern_likelihoods_batch(
                    patterns.provider_matrix & mask,
                    patterns.silent_matrix & mask,
                )
                for side, values in enumerate(likelihoods):
                    assert got[side].tolist() == [
                        math.log(max(value, PROBABILITY_FLOOR))
                        for value in values.tolist()
                    ]


class TestRestrictionTables:
    def _copy_source(self, observations, source, into, columns):
        provides = observations.provides.copy()
        coverage = observations.coverage.copy()
        provides[into, columns] = provides[source, columns]
        coverage[into, columns] |= provides[into, columns]
        return ObservationMatrix(
            provides, observations.source_names, coverage=coverage
        )

    def test_tables_cover_each_evaluators_clusters(self):
        dataset = correlated_dataset(seed=2)
        model = fit_model(dataset.observations, dataset.labels)
        fuser = ClusteredCorrelationFuser(model, exact_cluster_limit=2)
        listed = set()
        for evaluator, clusters, table in fuser._evaluator_groups:
            assert table.n_clusters == len(clusters)
            for mask, cluster in zip(table.masks, clusters):
                assert set(np.flatnonzero(mask).tolist()) == set(cluster)
            listed.update(clusters)
        assert listed == set(fuser.true_partition.clusters) | set(
            fuser.false_partition.clusters
        )

    def test_partition_changing_refit_delta_rebuilds_tables(self):
        config = SyntheticConfig(
            sources=uniform_sources(10, precision=0.65, recall=0.45),
            n_triples=1500,
            true_fraction=0.5,
            groups=(
                CorrelationGroup(
                    members=(0, 1, 2), mode="overlap_true", strength=0.85
                ),
            ),
        )
        dataset = generate(config, seed=7)
        session = ScoringSession(
            dataset.observations, dataset.labels, method="clustered"
        )
        before = session.fuser
        # Source 7 copies source 6 on a third of the triples: a new
        # correlated pair, within the delta refit's churn budget.
        mutated = self._copy_source(
            dataset.observations, 6, 7, np.arange(0, 700)
        )
        session.refit_delta(mutated, dataset.labels)
        assert session.last_refit_stats.mode == "delta"
        after = session.fuser
        assert frozenset({6, 7}) in after.true_partition.clusters
        assert frozenset({6, 7}) not in before.true_partition.clusters
        grouped = [
            set(np.flatnonzero(mask).tolist())
            for _, _, table in after._evaluator_groups
            for mask in table.masks
        ]
        assert {6, 7} in grouped
        cold = ScoringSession(
            mutated, dataset.labels, method="clustered", delta="off",
        )
        assert float(
            np.abs(session.score(mutated) - cold.score(mutated)).max()
        ) == 0.0


# ----------------------------------------------------------------------
# The one detector against the scalar oracle (tests/reference.py)
# ----------------------------------------------------------------------


def _wide_dataset(seed: int):
    """A 32-source dataset with planted true- and false-side groups."""
    rng = np.random.default_rng(seed)
    members = rng.permutation(32).tolist()
    groups = (
        CorrelationGroup(members=tuple(members[:4]), mode="overlap_true",
                         strength=float(rng.uniform(0.5, 0.95))),
        CorrelationGroup(members=tuple(members[4:7]), mode="overlap_false",
                         strength=float(rng.uniform(0.5, 0.95))),
        CorrelationGroup(members=tuple(members[7:10]), mode="copy",
                         strength=float(rng.uniform(0.5, 0.95))),
    )
    config = SyntheticConfig(
        sources=uniform_sources(
            32, precision=float(rng.uniform(0.55, 0.85)),
            recall=float(rng.uniform(0.2, 0.6)),
        ),
        n_triples=int(rng.integers(300, 900)),
        true_fraction=0.5,
        groups=groups,
    )
    return generate(config, seed=seed)


def _assert_matches_oracle(model, **thresholds):
    state = detect_partition_state(model, **thresholds)
    for side in ("true", "false"):
        oracle = reference.pairwise_correlations(model, side, **thresholds)
        assert state.edges(side) == {(i, j) for i, j, _, _ in oracle}
        # Cluster order fixes the likelihood summation order.
        assert state.partition(side).clusters == (
            reference.correlation_clusters(model, side, **thresholds).clusters
        )
        assert [
            (edge.source_i, edge.source_j, edge.factor, edge.phi)
            for edge in correlation_edges(model, state, side)
        ] == oracle


class TestDetectionMatchesOracle:
    def test_sixty_fixed_32_source_datasets(self):
        for seed in range(60):
            dataset = _wide_dataset(seed)
            _assert_matches_oracle(
                fit_model(dataset.observations, dataset.labels)
            )

    @settings(
        max_examples=40, deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        seed=st.integers(0, 2**16),
        n_sources=st.integers(1, 9),
        n_triples=st.integers(1, 160),
        partial=st.booleans(),
        mask_model=st.booleans(),
        min_phi=st.floats(0.0, 1.0),
        min_expected=st.floats(0.0, 8.0),
        significance=st.floats(1e-6, 1.0),
    )
    def test_fuzzed_empirical_models(
        self, seed, n_sources, n_triples, partial, mask_model, min_phi,
        min_expected, significance,
    ):
        rng = np.random.default_rng(seed)
        coverage = (
            rng.random((n_sources, n_triples)) < 0.8 if partial else None
        )
        provides = rng.random((n_sources, n_triples)) < rng.uniform(0.1, 0.9)
        # Correlate a few rows so edges actually form.
        if n_sources >= 3:
            provides[1] = provides[0] ^ (rng.random(n_triples) < 0.1)
        if coverage is not None:
            provides &= coverage
        labels = rng.random(n_triples) < 0.5
        observations = ObservationMatrix(
            provides, [f"S{i}" for i in range(n_sources)], coverage=coverage
        )
        model = fit_model(observations, labels)
        if mask_model:
            # Boolean-mask statistics through the scalar pair queries.
            model = reference.MaskJointModel(
                observations, labels, prior=model.prior
            )
        _assert_matches_oracle(
            model, min_phi=min_phi, min_expected=min_expected,
            significance=significance,
        )

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        n_sources=st.integers(1, 7),
        min_phi=st.floats(0.0, 1.0),
    )
    def test_fuzzed_explicit_models(self, seed, n_sources, min_phi):
        rng = np.random.default_rng(seed)
        qualities = [
            SourceQuality(
                name=f"S{i}",
                precision=float(rng.uniform(0.05, 1.0)),
                recall=float(rng.choice([0.0, 1.0, rng.uniform()])),
                false_positive_rate=float(rng.uniform()),
            )
            for i in range(n_sources)
        ]
        pairs = [
            frozenset((i, j))
            for i in range(n_sources) for j in range(i + 1, n_sources)
            if rng.random() < 0.5
        ]
        model = ExplicitJointModel(
            qualities,
            joint_recalls={pair: float(rng.uniform()) for pair in pairs},
            joint_fprs={pair: float(rng.uniform()) for pair in pairs},
        )
        _assert_matches_oracle(model, min_phi=min_phi)


class TestThresholdValidation:
    """Every public entry point validates the one detector's thresholds."""

    @staticmethod
    def _entry_points(model):
        return (
            lambda **kw: detect_partition_state(model, **kw),
            lambda **kw: pairwise_correlations(model, "true", **kw),
            lambda **kw: correlation_clusters(model, "false", **kw),
            lambda **kw: discovered_correlation_groups(model, **kw),
            lambda **kw: ClusteredCorrelationFuser(model, **kw),
        )

    @settings(max_examples=30, deadline=None)
    @given(
        name=st.sampled_from(("min_phi", "min_expected", "significance")),
        value=st.one_of(
            st.just(float("nan")),
            st.just(float("inf")),
            st.just(float("-inf")),
            st.floats(-1e6, -1e-9),
            st.floats(1.0 + 1e-9, 1e6),
            st.just(0.0),
        ),
    )
    def test_out_of_range_thresholds_raise(self, figure1_model, name, value):
        valid = (
            (name == "min_phi" and 0.0 <= value <= 1.0)
            or (name == "significance" and 0.0 < value <= 1.0)
            or (name == "min_expected" and 0.0 <= value < float("inf"))
        )
        for call in self._entry_points(figure1_model):
            if valid:
                call(**{name: value})
            else:
                with pytest.raises(ValueError, match=name):
                    call(**{name: value})

    def test_boundaries_accepted(self, figure1_model):
        for call in self._entry_points(figure1_model):
            call(min_phi=0.0, min_expected=0.0, significance=1.0)
            call(min_phi=1.0, min_expected=1e9, significance=1e-12)


class TestDetectionState:
    def test_fuser_exposes_the_state_it_detected(self):
        dataset = _wide_dataset(3)
        model = fit_model(dataset.observations, dataset.labels)
        fuser = ClusteredCorrelationFuser(model)
        state = fuser.partition_state
        assert state == detect_partition_state(model)
        assert fuser.true_partition is state.true_partition
        pinned = ClusteredCorrelationFuser(
            model, true_partition=state.true_partition
        )
        assert pinned.partition_state is None
        assert pinned.false_partition == state.false_partition

    def test_groups_match_discovered_correlation_groups(self):
        dataset = correlated_dataset()
        model = fit_model(dataset.observations, dataset.labels)
        state = detect_partition_state(model, min_phi=0.25)
        assert state.groups() == discovered_correlation_groups(
            model, min_phi=0.25
        )

    def test_refresh_rejects_a_different_source_count(self):
        dataset = _wide_dataset(5)
        model = fit_model(dataset.observations, dataset.labels)
        state = detect_partition_state(model)
        small = correlated_dataset()
        with pytest.raises(ValueError, match="sources"):
            refresh_partition_state(
                state, fit_model(small.observations, small.labels), [0]
            )

    def test_session_keeps_the_cold_fit_state(self, monkeypatch):
        from repro.core import api

        dataset = _wide_dataset(8)
        session = ScoringSession(
            dataset.observations, dataset.labels, method="precreccorr"
        )
        try:
            assert isinstance(session.fuser, ClusteredCorrelationFuser)
            state = session.fuser.partition_state
            assert state is not None
            calls = []
            real_detect = api.detect_partition_state
            monkeypatch.setattr(
                api, "detect_partition_state",
                lambda *a, **kw: calls.append(1) or real_detect(*a, **kw),
            )
            provides = dataset.observations.provides.copy()
            provides[2, :40] = ~provides[2, :40]
            mutated = ObservationMatrix(
                provides, dataset.observations.source_names
            )
            session.refit_delta(mutated, dataset.labels)
            assert calls == []  # refreshed, not detected again
            cold = ScoringSession(mutated, dataset.labels, method="precreccorr")
            try:
                fresh = cold.fuser.partition_state
                assert session.fuser.true_partition == fresh.true_partition
                assert session.fuser.false_partition == fresh.false_partition
                assert np.array_equal(
                    session.score(mutated), cold.score(mutated)
                )
            finally:
                cold.close()
        finally:
            session.close()



class TestLogAndExpMaps:
    """The C-level ``math.log`` / ``math.exp`` maps make the per-value
    walks' calls, so every value is bit-equal to them."""

    _values = st.one_of(
        st.floats(-1.0, 1.0),
        st.sampled_from(
            [0.0, -0.0, PROBABILITY_FLOOR, PROBABILITY_FLOOR / 2,
             np.nextafter(PROBABILITY_FLOOR, 1.0), 5e-324, 1.0, -1e-300]
        ),
    )

    @settings(max_examples=200, deadline=None)
    @given(
        values=st.lists(_values, max_size=40), data=st.data()
    )
    def test_log_pair_equals_the_per_value_walk(self, values, data):
        split = data.draw(st.integers(0, len(values)))
        likelihoods = (
            np.array(values[:split], dtype=float),
            np.array(values[split:], dtype=float),
        )
        logs_true, logs_false = _log_pair(likelihoods)
        walk = [math.log(max(value, PROBABILITY_FLOOR)) for value in values]
        assert logs_true.shape == (split,)
        assert np.concatenate([logs_true, logs_false]).tobytes() == (
            np.array(walk, dtype=float).tobytes()
        )

    @settings(max_examples=200, deadline=None)
    @given(
        values=st.lists(
            st.one_of(
                st.floats(-745.0, 709.0),
                st.sampled_from([0.0, -0.0, -np.inf, -27.631021115928547]),
            ),
            max_size=40,
        )
    )
    def test_exp_map_equals_the_per_value_walk(self, values):
        got = _exp_values(np.array(values, dtype=float))
        walk = [math.exp(value) for value in values]
        assert got.tobytes() == np.array(walk, dtype=float).tobytes()
