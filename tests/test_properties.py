"""Property-based tests (hypothesis) on the core invariants.

Strategies generate random quality parameters, observation matrices, and
score vectors; the properties assert the algebra the paper's machinery must
satisfy regardless of inputs: probabilities stay in [0, 1], Theorem 3.5 is
self-consistent, singleton and joint rates follow one rule, a source that
claims nothing moves no score, the three correlation methods coincide under
independence, inclusion-exclusion matches direct enumeration, metrics
behave, and serialization round-trips.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.core import (
    METHOD_NAMES,
    AggressiveFuser,
    ClusteredCorrelationFuser,
    ElasticFuser,
    EmpiricalJointModel,
    ExactCorrelationFuser,
    IndependentJointModel,
    ObservationMatrix,
    PrecRecFuser,
    SourceQuality,
    derive_false_positive_rate,
    estimate_source_quality,
    fit_model,
    fpr_validity_bound,
    fuse,
)
from repro.core.clustering import detect_partition_state
from repro.data import available_datasets, get_dataset
from repro.eval import auc_roc, binary_metrics, pr_curve, roc_curve
from repro.util.probability import probability_from_mu

# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------

rates = st.floats(min_value=0.01, max_value=0.99)
priors = st.floats(min_value=0.05, max_value=0.95)


@st.composite
def quality_lists(draw, min_sources=2, max_sources=5):
    n = draw(st.integers(min_sources, max_sources))
    qualities = []
    for i in range(n):
        r = draw(rates)
        q = draw(rates)
        p = draw(rates)
        qualities.append(
            SourceQuality(f"s{i}", precision=p, recall=r, false_positive_rate=q)
        )
    return qualities


@st.composite
def observation_matrices(draw, max_sources=5, max_triples=30):
    n = draw(st.integers(2, max_sources))
    m = draw(st.integers(2, max_triples))
    provides = draw(
        arrays(dtype=bool, shape=(n, m), elements=st.booleans()).filter(
            lambda a: a.any(axis=0).all()  # every triple has a provider
        )
    )
    labels = draw(arrays(dtype=bool, shape=(m,), elements=st.booleans()))
    return ObservationMatrix(provides, [f"s{i}" for i in range(n)]), labels


# ----------------------------------------------------------------------
# Theorem 3.5 self-consistency
# ----------------------------------------------------------------------


class TestTheorem35Properties:
    @given(p=rates, r=rates, a=priors)
    def test_derived_fpr_is_a_rate(self, p, r, a):
        q = derive_false_positive_rate(p, r, a, clip=True)
        assert 0.0 <= q <= 1.0

    @given(p=rates, r=rates, a=priors)
    def test_bayes_inversion(self, p, r, a):
        """Plugging q back into Bayes' rule recovers the precision."""
        q = derive_false_positive_rate(p, r, a, clip=False) if a <= fpr_validity_bound(p, r) else None
        if q is None:
            return
        recovered = a * r / (a * r + (1 - a) * q) if (a * r + (1 - a) * q) else 1.0
        assert recovered == pytest.approx(p, rel=1e-6)

    @given(p=rates, r=rates)
    def test_good_source_iff_precision_above_prior(self, p, r):
        a = 0.5
        if a > fpr_validity_bound(p, r):
            return
        q = derive_false_positive_rate(p, r, a, clip=False)
        if p > a:
            assert q < r
        elif p < a:
            assert q > r


# ----------------------------------------------------------------------
# Fusion algebra
# ----------------------------------------------------------------------


class TestFusionProperties:
    @given(qualities=quality_lists(), prior=priors, data=st.data())
    @settings(max_examples=60, suppress_health_check=[HealthCheck.too_slow])
    def test_posterior_in_unit_interval(self, qualities, prior, data):
        model = IndependentJointModel(qualities, prior=prior)
        n = len(qualities)
        provider_mask = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
        providers = frozenset(i for i, v in enumerate(provider_mask) if v)
        silent = frozenset(range(n)) - providers
        for fuser in (
            PrecRecFuser(model),
            ExactCorrelationFuser(model),
            AggressiveFuser(model),
            ElasticFuser(model, level=2),
        ):
            prob = probability_from_mu(
                fuser.pattern_mu(providers, silent), fuser.prior
            )
            assert 0.0 <= prob <= 1.0

    @given(qualities=quality_lists(), prior=priors)
    @settings(max_examples=40, suppress_health_check=[HealthCheck.too_slow])
    def test_methods_coincide_under_independence(self, qualities, prior):
        model = IndependentJointModel(qualities, prior=prior)
        n = len(qualities)
        providers = frozenset(range(0, n, 2))
        silent = frozenset(range(n)) - providers
        reference = PrecRecFuser(model).pattern_mu(providers, silent)
        for fuser in (
            ExactCorrelationFuser(model),
            AggressiveFuser(model),
            ElasticFuser(model, level=n),
        ):
            assert fuser.pattern_mu(providers, silent) == pytest.approx(
                reference, rel=1e-6
            )

    @given(mu=st.floats(min_value=1e-6, max_value=1e6), prior=priors)
    def test_posterior_monotone_in_mu(self, mu, prior):
        assert probability_from_mu(mu * 2, prior) >= probability_from_mu(mu, prior)

    @given(qualities=quality_lists())
    @settings(max_examples=30)
    def test_source_order_permutation_invariance(self, qualities):
        """Scoring is invariant under renaming/permuting the sources."""
        model = IndependentJointModel(qualities, prior=0.5)
        n = len(qualities)
        providers = frozenset({0})
        silent = frozenset(range(1, n))
        base = PrecRecFuser(model).pattern_mu(providers, silent)
        permuted = IndependentJointModel(list(reversed(qualities)), prior=0.5)
        mu = PrecRecFuser(permuted).pattern_mu(
            frozenset({n - 1}), frozenset(range(n - 1))
        )
        assert probability_from_mu(mu, 0.5) == pytest.approx(
            probability_from_mu(base, 0.5), rel=1e-9
        )


# ----------------------------------------------------------------------
# Empirical-model invariants on random matrices
# ----------------------------------------------------------------------


class TestEmpiricalModelProperties:
    @given(case=observation_matrices())
    @settings(max_examples=40, suppress_health_check=[HealthCheck.too_slow])
    def test_inclusion_exclusion_equals_pattern_frequency(self, case):
        matrix, labels = case
        if not labels.any():
            return
        model = fit_model(matrix, labels, prior=0.5)
        exact = ExactCorrelationFuser(model)
        provides = matrix.provides
        n_true = labels.sum()
        column = provides[:, 0]
        numerator, _ = exact.pattern_likelihoods_batch([column], [~column])
        frequency = (provides.T[labels] == column).all(axis=1).mean()
        assert numerator[0] == pytest.approx(max(frequency, 1e-12), abs=1e-9)

    @given(case=observation_matrices())
    @settings(max_examples=40, suppress_health_check=[HealthCheck.too_slow])
    def test_estimated_rates_are_probabilities(self, case):
        matrix, labels = case
        for quality in estimate_source_quality(matrix, labels):
            assert 0.0 <= quality.precision <= 1.0
            assert 0.0 <= quality.recall <= 1.0
            assert 0.0 <= quality.false_positive_rate <= 1.0


# ----------------------------------------------------------------------
# One rule for singleton and joint rates; a mute source moves no score
# ----------------------------------------------------------------------


@st.composite
def matrices_with_degenerate_rows(draw, max_sources=5, max_triples=30):
    """A labelled random matrix plus an all-zero row and a "liar" row.

    Coverage is full or random (partial).  The all-zero row claims nothing
    and the liar row claims only false triples, so their precision is 0:
    the case where Theorem 3.5 degenerates.
    """
    n = draw(st.integers(1, max_sources))
    m = draw(st.integers(2, max_triples))
    provides = draw(arrays(dtype=bool, shape=(n, m), elements=st.booleans()))
    labels = draw(arrays(dtype=bool, shape=(m,), elements=st.booleans()))
    liar = draw(arrays(dtype=bool, shape=(m,), elements=st.booleans())) & ~labels
    provides = np.vstack([provides, np.zeros((1, m), dtype=bool), liar[None, :]])
    if draw(st.booleans()):
        coverage = np.ones_like(provides)
    else:
        coverage = provides | draw(
            arrays(dtype=bool, shape=provides.shape, elements=st.booleans())
        )
    names = [f"s{i}" for i in range(n)] + ["mute", "liar"]
    return ObservationMatrix(provides, names, coverage=coverage), labels


def _with_mute_source(matrix: ObservationMatrix) -> ObservationMatrix:
    """``matrix`` plus one source that covers every triple and claims none."""
    n, m = matrix.provides.shape
    return ObservationMatrix(
        np.vstack([matrix.provides, np.zeros((1, m), dtype=bool)]),
        list(matrix.source_names) + ["mute"],
        coverage=np.vstack([matrix.coverage, np.ones((1, m), dtype=bool)]),
    )


def _assert_one_rule(model) -> None:
    for i in range(model.n_sources):
        assert model.fpr(i) == model.joint_fpr({i})
        assert model.recall(i) == model.joint_recall({i})


class TestSingletonsFollowTheJointRule:
    """``fpr(i) == joint_fpr({i})`` and ``recall(i) == joint_recall({i})``.

    At precision 0 Theorem 3.5 degenerates; singletons and joints must then
    take the same direct count, or a source that claims nothing gets
    ``q = 1`` and its silence factor ``(1 - r) / (1 - q)`` divides by zero.
    """

    @given(
        case=matrices_with_degenerate_rows(),
        prior=priors,
        smoothing=st.sampled_from([0.0, 0.1, 1.0]),
        data=st.data(),
    )
    @settings(max_examples=60, suppress_health_check=[HealthCheck.too_slow])
    def test_cold_and_delta_models(self, case, prior, smoothing, data):
        matrix, labels = case
        cold = EmpiricalJointModel(matrix, labels, prior=prior, smoothing=smoothing)
        _assert_one_rule(cold)
        # The delta refit transports the integer counts from an earlier
        # generation (here: a matrix with other provisions) and must
        # re-derive the same singletons.
        earlier = data.draw(
            arrays(dtype=bool, shape=matrix.provides.shape, elements=st.booleans())
        )
        previous = EmpiricalJointModel(
            ObservationMatrix(
                earlier & matrix.coverage,
                matrix.source_names,
                coverage=matrix.coverage,
            ),
            labels,
            prior=prior,
            smoothing=smoothing,
        )
        delta, stats = previous.refit_delta(
            matrix, labels, max_churn_fraction=1.0
        )
        assert stats.mode == "delta"
        _assert_one_rule(delta)
        assert delta.source_qualities() == cold.source_qualities()

    @pytest.mark.parametrize("name", available_datasets())
    def test_every_registry_dataset(self, name):
        dataset = get_dataset(name)
        _assert_one_rule(fit_model(dataset.observations, dataset.labels))

    def test_degenerate_rates(self):
        provides = np.array(
            [[1, 1, 0, 0], [0, 0, 0, 0], [0, 0, 1, 0]], dtype=bool
        )
        labels = np.array([True, True, False, False])
        model = EmpiricalJointModel(
            ObservationMatrix(provides, ["good", "mute", "liar"]), labels
        )
        assert (model.recall(1), model.fpr(1)) == (0.0, 0.0)
        assert (model.recall(2), model.fpr(2)) == (0.0, 0.5)


#: Posterior tolerance of the mute-source metamorphic test.  The mute
#: source's terms are exact zeros (its log-contributions under PrecRec and
#: aggressive, its inclusion-exclusion terms under exact, elastic and
#: clustered), but one more source widens the packed pattern rows and the
#: PrecRec/aggressive matrix products, whose reduction order may move the
#: last ulp.
MUTE_SOURCE_ATOL = 1e-12


class TestMuteSourceMovesNoScore:
    """Appending a source that claims nothing leaves every score in place."""

    @given(case=observation_matrices(max_sources=5), data=st.data())
    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_model_based_methods(self, case, data):
        matrix, labels = case
        muted = _with_mute_source(matrix)
        model = fit_model(matrix, labels)
        muted_model = fit_model(muted, labels)
        level = data.draw(st.integers(0, 3))
        pairs = [
            (PrecRecFuser(model), PrecRecFuser(muted_model)),
            (ExactCorrelationFuser(model), ExactCorrelationFuser(muted_model)),
            (AggressiveFuser(model), AggressiveFuser(muted_model)),
            (
                ElasticFuser(model, level=level),
                ElasticFuser(muted_model, level=level),
            ),
        ]
        # Clustered on each model's own detected partitions: the mute
        # source is constant on both sides, so it adds no test to either
        # Bonferroni denominator and ends in a cluster of its own.
        limit = data.draw(st.sampled_from([1, 2, 12]))
        clustered = ClusteredCorrelationFuser(model, exact_cluster_limit=limit)
        muted_clustered = ClusteredCorrelationFuser(
            muted_model, exact_cluster_limit=limit
        )
        mute = frozenset({matrix.n_sources})
        assert muted_clustered.true_partition.clusters == (
            clustered.true_partition.clusters + (mute,)
        )
        assert muted_clustered.false_partition.clusters == (
            clustered.false_partition.clusters + (mute,)
        )
        pairs.append((clustered, muted_clustered))
        for fuser, muted_fuser in pairs:
            np.testing.assert_allclose(
                muted_fuser.score(muted),
                fuser.score(matrix),
                rtol=0.0,
                atol=MUTE_SOURCE_ATOL,
                err_msg=fuser.name,
            )

    @pytest.mark.parametrize(
        "name",
        [
            "figure1",
            "restaurant",
            "reverb",
            "synthetic-correlated",
            "synthetic-independent",
            "synthetic-wide",
        ],
    )
    def test_registry_datasets_keep_every_detected_edge(self, name):
        # Regression: synthetic-independent lost its false-side edge (1, 4)
        # when every pair counted towards the Bonferroni denominator.
        dataset = get_dataset(name, seed=0)
        before = detect_partition_state(
            fit_model(dataset.observations, dataset.labels)
        )
        after = detect_partition_state(
            fit_model(_with_mute_source(dataset.observations), dataset.labels)
        )
        assert after.true_edges == before.true_edges
        assert after.false_edges == before.false_edges
        assert after.tested_pairs == before.tested_pairs

    @pytest.mark.parametrize("name", ["restaurant", "synthetic-correlated"])
    def test_registry_datasets_keep_every_accepted_set(self, name):
        # Regression: with q = 1 for the mute source, PrecRec accepted every
        # RESTAURANT triple (0.65 -> 1.00) and aggressive did too (0.46 ->
        # 1.00); elastic's mean score fell 0.840 -> 0.778.
        dataset = get_dataset(name, seed=0)
        matrix, labels = dataset.observations, dataset.labels
        muted = _with_mute_source(matrix)
        for method in METHOD_NAMES:
            before = fuse(matrix, labels, method=method)
            after = fuse(muted, labels, method=method)
            np.testing.assert_array_equal(
                after.accepted, before.accepted, err_msg=method
            )
            if method != "em":  # EM estimates the mute source's rates itself
                np.testing.assert_allclose(
                    after.scores, before.scores, rtol=0.0,
                    atol=MUTE_SOURCE_ATOL, err_msg=method,
                )


# ----------------------------------------------------------------------
# Metric properties
# ----------------------------------------------------------------------


score_arrays = st.integers(4, 40).flatmap(
    lambda n: st.tuples(
        arrays(
            dtype=float,
            shape=(n,),
            elements=st.floats(min_value=0.0, max_value=1.0),
        ),
        arrays(dtype=bool, shape=(n,), elements=st.booleans()),
    )
)


class TestMetricProperties:
    @given(case=score_arrays)
    @settings(max_examples=80)
    def test_auc_bounds(self, case):
        scores, labels = case
        assert 0.0 <= auc_roc(scores, labels) <= 1.0
        assert 0.0 <= pr_curve(scores, labels).area <= 1.0 + 1e-9

    @given(case=score_arrays)
    @settings(max_examples=80)
    def test_roc_flip_symmetry(self, case):
        scores, labels = case
        if labels.all() or not labels.any():
            return
        direct = auc_roc(scores, labels)
        flipped = auc_roc(-scores, labels)
        assert direct + flipped == pytest.approx(1.0, abs=1e-9)

    @given(case=score_arrays)
    @settings(max_examples=80)
    def test_curves_are_monotone_in_x(self, case):
        scores, labels = case
        roc = roc_curve(scores, labels)
        assert np.all(np.diff(roc.x) >= -1e-12)
        assert np.all(np.diff(roc.y) >= -1e-12)
        pr = pr_curve(scores, labels)
        assert np.all(np.diff(pr.x) >= -1e-12)

    @given(case=score_arrays, threshold=st.floats(0.0, 1.0))
    @settings(max_examples=60)
    def test_f1_between_zero_and_one(self, case, threshold):
        scores, labels = case
        metrics = binary_metrics(scores >= threshold, labels)
        assert 0.0 <= metrics.f1 <= 1.0
        if metrics.precision and metrics.recall:
            # The harmonic mean lies between min and max mathematically, but
            # 2pr/(p+r) can land one ulp outside when p == r -- compare with
            # a float tolerance.
            assert min(metrics.precision, metrics.recall) <= metrics.f1 + 1e-12
            assert metrics.f1 <= max(metrics.precision, metrics.recall) + 1e-12


# ----------------------------------------------------------------------
# Serialization round-trip
# ----------------------------------------------------------------------


class TestSerializationProperties:
    @given(case=observation_matrices())
    @settings(max_examples=25, suppress_health_check=[HealthCheck.too_slow])
    def test_save_load_roundtrip(self, case, tmp_path_factory):
        from repro.data import FusionDataset, load_dataset, save_dataset

        matrix, labels = case
        dataset = FusionDataset(name="prop", observations=matrix, labels=labels)
        target = tmp_path_factory.mktemp("roundtrip")
        save_dataset(dataset, target)
        loaded = load_dataset(target)
        assert np.array_equal(loaded.observations.provides, matrix.provides)
        assert np.array_equal(loaded.labels, labels)
