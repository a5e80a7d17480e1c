"""The fusion algorithms: analytical identities and behavioural properties.

Covers Corollary 4.3 (exact and clustered == PrecRec under independence),
Corollary 4.6 (aggressive == PrecRec under independence), elastic at every
level == PrecRec under independence, elastic-at-max-level == exact,
Propositions 3.2 / 3.6 (monotone source influence), Proposition 4.8
(aggressive degeneracies), the inclusion-exclusion identity against a
brute-force world enumeration, and the decision-prior plumbing.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.core import (
    AggressiveFuser,
    ClusteredCorrelationFuser,
    ElasticFuser,
    ExactCorrelationFuser,
    ExplicitJointModel,
    IndependentJointModel,
    ObservationMatrix,
    PrecRecFuser,
    SourcePartition,
    SourceQuality,
    fit_model,
)
from repro.util.probability import probability_from_mu


def posterior(fuser, providers, silent):
    """``Pr(t | Ot)`` of one pattern under the fuser's decision prior."""
    return probability_from_mu(fuser.pattern_mu(providers, silent), fuser.prior)


def make_qualities(params):
    return [
        SourceQuality(f"s{i}", precision=p, recall=r, false_positive_rate=q)
        for i, (p, r, q) in enumerate(params)
    ]


INDEPENDENT = IndependentJointModel(
    make_qualities([(0.8, 0.6, 0.1), (0.7, 0.4, 0.2), (0.6, 0.5, 0.3)]),
    prior=0.4,
)

ALL_PATTERNS = [
    (frozenset(p), frozenset(range(3)) - frozenset(p))
    for size in range(4)
    for p in itertools.combinations(range(3), size)
]


#: Posterior tolerance of the independence-collapse checks.  Under
#: factorised statistics every fuser reaches PrecRec's per-source product,
#: but the inclusion-exclusion sums get there through up to 2^8
#: alternating terms.  Worst-case cancellation (a few hundred ulps of
#: ``r_St`` against a product of at least ``0.2^8``, as rates are drawn in
#: ``[0.05, 0.8]``) bounds the posterior error near 5e-9; 300 random
#: models measured at most 1.2e-13.
COLLAPSE_ATOL = 1e-8


@st.composite
def factorised_cases(draw):
    """``(model, matrix, partition, exact_cluster_limit)`` with factorising joints.

    The model is an :class:`IndependentJointModel` or an
    :class:`ExplicitJointModel` that lists every joint parameter as the
    product of its singletons, on 1-8 sources; the matrix holds up to 12
    random columns with partial coverage; the partition and cluster limit
    configure the clustered fuser.
    """
    n = draw(st.integers(1, 8))
    prior = draw(st.floats(0.1, 0.9))
    rate = st.floats(0.05, 0.8)
    recalls = [draw(rate) for _ in range(n)]
    fprs = [draw(rate) for _ in range(n)]
    qualities = [
        SourceQuality(
            f"s{i}",
            precision=prior * r / (prior * r + (1 - prior) * q),
            recall=r,
            false_positive_rate=q,
        )
        for i, (r, q) in enumerate(zip(recalls, fprs))
    ]
    if draw(st.booleans()):
        model = IndependentJointModel(qualities, prior=prior)
    else:
        subsets = [
            frozenset(members)
            for size in range(2, n + 1)
            for members in itertools.combinations(range(n), size)
        ]
        model = ExplicitJointModel(
            qualities,
            prior=prior,
            joint_recalls={s: math.prod(recalls[i] for i in s) for s in subsets},
            joint_fprs={s: math.prod(fprs[i] for i in s) for s in subsets},
        )
    m = draw(st.integers(0, 12))
    provides = draw(arrays(dtype=bool, shape=(n, m), elements=st.booleans()))
    coverage = provides | draw(
        arrays(dtype=bool, shape=(n, m), elements=st.booleans())
    )
    labels = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    partition = SourcePartition(
        clusters=tuple(
            frozenset(i for i in range(n) if labels[i] == label)
            for label in sorted(set(labels))
        )
    )
    limit = draw(st.integers(1, 4))
    return model, (provides, coverage), partition, limit


#: The fixed three-source model of the original corollary checks, with no
#: extra columns and every source in one cluster.
FIXED_CASE = (
    INDEPENDENT,
    (np.zeros((3, 0), dtype=bool), np.zeros((3, 0), dtype=bool)),
    SourcePartition(clusters=(frozenset(range(3)),)),
    12,
)


def _matrix(case, providers, silent):
    """The case's columns plus one for the ``(providers, silent)`` pattern.

    The pattern is restricted to the model's sources; the sources outside
    it do not cover that triple.
    """
    model, (provides, coverage), _, _ = case
    n = model.n_sources
    column = np.array([[i in providers] for i in range(n)], dtype=bool)
    scope = np.array([[i in providers or i in silent] for i in range(n)])
    return ObservationMatrix(
        np.hstack([column, provides]),
        model.source_names,
        coverage=np.hstack([scope, coverage]),
    )


def _assert_collapses_to_precrec(fuser, matrix):
    np.testing.assert_allclose(
        fuser.score(matrix),
        PrecRecFuser(fuser.model).score(matrix),
        rtol=0.0,
        atol=COLLAPSE_ATOL,
        err_msg=fuser.name,
    )


class TestCorollaries:
    """Under factorised joint statistics every method is PrecRec.

    Each check scores, through ``score()``, the parametrised pattern plus
    hypothesis-drawn columns on hypothesis-drawn factorised models (and on
    the fixed three-source model).
    """

    @pytest.mark.parametrize("providers, silent", ALL_PATTERNS)
    @given(case=factorised_cases())
    @example(case=FIXED_CASE)
    @settings(max_examples=6, deadline=None)
    def test_corollary_4_3_exact_equals_precrec(self, providers, silent, case):
        model, _, partition, limit = case
        matrix = _matrix(case, providers, silent)
        _assert_collapses_to_precrec(ExactCorrelationFuser(model), matrix)
        # The clustered fuser is exact per cluster (elastic beyond the
        # limit) and independent across clusters.
        _assert_collapses_to_precrec(
            ClusteredCorrelationFuser(
                model,
                true_partition=partition,
                false_partition=partition,
                exact_cluster_limit=limit,
            ),
            matrix,
        )
        _assert_collapses_to_precrec(ClusteredCorrelationFuser(model), matrix)

    @pytest.mark.parametrize("providers, silent", ALL_PATTERNS)
    @given(case=factorised_cases())
    @example(case=FIXED_CASE)
    @settings(max_examples=6, deadline=None)
    def test_corollary_4_6_aggressive_equals_precrec(
        self, providers, silent, case
    ):
        matrix = _matrix(case, providers, silent)
        _assert_collapses_to_precrec(AggressiveFuser(case[0]), matrix)

    @pytest.mark.parametrize("providers, silent", ALL_PATTERNS)
    @pytest.mark.parametrize("level", [0, 1, 2, 3])
    @given(case=factorised_cases())
    @example(case=FIXED_CASE)
    @settings(max_examples=3, deadline=None)
    def test_elastic_equals_precrec_under_independence(
        self, providers, silent, level, case
    ):
        matrix = _matrix(case, providers, silent)
        _assert_collapses_to_precrec(ElasticFuser(case[0], level=level), matrix)


class TestElasticConvergence:
    def test_max_level_equals_exact_on_empirical_model(self, figure1):
        model = fit_model(figure1.observations, figure1.labels, prior=0.5)
        exact = ExactCorrelationFuser(model)
        elastic = ElasticFuser(model, level=5)
        scores_exact = exact.score(figure1.observations)
        scores_elastic = elastic.score(figure1.observations)
        assert np.allclose(scores_exact, scores_elastic, atol=1e-9)

    def test_level_beyond_silent_count_is_harmless(self, example_model):
        shallow = ElasticFuser(example_model, level=1)
        deep = ElasticFuser(example_model, level=50)
        providers, silent = frozenset({0, 1, 3, 4}), frozenset({2})
        assert shallow.pattern_mu(providers, silent) == pytest.approx(
            deep.pattern_mu(providers, silent)
        )

    def test_level_validation(self, example_model):
        with pytest.raises(ValueError):
            ElasticFuser(example_model, level=-1)

    def test_name_contains_level(self, example_model):
        assert ElasticFuser(example_model, level=2).name.endswith("Elastic2")


class TestInclusionExclusionAgainstBruteForce:
    """Eq. 10 must equal a direct enumeration of provide/not-provide worlds.

    For an empirical model the joint recalls are moments of the observed
    distribution, so the inclusion-exclusion sum over non-providers equals
    the empirical frequency of the exact observation pattern among true
    triples; the same holds for any world distribution.
    """

    def test_pattern_frequency_identity(self, figure1, figure1_model):
        provides = figure1.observations.provides
        labels = figure1.labels
        exact = ExactCorrelationFuser(figure1_model)
        n_true = labels.sum()
        for j in range(figure1.observations.n_triples):
            providers = frozenset(np.flatnonzero(provides[:, j]).tolist())
            silent = frozenset(range(5)) - providers
            numerator, _ = exact.pattern_likelihoods_batch(
                [[i in providers for i in range(5)]],
                [[i in silent for i in range(5)]],
            )
            column_pattern = provides[:, j]
            matches = (provides.T[labels] == column_pattern).all(axis=1).sum()
            assert numerator[0] == pytest.approx(matches / n_true, abs=1e-9)


class TestProposition32:
    """Adding a good source's vote raises the probability; silence lowers it."""

    BASE = make_qualities([(0.8, 0.6, 0.1), (0.7, 0.4, 0.2)])
    GOOD = SourceQuality("good", precision=0.9, recall=0.7, false_positive_rate=0.05)
    BAD = SourceQuality("bad", precision=0.2, recall=0.3, false_positive_rate=0.7)

    def _probability(self, extra, extra_provides):
        model = IndependentJointModel(self.BASE + [extra], prior=0.5)
        fuser = PrecRecFuser(model)
        providers = {0}
        silent = {1}
        (providers if extra_provides else silent).add(2)
        return posterior(fuser, providers, silent)

    def _baseline(self):
        model = IndependentJointModel(self.BASE, prior=0.5)
        return posterior(PrecRecFuser(model), {0}, {1})

    def test_good_provider_raises(self):
        assert self._probability(self.GOOD, True) > self._baseline()

    def test_good_silence_lowers(self):
        assert self._probability(self.GOOD, False) < self._baseline()

    def test_bad_provider_lowers(self):
        assert self._probability(self.BAD, True) < self._baseline()

    def test_bad_silence_raises(self):
        assert self._probability(self.BAD, False) > self._baseline()


class TestProposition36:
    """Higher precision providers help more; higher recall silence hurts more."""

    def _prob_with_extra(self, precision, recall, provides):
        base = make_qualities([(0.8, 0.6, 0.1), (0.7, 0.4, 0.2)])
        from repro.core import derive_false_positive_rate

        extra = SourceQuality(
            "x",
            precision=precision,
            recall=recall,
            false_positive_rate=derive_false_positive_rate(precision, recall, 0.5),
        )
        model = IndependentJointModel(base + [extra], prior=0.5)
        fuser = PrecRecFuser(model)
        if provides:
            return posterior(fuser, {0, 2}, {1})
        return posterior(fuser, {0}, {1, 2})

    def test_precision_monotone_for_providers(self):
        low = self._prob_with_extra(0.6, 0.5, provides=True)
        high = self._prob_with_extra(0.9, 0.5, provides=True)
        assert high > low

    def test_recall_monotone_for_silence(self):
        low = self._prob_with_extra(0.8, 0.3, provides=False)
        high = self._prob_with_extra(0.8, 0.7, provides=False)
        assert high < low


class TestProposition48:
    """Degeneracies of the aggressive approximation."""

    def test_replicas_give_prior(self):
        """If all sources are replicas, the aggressive estimate is alpha."""
        q = SourceQuality("s", precision=0.8, recall=0.5, false_positive_rate=0.1)
        n = 3
        replicas = ExplicitJointModel(
            [q] * n,
            prior=0.3,
            joint_recalls={
                frozenset(s): 0.5
                for size in range(2, n + 1)
                for s in itertools.combinations(range(n), size)
            },
            joint_fprs={
                frozenset(s): 0.1
                for size in range(2, n + 1)
                for s in itertools.combinations(range(n), size)
            },
        )
        fuser = AggressiveFuser(replicas)
        prob = posterior(fuser, {0, 1, 2}, ())
        # mu = (C+ r / C- q)^n with C+ = r_all/(r r_all) = 1/r, so each
        # factor is (1/1) -- mu = 1 and the posterior equals the prior.
        assert prob == pytest.approx(0.3, abs=1e-9)

    def test_fully_complementary_sources_fall_back_to_independence(self):
        """Prop 4.8's second case: pairwise-complementary sources.

        The aggressive factors become 0/0 (no subset ever co-provides);
        the paper notes no valid probability exists.  Our implementation
        degrades gracefully by falling back to the independence factor 1.
        """
        q = SourceQuality("s", precision=0.9, recall=0.4, false_positive_rate=0.05)
        complementary = ExplicitJointModel(
            [q, q, q],
            prior=0.5,
            joint_recalls={
                frozenset(s): 0.0
                for s in [(0, 1), (0, 2), (1, 2), (0, 1, 2)]
            },
            joint_fprs={
                frozenset(s): 0.0
                for s in [(0, 1), (0, 2), (1, 2), (0, 1, 2)]
            },
        )
        fuser = AggressiveFuser(complementary)
        eff_recall, eff_fpr = fuser.effective_rates(0)
        assert eff_recall == pytest.approx(q.recall)
        assert eff_fpr == pytest.approx(q.false_positive_rate)

    def test_inconsistent_estimates_can_break_validity(self):
        """With noisy (mutually inconsistent) joint estimates -- the regime
        real sparse data produces -- the effective rate C+ r can exceed 1,
        the silent-source term goes negative, and mu stops being a valid
        likelihood ratio.  The posterior transform maps it to ~0 instead of
        crashing.  (The paper's own Figure 3 parameters sit just past this
        edge: C+4 * r4 = 1.5 * 0.67 > 1.)
        """
        q = SourceQuality("s", precision=0.9, recall=0.4, false_positive_rate=0.05)
        noisy = ExplicitJointModel(
            [q, q, q],
            prior=0.5,
            joint_recalls={
                frozenset({0, 1}): 0.05,
                frozenset({0, 2}): 0.05,
                frozenset({1, 2}): 0.05,
                frozenset({0, 1, 2}): 0.1,  # exceeds the pairwise joints
            },
        )
        fuser = AggressiveFuser(noisy)
        eff_recall, _ = fuser.effective_rates(0)
        assert eff_recall > 1.0  # invalid as a probability
        mu = fuser.pattern_mu(frozenset({1, 2}), frozenset({0}))
        assert mu < 0  # the (1 - C+ r) silent term went negative
        prob = posterior(fuser, {1, 2}, {0})
        assert prob < 1e-6  # graceful degradation


class TestDecisionPrior:
    def test_decision_prior_overrides_model_prior(self, figure1):
        model = fit_model(figure1.observations, figure1.labels, prior=0.3)
        default = PrecRecFuser(model)
        overridden = PrecRecFuser(model, decision_prior=0.7)
        assert default.prior == 0.3
        assert overridden.prior == 0.7
        patterns = figure1.observations.patterns()
        mus = default.pattern_mu_batch(patterns)
        np.testing.assert_allclose(
            default.pattern_probabilities(patterns),
            [probability_from_mu(mu, 0.3) for mu in mus],
        )
        np.testing.assert_allclose(
            overridden.pattern_probabilities(patterns),
            [probability_from_mu(mu, 0.7) for mu in mus],
        )

    def test_invalid_decision_prior(self, figure1_model):
        with pytest.raises(ValueError, match="decision_prior"):
            PrecRecFuser(figure1_model, decision_prior=1.0)


class TestExactGuards:
    def test_max_silent_sources(self, example_model):
        fuser = ExactCorrelationFuser(example_model, max_silent_sources=2)
        with pytest.raises(ValueError, match="ElasticFuser"):
            fuser.pattern_mu(frozenset(), frozenset({0, 1, 2}))

    def test_negative_limit_rejected(self, example_model):
        with pytest.raises(ValueError):
            ExactCorrelationFuser(example_model, max_silent_sources=-1)

    def test_source_count_mismatch(self, figure1, example_model, tiny_matrix):
        fuser = ExactCorrelationFuser(example_model)
        with pytest.raises(ValueError, match="sources"):
            fuser.score(tiny_matrix)
