"""Every number the paper works out by hand, asserted to its printed precision.

Covers Figure 1b (source and joint quality), Figure 1c (voting), Figure 3
(aggressive correlation factors), Examples 2.2 / 2.3 / 3.3 / 4.4 / 4.7 /
4.10, and the Section 2.3 overview results (PrecRec F1 = .86,
PrecRecCorr F1 = .91 on the motivating example).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines import UnionKFuser
from repro.core import (
    AggressiveFuser,
    ElasticFuser,
    ExactCorrelationFuser,
    PrecRecFuser,
    estimate_source_quality,
    fuse,
)
from repro.eval import binary_metrics
from repro.util.probability import probability_from_mu

T8_PROVIDERS = frozenset({0, 1, 3, 4})
T8_SILENT = frozenset({2})


def posterior(fuser, providers, silent):
    """``Pr(t | Ot)`` of one pattern under the fuser's decision prior."""
    return probability_from_mu(fuser.pattern_mu(providers, silent), fuser.prior)


class TestFigure1b:
    """Per-source precision/recall and joint precision/recall (Figure 1b)."""

    def test_source_precision(self, figure1):
        qualities = estimate_source_quality(
            figure1.observations, figure1.labels, prior=0.5
        )
        expected = (4 / 7, 3 / 7, 4 / 5, 4 / 6, 4 / 6)
        for quality, value in zip(qualities, expected):
            assert quality.precision == pytest.approx(value)

    def test_source_recall(self, figure1):
        qualities = estimate_source_quality(
            figure1.observations, figure1.labels, prior=0.5
        )
        expected = (4 / 6, 3 / 6, 4 / 6, 4 / 6, 4 / 6)
        for quality, value in zip(qualities, expected):
            assert quality.recall == pytest.approx(value)

    @pytest.mark.parametrize(
        "subset, joint_precision, joint_recall",
        [
            ((1, 2), 2 / 3, 2 / 6),        # S2S3
            ((0, 2), 1.0, 2 / 6),          # S1S3
            ((0, 1, 3), 1 / 3, 1 / 6),     # S1S2S4
            ((0, 3, 4), 3 / 5, 3 / 6),     # S1S4S5
        ],
    )
    def test_joint_quality(self, figure1_model, subset, joint_precision, joint_recall):
        assert figure1_model.joint_precision(subset) == pytest.approx(joint_precision)
        assert figure1_model.joint_recall(subset) == pytest.approx(joint_recall)

    def test_example_2_3_positive_correlation(self, figure1_model):
        """S1S4S5: joint recall 0.5 vs independent 0.3 -- positive."""
        independent = np.prod([figure1_model.recall(i) for i in (0, 3, 4)])
        assert independent == pytest.approx(0.296, abs=0.01)
        assert figure1_model.joint_recall((0, 3, 4)) > independent

    def test_example_2_3_negative_correlation(self, figure1_model):
        """S1S3: joint recall 0.33 vs independent 0.45 -- negative."""
        independent = np.prod([figure1_model.recall(i) for i in (0, 2)])
        assert independent == pytest.approx(0.444, abs=0.01)
        assert figure1_model.joint_recall((0, 2)) < independent


class TestFigure1c:
    """Union-K voting results on the motivating example (Figure 1c)."""

    @pytest.mark.parametrize(
        "k, precision, recall, f1",
        [
            (25, 5 / 9, 5 / 6, 0.67),
            (50, 5 / 7, 5 / 6, 0.77),
            (75, 3 / 5, 3 / 6, 0.55),
        ],
    )
    def test_union_k(self, figure1, k, precision, recall, f1):
        result = UnionKFuser(k).fuse(figure1.observations)
        metrics = binary_metrics(result.accepted, figure1.labels)
        assert metrics.precision == pytest.approx(precision, abs=0.005)
        assert metrics.recall == pytest.approx(recall, abs=0.005)
        assert metrics.f1 == pytest.approx(f1, abs=0.005)


class TestExample33:
    """PrecRec probabilities with the stated q values (Example 3.3)."""

    def test_t2_probability(self, example_model):
        fuser = PrecRecFuser(example_model)
        prob = posterior(fuser, frozenset({0, 1}), frozenset({2, 3, 4}))
        assert prob == pytest.approx(0.09, abs=0.005)

    def test_t2_mu(self, example_model):
        fuser = PrecRecFuser(example_model)
        mu = fuser.pattern_mu(frozenset({0, 1}), frozenset({2, 3, 4}))
        assert mu == pytest.approx(0.1, abs=0.005)

    def test_t8_probability_under_independence(self, example_model):
        """Independence wrongly accepts t8 with Pr = 0.62."""
        fuser = PrecRecFuser(example_model)
        prob = posterior(fuser, T8_PROVIDERS, T8_SILENT)
        assert prob == pytest.approx(0.62, abs=0.01)
        assert prob > 0.5  # the mistake the correlation model fixes

    def test_t8_mu_under_independence(self, example_model):
        fuser = PrecRecFuser(example_model)
        assert fuser.pattern_mu(T8_PROVIDERS, T8_SILENT) == pytest.approx(1.6, abs=0.05)


class TestExample44:
    """Exact correlation-aware computation for t8 (Example 4.4)."""

    def test_likelihoods(self, example_model):
        fuser = ExactCorrelationFuser(example_model)
        numerators, denominators = fuser.pattern_likelihoods_batch(
            [[i in T8_PROVIDERS for i in range(5)]],
            [[i in T8_SILENT for i in range(5)]],
        )
        assert numerators[0] == pytest.approx(0.11, abs=0.005)
        assert denominators[0] == pytest.approx(0.185, abs=0.005)

    def test_t8_probability(self, example_model):
        fuser = ExactCorrelationFuser(example_model)
        prob = posterior(fuser, T8_PROVIDERS, T8_SILENT)
        assert prob == pytest.approx(0.37, abs=0.01)
        assert prob < 0.5  # correctly classified as false


class TestFigure3AndExample47:
    """Aggressive factors (Figure 3) and the aggressive estimate (Example 4.7)."""

    def test_c_plus_factors(self, example_model):
        c_plus, _ = example_model.aggressive_factors()
        assert np.allclose(c_plus, [1.0, 1.0, 0.75, 1.5, 1.5], atol=0.01)

    def test_c_minus_factors(self, example_model):
        _, c_minus = example_model.aggressive_factors()
        assert np.allclose(c_minus, [2.0, 1.0, 1.0, 3.0, 3.0], atol=0.01)

    def test_aggressive_mu(self, example_model):
        fuser = AggressiveFuser(example_model)
        assert fuser.pattern_mu(T8_PROVIDERS, T8_SILENT) == pytest.approx(0.3, abs=0.01)

    def test_aggressive_probability(self, example_model):
        fuser = AggressiveFuser(example_model)
        prob = posterior(fuser, T8_PROVIDERS, T8_SILENT)
        assert prob == pytest.approx(0.23, abs=0.01)


class TestExample410:
    """The elastic progression mu = 0.3 (aggressive) -> 0.6 -> 0.59 (exact)."""

    def test_level_0(self, example_model):
        fuser = ElasticFuser(example_model, level=0)
        assert fuser.pattern_mu(T8_PROVIDERS, T8_SILENT) == pytest.approx(0.6, abs=0.01)

    def test_level_1_equals_exact(self, example_model):
        elastic = ElasticFuser(example_model, level=1)
        exact = ExactCorrelationFuser(example_model)
        mu_elastic = elastic.pattern_mu(T8_PROVIDERS, T8_SILENT)
        mu_exact = exact.pattern_mu(T8_PROVIDERS, T8_SILENT)
        assert mu_elastic == pytest.approx(mu_exact, rel=1e-9)
        assert mu_elastic == pytest.approx(0.59, abs=0.01)

    def test_progression_is_monotone_here(self, example_model):
        """On this example the estimate improves from 0.3 toward 0.59."""
        exact = ExactCorrelationFuser(example_model).pattern_mu(
            T8_PROVIDERS, T8_SILENT
        )
        aggressive = AggressiveFuser(example_model).pattern_mu(
            T8_PROVIDERS, T8_SILENT
        )
        level0 = ElasticFuser(example_model, level=0).pattern_mu(
            T8_PROVIDERS, T8_SILENT
        )
        assert abs(level0 - exact) < abs(aggressive - exact)


class TestSection23Overview:
    """PrecRec F1 = .86 (p=.75, r=1); PrecRecCorr F1 = .91 (p=1, r=.83)."""

    def test_precrec_on_example(self, figure1):
        result = fuse(figure1.observations, figure1.labels, method="precrec", prior=0.5)
        metrics = binary_metrics(result.accepted, figure1.labels)
        assert metrics.precision == pytest.approx(0.75, abs=0.005)
        assert metrics.recall == pytest.approx(1.0, abs=0.005)
        assert metrics.f1 == pytest.approx(0.86, abs=0.005)

    def test_precreccorr_on_example(self, figure1):
        result = fuse(
            figure1.observations, figure1.labels, method="precreccorr", prior=0.5
        )
        metrics = binary_metrics(result.accepted, figure1.labels)
        assert metrics.precision == pytest.approx(1.0, abs=0.005)
        assert metrics.recall == pytest.approx(5 / 6, abs=0.005)
        assert metrics.f1 == pytest.approx(0.91, abs=0.005)

    def test_improvement_over_majority_vote(self, figure1):
        """PrecRecCorr's F1 is ~18% above Union-50's (Section 2.3)."""
        union = UnionKFuser(50).fuse(figure1.observations)
        union_f1 = binary_metrics(union.accepted, figure1.labels).f1
        corr = fuse(figure1.observations, figure1.labels, method="precreccorr", prior=0.5)
        corr_f1 = binary_metrics(corr.accepted, figure1.labels).f1
        assert corr_f1 / union_f1 == pytest.approx(1.18, abs=0.02)
