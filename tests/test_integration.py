"""End-to-end integration: the paper's qualitative claims on generated data.

These run the full pipeline (generator -> model fitting -> fusion ->
metrics) on fast dataset variants and assert the *shape* of the paper's
findings: who wins, in which regime, and that correlation-awareness pays
exactly where the paper says it does.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines import LatentTruthModel, UnionKFuser
from repro.core import (
    ClusteredCorrelationFuser,
    ExactCorrelationFuser,
    PrecRecFuser,
    fit_model,
    fuse,
)
from repro.data import (
    CorrelationGroup,
    SyntheticConfig,
    book_dataset,
    crowd_labels,
    generate,
    restaurant_dataset,
    reverb_dataset,
    uniform_sources,
)
from repro.eval import auc_pr, auc_roc, binary_metrics


class TestScenario1Copying:
    """Example 4.1, Scenario 1: copies must not inflate confidence."""

    def test_copied_false_triples_discounted(self):
        config = SyntheticConfig(
            sources=uniform_sources(5, precision=0.65, recall=0.45),
            n_triples=3000,
            true_fraction=0.5,
            groups=(
                CorrelationGroup(members=(0, 1, 2, 3), mode="copy", strength=1.0),
            ),
        )
        dataset = generate(config, seed=31)
        model = fit_model(dataset.observations, dataset.labels)
        independent = PrecRecFuser(model).score(dataset.observations)
        correlated = ExactCorrelationFuser(model).score(dataset.observations)
        # On false triples provided by the whole clique, the correlation
        # model must assign lower probability than independence does.
        provides = dataset.observations.provides
        clique_false = (
            provides[0] & provides[1] & provides[2] & provides[3] & ~dataset.labels
        )
        if clique_false.sum() >= 5:
            assert correlated[clique_false].mean() < independent[clique_false].mean()
        assert auc_pr(correlated, dataset.labels) >= auc_pr(
            independent, dataset.labels
        ) - 0.01


class TestScenario4Complementary:
    """Example 4.1, Scenario 4: lone providers of complementary sources."""

    def test_lone_provider_not_penalised(self):
        config = SyntheticConfig(
            sources=uniform_sources(4, precision=0.85, recall=0.24),
            n_triples=3000,
            true_fraction=0.5,
            groups=(
                CorrelationGroup(
                    members=(0, 1, 2, 3), mode="complementary_true", strength=1.0
                ),
            ),
        )
        dataset = generate(config, seed=37)
        model = fit_model(dataset.observations, dataset.labels)
        independent = PrecRecFuser(model)
        correlated = ExactCorrelationFuser(model)
        providers = frozenset({0})
        silent = frozenset({1, 2, 3})
        # Under negative correlation, the silence of the complementary
        # sources must not count against a lone provider as strongly as
        # independence implies.
        assert correlated.pattern_mu(
            providers, silent
        ) > independent.pattern_mu(providers, silent)


class TestDatasetShapes:
    """Figure 4's orderings on the three (simulated) datasets."""

    def test_reverb_ordering(self):
        dataset = reverb_dataset(seed=11)
        corr = fuse(dataset.observations, dataset.labels,
                    method="precreccorr", decision_prior=0.5)
        prec = fuse(dataset.observations, dataset.labels,
                    method="precrec", decision_prior=0.5)
        union = UnionKFuser(25).fuse(dataset.observations)
        f1 = {
            "corr": binary_metrics(corr.accepted, dataset.labels).f1,
            "prec": binary_metrics(prec.accepted, dataset.labels).f1,
            "union": binary_metrics(union.accepted, dataset.labels).f1,
        }
        assert f1["corr"] > f1["prec"]
        assert f1["corr"] > f1["union"]
        # AUC improvements are even clearer than F1 ones (Section 5.1).
        assert auc_pr(corr.scores, dataset.labels) > auc_pr(
            prec.scores, dataset.labels
        )

    def test_restaurant_ordering(self):
        dataset = restaurant_dataset(seed=23)
        corr = fuse(dataset.observations, dataset.labels,
                    method="precreccorr", decision_prior=0.5)
        prec = fuse(dataset.observations, dataset.labels,
                    method="precrec", decision_prior=0.5)
        assert binary_metrics(corr.accepted, dataset.labels).f1 > binary_metrics(
            prec.accepted, dataset.labels
        ).f1
        assert auc_roc(corr.scores, dataset.labels) > 0.95

    def test_book_correlation_helps_precision(self):
        dataset = book_dataset(
            seed=5, n_sources=60, n_books=60, gold_true=120, gold_false=260
        )
        model = fit_model(dataset.observations, dataset.labels)
        prec = PrecRecFuser(model, decision_prior=0.5)
        corr = ClusteredCorrelationFuser(
            model, decision_prior=0.5, elastic_level=1
        )
        m_prec = binary_metrics(
            prec.score(dataset.observations) >= 0.5 - 1e-9, dataset.labels
        )
        m_corr = binary_metrics(
            corr.score(dataset.observations) >= 0.5 - 1e-9, dataset.labels
        )
        assert m_corr.precision >= m_prec.precision - 0.02


class TestTrainTestSplit:
    """Calibrating on half the gold standard still generalises."""

    def test_holdout_generalisation(self):
        dataset = reverb_dataset(seed=11)
        train, test = dataset.train_test_split(0.5, seed=3)
        result = fuse(
            dataset.observations,
            dataset.labels,
            method="precreccorr",
            train_mask=train,
            decision_prior=0.5,
        )
        holdout = binary_metrics(result.accepted[test], dataset.labels[test])
        full = fuse(
            dataset.observations, dataset.labels,
            method="precreccorr", decision_prior=0.5,
        )
        full_metrics = binary_metrics(full.accepted[test], dataset.labels[test])
        assert holdout.f1 > 0.8 * full_metrics.f1

    def test_split_is_stratified(self):
        dataset = reverb_dataset(seed=11)
        train, test = dataset.train_test_split(0.6, seed=1)
        train_fraction = dataset.labels[train].mean()
        assert train_fraction == pytest.approx(dataset.true_fraction, abs=0.02)
        assert not (train & test).any()
        assert (train | test).all()


class TestCrowdTrainingLabels:
    """Noisy crowd labels degrade fusion only mildly (RESTAURANT pipeline)."""

    def test_crowd_calibrated_fusion(self):
        dataset = restaurant_dataset(seed=23)
        crowd = crowd_labels(dataset.labels, n_workers=10, worker_accuracy=0.9, seed=5)
        gold = fuse(dataset.observations, dataset.labels,
                    method="precreccorr", decision_prior=0.5)
        noisy = fuse(dataset.observations, crowd.labels,
                     method="precreccorr", decision_prior=0.5)
        f1_gold = binary_metrics(gold.accepted, dataset.labels).f1
        f1_noisy = binary_metrics(noisy.accepted, dataset.labels).f1
        assert f1_noisy > f1_gold - 0.15


class TestLTMVersusPrecRec:
    """Section 3's comparison: comparable on friendly data."""

    def test_comparable_on_restaurant(self):
        dataset = restaurant_dataset(seed=23)
        ltm = LatentTruthModel(iterations=40, burn_in=10, seed=1)
        scores = ltm.score(dataset.observations)
        f1_ltm = binary_metrics(scores >= 0.5, dataset.labels).f1
        prec = fuse(dataset.observations, dataset.labels,
                    method="precrec", decision_prior=0.5)
        f1_prec = binary_metrics(prec.accepted, dataset.labels).f1
        assert abs(f1_ltm - f1_prec) < 0.15
