"""Binary metrics, ranking curves and AUC."""

from __future__ import annotations

import numpy as np
import pytest

from repro.eval import (
    auc_pr,
    auc_roc,
    binary_metrics,
    pr_curve,
    roc_curve,
)


class TestBinaryMetrics:
    def test_confusion_counts(self):
        accepted = np.array([True, True, False, False])
        labels = np.array([True, False, True, False])
        m = binary_metrics(accepted, labels)
        assert (m.true_positives, m.false_positives) == (1, 1)
        assert (m.false_negatives, m.true_negatives) == (1, 1)
        assert m.precision == 0.5 and m.recall == 0.5 and m.f1 == 0.5
        assert m.accuracy == 0.5
        assert m.as_tuple() == (0.5, 0.5, 0.5)

    def test_empty_acceptance(self):
        m = binary_metrics(np.zeros(3, bool), np.array([True, True, False]))
        assert m.precision == 0.0 and m.recall == 0.0 and m.f1 == 0.0

    def test_perfect(self):
        labels = np.array([True, False, True])
        m = binary_metrics(labels, labels)
        assert m.f1 == 1.0 and m.accuracy == 1.0

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            binary_metrics(np.zeros(2, bool), np.zeros(3, bool))


class TestRocCurve:
    def test_perfect_ranking(self):
        scores = np.array([0.9, 0.8, 0.2, 0.1])
        labels = np.array([True, True, False, False])
        assert auc_roc(scores, labels) == pytest.approx(1.0)

    def test_inverted_ranking(self):
        scores = np.array([0.1, 0.2, 0.8, 0.9])
        labels = np.array([True, True, False, False])
        assert auc_roc(scores, labels) == pytest.approx(0.0)

    def test_random_ties(self):
        """All-equal scores give the chance diagonal: AUC 0.5."""
        scores = np.full(10, 0.5)
        labels = np.array([True, False] * 5)
        assert auc_roc(scores, labels) == pytest.approx(0.5)

    def test_endpoints(self):
        curve = roc_curve(np.array([0.9, 0.1]), np.array([True, False]))
        assert curve.x[0] == 0.0 and curve.y[0] == 0.0
        assert curve.x[-1] == 1.0 and curve.y[-1] == 1.0

    def test_degenerate_labels(self):
        assert auc_roc(np.array([0.5, 0.6]), np.array([True, True])) == 0.5

    def test_tie_block_order_invariance(self):
        """Permuting tied triples must not change the curve."""
        scores = np.array([0.7, 0.7, 0.7, 0.2])
        labels = np.array([True, False, True, False])
        base = auc_roc(scores, labels)
        perm = np.array([2, 0, 1, 3])
        assert auc_roc(scores[perm], labels[perm]) == pytest.approx(base)


class TestPrCurve:
    def test_perfect_ranking(self):
        scores = np.array([0.9, 0.8, 0.2, 0.1])
        labels = np.array([True, True, False, False])
        assert auc_pr(scores, labels) == pytest.approx(1.0)

    def test_curve_reaches_full_recall(self):
        curve = pr_curve(np.array([0.9, 0.5, 0.1]), np.array([True, False, True]))
        assert curve.x[-1] == pytest.approx(1.0)

    def test_no_true_labels(self):
        assert auc_pr(np.array([0.5]), np.array([False])) == 0.0

    def test_all_ties_area_equals_base_rate(self):
        scores = np.full(100, 0.5)
        labels = np.zeros(100, dtype=bool)
        labels[:25] = True
        assert auc_pr(scores, labels) == pytest.approx(0.25, abs=0.01)

    def test_nan_scores_rejected(self):
        with pytest.raises(ValueError, match="NaN"):
            pr_curve(np.array([np.nan]), np.array([True]))
