"""Evaluation metrics used in the paper's Section 5.

Two families:

- **Binary metrics** -- precision / recall / F1 of the accept-reject
  decision at a fixed threshold;
- **Ranking curves** -- the PR-curve and ROC-curve obtained by sorting
  triples by decreasing truthfulness score and sweeping the cut-off, plus
  their areas (AUC-PR, AUC-ROC).  Tied scores are swept as one block so the
  curves do not depend on an arbitrary intra-tie order.
"""

from __future__ import annotations

from dataclasses import dataclass

from typing import Iterator

import numpy as np


@dataclass(frozen=True)
class BinaryMetrics:
    """Confusion counts and the derived precision / recall / F1."""

    true_positives: int
    false_positives: int
    false_negatives: int
    true_negatives: int

    @property
    def precision(self) -> float:
        returned = self.true_positives + self.false_positives
        return self.true_positives / returned if returned else 0.0

    @property
    def recall(self) -> float:
        actual = self.true_positives + self.false_negatives
        return self.true_positives / actual if actual else 0.0

    @property
    def f1(self) -> float:
        p, r = self.precision, self.recall
        return 2.0 * p * r / (p + r) if p + r else 0.0

    @property
    def accuracy(self) -> float:
        total = (
            self.true_positives
            + self.false_positives
            + self.false_negatives
            + self.true_negatives
        )
        return (self.true_positives + self.true_negatives) / total if total else 0.0

    def as_tuple(self) -> tuple[float, float, float]:
        """``(precision, recall, f1)`` -- the columns of Figure 4's bars."""
        return (self.precision, self.recall, self.f1)


def binary_metrics(accepted: np.ndarray, labels: np.ndarray) -> BinaryMetrics:
    """Score an accept/reject decision against gold labels."""
    accepted = np.asarray(accepted, dtype=bool)
    labels = np.asarray(labels, dtype=bool)
    if accepted.shape != labels.shape:
        raise ValueError(
            f"accepted shape {accepted.shape} != labels shape {labels.shape}"
        )
    return BinaryMetrics(
        true_positives=int((accepted & labels).sum()),
        false_positives=int((accepted & ~labels).sum()),
        false_negatives=int((~accepted & labels).sum()),
        true_negatives=int((~accepted & ~labels).sum()),
    )


@dataclass(frozen=True)
class Curve:
    """A ranking curve: points ``(x[k], y[k])`` plus the area under it."""

    x: np.ndarray
    y: np.ndarray
    area: float

    def __post_init__(self) -> None:
        x = np.asarray(self.x, dtype=float)
        y = np.asarray(self.y, dtype=float)
        if x.shape != y.shape or x.ndim != 1:
            raise ValueError("curve coordinates must be 1-D arrays of equal length")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)


def _ranked_blocks(
    scores: np.ndarray, labels: np.ndarray
) -> "Iterator[tuple[int, int]]":
    """Yield ``(block_true, block_false)`` counts in decreasing-score order.

    Equal scores form one block: a threshold can only fall between distinct
    score values, so tied triples enter the ranking together.
    """
    order = np.argsort(-scores, kind="stable")
    sorted_scores = scores[order]
    sorted_labels = labels[order]
    start = 0
    n = scores.size
    while start < n:
        end = start
        while end < n and sorted_scores[end] == sorted_scores[start]:
            end += 1
        block = sorted_labels[start:end]
        yield int(block.sum()), int(block.size - block.sum())
        start = end


def pr_curve(scores: np.ndarray, labels: np.ndarray) -> Curve:
    """Precision-recall curve with AUC-PR (trapezoidal over blocks).

    The first point is pinned at recall 0 with the precision of the
    top-ranked block, the paper's convention for plotting from the top of
    the ranking.
    """
    scores, labels = _check_ranking_inputs(scores, labels)
    n_true = int(labels.sum())
    if n_true == 0:
        return Curve(x=np.array([0.0, 1.0]), y=np.array([0.0, 0.0]), area=0.0)
    recalls = [0.0]
    precisions: list[float] = []
    tp = 0
    seen = 0
    for block_true, block_false in _ranked_blocks(scores, labels):
        tp += block_true
        seen += block_true + block_false
        recalls.append(tp / n_true)
        precisions.append(tp / seen)
    precisions = [precisions[0]] + precisions  # pin precision at recall 0
    x = np.asarray(recalls)
    y = np.asarray(precisions)
    area = float(np.trapezoid(y, x))
    return Curve(x=x, y=y, area=area)


def roc_curve(scores: np.ndarray, labels: np.ndarray) -> Curve:
    """ROC curve (true-positive rate vs false-positive rate) with AUC-ROC."""
    scores, labels = _check_ranking_inputs(scores, labels)
    n_true = int(labels.sum())
    n_false = int(labels.size - n_true)
    if n_true == 0 or n_false == 0:
        return Curve(x=np.array([0.0, 1.0]), y=np.array([0.0, 1.0]), area=0.5)
    tprs = [0.0]
    fprs = [0.0]
    tp = fp = 0
    for block_true, block_false in _ranked_blocks(scores, labels):
        tp += block_true
        fp += block_false
        tprs.append(tp / n_true)
        fprs.append(fp / n_false)
    x = np.asarray(fprs)
    y = np.asarray(tprs)
    area = float(np.trapezoid(y, x))
    return Curve(x=x, y=y, area=area)


def auc_pr(scores: np.ndarray, labels: np.ndarray) -> float:
    """Area under the PR curve."""
    return pr_curve(scores, labels).area


def auc_roc(scores: np.ndarray, labels: np.ndarray) -> float:
    """Area under the ROC curve."""
    return roc_curve(scores, labels).area


def _check_ranking_inputs(
    scores: np.ndarray, labels: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels, dtype=bool)
    if scores.shape != labels.shape or scores.ndim != 1:
        raise ValueError(
            f"scores {scores.shape} and labels {labels.shape} must be equal-length 1-D"
        )
    if np.any(np.isnan(scores)):
        raise ValueError("scores contain NaN")
    return scores, labels
