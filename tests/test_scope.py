"""Scope (coverage) semantics across the whole stack (paper Section 2.2).

"Ot contains the observation that a source S_i does not provide t only if
S_i provides other data in the domain of t" -- silence is evidence only
within a source's scope.  These tests check the rule end-to-end: pattern
construction, PrecRec scoring, and pattern deduplication.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    ExactCorrelationFuser,
    IndependentJointModel,
    ObservationMatrix,
    PrecRecFuser,
    SourceQuality,
)


def scoped_matrix():
    """Three sources; C covers only the first two triples."""
    provides = np.array(
        [
            [1, 0, 1, 0],
            [1, 1, 0, 1],
            [1, 0, 0, 0],
        ],
        dtype=bool,
    )
    coverage = np.array(
        [
            [1, 1, 1, 1],
            [1, 1, 1, 1],
            [1, 1, 0, 0],
        ],
        dtype=bool,
    )
    return ObservationMatrix(provides, ["A", "B", "C"], coverage=coverage)


QUALITIES = [
    SourceQuality("A", precision=0.8, recall=0.6, false_positive_rate=0.15),
    SourceQuality("B", precision=0.7, recall=0.5, false_positive_rate=0.2),
    SourceQuality("C", precision=0.9, recall=0.7, false_positive_rate=0.08),
]


class TestScopedScoring:
    def test_out_of_scope_silence_is_ignored(self):
        """C's silence about t2 (outside its scope) must not change t2's
        probability -- scoring with C present equals scoring without C."""
        matrix = scoped_matrix()
        model3 = IndependentJointModel(QUALITIES, prior=0.5)
        fuser3 = PrecRecFuser(model3)
        scores = fuser3.score(matrix)

        # The same world without source C at all:
        model2 = IndependentJointModel(QUALITIES[:2], prior=0.5)
        fuser2 = PrecRecFuser(model2)
        sub = matrix.restricted_to_sources([0, 1])
        scores_without_c = fuser2.score(sub)

        # t2 (col 2) and t3 (col 3) are outside C's scope and C provides
        # neither, so the three-source probability equals the two-source one.
        assert scores[2] == pytest.approx(scores_without_c[2], rel=1e-12)
        assert scores[3] == pytest.approx(scores_without_c[3], rel=1e-12)

    def test_in_scope_silence_still_counts(self):
        matrix = scoped_matrix()
        model3 = IndependentJointModel(QUALITIES, prior=0.5)
        scores = PrecRecFuser(model3).score(matrix)
        model2 = IndependentJointModel(QUALITIES[:2], prior=0.5)
        sub = matrix.restricted_to_sources([0, 1])
        scores_without_c = PrecRecFuser(model2).score(sub)
        # t1 (col 1) is inside C's scope and unprovided by C: its silence
        # must lower the probability relative to the C-free world.
        assert scores[1] < scores_without_c[1]

    def test_exact_fuser_honours_scope(self):
        matrix = scoped_matrix()
        model = IndependentJointModel(QUALITIES, prior=0.5)
        exact = ExactCorrelationFuser(model)
        precrec = PrecRecFuser(model)
        # Under an independent model both must agree *including* the scope
        # handling (Corollary 4.3 with coverage).
        assert np.allclose(
            exact.score(matrix), precrec.score(matrix), rtol=1e-9
        )

    def test_pattern_cache_distinguishes_scopes(self):
        """Two triples with the same providers but different silent sets
        must not collide in pattern deduplication."""
        provides = np.array([[1, 1], [0, 0]], dtype=bool)
        coverage = np.array([[1, 1], [1, 0]], dtype=bool)
        matrix = ObservationMatrix(provides, ["A", "B"], coverage=coverage)
        model = IndependentJointModel(QUALITIES[:2], prior=0.5)
        scores = PrecRecFuser(model).score(matrix)
        # t0: B silent-in-scope; t1: B out of scope. Different evidence.
        assert scores[0] != scores[1]
        assert scores[0] < scores[1]
