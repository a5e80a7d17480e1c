"""Joint quality models: empirical estimation, correlation factors, scopes."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    EmpiricalJointModel,
    ExplicitJointModel,
    IndependentJointModel,
    ObservationMatrix,
    SourceQuality,
)


def quality(name="s", p=0.8, r=0.5, q=0.125):
    return SourceQuality(name, precision=p, recall=r, false_positive_rate=q)


class TestEmpiricalJointModel:
    def test_empty_subset_conventions(self, figure1_model):
        assert figure1_model.joint_recall([]) == 1.0
        assert figure1_model.joint_fpr([]) == 1.0
        assert figure1_model.joint_precision([]) == 1.0

    def test_singleton_matches_source_quality(self, figure1_model):
        for i in range(5):
            expected = figure1_model.source_quality(i)
            assert figure1_model.joint_recall([i]) == pytest.approx(expected.recall)
            assert figure1_model.joint_precision([i]) == pytest.approx(
                expected.precision
            )

    def test_joint_recall_never_exceeds_singletons(self, figure1_model):
        for subset in ([0, 1], [1, 2, 3], [0, 1, 2, 3, 4]):
            joint = figure1_model.joint_recall(subset)
            for i in subset:
                assert joint <= figure1_model.joint_recall([i]) + 1e-12

    def test_monotone_in_subset_size(self, figure1_model):
        assert figure1_model.joint_recall([0, 1, 2]) <= figure1_model.joint_recall(
            [0, 1]
        )

    def test_fpr_zero_precision_fallback(self):
        # Two sources whose shared output is entirely false.
        provides = np.array([[1, 1, 0], [1, 0, 1]], dtype=bool)
        labels = np.array([False, True, True])
        matrix = ObservationMatrix(provides, ["A", "B"])
        model = EmpiricalJointModel(matrix, labels)
        # Intersection = {t0}, which is false: direct count 1/1.
        assert model.joint_precision([0, 1]) == 0.0
        assert model.joint_fpr([0, 1]) == pytest.approx(1.0)

    def test_evidence_counts(self, figure1_model):
        assert figure1_model.evidence_counts() == (6, 4)

    def test_labels_shape_mismatch(self, tiny_matrix):
        with pytest.raises(ValueError, match="labels shape"):
            EmpiricalJointModel(tiny_matrix, np.array([True]))

    def test_cache_cap(self, tiny_matrix):
        labels = np.array([True, False, True, False])
        model = EmpiricalJointModel(tiny_matrix, labels, max_cache_entries=1)
        first = model.joint_recall([0, 1])
        second = model.joint_recall([1, 2])  # exceeds the cap, recomputed
        assert first == model.joint_recall([0, 1])
        assert second == model.joint_recall([1, 2])

    def test_scope_aware_joint_recall(self):
        # B covers only the first two triples.  The joint recall of {A, B}
        # must be judged on jointly-covered true triples only.
        provides = np.array([[1, 0, 1, 0], [1, 0, 0, 0]], dtype=bool)
        coverage = np.array([[1, 1, 1, 1], [1, 1, 0, 0]], dtype=bool)
        labels = np.array([True, True, True, False])
        matrix = ObservationMatrix(provides, ["A", "B"], coverage=coverage)
        model = EmpiricalJointModel(matrix, labels)
        # Jointly covered: {t0, t1}, both true; both provide t0 only -> 1/2.
        assert model.joint_recall([0, 1]) == pytest.approx(0.5)
        assert model.joint_coverage_counts([0, 1]) == (2, 0)

    def test_smoothing(self, tiny_matrix):
        labels = np.array([True, False, True, False])
        rough = EmpiricalJointModel(tiny_matrix, labels, smoothing=0.0)
        smooth = EmpiricalJointModel(tiny_matrix, labels, smoothing=1.0)
        assert rough.joint_precision([0]) in (0.0, 0.5, 1.0)
        assert 0.0 < smooth.joint_precision([0]) < 1.0


class TestCorrelationFactors:
    def test_independent_factors_are_one(self):
        model = IndependentJointModel([quality("a"), quality("b")])
        assert model.correlation_true([0, 1]) == pytest.approx(1.0)
        assert model.correlation_false([0, 1]) == pytest.approx(1.0)
        c_plus, c_minus = model.aggressive_factors()
        assert np.allclose(c_plus, 1.0)
        assert np.allclose(c_minus, 1.0)

    def test_positive_correlation_from_figure1(self, figure1_model):
        """C_45 = 0.67 / (0.67 * 0.67) = 1.5 (paper Section 4.2)."""
        assert figure1_model.correlation_true([3, 4]) == pytest.approx(1.5, abs=0.01)

    def test_negative_correlation_from_figure1(self, figure1_model):
        """C_13 = 0.33 / (0.67 * 0.67) = 0.75 (paper Section 4.2)."""
        assert figure1_model.correlation_true([0, 2]) == pytest.approx(0.75, abs=0.01)

    def test_sides_can_differ(self, figure1_model):
        """S2, S3 are independent w.r.t. true triples (C23 = 1) but not
        w.r.t. false ones -- the paper's point that the two sides carry
        separate correlation structure (Section 4.2).  (The paper quotes
        C!23 = 0.5 from its hypothetical joint-q parameters; the value
        derived from the Figure 1a data differs, but the sides still
        separate.)"""
        assert figure1_model.correlation_true([1, 2]) == pytest.approx(1.0, abs=0.01)
        c_false = figure1_model.correlation_false([1, 2])
        assert c_false != pytest.approx(1.0, abs=0.1)

    def test_zero_denominator_defaults_to_one(self):
        zero = SourceQuality("z", precision=0.5, recall=0.0, false_positive_rate=0.0)
        model = ExplicitJointModel([zero, zero])
        assert model.correlation_true([0, 1]) == 1.0

    def test_pairwise_matrices(self, figure1_model):
        c_true, c_false = figure1_model.pairwise_correlations()
        assert c_true.shape == (5, 5)
        assert np.allclose(np.diag(c_true), 1.0)
        assert c_true[3, 4] == pytest.approx(1.5, abs=0.01)
        assert np.allclose(c_true, c_true.T)
        assert np.allclose(c_false, c_false.T)


class TestExplicitJointModel:
    def test_falls_back_to_independence(self):
        model = ExplicitJointModel([quality("a", r=0.4), quality("b", r=0.5)])
        assert model.joint_recall([0, 1]) == pytest.approx(0.2)

    def test_supplied_values_win(self):
        model = ExplicitJointModel(
            [quality("a", r=0.4), quality("b", r=0.5)],
            joint_recalls={frozenset({0, 1}): 0.35},
        )
        assert model.joint_recall([0, 1]) == 0.35

    def test_unknown_source_id_rejected(self):
        with pytest.raises(ValueError, match="unknown source"):
            ExplicitJointModel(
                [quality("a")], joint_recalls={frozenset({0, 5}): 0.1}
            )

    def test_no_evidence_counts(self):
        model = ExplicitJointModel([quality("a")])
        assert model.evidence_counts() is None
        assert model.joint_coverage_counts([0]) is None

    def test_prior_validation(self):
        with pytest.raises(ValueError):
            ExplicitJointModel([quality("a")], prior=0.0)


class TestColdFitWork:
    """A cold fit and score does array work per source, not Python work."""

    N_SOURCES = 32

    def _dataset(self):
        from repro.data.synthetic import (
            SyntheticConfig,
            generate,
            uniform_sources,
        )

        config = SyntheticConfig(
            sources=uniform_sources(self.N_SOURCES, precision=0.7, recall=0.5),
            n_triples=400,
        )
        return generate(config, seed=3)

    def test_no_per_source_objects_or_checks_and_no_pair_tuples(
        self, monkeypatch
    ):
        import gc
        import sys

        from repro.core import ScoringSession
        from repro.core.joint import pair_indices
        from repro.util import validation

        dataset = self._dataset()
        qualities = []
        original_post_init = SourceQuality.__post_init__

        def counted_post_init(self):
            qualities.append(self.name)
            original_post_init(self)

        monkeypatch.setattr(SourceQuality, "__post_init__", counted_post_init)
        checks = []
        original_check = validation.check_probability

        def counted_check(value, name):
            checks.append(name)
            return original_check(value, name)

        for module in list(sys.modules.values()):
            if module is not None and module.__name__.startswith("repro") and (
                getattr(module, "check_probability", None) is original_check
            ):
                monkeypatch.setattr(module, "check_probability", counted_check)

        session = ScoringSession(
            dataset.observations, dataset.labels, method="precreccorr"
        )
        try:
            scores = session.score(dataset.observations)
            assert np.isfinite(scores).all()
            assert qualities == []
            # The prior is checked where the model and fuser take it; no
            # check runs once per source.
            assert len(checks) <= 2
            r_pairs, q_pairs = session.model.pair_joint_params()
            n_pairs = pair_indices(self.N_SOURCES)[0].size
            assert r_pairs.shape == q_pairs.shape == (n_pairs,)
            pair_lists = [
                obj
                for obj in gc.get_objects()
                if isinstance(obj, list)
                and len(obj) == n_pairs
                and isinstance(obj[0], tuple)
            ]
            assert pair_lists == []
        finally:
            session.close()
        # Qualities are still there on request, with the served rates.
        model = session.model
        built = model.source_qualities()
        assert len(qualities) == self.N_SOURCES
        assert [q.recall for q in built] == model.source_rates()[0].tolist()
        assert [q.false_positive_rate for q in built] == (
            model.source_rates()[1].tolist()
        )
