"""The high-level fuse / fit_model / make_fuser API and FusionResult."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    EXACT_SOURCE_LIMIT,
    ClusteredCorrelationFuser,
    ElasticFuser,
    ExactCorrelationFuser,
    ExpectationMaximizationFuser,
    FusionResult,
    ScoringSession,
    fit_model,
    fuse,
    make_fuser,
)
from repro.data import SyntheticConfig, generate, uniform_sources


class TestFitModel:
    def test_prior_estimated_from_labels(self, figure1):
        model = fit_model(figure1.observations, figure1.labels)
        assert model.prior == pytest.approx(0.6)

    def test_explicit_prior_wins(self, figure1):
        model = fit_model(figure1.observations, figure1.labels, prior=0.5)
        assert model.prior == 0.5

    def test_train_mask_restricts_calibration(self, figure1):
        mask = np.zeros(10, dtype=bool)
        mask[:6] = True
        model = fit_model(figure1.observations, figure1.labels, train_mask=mask)
        full = fit_model(figure1.observations, figure1.labels)
        assert model.evidence_counts()[0] + model.evidence_counts()[1] == 6
        assert full.evidence_counts() == (6, 4)


class TestMakeFuser:
    def test_name_normalisation(self, figure1_model):
        assert isinstance(make_fuser("Prec-Rec", figure1_model).name, str)
        assert isinstance(
            make_fuser("PRECRECCORR", figure1_model), ExactCorrelationFuser
        )

    def test_elastic_options_forwarded(self, figure1_model):
        fuser = make_fuser("elastic", figure1_model, level=2)
        assert isinstance(fuser, ElasticFuser)
        assert fuser.level == 2

    def test_em_requires_no_model(self):
        assert isinstance(make_fuser("em"), ExpectationMaximizationFuser)

    def test_model_required_otherwise(self):
        with pytest.raises(ValueError, match="requires a fitted quality model"):
            make_fuser("precrec")

    def test_unknown_method(self, figure1_model):
        with pytest.raises(ValueError, match="unknown fusion method"):
            make_fuser("magic", figure1_model)

    def test_wide_inputs_switch_to_clustered(self):
        config = SyntheticConfig(
            sources=uniform_sources(EXACT_SOURCE_LIMIT + 2, 0.8, 0.3),
            n_triples=200,
            true_fraction=0.5,
        )
        dataset = generate(config, seed=0)
        model = fit_model(dataset.observations, dataset.labels)
        fuser = make_fuser("precreccorr", model)
        assert isinstance(fuser, ClusteredCorrelationFuser)


def _wide_model(n_sources=18, n_triples=200, seed=0):
    config = SyntheticConfig(
        sources=uniform_sources(n_sources, 0.8, 0.3),
        n_triples=n_triples,
        true_fraction=0.5,
    )
    dataset = generate(config, seed=seed)
    return fit_model(dataset.observations, dataset.labels)


class TestPrecRecCorrOptionRouting:
    """Symmetric filtering of solver-specific ``precreccorr`` options."""

    def test_exact_only_options_survive_the_clustered_route(self):
        # Regression: exact-only options used to be forwarded unfiltered to
        # ClusteredCorrelationFuser when n_sources > EXACT_SOURCE_LIMIT,
        # raising TypeError the moment a dataset crossed the boundary.
        model = _wide_model(n_sources=EXACT_SOURCE_LIMIT + 2)
        fuser = make_fuser("precreccorr", model, max_silent_sources=12)
        assert isinstance(fuser, ClusteredCorrelationFuser)

    def test_mixed_options_work_on_both_sides_of_the_boundary(self):
        options = dict(
            max_silent_sources=12,  # exact-only
            min_phi=0.3,            # clustered-only
            exact_cluster_limit=8,  # clustered-only
            decision_prior=0.5,     # shared
        )
        wide = make_fuser(
            "precreccorr", _wide_model(EXACT_SOURCE_LIMIT + 2), **options
        )
        assert isinstance(wide, ClusteredCorrelationFuser)
        assert wide.prior == 0.5
        narrow = make_fuser("precreccorr", _wide_model(6), **options)
        assert isinstance(narrow, ExactCorrelationFuser)
        assert narrow.prior == 0.5

    def test_fuse_crosses_the_boundary_with_exact_only_options(self):
        config = SyntheticConfig(
            sources=uniform_sources(EXACT_SOURCE_LIMIT + 2, 0.8, 0.3),
            n_triples=150,
            true_fraction=0.5,
        )
        dataset = generate(config, seed=4)
        result = fuse(
            dataset.observations,
            dataset.labels,
            method="precreccorr",
            max_silent_sources=12,
        )
        assert result.scores.shape == (dataset.observations.n_triples,)

    def test_explicit_clustered_method_still_rejects_exact_options(self):
        # The filter is precreccorr's routing concern only: asking for the
        # clustered fuser by name with an exact-only option stays an error.
        model = _wide_model(EXACT_SOURCE_LIMIT + 2)
        with pytest.raises(TypeError):
            make_fuser("clustered", model, max_silent_sources=12)


class TestFuseEmOptions:
    """fuse(method='em') must not silently swallow calibration options."""

    def test_train_mask_rejected(self, small_independent):
        mask = np.zeros(small_independent.observations.n_triples, dtype=bool)
        mask[:10] = True
        with pytest.raises(ValueError, match="train_mask"):
            fuse(
                small_independent.observations,
                small_independent.labels,
                method="em",
                train_mask=mask,
            )

    def test_smoothing_rejected(self, small_independent):
        with pytest.raises(ValueError, match="smoothing"):
            fuse(
                small_independent.observations,
                small_independent.labels,
                method="em",
                smoothing=0.5,
            )

    def test_prior_forwarded_as_initial_alpha(self, small_independent):
        low = fuse(
            small_independent.observations,
            small_independent.labels,
            method="em",
            prior=0.05,
            update_prior=False,
        )
        high = fuse(
            small_independent.observations,
            small_independent.labels,
            method="em",
            prior=0.95,
            update_prior=False,
        )
        assert not np.allclose(low.scores, high.scores)
        assert low.n_accepted <= high.n_accepted

    def test_em_rejects_invalid_prior(self, small_independent):
        with pytest.raises(ValueError, match="prior"):
            fuse(
                small_independent.observations,
                small_independent.labels,
                method="em",
                prior=1.5,
            )

    def test_unset_decision_prior_is_dropped(self, small_independent):
        # Regression: the CLI forwards decision_prior unconditionally (None
        # when unset), which used to reach the EM constructor and crash.
        result = fuse(
            small_independent.observations,
            small_independent.labels,
            method="em",
            decision_prior=None,
        )
        assert result.scores.shape == (small_independent.observations.n_triples,)

    def test_explicit_decision_prior_rejected(self, small_independent):
        with pytest.raises(ValueError, match="decision_prior"):
            fuse(
                small_independent.observations,
                small_independent.labels,
                method="em",
                decision_prior=0.3,
            )


class TestFuse:
    def test_returns_result_with_scores(self, figure1):
        result = fuse(figure1.observations, figure1.labels, method="precrec")
        assert isinstance(result, FusionResult)
        assert result.scores.shape == (10,)
        assert result.elapsed_seconds >= 0.0

    def test_em_path(self, small_independent):
        result = fuse(
            small_independent.observations,
            small_independent.labels,
            method="em",
        )
        assert np.all((result.scores >= 0) & (result.scores <= 1))

    def test_decision_prior_forwarded(self, figure1):
        strict = fuse(
            figure1.observations, figure1.labels,
            method="precrec", prior=0.5, decision_prior=0.01,
        )
        loose = fuse(
            figure1.observations, figure1.labels,
            method="precrec", prior=0.5, decision_prior=0.99,
        )
        assert strict.n_accepted < loose.n_accepted


class TestFusionResult:
    def test_threshold_is_inclusive(self):
        result = FusionResult(method="m", scores=np.array([0.5, 0.4999, 0.6]))
        assert result.accepted.tolist() == [True, False, True]

    def test_with_threshold(self):
        result = FusionResult(method="m", scores=np.array([0.3, 0.6]))
        rethresholded = result.with_threshold(0.25)
        assert rethresholded.accepted.tolist() == [True, True]
        assert rethresholded.method == "m"

    def test_n_accepted(self):
        result = FusionResult(method="m", scores=np.array([0.9, 0.1]))
        assert result.n_accepted == 1

    def test_scores_must_be_1d(self):
        with pytest.raises(ValueError, match="1-D"):
            FusionResult(method="m", scores=np.zeros((2, 2)))


class TestThresholdBoundary:
    """A threshold outside [0, 1], or NaN, is refused: ``scores >= nan``
    would otherwise accept nothing without a word."""

    BAD = [float("nan"), -0.1, 1.5, float("inf")]

    @pytest.mark.parametrize("threshold", BAD)
    def test_fuse_rejects(self, figure1, threshold):
        with pytest.raises(ValueError, match="threshold"):
            fuse(figure1.observations, figure1.labels, threshold=threshold)

    @pytest.mark.parametrize("threshold", BAD)
    def test_session_rejects(self, figure1, threshold):
        with pytest.raises(ValueError, match="threshold"):
            ScoringSession(
                figure1.observations, figure1.labels, threshold=threshold
            )

    @pytest.mark.parametrize("threshold", BAD)
    def test_fuser_fuse_rejects(self, figure1, threshold):
        fuser = make_fuser(
            "precrec", fit_model(figure1.observations, figure1.labels)
        )
        with pytest.raises(ValueError, match="threshold"):
            fuser.fuse(figure1.observations, threshold=threshold)

    @pytest.mark.parametrize("threshold", [0.0, 1.0])
    def test_bounds_are_accepted(self, figure1, threshold):
        result = fuse(figure1.observations, figure1.labels, threshold=threshold)
        assert result.threshold == threshold
