"""Baseline fusers: voting, Galland's 3-Estimates, LTM, AccuCopy."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines import (
    AccuCopyFuser,
    LatentTruthModel,
    LTMPriors,
    MajorityVoteFuser,
    ThreeEstimatesFuser,
    UnionKFuser,
)
from repro.core import ObservationMatrix, Triple
from repro.data import (
    SyntheticConfig,
    book_dataset,
    generate,
    uniform_sources,
)
from repro.eval import binary_metrics, auc_roc


class TestUnionK:
    def test_scores_are_vote_fractions(self, tiny_matrix):
        scores = UnionKFuser(50).score(tiny_matrix)
        assert scores.tolist() == [2 / 3, 2 / 3, 2 / 3, 1 / 3]

    def test_threshold_defaults_to_k(self, tiny_matrix):
        result = UnionKFuser(50).fuse(tiny_matrix)
        assert result.threshold == 0.5
        assert result.accepted.tolist() == [True, True, True, False]

    def test_at_least_semantics(self):
        # 4 sources, K=50: exactly half the electorate qualifies.
        provides = np.array([[1], [1], [0], [0]], dtype=bool)
        matrix = ObservationMatrix(provides, list("abcd"))
        assert UnionKFuser(50).fuse(matrix).accepted.tolist() == [True]
        assert UnionKFuser(75).fuse(matrix).accepted.tolist() == [False]

    def test_scope_aware_electorate(self):
        provides = np.array([[1, 1], [0, 0], [0, 0]], dtype=bool)
        coverage = np.array([[1, 1], [1, 0], [1, 0]], dtype=bool)
        matrix = ObservationMatrix(provides, list("abc"), coverage=coverage)
        scores = UnionKFuser(50).score(matrix)
        # t0: 1 of 3 covering; t1: 1 of 1 covering.
        assert scores.tolist() == [1 / 3, 1.0]

    def test_majority_alias(self, tiny_matrix):
        assert MajorityVoteFuser().k_percent == 50.0
        assert MajorityVoteFuser().name == "Majority"

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            UnionKFuser(0)
        with pytest.raises(ValueError):
            UnionKFuser(101)


def easy_dataset(seed=0, n_sources=6, precision=0.8, recall=0.55):
    config = SyntheticConfig(
        sources=uniform_sources(n_sources, precision, recall),
        n_triples=600,
        true_fraction=0.5,
    )
    return generate(config, seed=seed)


class TestEstimatesFamily:
    @pytest.mark.parametrize("fuser_cls", [ThreeEstimatesFuser])
    def test_beats_random_on_easy_data(self, fuser_cls):
        dataset = easy_dataset()
        scores = fuser_cls().score(dataset.observations)
        assert auc_roc(scores, dataset.labels) > 0.7

    @pytest.mark.parametrize("fuser_cls", [ThreeEstimatesFuser])
    def test_scores_in_unit_interval(self, fuser_cls):
        dataset = easy_dataset(seed=3)
        scores = fuser_cls().score(dataset.observations)
        assert np.all(scores >= 0.0) and np.all(scores <= 1.0)

    def test_deterministic(self):
        dataset = easy_dataset(seed=5)
        a = ThreeEstimatesFuser().score(dataset.observations)
        b = ThreeEstimatesFuser().score(dataset.observations)
        assert np.array_equal(a, b)

    def test_polarity_guard_on_book_shape(self):
        """On sparse-coverage book data the fixed point must not invert."""
        dataset = book_dataset(
            seed=7, n_sources=60, n_books=60, gold_true=120, gold_false=240
        )
        scores = ThreeEstimatesFuser().score(dataset.observations)
        assert auc_roc(scores, dataset.labels) > 0.5

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            ThreeEstimatesFuser(iterations=0)
        with pytest.raises(ValueError):
            ThreeEstimatesFuser(prior_votes=-1)
        with pytest.raises(ValueError):
            ThreeEstimatesFuser(normalization="bogus")

    def test_clip_normalization_variant(self):
        dataset = easy_dataset(seed=11)
        scores = ThreeEstimatesFuser(normalization="clip").score(
            dataset.observations
        )
        assert auc_roc(scores, dataset.labels) > 0.7


class TestLatentTruthModel:
    def test_recovers_truth_on_easy_data(self):
        dataset = easy_dataset(seed=21)
        ltm = LatentTruthModel(iterations=40, burn_in=10, seed=1)
        scores = ltm.score(dataset.observations)
        m = binary_metrics(scores >= 0.5, dataset.labels)
        assert m.f1 > 0.75

    def test_posterior_quality_diagnostics(self):
        dataset = easy_dataset(seed=22, recall=0.6)
        ltm = LatentTruthModel(iterations=40, burn_in=10, seed=2)
        ltm.score(dataset.observations)
        assert ltm.posterior_sensitivity is not None
        # Planted recall 0.6: the posterior mean should be in the ballpark.
        assert np.all(ltm.posterior_sensitivity > 0.3)
        assert np.all(ltm.posterior_fpr < 0.5)

    def test_seeded_chains_are_reproducible(self):
        dataset = easy_dataset(seed=23)
        a = LatentTruthModel(iterations=15, burn_in=5, seed=9).score(
            dataset.observations
        )
        b = LatentTruthModel(iterations=15, burn_in=5, seed=9).score(
            dataset.observations
        )
        assert np.array_equal(a, b)

    def test_scores_are_sample_averages(self):
        dataset = easy_dataset(seed=24)
        ltm = LatentTruthModel(iterations=12, burn_in=2, seed=3)
        scores = ltm.score(dataset.observations)
        assert np.all((scores >= 0.0) & (scores <= 1.0))
        # With 10 samples, scores are multiples of 0.1.
        assert np.allclose(scores * 10, np.round(scores * 10))

    def test_prior_validation(self):
        with pytest.raises(ValueError):
            LatentTruthModel(iterations=5, burn_in=5)
        with pytest.raises(ValueError):
            LTMPriors(sensitivity=(0.0, 1.0))
        with pytest.raises(ValueError):
            LTMPriors(truth=1.0)


class TestAccuCopy:
    def _copy_scenario(self, seed=13, n_wrong_values=5):
        """Three honest sources plus a 3-clique of copiers sharing mistakes.

        Each item has one correct value and several wrong candidates, so two
        *independent* sources rarely share a mistake (they err onto
        different wrong values) while the copiers always do -- the asymmetry
        Dong et al.'s detector keys on.
        """
        from repro.core.triples import TripleIndex
        from repro.util.rng import ensure_rng

        rng = ensure_rng(seed)
        n_items = 60
        triples, labels = [], []
        provides_rows: dict[int, list[int]] = {s: [] for s in range(6)}
        col = 0
        for item in range(n_items):
            true_col = col
            wrong_cols = list(range(col + 1, col + 1 + n_wrong_values))
            triples.append(Triple(f"item{item}", "value", f"right{item}"))
            labels.append(True)
            for w in range(n_wrong_values):
                triples.append(Triple(f"item{item}", "value", f"wrong{item}-{w}"))
                labels.append(False)
            col += 1 + n_wrong_values
            # Honest sources: 80% correct, independent wrong picks otherwise.
            for s in range(3):
                if rng.random() < 0.8:
                    provides_rows[s].append(true_col)
                elif rng.random() < 0.5:
                    provides_rows[s].append(int(rng.choice(wrong_cols)))
            # Copier clique: master (source 3) is 55% correct; 4, 5 copy it.
            master_pick = (
                true_col if rng.random() < 0.55 else int(rng.choice(wrong_cols))
            )
            for s in (3, 4, 5):
                provides_rows[s].append(master_pick)
        provides = np.zeros((6, col), dtype=bool)
        for s, cols in provides_rows.items():
            provides[s, cols] = True
        matrix = ObservationMatrix(
            provides,
            [f"s{i}" for i in range(6)],
            triple_index=TripleIndex(triples),
        )
        return matrix, np.array(labels)

    def test_detects_planted_copiers(self):
        matrix, labels = self._copy_scenario()
        fuser = AccuCopyFuser(iterations=4)
        fuser.score(matrix)
        dep = fuser.copy_probability
        clique = [dep[3, 4], dep[3, 5], dep[4, 5]]
        independent = [dep[0, 1], dep[0, 2], dep[1, 2]]
        assert min(clique) > 0.9
        assert max(independent) < 0.5

    def test_copy_detection_improves_accuracy(self):
        matrix, labels = self._copy_scenario()
        with_copy = AccuCopyFuser(iterations=4).score(matrix)
        without = AccuCopyFuser(iterations=4, detect_copying=False).score(matrix)
        f1_with = binary_metrics(with_copy >= 0.5, labels).f1
        f1_without = binary_metrics(without >= 0.5, labels).f1
        assert f1_with > f1_without

    def test_single_truth_competition(self):
        matrix, labels = self._copy_scenario(n_wrong_values=5)
        scores = AccuCopyFuser(iterations=4).score(matrix)
        # Candidate values of one item compete: at most one can clear 0.5.
        stride = 6  # 1 correct + 5 wrong candidates per item
        for start in range(0, 20 * stride, stride):
            block = scores[start : start + stride]
            assert (block > 0.5).sum() <= 1

    def test_works_without_triple_index(self, tiny_matrix):
        scores = AccuCopyFuser(iterations=2).score(tiny_matrix)
        assert scores.shape == (tiny_matrix.n_triples,)
        assert np.all((scores >= 0) & (scores <= 1))

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            AccuCopyFuser(iterations=0)
        with pytest.raises(ValueError):
            AccuCopyFuser(copy_rate=1.0)
        with pytest.raises(ValueError):
            AccuCopyFuser(n_false_values=0)
