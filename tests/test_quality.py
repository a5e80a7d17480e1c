"""Source-quality estimation and the Theorem 3.5 derivation."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import reference
from repro.core import (
    ObservationMatrix,
    derive_false_positive_rate,
    estimate_prior,
    estimate_source_quality,
    fit_model,
    fpr_validity_bound,
)
from repro.core.bitset import pack_bool_vector
from repro.core.quality import (
    SourceQuality,
    source_counts,
    source_rates_from_counts,
)
from repro.data import get_dataset


class TestDeriveFalsePositiveRate:
    def test_formula(self):
        # q = a/(1-a) * (1-p)/p * r
        q = derive_false_positive_rate(precision=0.5, recall=0.6, prior=0.5)
        assert q == pytest.approx(0.6)

    def test_example_3_4(self):
        """The paper derives q1 = 0.5 for S1 (p=0.57, r=0.67, a=0.5)."""
        q = derive_false_positive_rate(precision=4 / 7, recall=4 / 6, prior=0.5)
        assert q == pytest.approx(0.5)

    def test_good_source_condition(self):
        """Theorem 3.5: p > alpha implies q < r (a good source)."""
        for precision in (0.51, 0.7, 0.99):
            q = derive_false_positive_rate(precision, recall=0.5, prior=0.5)
            assert q < 0.5

    def test_bad_source_condition(self):
        for precision in (0.2, 0.4, 0.49):
            q = derive_false_positive_rate(precision, recall=0.5, prior=0.5)
            assert q > 0.5

    def test_boundary_precision_equals_prior(self):
        q = derive_false_positive_rate(precision=0.5, recall=0.7, prior=0.5)
        assert q == pytest.approx(0.7)  # q == r exactly at p == alpha

    def test_infeasible_clipped(self):
        assert derive_false_positive_rate(0.1, 0.9, 0.9, clip=True) == 1.0

    def test_infeasible_strict_raises(self):
        with pytest.raises(ValueError, match="validity bound"):
            derive_false_positive_rate(0.1, 0.9, 0.9, clip=False)

    def test_zero_precision(self):
        assert derive_false_positive_rate(0.0, 0.5, 0.5, clip=True) == 1.0
        with pytest.raises(ValueError, match="undefined"):
            derive_false_positive_rate(0.0, 0.5, 0.5, clip=False)

    def test_invalid_prior_rejected(self):
        with pytest.raises(ValueError):
            derive_false_positive_rate(0.5, 0.5, 0.0)
        with pytest.raises(ValueError):
            derive_false_positive_rate(0.5, 0.5, 1.0)


class TestValidityBound:
    def test_bound_value(self):
        # alpha <= p / (p + r - p r)
        assert fpr_validity_bound(0.5, 0.5) == pytest.approx(0.5 / 0.75)

    def test_at_bound_q_is_one(self):
        p, r = 0.4, 0.7
        bound = fpr_validity_bound(p, r)
        q = derive_false_positive_rate(p, r, bound - 1e-9)
        assert q == pytest.approx(1.0, abs=1e-6)

    def test_degenerate_inputs(self):
        assert fpr_validity_bound(0.0, 0.0) == 1.0


class TestEstimateSourceQuality:
    def test_counts(self, tiny_matrix):
        labels = np.array([True, True, False, False])
        qualities = estimate_source_quality(tiny_matrix, labels, prior=0.5)
        # A provides t0 (true), t1 (true): precision 1, recall 2/2
        assert qualities[0].precision == pytest.approx(1.0)
        assert qualities[0].recall == pytest.approx(1.0)
        # B provides t0 (true), t2 (false): precision 1/2, recall 1/2
        assert qualities[1].precision == pytest.approx(0.5)
        assert qualities[1].recall == pytest.approx(0.5)

    def test_smoothing_pulls_ratios_off_endpoints(self, tiny_matrix):
        labels = np.array([True, True, False, False])
        smoothed = estimate_source_quality(tiny_matrix, labels, smoothing=1.0)
        assert 0.0 < smoothed[0].precision < 1.0
        assert 0.0 < smoothed[0].recall < 1.0

    def test_scope_aware_recall(self):
        # Source B covers only the first two triples; it should not be
        # penalised for missing the true triple t2 outside its scope.
        provides = np.array([[1, 0, 1], [1, 0, 0]], dtype=bool)
        coverage = np.array([[1, 1, 1], [1, 1, 0]], dtype=bool)
        matrix = ObservationMatrix(provides, ["A", "B"], coverage=coverage)
        labels = np.array([True, False, True])
        qualities = estimate_source_quality(matrix, labels)
        assert qualities[0].recall == pytest.approx(1.0)   # 2 of 2 in scope
        assert qualities[1].recall == pytest.approx(1.0)   # 1 of 1 in scope

    def test_label_shape_mismatch(self, tiny_matrix):
        with pytest.raises(ValueError, match="labels shape"):
            estimate_source_quality(tiny_matrix, np.array([True, False]))

    def test_negative_smoothing_rejected(self, tiny_matrix):
        labels = np.zeros(4, dtype=bool)
        with pytest.raises(ValueError, match="smoothing"):
            estimate_source_quality(tiny_matrix, labels, smoothing=-1.0)


class TestSourceQuality:
    def test_is_good(self):
        good = SourceQuality("s", precision=0.8, recall=0.6, false_positive_rate=0.2)
        bad = SourceQuality("s", precision=0.3, recall=0.4, false_positive_rate=0.6)
        assert good.is_good and not bad.is_good

    def test_f1(self):
        q = SourceQuality("s", precision=0.5, recall=0.5, false_positive_rate=0.5)
        assert q.f1 == pytest.approx(0.5)
        zero = SourceQuality("s", precision=0.0, recall=0.0, false_positive_rate=0.0)
        assert zero.f1 == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            SourceQuality("s", precision=1.5, recall=0.5, false_positive_rate=0.5)


class TestEstimatePrior:
    def test_fraction(self):
        labels = np.array([True, True, False, False, False])
        assert estimate_prior(labels) == pytest.approx(0.4)

    def test_empty_defaults_to_half(self):
        assert estimate_prior(np.array([], dtype=bool)) == 0.5

    def test_all_true_clamped_inside_unit_interval(self):
        alpha = estimate_prior(np.ones(10, dtype=bool))
        assert 0.0 < alpha < 1.0


#: One source's ``(provided_true, provided_false, scope_true_extra,
#: scope_false_extra)``; small ranges make zero denominators common.
_valid_counts = st.tuples(
    st.integers(0, 6), st.integers(0, 6), st.integers(0, 6), st.integers(0, 6)
)


def _counts(rows):
    """``source_counts``-shaped arrays from per-source count tuples."""
    provided_true = np.array([row[0] for row in rows], dtype=np.int64)
    provided_false = np.array([row[1] for row in rows], dtype=np.int64)
    return (
        provided_true + provided_false,
        provided_true,
        provided_true + np.array([row[2] for row in rows], dtype=np.int64),
        provided_false + np.array([row[3] for row in rows], dtype=np.int64),
    )


def _bits(values) -> bytes:
    return np.asarray(values, dtype=float).tobytes()


class TestArrayRuleMatchesScalarReplay:
    """``source_rates_from_counts`` is ``reference.quality_from_counts``
    applied to every source, bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(
        rows=st.lists(_valid_counts, min_size=1, max_size=8),
        smoothing=st.sampled_from([0.0, 0.0, 0.1, 0.5, 1.0, 2.5]),
        prior=st.floats(1e-6, 1.0 - 1e-6),
        at_bound=st.sampled_from([None, -1e-12, 0.0, 1e-12, 1e-9]),
    )
    def test_every_field_is_bit_equal(self, rows, smoothing, prior, at_bound):
        counts = _counts(rows)
        names = [f"s{i}" for i in range(len(rows))]
        if at_bound is not None:
            # A prior at source 0's validity bound, where q reaches 1 and
            # just past which it clips to 1.
            first = reference.quality_from_counts(
                "s0", *(int(c[0]) for c in counts), smoothing=smoothing
            )
            p, r = first.precision, first.recall
            assume(p > 0.0 and p + r - p * r > 0.0)
            prior = p / (p + r - p * r) + at_bound
            assume(0.0 < prior < 1.0)
        expected = reference.qualities_from_counts(
            names, counts, prior=prior, smoothing=smoothing
        )
        precision, recall, fpr = source_rates_from_counts(
            counts, prior, smoothing
        )
        assert _bits(precision) == _bits([q.precision for q in expected])
        assert _bits(recall) == _bits([q.recall for q in expected])
        assert _bits(fpr) == _bits([q.false_positive_rate for q in expected])

    def test_edge_cases_are_covered(self):
        # Zero denominators, precision 0, and a clip to q = 1.
        counts = _counts([(0, 0, 0, 0), (0, 3, 2, 1), (1, 5, 0, 0), (4, 0, 0, 4)])
        for smoothing in (0.0, 0.5):
            expected = reference.qualities_from_counts(
                "abcd", counts, prior=0.9, smoothing=smoothing
            )
            got = source_rates_from_counts(counts, 0.9, smoothing)
            assert _bits(got[2]) == _bits(
                [q.false_positive_rate for q in expected]
            )
        precision, recall, fpr = source_rates_from_counts(counts, 0.9)
        assert precision.tolist()[:2] == [0.0, 0.0]
        assert fpr.tolist()[:3] == [0.0, 0.75, 1.0]

    @pytest.mark.parametrize(
        "row, field",
        [
            # (provided, provided_true, in_scope_true, in_scope_false)
            ((3, 5, 5, 2), "precision"),
            ((5, -1, 0, 2), "precision"),
            ((5, 5, 3, 2), "recall"),
            ((5, 0, 0, 2), "false_positive_rate"),
        ],
    )
    def test_out_of_range_counts_raise_naming_the_field(self, row, field):
        counts = tuple(
            np.array([1, value], dtype=np.int64) for value in row
        )
        with pytest.raises(ValueError, match=field):
            reference.quality_from_counts("s", *row)
        with pytest.raises(ValueError, match=f"{field}.*source 1"):
            source_rates_from_counts(counts, 0.5)

    def test_rates_are_read_only(self):
        for values in source_rates_from_counts(_counts([(1, 1, 1, 1)]), 0.5):
            assert not values.flags.writeable

    @pytest.mark.parametrize("name", ["figure1", "restaurant", "reverb"])
    def test_models_serve_the_scalar_replay(self, name):
        dataset = get_dataset(name)
        model = fit_model(dataset.observations, dataset.labels)
        expected = reference.qualities_from_counts(
            dataset.observations.source_names,
            source_counts(
                dataset.observations,
                pack_bool_vector(dataset.labels),
                pack_bool_vector(~dataset.labels),
            ),
            prior=model.prior,
            smoothing=model.smoothing,
        )
        assert model.source_qualities() == expected
        assert estimate_source_quality(
            dataset.observations, dataset.labels, prior=model.prior
        ) == expected
