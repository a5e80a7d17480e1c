"""Utility helpers: probability numerics, subsets, validation, RNG."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.util import (
    check_fraction,
    check_positive,
    check_probability,
    clamp_probability,
    ensure_rng,
    iter_subsets_of_size,
    log_odds,
    odds_to_probability,
    probability_from_mu,
    safe_divide,
    subset_parity,
)
from repro.util.validation import check_non_negative_int, check_positive_int

from reference import count_subsets, iter_subsets


class TestProbability:
    def test_clamp(self):
        assert clamp_probability(2.0) < 1.0
        assert clamp_probability(-1.0) > 0.0
        assert clamp_probability(0.5) == 0.5
        assert clamp_probability(float("nan")) > 0.0

    def test_safe_divide(self):
        assert safe_divide(1.0, 2.0) == 0.5
        assert safe_divide(1.0, 0.0) == 1.0
        assert safe_divide(1.0, 0.0, default=0.0) == 0.0

    def test_log_odds_roundtrip(self):
        for p in (0.1, 0.5, 0.9):
            assert odds_to_probability(math.exp(log_odds(p))) == pytest.approx(p)

    def test_odds_edge_cases(self):
        assert odds_to_probability(float("inf")) > 0.999
        assert odds_to_probability(0.0) < 1e-9
        assert odds_to_probability(-3.0) < 1e-9

    def test_probability_from_mu_formula(self):
        # Pr = 1 / (1 + (1-a)/a * 1/mu)
        assert probability_from_mu(1.0, 0.5) == pytest.approx(0.5)
        assert probability_from_mu(2.0, 0.5) == pytest.approx(2 / 3)
        assert probability_from_mu(1.0, 0.25) == pytest.approx(0.25)

    def test_probability_from_mu_degenerate(self):
        assert probability_from_mu(0.0, 0.5) < 1e-9
        assert probability_from_mu(-5.0, 0.5) < 1e-9
        assert probability_from_mu(float("inf"), 0.5) > 0.999


class TestSubsets:
    def test_iter_subsets_count_and_order(self):
        subsets = list(iter_subsets([1, 2, 3]))
        assert len(subsets) == 8
        assert subsets[0] == ()
        sizes = [len(s) for s in subsets]
        assert sizes == sorted(sizes)

    def test_iter_subsets_of_size(self):
        assert list(iter_subsets_of_size([1, 2, 3], 2)) == [(1, 2), (1, 3), (2, 3)]
        with pytest.raises(ValueError):
            list(iter_subsets_of_size([1], -1))

    def test_parity(self):
        assert subset_parity(0) == 1
        assert subset_parity(1) == -1
        assert subset_parity(4) == 1

    def test_count_subsets(self):
        assert count_subsets(5) == 32
        assert count_subsets(5, max_size=1) == 6
        assert count_subsets(5, max_size=2) == 16
        assert count_subsets(0) == 1
        with pytest.raises(ValueError):
            count_subsets(-1)


class TestValidation:
    def test_check_probability(self):
        assert check_probability(0.5, "x") == 0.5
        with pytest.raises(ValueError):
            check_probability(1.5, "x")
        with pytest.raises(TypeError):
            check_probability("0.5", "x")
        with pytest.raises(TypeError):
            check_probability(True, "x")

    def test_check_fraction(self):
        with pytest.raises(ValueError):
            check_fraction(0.0, "x")
        with pytest.raises(ValueError):
            check_fraction(1.0, "x")

    def test_check_positive(self):
        assert check_positive(3, "x") == 3.0
        with pytest.raises(ValueError):
            check_positive(0, "x")

    def test_int_checks(self):
        assert check_non_negative_int(0, "x") == 0
        assert check_positive_int(2, "x") == 2
        with pytest.raises(TypeError):
            check_non_negative_int(1.5, "x")
        with pytest.raises(TypeError):
            check_non_negative_int(True, "x")
        with pytest.raises(ValueError):
            check_positive_int(0, "x")


class TestRng:
    def test_ensure_rng_variants(self):
        assert isinstance(ensure_rng(None), np.random.Generator)
        seeded = ensure_rng(42)
        assert seeded.integers(0, 100) == ensure_rng(42).integers(0, 100)
        generator = np.random.default_rng(1)
        assert ensure_rng(generator) is generator
        with pytest.raises(TypeError):
            ensure_rng("seed")
