"""The observation matrix: construction, scope handling, queries."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import ObservationMatrix, Triple


class TestConstruction:
    def test_shape_and_names(self, tiny_matrix):
        assert tiny_matrix.n_sources == 3
        assert tiny_matrix.n_triples == 4
        assert tiny_matrix.source_names == ("A", "B", "C")
        assert tiny_matrix.source_id("B") == 1

    def test_read_only_views(self, tiny_matrix):
        with pytest.raises(ValueError):
            tiny_matrix.provides[0, 0] = False
        with pytest.raises(ValueError):
            tiny_matrix.coverage[0, 0] = False

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError, match="unique"):
            ObservationMatrix(np.zeros((2, 3), dtype=bool), ["X", "X"])

    def test_name_count_mismatch(self):
        with pytest.raises(ValueError, match="source names"):
            ObservationMatrix(np.zeros((2, 3), dtype=bool), ["X"])

    def test_one_dimensional_rejected(self):
        with pytest.raises(ValueError, match="2-D"):
            ObservationMatrix(np.zeros(3, dtype=bool), ["X"])

    def test_providing_outside_coverage_rejected(self):
        provides = np.array([[1, 1]], dtype=bool)
        coverage = np.array([[1, 0]], dtype=bool)
        with pytest.raises(ValueError, match="outside its declared coverage"):
            ObservationMatrix(provides, ["A"], coverage=coverage)

    def test_coverage_shape_mismatch(self):
        with pytest.raises(ValueError, match="coverage shape"):
            ObservationMatrix(
                np.zeros((1, 2), dtype=bool),
                ["A"],
                coverage=np.zeros((1, 3), dtype=bool),
            )

    def test_from_source_outputs(self):
        t1 = Triple("a", "p", "x")
        t2 = Triple("b", "p", "y")
        matrix = ObservationMatrix.from_source_outputs({"S1": [t1, t2], "S2": [t2]})
        assert matrix.n_sources == 2
        assert matrix.n_triples == 2
        assert matrix.triple_index is not None
        j = matrix.triple_index.id_of(t2)
        assert set(matrix.providers_of(j)) == {0, 1}

    def test_from_source_outputs_with_scopes(self):
        t1 = Triple("a", "p", "x", domain="d1")
        t2 = Triple("b", "p", "y", domain="d2")
        matrix = ObservationMatrix.from_source_outputs(
            {"S1": [t1], "S2": [t2]},
            scopes={"S1": ["d1"], "S2": ["d1", "d2"]},
        )
        assert matrix.has_partial_coverage
        j1 = matrix.triple_index.id_of(t1)
        j2 = matrix.triple_index.id_of(t2)
        # S1 does not cover d2, so it is not a silent source for t2.
        assert list(matrix.silent_covering_sources(j2)) == []
        # S2 covers d1 but does not provide t1: silent for t1.
        assert list(matrix.silent_covering_sources(j1)) == [1]


class TestQueries:
    def test_providers_and_silent(self, tiny_matrix):
        assert list(tiny_matrix.providers_of(0)) == [0, 1]
        assert list(tiny_matrix.silent_covering_sources(0)) == [2]

    def test_support_counts(self, tiny_matrix):
        assert tiny_matrix.support_counts().tolist() == [2, 2, 2, 1]

    def test_output_size(self, tiny_matrix):
        assert tiny_matrix.output_size(0) == 2
        assert tiny_matrix.output_size(2) == 3

    def test_restricted_to_sources(self, tiny_matrix):
        sub = tiny_matrix.restricted_to_sources([2, 0])
        assert sub.source_names == ("C", "A")
        assert sub.provides[0].tolist() == [False, True, True, True]

    def test_restricted_to_triples(self, tiny_matrix):
        sub = tiny_matrix.restricted_to_triples(np.array([True, False, True, False]))
        assert sub.n_triples == 2
        assert sub.provides[:, 0].tolist() == [True, True, False]

    def test_restricted_to_triples_keeps_index(self):
        t1, t2 = Triple("a", "p", "x"), Triple("b", "p", "y")
        matrix = ObservationMatrix.from_source_outputs({"S": [t1, t2]})
        sub = matrix.restricted_to_triples(np.array([False, True]))
        assert sub.triple_index is not None
        assert sub.triple_index[0].key == t2.key

    def test_restricted_bad_mask(self, tiny_matrix):
        with pytest.raises(ValueError, match="mask shape"):
            tiny_matrix.restricted_to_triples(np.array([True]))

    def test_repr(self, tiny_matrix):
        assert "n_sources=3" in repr(tiny_matrix)
