"""The Figure 1a matrix reconstruction: every constraint the paper states.

The paper never prints the full extractor-by-triple matrix; `data/figure1`
reconstructs it from the constraints scattered through the text.  These
tests assert each constraint individually, so any future edit to the
reconstruction that silently breaks one of them fails loudly.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.data.figure1 import LABELS, PROVIDES, TRIPLES, figure1_dataset


@pytest.fixture(scope="module")
def matrix():
    return np.array(PROVIDES, dtype=bool)


class TestStatedConstraints:
    def test_o1_contents(self, matrix):
        """Example 2.1: O1 = {t1, t2, t6, t7, t8, t9, t10}."""
        expected = {0, 1, 5, 6, 7, 8, 9}
        assert set(np.flatnonzero(matrix[0]).tolist()) == expected

    def test_t2_providers(self, matrix):
        """Example 1.1: S1 and S2 derived t2."""
        assert set(np.flatnonzero(matrix[:, 1]).tolist()) == {0, 1}

    def test_t3_only_s3(self, matrix):
        """Figure 1a caption: t3 is extracted by S3 and nobody else."""
        assert set(np.flatnonzero(matrix[:, 2]).tolist()) == {2}

    def test_s1_s3_intersection(self, matrix):
        """Example 2.3: O1 and O3 share exactly {t7, t10}."""
        both = matrix[0] & matrix[2]
        assert set(np.flatnonzero(both).tolist()) == {6, 9}

    def test_s1_s4_s5_intersection(self, matrix):
        """Example 2.3: S1, S4, S5 all provide t1, t6, t8, t9, t10."""
        common = matrix[0] & matrix[3] & matrix[4]
        assert set(np.flatnonzero(common).tolist()) == {0, 5, 7, 8, 9}

    def test_t8_providers(self, matrix):
        """Example 4.4: St8 = {S1, S2, S4, S5}."""
        assert set(np.flatnonzero(matrix[:, 7]).tolist()) == {0, 1, 3, 4}

    def test_provider_counts_per_row(self, matrix):
        """Figure 1a's X marks per triple: 4,2,1,4,2,3,3,4,4,4."""
        assert matrix.sum(axis=0).tolist() == [4, 2, 1, 4, 2, 3, 3, 4, 4, 4]

    def test_output_sizes(self, matrix):
        """|O_i| implied by Figure 1b: 7, 7, 5, 6, 6."""
        assert matrix.sum(axis=1).tolist() == [7, 7, 5, 6, 6]

    def test_labels_column(self):
        """Figure 1a "Correct?": Yes/No pattern with 6 true triples."""
        assert list(LABELS) == [
            True, False, True, True, False, True, True, False, False, True
        ]

    def test_s4_s5_identical(self, matrix):
        """S4 and S5 extract identical sets (C45 = 1.5 in Section 4.2
        requires their joint recall to equal their individual recall)."""
        assert np.array_equal(matrix[3], matrix[4])


class TestDatasetWiring:
    def test_triple_column_roundtrip(self, figure1):
        """Triple ``t_k`` of the paper lives in matrix column ``k - 1``."""
        index = figure1.observations.triple_index
        for column, triple in enumerate(TRIPLES):
            assert index.id_of(triple) == column
            assert index[column] == triple

    def test_triples_carry_paper_content(self):
        assert TRIPLES[0].obj == "president"
        assert TRIPLES[6].obj == "Michelle"
        assert all(t.subject == "Obama" for t in TRIPLES)

    def test_dataset_is_fresh_each_call(self):
        a = figure1_dataset()
        b = figure1_dataset()
        assert a is not b
        assert np.array_equal(a.observations.provides, b.observations.provides)
