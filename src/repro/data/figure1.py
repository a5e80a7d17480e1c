"""The paper's motivating example: Figure 1 (the Barack Obama page).

Five extractors (S1..S5) process the Wikipedia page for Barack Obama and
produce ten knowledge triples, six of which are correct.  The exact
observation matrix is reconstructed from the paper's stated facts:

- ``O1 = {t1, t2, t6, t7, t8, t9, t10}`` (Example 2.1);
- t2 is provided by exactly S1 and S2; t3 by S3 alone (Example 1.1);
- ``O1 and O3 = {t7, t10}``; ``O1 and O4 and O5 = {t1, t6, t8, t9, t10}``
  (Example 2.3); t8 is provided by ``{S1, S2, S4, S5}`` (Example 4.4);
- every per-source and joint precision/recall in Figure 1b, and the per-row
  provider counts in Figure 1a, pin down the remaining cells uniquely.

The resulting matrix reproduces Figure 1b *exactly* (asserted in the tests):
e.g. ``p1 = 4/7``, ``r1 = 4/6``, joint precision of ``{S1, S3}`` = 1.

This module also exposes the *hypothetical* joint parameters the paper uses
in its worked Examples 4.4 / 4.7 / 4.10 and Figure 3; those numbers are
given by the authors ("here we assume that all the joint recall and joint
false positive rate parameters are given") rather than measured, so they
live in :func:`example_parameter_model` instead of the dataset itself.
"""

from __future__ import annotations

import numpy as np

from repro.core.joint import ExplicitJointModel
from repro.core.observations import ObservationMatrix
from repro.core.quality import SourceQuality
from repro.core.triples import Triple, TripleIndex
from repro.data.model import FusionDataset

SOURCE_NAMES = ("S1", "S2", "S3", "S4", "S5")

#: The ten triples of Figure 1a, in order t1..t10.
TRIPLES = (
    Triple("Obama", "profession", "president"),
    Triple("Obama", "died", "1982"),
    Triple("Obama", "profession", "lawyer"),
    Triple("Obama", "religion", "Christian"),
    Triple("Obama", "age", "50"),
    Triple("Obama", "support", "White Sox"),
    Triple("Obama", "spouse", "Michelle"),
    Triple("Obama", "administered by", "John G. Roberts"),
    Triple("Obama", "surgical operation", "05/01/2011"),
    Triple("Obama", "profession", "community organizer"),
)

#: Gold truth of t1..t10 (the "Correct?" column of Figure 1a).
LABELS = (True, False, True, True, False, True, True, False, False, True)

#: provides[i][j] == 1 iff extractor S_{i+1} outputs triple t_{j+1}.
PROVIDES = (
    #  t1 t2 t3 t4 t5 t6 t7 t8 t9 t10
    (1, 1, 0, 0, 0, 1, 1, 1, 1, 1),  # S1
    (1, 1, 0, 1, 1, 0, 1, 1, 1, 0),  # S2
    (0, 0, 1, 1, 1, 0, 1, 0, 0, 1),  # S3
    (1, 0, 0, 1, 0, 1, 0, 1, 1, 1),  # S4
    (1, 0, 0, 1, 0, 1, 0, 1, 1, 1),  # S5
)

#: Per-source (recall, false-positive-rate) used in Example 3.3; the recalls
#: match Figure 1b and the q's are stated by the example.
EXAMPLE_RECALLS = (2 / 3, 0.5, 2 / 3, 2 / 3, 2 / 3)
EXAMPLE_FPRS = (0.5, 2 / 3, 1 / 6, 1 / 3, 1 / 3)


def figure1_dataset() -> FusionDataset:
    """The motivating example as a :class:`FusionDataset`.

    Matrix columns are ordered t1..t10, so column ``j`` is triple
    ``t_{j+1}`` and the labels line up with Figure 1a's "Correct?" column.
    """
    index = TripleIndex(TRIPLES)
    matrix = ObservationMatrix(
        np.array(PROVIDES, dtype=bool),
        SOURCE_NAMES,
        triple_index=index,
    )
    labels = np.array(LABELS, dtype=bool)
    return FusionDataset(
        name="figure1",
        observations=matrix,
        labels=labels,
        description=(
            "Paper Figure 1: five extractors on the Barack Obama Wikipedia "
            "page; 10 triples, 6 true"
        ),
        metadata={"paper_section": "1"},
    )


def example_source_qualities() -> list[SourceQuality]:
    """Per-source quality with the q's *stated* in Example 3.3.

    Precision values are from Figure 1b (used only for reporting; the fusers
    consume recall and q).
    """
    precisions = (4 / 7, 3 / 7, 4 / 5, 4 / 6, 4 / 6)
    return [
        SourceQuality(
            name=SOURCE_NAMES[i],
            precision=precisions[i],
            recall=EXAMPLE_RECALLS[i],
            false_positive_rate=EXAMPLE_FPRS[i],
        )
        for i in range(5)
    ]


def example_parameter_model() -> ExplicitJointModel:
    """The *given* joint parameters behind Examples 4.4/4.7/4.10 and Figure 3.

    The paper fixes ``r_12345 = 0.11`` and ``q_12345 = 0.037`` and reports
    the aggressive factors ``C+ = (1, 1, 0.75, 1.5, 1.5)`` and
    ``C- = (2, 1, 1, 3, 3)`` (Figure 3).  Inverting Eq. 14-15 yields the
    leave-one-out joints used here; the derived ``r_1245 ~= 0.22`` and
    ``q_1245 ~= 0.22`` match the values quoted in Example 4.4.
    """
    r_all = 0.11
    q_all = 0.037
    c_plus = (1.0, 1.0, 0.75, 1.5, 1.5)
    c_minus = (2.0, 1.0, 1.0, 3.0, 3.0)
    joint_recalls: dict[frozenset[int], float] = {
        frozenset(range(5)): r_all,
    }
    joint_fprs: dict[frozenset[int], float] = {
        frozenset(range(5)): q_all,
    }
    for i in range(5):
        rest = frozenset(j for j in range(5) if j != i)
        joint_recalls[rest] = r_all / (c_plus[i] * EXAMPLE_RECALLS[i])
        joint_fprs[rest] = q_all / (c_minus[i] * EXAMPLE_FPRS[i])
    return ExplicitJointModel(
        example_source_qualities(),
        prior=0.5,
        joint_recalls=joint_recalls,
        joint_fprs=joint_fprs,
    )
