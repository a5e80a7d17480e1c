"""Shared fixtures: the Figure 1 example and synthetic workloads."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import EmpiricalJointModel, ObservationMatrix, fit_model
from repro.data import (
    CorrelationGroup,
    FusionDataset,
    SyntheticConfig,
    figure1_dataset,
    generate,
    uniform_sources,
)
from repro.data.figure1 import example_parameter_model

#: Provider sets of the Figure 1 triples (0-based source ids), t1..t10.
FIGURE1_PROVIDERS = (
    {0, 1, 3, 4},     # t1
    {0, 1},           # t2
    {2},              # t3
    {1, 2, 3, 4},     # t4
    {1, 2},           # t5
    {0, 3, 4},        # t6
    {0, 1, 2},        # t7
    {0, 1, 3, 4},     # t8
    {0, 1, 3, 4},     # t9
    {0, 2, 3, 4},     # t10
)


@pytest.fixture(scope="session")
def figure1() -> FusionDataset:
    return figure1_dataset()


@pytest.fixture(scope="session")
def figure1_model(figure1) -> EmpiricalJointModel:
    """Empirical joint model fitted on the Figure 1 gold standard, alpha=0.5."""
    return fit_model(figure1.observations, figure1.labels, prior=0.5)


@pytest.fixture(scope="session")
def example_model():
    """The paper's *given* parameters for Examples 4.4 / 4.7 / 4.10, Figure 3."""
    return example_parameter_model()


@pytest.fixture()
def small_independent() -> FusionDataset:
    """A small independent-source synthetic dataset (fast, deterministic)."""
    config = SyntheticConfig(
        sources=uniform_sources(4, precision=0.8, recall=0.6),
        n_triples=300,
        true_fraction=0.5,
    )
    return generate(config, seed=1234)


@pytest.fixture(scope="session")
def book_like():
    """Factory of BOOK-like wide grids: ``book_like(n_sources, n_triples)``.

    Planted correlation groups on both sides (6 true-side and 6
    false-side members); from 32 sources on, a third, 14-member
    false-side group is wider than a clustered fuser's
    ``exact_cluster_limit=12`` and gets an elastic evaluator.
    """

    def build(n_sources: int, n_triples: int, seed: int = 17):
        groups = [
            CorrelationGroup(
                members=(0, 1, 2, 3, 4, 5), mode="overlap_true",
                strength=0.9,
            ),
            CorrelationGroup(
                members=(6, 7, 8, 9, 10, 11), mode="overlap_false",
                strength=0.9,
            ),
        ]
        if n_sources >= 32:
            groups.append(
                CorrelationGroup(
                    members=tuple(range(12, 26)), mode="overlap_false",
                    strength=0.85,
                )
            )
        config = SyntheticConfig(
            sources=uniform_sources(n_sources, precision=0.65, recall=0.35),
            n_triples=n_triples,
            true_fraction=0.5,
            groups=tuple(groups),
        )
        return generate(config, seed=seed)

    return build


@pytest.fixture()
def tiny_matrix() -> ObservationMatrix:
    """3 sources x 4 triples, hand-written."""
    provides = np.array(
        [
            [1, 1, 0, 0],
            [1, 0, 1, 0],
            [0, 1, 1, 1],
        ],
        dtype=bool,
    )
    return ObservationMatrix(provides, ["A", "B", "C"])
