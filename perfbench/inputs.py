"""Seeded input generation for the benchmark workloads.

Everything here is plain numpy driven by one ``numpy.random.Generator``,
so the same seed always yields the same datasets, update steps and
request windows.  The program under test only ever sees the resulting
:class:`repro.ObservationMatrix` objects and label vectors.

Every dataset has the same shape: ``N_SOURCES`` sources of random
quality over ``n_triples`` candidate triples, half of them true, with
four planted groups of positively correlated sources and per-domain
coverage gaps.  32 sources is past the exact solver's limit, so
``method="precreccorr"`` takes the clustered route: correlation
detection, per-cluster inclusion-exclusion plans, joint-model look-ups.

Updates re-draw whole triple columns from the same source model (a
source re-delivers its claims about a triple), so a long stream keeps
the dataset's statistics -- and the cost of scoring it -- stationary.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import ObservationMatrix

N_SOURCES = 32
N_DOMAINS = 8
COVERAGE = 0.95
TRUE_FRACTION = 0.5
#: Source groups that share a template with probability GROUP_STRENGTH.
GROUPS = ((0, 1, 2, 3), (6, 7, 8), (12, 13, 14, 15, 16), (20, 21))
GROUP_STRENGTH = 0.8
NAMES = tuple(f"s{i:02d}" for i in range(N_SOURCES))


@dataclass(frozen=True)
class Dataset:
    observations: ObservationMatrix
    labels: np.ndarray
    #: Per-source rates the claims were drawn with, for re-draws.
    recall: np.ndarray
    fpr: np.ndarray


def _draw(
    rng: np.random.Generator,
    labels: np.ndarray,
    recall: np.ndarray,
    fpr: np.ndarray,
) -> np.ndarray:
    """Claims of every source about triples with truth ``labels``."""
    n = labels.size
    draws = rng.random((N_SOURCES, n))
    provides = np.where(labels, draws < recall[:, None], draws < fpr[:, None])
    for members in GROUPS:
        template = rng.random(n)
        shared = rng.random((len(members), n)) < GROUP_STRENGTH
        for k, source in enumerate(members):
            copied = np.where(
                labels, template < recall[source], template < fpr[source]
            )
            provides[source] = np.where(shared[k], copied, provides[source])
    return provides


def make_dataset(rng: np.random.Generator, n_triples: int) -> Dataset:
    """One labelled dataset of ``N_SOURCES`` x (about) ``n_triples``."""
    labels = rng.random(n_triples) < TRUE_FRACTION
    recall = rng.uniform(0.35, 0.65, N_SOURCES)
    fpr = rng.uniform(0.08, 0.25, N_SOURCES)
    provides = _draw(rng, labels, recall, fpr)
    domain = rng.integers(0, N_DOMAINS, n_triples)
    covers_domain = rng.random((N_SOURCES, N_DOMAINS)) < COVERAGE
    coverage = covers_domain[:, domain] | provides
    keep = provides.any(axis=0)
    matrix = ObservationMatrix(
        provides[:, keep], NAMES, coverage=coverage[:, keep]
    )
    return Dataset(matrix, labels[keep], recall, fpr)


def redraw(
    data: Dataset,
    current: ObservationMatrix,
    labels: np.ndarray,
    rng: np.random.Generator,
    columns: int,
) -> ObservationMatrix:
    """``current`` with the claims in ``columns`` random triples re-drawn.

    ``labels`` are the truth of ``current``'s columns; coverage stays put
    and new claims stay inside it.
    """
    picked = np.sort(
        rng.choice(current.n_triples, size=columns, replace=False)
    )
    provides = current.provides.copy()
    fresh = _draw(rng, labels[picked], data.recall, data.fpr)
    provides[:, picked] = fresh & current.coverage[:, picked]
    return ObservationMatrix(provides, NAMES, coverage=current.coverage)


def window(
    observations: ObservationMatrix, start: int, width: int
) -> ObservationMatrix:
    """The ``width`` triple columns starting at ``start``."""
    cols = slice(start, start + width)
    return ObservationMatrix(
        observations.provides[:, cols],
        NAMES,
        coverage=observations.coverage[:, cols],
    )


def splice(
    observations: ObservationMatrix, start: int, part: ObservationMatrix
) -> ObservationMatrix:
    """``observations`` with columns from ``start`` replaced by ``part``."""
    provides = observations.provides.copy()
    cols = slice(start, start + part.n_triples)
    provides[:, cols] = part.provides
    coverage = observations.coverage.copy()
    coverage[:, cols] = part.coverage
    return ObservationMatrix(provides, NAMES, coverage=coverage)
