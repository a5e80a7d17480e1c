"""Named dataset registry: one string gets you any benchmark dataset.

Used by the CLI and handy in notebooks::

    from repro.data.registry import get_dataset
    dataset = get_dataset("reverb", seed=11)
"""

from __future__ import annotations

from typing import Any, Callable, Mapping

from repro.data.book import book_dataset
from repro.data.figure1 import figure1_dataset
from repro.data.model import FusionDataset
from repro.data.restaurant import restaurant_dataset
from repro.data.reverb import reverb_dataset
from repro.data.synthetic import (
    CorrelationGroup,
    SyntheticConfig,
    generate,
    uniform_sources,
)
from repro.util.rng import RngLike


def _figure1(seed: RngLike = None, **_: Any) -> FusionDataset:
    return figure1_dataset()  # deterministic; seed ignored


def _synthetic_independent(seed: RngLike = 0, **kwargs: Any) -> FusionDataset:
    config = SyntheticConfig(
        sources=uniform_sources(
            kwargs.get("n_sources", 5),
            kwargs.get("precision", 0.75),
            kwargs.get("recall", 0.5),
        ),
        n_triples=kwargs.get("n_triples", 1000),
        true_fraction=kwargs.get("true_fraction", 0.5),
        name="synthetic-independent",
    )
    return generate(config, seed=seed)


def _synthetic_correlated(seed: RngLike = 0, **kwargs: Any) -> FusionDataset:
    config = SyntheticConfig(
        sources=uniform_sources(
            kwargs.get("n_sources", 5),
            kwargs.get("precision", 0.6),
            kwargs.get("recall", 0.4),
        ),
        n_triples=kwargs.get("n_triples", 1000),
        true_fraction=kwargs.get("true_fraction", 0.5),
        groups=(
            CorrelationGroup(members=(0, 1, 2, 3), mode="overlap_true",
                             strength=0.9),
        ),
        name="synthetic-correlated",
    )
    return generate(config, seed=seed)


def _synthetic_wide(seed: RngLike = 17, **kwargs: Any) -> FusionDataset:
    """The chaos/serving workload: eight sources (three of them
    correlated) over 960 triples, so request windows carry many distinct
    patterns."""
    config = SyntheticConfig(
        sources=uniform_sources(
            kwargs.get("n_sources", 8),
            kwargs.get("precision", 0.65),
            kwargs.get("recall", 0.45),
        ),
        n_triples=kwargs.get("n_triples", 960),
        true_fraction=kwargs.get("true_fraction", 0.5),
        groups=(
            CorrelationGroup(members=(0, 1, 2), mode="overlap_true",
                             strength=0.85),
        ),
        name="synthetic-wide",
    )
    return generate(config, seed=seed)


_REGISTRY: Mapping[str, Callable[..., FusionDataset]] = {
    "figure1": _figure1,
    "reverb": reverb_dataset,
    "restaurant": restaurant_dataset,
    "book": book_dataset,
    "synthetic-independent": _synthetic_independent,
    "synthetic-correlated": _synthetic_correlated,
    "synthetic-wide": _synthetic_wide,
}

#: Default seeds matching the benchmark suite, so `get_dataset("reverb")`
#: reproduces exactly the dataset the benches report on.
_DEFAULT_SEEDS = {
    "reverb": 11,
    "restaurant": 23,
    "book": 42,
    "synthetic-independent": 0,
    "synthetic-correlated": 0,
    "synthetic-wide": 17,
}


def available_datasets() -> tuple[str, ...]:
    """Registered dataset names."""
    return tuple(sorted(_REGISTRY))


def get_dataset(
    name: str, seed: RngLike = None, **kwargs: Any
) -> FusionDataset:
    """Build a registered dataset by name.

    ``seed`` defaults to the benchmark suite's canonical seed for that
    dataset; extra keyword arguments are forwarded to the factory (the
    synthetic entries accept ``n_sources`` / ``precision`` / ``recall`` /
    ``n_triples`` / ``true_fraction``).
    """
    key = name.lower()
    factory = _REGISTRY.get(key)
    if factory is None:
        raise KeyError(
            f"unknown dataset {name!r}; available: {', '.join(available_datasets())}"
        )
    if seed is None:
        seed = _DEFAULT_SEEDS.get(key)
    return factory(seed=seed, **kwargs)
