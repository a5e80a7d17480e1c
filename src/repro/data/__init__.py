"""Datasets: the motivating example, synthetic generators, and simulators
of the paper's three real-world datasets (REVERB, RESTAURANT, BOOK).

The three "real" datasets are statistical simulators matching every
characteristic the paper publishes (source counts, gold composition,
quality bands, correlation structure); see DESIGN.md's substitution table.
"""

from repro.data.book import book_dataset
from repro.data.crowd import CrowdLabelReport, crowd_labels
from repro.data.extraction import (
    Corpus,
    ExtractorSpec,
    Pattern,
    build_corpus,
    run_extractors,
)
from repro.data.figure1 import (
    example_parameter_model,
    example_source_qualities,
    figure1_dataset,
)
from repro.data.model import FusionDataset
from repro.data.registry import available_datasets, get_dataset
from repro.data.restaurant import restaurant_dataset
from repro.data.reverb import reverb_dataset
from repro.data.synthetic import (
    CorrelationGroup,
    SourceSpec,
    SyntheticConfig,
    generate,
    trim_to_counts,
    uniform_sources,
)

__all__ = [
    "Corpus",
    "available_datasets",
    "get_dataset",
    "CorrelationGroup",
    "CrowdLabelReport",
    "ExtractorSpec",
    "FusionDataset",
    "Pattern",
    "SourceSpec",
    "SyntheticConfig",
    "book_dataset",
    "build_corpus",
    "crowd_labels",
    "example_parameter_model",
    "example_source_qualities",
    "figure1_dataset",
    "generate",
    "restaurant_dataset",
    "reverb_dataset",
    "run_extractors",
    "trim_to_counts",
    "uniform_sources",
]
