"""Figure 1 and the worked examples: the motivating-example tables.

Regenerates, from the reconstructed Figure 1a matrix:

- Figure 1b (per-source precision/recall and joint precision/recall);
- Figure 1c (Union-25/50/75 precision/recall/F-measure);
- Figure 3 (aggressive correlation factors C+ / C-);
- the Section 2.3 overview rows (PrecRec and PrecRecCorr on the example);
- the Example 3.3 / 4.4 / 4.7 / 4.10 probabilities for t2 and t8.
"""

from __future__ import annotations

import numpy as np

from repro.baselines import UnionKFuser
from repro.core import (
    AggressiveFuser,
    ElasticFuser,
    ExactCorrelationFuser,
    PrecRecFuser,
    estimate_source_quality,
    fit_model,
    fuse,
)
from repro.data import figure1_dataset
from repro.data.figure1 import example_parameter_model
from repro.eval import binary_metrics, format_table
from repro.util.probability import probability_from_mu

from _helpers import emit

T8 = (frozenset({0, 1, 3, 4}), frozenset({2}))
T2 = (frozenset({0, 1}), frozenset({2, 3, 4}))


def posterior(fuser, pattern):
    """``Pr(t | Ot)`` of one ``(providers, silent)`` pattern."""
    return probability_from_mu(fuser.pattern_mu(*pattern), fuser.prior)


def bench_figure1b_source_quality(benchmark):
    dataset = figure1_dataset()

    def compute():
        return estimate_source_quality(dataset.observations, dataset.labels, prior=0.5)

    qualities = benchmark(compute)
    rows = [[q.name, q.precision, q.recall] for q in qualities]
    model = fit_model(dataset.observations, dataset.labels, prior=0.5)
    joint_rows = [
        ["S2S3", model.joint_precision([1, 2]), model.joint_recall([1, 2])],
        ["S1S3", model.joint_precision([0, 2]), model.joint_recall([0, 2])],
        ["S1S2S4", model.joint_precision([0, 1, 3]), model.joint_recall([0, 1, 3])],
        ["S1S4S5", model.joint_precision([0, 3, 4]), model.joint_recall([0, 3, 4])],
    ]
    emit(
        "figure1b",
        format_table(["source", "precision", "recall"], rows, float_digits=2)
        + "\n\n"
        + format_table(["subset", "joint prec", "joint rec"], joint_rows, float_digits=2),
    )


def bench_figure1c_voting(benchmark):
    dataset = figure1_dataset()

    def compute():
        rows = []
        for k in (25, 50, 75):
            result = UnionKFuser(k).fuse(dataset.observations)
            m = binary_metrics(result.accepted, dataset.labels)
            rows.append([f"Union-{k}", m.precision, m.recall, m.f1])
        return rows

    rows = benchmark(compute)
    emit(
        "figure1c",
        format_table(["method", "precision", "recall", "F-measure"], rows,
                     float_digits=2),
    )


def bench_section23_overview(benchmark):
    dataset = figure1_dataset()

    def compute():
        rows = []
        for method in ("precrec", "precreccorr"):
            result = fuse(dataset.observations, dataset.labels, method=method,
                          prior=0.5)
            m = binary_metrics(result.accepted, dataset.labels)
            rows.append([result.method, m.precision, m.recall, m.f1])
        return rows

    rows = benchmark(compute)
    emit(
        "section2.3_overview",
        format_table(["method", "precision", "recall", "F-measure"], rows,
                     float_digits=2)
        + "\n(paper: PrecRec .75/1/.86; PrecRecCorr 1/.83/.91)",
    )


def bench_figure3_aggressive_factors(benchmark):
    model = example_parameter_model()

    def compute():
        return model.aggressive_factors()

    c_plus, c_minus = benchmark(compute)
    rows = [
        ["C+"] + list(np.round(c_plus, 2)),
        ["C-"] + list(np.round(c_minus, 2)),
    ]
    emit(
        "figure3",
        format_table(["factor", "S1", "S2", "S3", "S4", "S5"], rows, float_digits=2)
        + "\n(paper: C+ = 1, 1, 0.75, 1.5, 1.5; C- = 2, 1, 1, 3, 3)",
    )


def bench_worked_examples(benchmark):
    """Examples 3.3 / 4.4 / 4.7 / 4.10 on the paper's given parameters."""
    model = example_parameter_model()

    def compute():
        precrec = PrecRecFuser(model)
        exact = ExactCorrelationFuser(model)
        aggressive = AggressiveFuser(model)
        return [
            ["Pr(t2) PrecRec (Ex 3.3)", posterior(precrec, T2), 0.09],
            ["Pr(t8) PrecRec (Ex 3.3)", posterior(precrec, T8), 0.62],
            ["Pr(t8) exact (Ex 4.4)", posterior(exact, T8), 0.37],
            ["mu(t8) aggressive (Ex 4.7)", aggressive.pattern_mu(*T8), 0.30],
            ["Pr(t8) aggressive (Ex 4.7)", posterior(aggressive, T8), 0.23],
            ["mu(t8) elastic-0 (Ex 4.10)",
             ElasticFuser(model, level=0).pattern_mu(*T8), 0.60],
            ["mu(t8) elastic-1 (Ex 4.10)",
             ElasticFuser(model, level=1).pattern_mu(*T8), 0.59],
        ]

    rows = benchmark(compute)
    emit(
        "worked_examples",
        format_table(["quantity", "measured", "paper"], rows, float_digits=3),
    )
