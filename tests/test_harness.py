"""The experiment harness and report rendering."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines import UnionKFuser
from repro.core import FusionResult
from repro.data import SyntheticConfig, generate, uniform_sources
from repro.eval import (
    Comparison,
    MethodSpec,
    comparison_table,
    curve_points,
    evaluate_result,
    format_table,
    paper_method_specs,
    quality_scatter,
    run_comparison,
    run_method,
    run_serving,
    run_sweep,
    runtime_table,
    supervised_spec,
    sweep_f1,
)


def small_dataset(seed=0):
    return generate(
        SyntheticConfig(
            sources=uniform_sources(5, 0.8, 0.5), n_triples=200, true_fraction=0.5
        ),
        seed=seed,
    )


class TestRunMethod:
    def test_evaluation_fields(self):
        dataset = small_dataset()
        spec = MethodSpec("Union-25", lambda ds: UnionKFuser(25))
        evaluation = run_method(dataset, spec)
        assert evaluation.method == "Union-25"
        assert 0.0 <= evaluation.precision <= 1.0
        assert 0.0 <= evaluation.auc_pr <= 1.0
        assert 0.0 <= evaluation.auc_roc <= 1.0
        assert evaluation.elapsed_seconds >= 0.0

    def test_supervised_spec_calibrates_on_labels(self):
        dataset = small_dataset()
        spec = supervised_spec("PrecRec", "precrec")
        evaluation = run_method(dataset, spec)
        assert evaluation.f1 > 0.5

    def test_evaluate_result_direct(self):
        labels = np.array([True, False, True, False])
        result = FusionResult(method="m", scores=np.array([0.9, 0.2, 0.8, 0.1]))
        evaluation = evaluate_result(result, labels)
        assert evaluation.f1 == 1.0
        assert evaluation.auc_roc == 1.0


class TestComparison:
    def test_run_comparison_and_lookup(self):
        dataset = small_dataset()
        specs = [
            MethodSpec("Union-25", lambda ds: UnionKFuser(25)),
            supervised_spec("PrecRec", "precrec"),
        ]
        comparison = run_comparison(dataset, specs)
        assert comparison.methods == ["Union-25", "PrecRec"]
        assert comparison["PrecRec"].method == "PrecRec"
        with pytest.raises(KeyError):
            comparison["nope"]
        assert comparison.best_by_f1().method in comparison.methods

    def test_paper_specs_line_up(self):
        specs = paper_method_specs()
        names = [s.name for s in specs]
        assert names == [
            "Union-25", "Union-50", "Union-75",
            "3-Estimates", "LTM", "PrecRec", "PrecRecCorr",
        ]


class TestRunServing:
    def test_serving_report_fields_and_drift(self):
        report = run_serving(small_dataset(), method="precreccorr", repeats=3)
        assert report.repeats == 3
        assert report.method == "PrecRecCorr"
        assert report.fit_seconds >= 0.0
        assert report.cold_seconds > 0.0
        assert len(report.warm_seconds) == 3
        assert report.warm_best_seconds <= report.warm_mean_seconds
        # The warm path serves from the compiled-plan cache: scores must
        # not drift from the cold run at all.
        assert report.max_warm_drift == 0.0
        assert isinstance(report.result, FusionResult)

    def test_checkpointed_loop_logs_every_step_and_never_degrades(
        self, tmp_path
    ):
        report = run_serving(
            small_dataset(), repeats=12, mutate_frac=0.05, mutate_seed=1,
            refit_every=4, refit_mode="delta",
            checkpoint_dir=str(tmp_path), snapshot_every=2,
        )
        assert report.max_warm_drift == 0.0
        stats = report.checkpoint_stats
        assert not stats["degraded"]
        # One WAL record per mutation step plus a begin/publish pair per
        # refit; snapshot 0, then one every ``snapshot_every`` refits.
        assert stats["mutations"] == 12
        assert stats["refits"] == 3
        assert stats["records"] == 12 + 2 * 3
        assert stats["snapshots"] == 1 + 3 // 2

    def test_zero_repeats_allowed(self):
        report = run_serving(small_dataset(), repeats=0)
        assert report.repeats == 0
        assert np.isnan(report.warm_mean_seconds)
        # An unmeasured warm path must not claim an infinite speedup.
        assert np.isnan(report.cold_over_warm)

    def test_negative_repeats_rejected(self):
        with pytest.raises(ValueError, match="repeats"):
            run_serving(small_dataset(), repeats=-1)


class TestSweeps:
    def test_sweep_f1_averages(self):
        specs = [MethodSpec("Union-50", lambda ds: UnionKFuser(50))]
        point = sweep_f1("cfg", small_dataset, specs, repetitions=3)
        assert point.label == "cfg"
        assert 0.0 <= point.mean_f1["Union-50"] <= 1.0
        assert point.std_f1["Union-50"] >= 0.0

    def test_run_sweep_multiple_points(self):
        specs = [MethodSpec("Union-50", lambda ds: UnionKFuser(50))]
        points = run_sweep(
            [("a", small_dataset), ("b", small_dataset)], specs, repetitions=2
        )
        assert [p.label for p in points] == ["a", "b"]

    def test_invalid_repetitions(self):
        with pytest.raises(ValueError):
            sweep_f1("cfg", small_dataset, [], repetitions=0)


class TestReportRendering:
    def test_format_table_alignment(self):
        table = format_table(["name", "v"], [["a", 0.12345], ["bb", 2]])
        lines = table.splitlines()
        assert len(lines) == 4
        assert "0.123" in table
        assert lines[0].index("v") == lines[2].index("0.123")

    def test_comparison_table_contains_methods(self):
        dataset = small_dataset()
        comparison = run_comparison(
            dataset, [MethodSpec("Union-25", lambda ds: UnionKFuser(25))]
        )
        text = comparison_table(comparison)
        assert "Union-25" in text
        assert "AUC-PR" in text
        assert dataset.name in text

    def test_runtime_table_cells(self):
        dataset = small_dataset()
        comparison = run_comparison(
            dataset, [MethodSpec("Union-25", lambda ds: UnionKFuser(25))]
        )
        text = runtime_table({"synthetic": comparison})
        assert "Union-25" in text
        assert "synthetic" in text

    def test_sweep_table(self):
        from repro.eval import sweep_table

        specs = [MethodSpec("Union-50", lambda ds: UnionKFuser(50))]
        points = run_sweep([("p1", small_dataset)], specs, repetitions=1)
        text = sweep_table(points, ["Union-50"])
        assert "p1" in text

    def test_curve_points_downsampling(self):
        dataset = small_dataset()
        evaluation = run_method(
            dataset, MethodSpec("Union-25", lambda ds: UnionKFuser(25))
        )
        text = curve_points(evaluation.pr, max_points=5)
        assert text.count("(") <= 5
        assert "area=" in text

    def test_quality_scatter_clipping(self):
        text = quality_scatter(
            [f"s{i}" for i in range(20)], [0.5] * 20, [0.5] * 20, max_rows=5
        )
        assert "15 more sources" in text
