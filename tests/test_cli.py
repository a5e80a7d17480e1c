"""The dataset registry and the command-line interface."""

from __future__ import annotations

import re

import numpy as np
import pytest

from repro.cli import main
from repro.core import ScoringSession, faults
from repro.data import available_datasets, get_dataset


class TestRegistry:
    def test_all_names_listed(self):
        names = available_datasets()
        for expected in ("figure1", "reverb", "restaurant", "book"):
            assert expected in names

    def test_default_seed_matches_bench_suite(self):
        a = get_dataset("reverb")
        b = get_dataset("reverb", seed=11)
        assert np.array_equal(a.observations.provides, b.observations.provides)

    def test_synthetic_kwargs_forwarded(self):
        dataset = get_dataset(
            "synthetic-independent", seed=1, n_sources=3, n_triples=100
        )
        assert dataset.n_sources == 3

    def test_unknown_name(self):
        with pytest.raises(KeyError, match="unknown dataset"):
            get_dataset("mystery")

    def test_case_insensitive(self):
        assert get_dataset("FIGURE1").name == "figure1"


class TestCli:
    def test_datasets_command(self, capsys):
        assert main(["datasets"]) == 0
        out = capsys.readouterr().out
        assert "figure1" in out and "reverb" in out

    def test_fuse_command(self, capsys):
        assert main(["fuse", "--dataset", "figure1", "--method", "precreccorr"]) == 0
        out = capsys.readouterr().out
        assert "PrecRecCorr" in out
        assert "F1" in out

    def test_fuse_em_command(self, capsys):
        # Regression: the CLI forwards decision_prior unconditionally, which
        # used to reach the EM constructor and crash with TypeError.
        assert main(["fuse", "--dataset", "figure1", "--method", "em"]) == 0
        out = capsys.readouterr().out
        assert "PrecRec-EM" in out

    def test_fuse_em_incompatible_option_gets_clean_error(self, capsys):
        code = main(
            ["fuse", "--dataset", "figure1", "--method", "em",
             "--smoothing", "0.2"]
        )
        assert code == 2
        captured = capsys.readouterr()
        assert "smoothing" in captured.err
        assert "Traceback" not in captured.err

    def test_fuse_em_decision_prior_gets_clean_error(self, capsys):
        code = main(
            ["fuse", "--dataset", "figure1", "--method", "em",
             "--decision-prior", "0.5"]
        )
        assert code == 2
        captured = capsys.readouterr()
        assert "decision_prior" in captured.err
        assert "Traceback" not in captured.err

    def test_fuse_repeat_reports_serving_timings(self, capsys):
        assert main(
            ["fuse", "--dataset", "restaurant", "--repeat", "4"]
        ) == 0
        out = capsys.readouterr().out
        assert "serving:" in out
        assert "3 identical repeats" in out
        assert "max warm drift 0.0e+00" in out
        assert "delta paths" in out

    def test_fuse_repeat_replays_a_mutation_trace(self, capsys):
        assert main(
            ["fuse", "--dataset", "restaurant", "--repeat", "4",
             "--mutate-frac", "0.05"]
        ) == 0
        out = capsys.readouterr().out
        assert "mutation-trace steps (5.0% columns/step)" in out
        assert "max warm drift 0.0e+00" in out
        assert "plan cache" in out and "delta paths" in out
        assert "joint cache" not in out  # the dead joint cache is gone

    def test_fuse_mutate_frac_requires_repeats(self, capsys):
        code = main(
            ["fuse", "--dataset", "figure1", "--mutate-frac", "0.1"]
        )
        assert code == 2
        assert "--mutate-frac" in capsys.readouterr().err

    def test_fuse_repeat_works_for_em(self, capsys):
        assert main(
            ["fuse", "--dataset", "figure1", "--method", "em",
             "--repeat", "2"]
        ) == 0
        out = capsys.readouterr().out
        assert "serving:" in out

    def test_fuse_repeat_rejects_non_positive_counts(self, capsys):
        code = main(["fuse", "--dataset", "figure1", "--repeat", "0"])
        assert code == 2
        assert "--repeat" in capsys.readouterr().err

    def test_fuse_scores_csv(self, tmp_path, capsys):
        target = tmp_path / "scores.csv"
        assert main(
            ["fuse", "--dataset", "figure1", "--scores-csv", str(target)]
        ) == 0
        lines = target.read_text().strip().splitlines()
        assert lines[0] == "triple,score,accepted,gold"
        assert len(lines) == 11  # header + 10 triples

    def test_fuse_calibrated_prior_flag(self, capsys):
        assert main(
            ["fuse", "--dataset", "figure1", "--decision-prior", "-1"]
        ) == 0

    def test_correlations_command(self, capsys):
        assert main(
            ["correlations", "--dataset", "synthetic-correlated",
             "--min-phi", "0.25"]
        ) == 0
        out = capsys.readouterr().out
        assert "true-side correlation groups" in out

    def test_compare_command_small(self, capsys):
        assert main(
            ["compare", "--dataset", "figure1", "--ltm-iterations", "10"]
        ) == 0
        out = capsys.readouterr().out
        for method in ("Union-25", "3-Estimates", "LTM", "PrecRec", "PrecRecCorr"):
            assert method in out

    def test_serve_bench_chaos_reuses_a_pre_armed_injector(self, capsys):
        # --chaos without --faults serves under an injector already armed
        # from $REPRO_FAULTS; the twins still verify fault-free.
        faults.install(faults.FaultPlan.from_spec("compile:raise:2:0"))
        try:
            code = main(
                ["serve-bench", "--dataset", "synthetic-correlated",
                 "--chaos", "--requests", "16", "--rate", "400"]
            )
        finally:
            faults.uninstall()
        captured = capsys.readouterr()
        assert code == 0, captured.err
        assert "compile:raise:2:0" in captured.out
        assert re.search(r"max \|served - twin\|\s+0\.0e\+00", captured.out)

    def test_serve_bench_exits_1_on_a_violated_invariant(
        self, capsys, monkeypatch
    ):
        # No fault plan: a request failure is a contract violation.
        real_score_batch = ScoringSession.score_batch

        def failing(self, matrices, **kwargs):
            outcome = real_score_batch(self, matrices, **kwargs)
            outcome.scores[0] = None
            outcome.errors[0] = LookupError("broken")
            return outcome

        monkeypatch.setattr(ScoringSession, "score_batch", failing)
        code = main(
            ["serve-bench", "--dataset", "synthetic-correlated",
             "--requests", "8", "--rate", "400"]
        )
        assert code == 1
        assert "without a fault plan" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ("--rate", "--budget"))
    def test_serve_bench_refuses_nan(self, capsys, flag):
        for value in ("nan", "0", "-1"):
            code = main(
                ["serve-bench", "--dataset", "restaurant", "--requests", "4",
                 flag, value]
            )
            assert code == 2
            assert (
                f"{flag} must be positive, got {float(value)!r}"
                in capsys.readouterr().err
            )

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])
