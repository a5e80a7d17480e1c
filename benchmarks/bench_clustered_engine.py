"""Clustered fuser: cold and warm scoring on BOOK-like wide grids.

The BOOK dataset is the paper's motivation for the clustered fuser: hundreds
of sources, correlation clusters discovered per side, per-cluster exact (or
elastic) likelihoods under cross-cluster independence.  This benchmark
times ``ClusteredCorrelationFuser.score`` -- per-cluster sub-pattern dedup,
one batched union-plan evaluation per evaluator, and a vectorized
gather-sum recombination -- on BOOK-like wide grids (>= 24 sources, planted
correlation groups on both sides, plus one oversized group exercising the
elastic path on the widest cells):

- **cold**: the first ``score`` call of a fresh fuser (restriction,
  collect, compile, model evaluation);
- **warm**: the same call again, served from the fuser's digest-keyed
  plan cache.

Warm scores must be *bit-identical* to cold ones (max |diff| exactly 0.0);
the run fails otherwise.  Agreement with the paper's per-pattern
definitions is checked in tier-1:
``TestClusteredEngineEquivalence::test_oversized_clusters_route_through_elastic_batch``
(``tests/test_pattern_engine.py``) and ``TestEvaluatorGroupedScoring``
(``tests/test_clustering.py``) compare the clustered scores with
``tests/reference.py`` on cells where a cluster is wider than
``exact_cluster_limit``, so the elastic evaluator is covered.  Results
land in ``benchmarks/results/BENCH_clustered_engine.json`` so the perf
trajectory across PRs stays machine-readable.

Runnable two ways::

    PYTHONPATH=src python -m pytest benchmarks/bench_clustered_engine.py --benchmark-only
    PYTHONPATH=src python benchmarks/bench_clustered_engine.py [--quick]

The ``--quick`` flag (used by CI's smoke job) restricts the grid to its
smallest cell.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

if __name__ == "__main__":  # allow plain `python benchmarks/bench_clustered_engine.py`
    sys.path.insert(0, str(Path(__file__).parent))

from _helpers import RESULTS_DIR, emit
from repro.core import ClusteredCorrelationFuser, ElasticFuser, fit_model
from repro.data import CorrelationGroup, SyntheticConfig, generate, uniform_sources
from repro.eval import format_table

JSON_PATH = RESULTS_DIR / "BENCH_clustered_engine.json"

#: BOOK-like widths: all beyond ``EXACT_SOURCE_LIMIT``, where ``precreccorr``
#: routes to the clustered fuser.
SOURCE_GRID = (24, 32, 48)
TRIPLE_GRID = (1500, 4000)

#: Clusters wider than this use the elastic evaluator (the fuser default).
EXACT_CLUSTER_LIMIT = 12


def _workload(n_sources: int, n_triples: int, seed: int = 17):
    """BOOK-like wide matrix with planted correlation groups on both sides.

    Two mid-size groups (true-side and false-side) land in exact per-cluster
    evaluation; on grids of >= 32 sources a third, oversized group (14
    members > ``EXACT_CLUSTER_LIMIT``) routes through the elastic path.
    """
    groups = [
        CorrelationGroup(members=(0, 1, 2, 3, 4, 5), mode="overlap_true",
                         strength=0.9),
        CorrelationGroup(members=(6, 7, 8, 9, 10, 11), mode="overlap_false",
                         strength=0.9),
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


def _time_scoring(fuser, observations) -> tuple[float, np.ndarray]:
    start = time.perf_counter()
    scores = fuser.score(observations)
    return time.perf_counter() - start, scores


def run_grid(source_grid=SOURCE_GRID, triple_grid=TRIPLE_GRID) -> list[dict]:
    """Time every (sources, triples) cell cold and warm."""
    rows: list[dict] = []
    for n_triples in triple_grid:
        for n_sources in source_grid:
            dataset = _workload(n_sources, n_triples)
            model = fit_model(dataset.observations, dataset.labels)
            # Partition discovery runs in the constructor, off the clock.
            fuser = ClusteredCorrelationFuser(
                model, exact_cluster_limit=EXACT_CLUSTER_LIMIT
            )
            cold_s, cold_scores = _time_scoring(fuser, dataset.observations)
            warm_s, warm_scores = _time_scoring(fuser, dataset.observations)
            n_elastic = sum(
                isinstance(e, ElasticFuser)
                for e in fuser._true_evaluators + fuser._false_evaluators
            )
            rows.append(
                {
                    "n_sources": n_sources,
                    "n_triples": dataset.observations.n_triples,
                    "cold_seconds": cold_s,
                    "warm_seconds": warm_s,
                    "max_abs_diff": float(
                        np.abs(cold_scores - warm_scores).max()
                    ),
                    "n_patterns": dataset.observations.patterns().n_patterns,
                    "true_cluster_sizes": list(fuser.true_partition.sizes),
                    "false_cluster_sizes": list(fuser.false_partition.sizes),
                    "n_elastic_evaluators": n_elastic,
                }
            )
    return rows


def _headline(rows: list[dict]) -> dict:
    """Summary stats, anchored on the largest grid configuration."""
    largest = max(rows, key=lambda r: (r["n_sources"], r["n_triples"]))
    return {
        "largest_config": {
            "n_sources": largest["n_sources"],
            "n_triples": largest["n_triples"],
        },
        "largest_config_cold_seconds": largest["cold_seconds"],
        "largest_config_warm_seconds": largest["warm_seconds"],
        "max_abs_diff": max(r["max_abs_diff"] for r in rows),
    }


def _render(rows: list[dict], headline: dict) -> str:
    table = format_table(
        ["sources", "triples", "patterns", "cold(s)", "warm(s)",
         "max|diff|", "elastic"],
        [
            [r["n_sources"], r["n_triples"], r["n_patterns"],
             r["cold_seconds"], r["warm_seconds"], r["max_abs_diff"],
             r["n_elastic_evaluators"]]
            for r in rows
        ],
    )
    cfg = headline["largest_config"]
    return (
        table
        + f"\nlargest config ({cfg['n_sources']} sources x "
        f"{cfg['n_triples']} triples): "
        f"cold {headline['largest_config_cold_seconds']:.3f} s, "
        f"warm {headline['largest_config_warm_seconds']:.4f} s; "
        f"max |warm - cold| {headline['max_abs_diff']:.1e}"
    )


def _persist(rows: list[dict], headline: dict) -> None:
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    JSON_PATH.write_text(
        json.dumps({"headline": headline, "rows": rows}, indent=2) + "\n"
    )


def bench_clustered_engine(benchmark):
    rows = benchmark.pedantic(run_grid, rounds=1, iterations=1)
    headline = _headline(rows)
    _persist(rows, headline)
    emit("clustered_engine", _render(rows, headline))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick", action="store_true",
        help="smallest grid cell only (CI smoke)",
    )
    args = parser.parse_args(argv)
    if args.quick:
        rows = run_grid(source_grid=(24,), triple_grid=(800,))
    else:
        rows = run_grid()
    headline = _headline(rows)
    _persist(rows, headline)
    print(_render(rows, headline))
    if headline["max_abs_diff"] != 0.0:
        print(
            "ERROR: warm scores are not bit-identical to cold scores",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
