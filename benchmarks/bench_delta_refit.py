"""Delta-aware model refit vs a cold refit under streaming churn.

PR 5's delta engine made *scoring* a mutated matrix cheap, but every
time fresh training labels arrive the session still rebuilt its quality
model (and on the clustered route: correlation detection, significance
tests, partitions, and evaluators) from scratch.  This benchmark
measures PR 6's ``ScoringSession.refit_delta`` against the cold
``refit`` on the streaming shape it exists for: a handful of sources
re-deliver a contiguous window of triples between refits (source-local
churn), leaving most packed ``uint64`` words -- and most pair
contingency tables -- bit-unchanged.

- **delta refit** -- dirty-word popcount transport in the joint model,
  carried significance decisions, carried clean partition edges, and
  carried clean oversized-cluster evaluators.  Gate: delta refit >= 3x
  faster than cold on the 48x4000 BOOK-like grid at 1% churn.
- **bit-identity is always enforced** -- after every refit the delta
  session's scores must equal an independently cold-refitted session's
  with max |diff| exactly 0.0 (the whole point of transporting exact
  integer counts instead of floats).

The speedup gate is enforced on runners with >= 4 cores and *recorded
as skipped* below that (``_helpers.GATE_MIN_CORES``, the policy every
gated benchmark here shares: shared 1-core CI boxes time too noisily to
gate on).

Runnable two ways::

    PYTHONPATH=src python -m pytest benchmarks/bench_delta_refit.py --benchmark-only
    PYTHONPATH=src python benchmarks/bench_delta_refit.py [--smoke]

The ``--smoke`` flag (used by CI) restricts the run to a small grid
cell and fewer refits.  Results land in
``benchmarks/results/BENCH_delta_refit.json``.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

if __name__ == "__main__":  # allow plain `python benchmarks/bench_delta_refit.py`
    sys.path.insert(0, str(Path(__file__).parent))

from _helpers import GATE_MIN_CORES, RESULTS_DIR, available_cores, emit
from bench_clustered_engine import _workload
from repro.core import ObservationMatrix, ScoringSession
from repro.eval import format_table

JSON_PATH = RESULTS_DIR / "BENCH_delta_refit.json"

#: The BOOK-like serving cell shared with the clustered-engine and
#: delta-serving benchmarks; the gate anchors on (48, 4000).
FULL_GRID = ((48, 4000),)
SMOKE_GRID = ((24, 1200),)

#: Churn fractions: the contiguous re-delivered window as a fraction of
#: all triples (the "1-5% of triples" streaming regime).
CHURN_FRACS = (0.01, 0.05)

#: Sources whose delivery changes between consecutive refits.
DIRTY_SOURCES = 2

#: Refits measured per (cell, fraction); medians are reported.
FULL_REFITS = 12
SMOKE_REFITS = 4

REFIT_GATE = 3.0


def mutate_localized(
    observations: ObservationMatrix,
    frac: float,
    n_dirty_sources: int,
    rng: np.random.Generator,
) -> ObservationMatrix:
    """Source-local churn: k sources re-deliver one contiguous window.

    Random column-wise mutation (``mutation_trace``) touches nearly every
    source at realistic fractions, which models a full re-crawl, not a
    stream; streaming updates arrive per source and per batch, so churn
    here flips ~half the covered bits of ``n_dirty_sources`` random
    sources inside one random window of ``frac * n_triples`` columns.
    """
    provides = observations.provides.copy()
    coverage = observations.coverage.copy()
    n_sources, n_triples = provides.shape
    window = max(1, int(round(frac * n_triples)))
    start = int(rng.integers(0, n_triples - window + 1))
    cols = np.arange(start, start + window)
    for s in rng.choice(n_sources, size=n_dirty_sources, replace=False):
        flip = cols[(rng.random(window) < 0.5) & coverage[s, cols]]
        provides[s, flip] = ~provides[s, flip]
    return ObservationMatrix(
        provides, observations.source_names, coverage=coverage
    )


def measure_refit_stream(dataset, churn_frac: float, refits: int) -> dict:
    """One mutation stream, refitted delta and cold in lockstep."""
    labels = dataset.labels
    delta_session = ScoringSession(
        dataset.observations, labels, method="precreccorr"
    )
    cold_session = ScoringSession(
        dataset.observations, labels, method="precreccorr", delta="off"
    )
    delta_session.score(dataset.observations)
    cold_session.score(dataset.observations)

    rng = np.random.default_rng(int(churn_frac * 1000) + 17)
    matrix = dataset.observations
    delta_seconds: list[float] = []
    cold_seconds: list[float] = []
    max_diff = 0.0
    for _ in range(refits):
        matrix = mutate_localized(matrix, churn_frac, DIRTY_SOURCES, rng)
        start = time.perf_counter()
        delta_session.refit_delta(matrix, labels)
        delta_seconds.append(time.perf_counter() - start)
        start = time.perf_counter()
        cold_session.refit(matrix, labels)
        cold_seconds.append(time.perf_counter() - start)
        diff = np.abs(
            delta_session.score(matrix) - cold_session.score(matrix)
        )
        max_diff = max(max_diff, float(diff.max()) if diff.size else 0.0)

    stats = delta_session.cache_stats()["refit"]
    fractions = stats["dirty_word_fractions"]
    delta_median = float(np.median(delta_seconds))
    cold_median = float(np.median(cold_seconds))
    return {
        "kind": "refit_stream",
        "n_sources": dataset.observations.n_sources,
        "n_triples": dataset.observations.n_triples,
        "churn_frac": churn_frac,
        "dirty_sources": DIRTY_SOURCES,
        "refits": refits,
        "cold_median_seconds": cold_median,
        "delta_median_seconds": delta_median,
        "refit_speedup": (
            cold_median / delta_median if delta_median > 0 else float("inf")
        ),
        "delta_refits": stats["delta_refits"],
        "cold_fallbacks": stats["cold_refits"],
        "mean_dirty_word_fraction": (
            float(np.mean(fractions)) if fractions else 0.0
        ),
        "significance_memo": stats.get("significance_memo", {}),
        "max_abs_diff": max_diff,
    }


def run_grid(grid=FULL_GRID, refits: int = FULL_REFITS) -> list[dict]:
    rows: list[dict] = []
    for n_sources, n_triples in grid:
        dataset = _workload(n_sources, n_triples)
        for churn_frac in CHURN_FRACS:
            rows.append(measure_refit_stream(dataset, churn_frac, refits))
    return rows


def _headline(rows: list[dict]) -> dict:
    cores = available_cores()
    worst = min(r["refit_speedup"] for r in rows)
    return {
        "cores": cores,
        "refit_gate": REFIT_GATE,
        "gate_enforced": cores >= GATE_MIN_CORES,
        "gate_skip_reason": (
            None
            if cores >= GATE_MIN_CORES
            else f"runner reports {cores} core(s) < {GATE_MIN_CORES}; "
            "timings too noisy to gate on"
        ),
        "worst_refit_speedup": worst,
        "refit_speedups_by_frac": {
            str(r["churn_frac"]): r["refit_speedup"] for r in rows
        },
        "max_abs_diff": max(r["max_abs_diff"] for r in rows),
    }


def _render(rows: list[dict], headline: dict) -> str:
    table = format_table(
        ["sources", "triples", "churn%", "refits", "cold(s)", "delta(s)",
         "speedup", "delta/cold", "dirty-words%", "max|diff|"],
        [
            [r["n_sources"], r["n_triples"], 100 * r["churn_frac"],
             r["refits"], r["cold_median_seconds"],
             r["delta_median_seconds"], r["refit_speedup"],
             f"{r['delta_refits']}/{r['cold_fallbacks']}",
             100 * r["mean_dirty_word_fraction"], r["max_abs_diff"]]
            for r in rows
        ],
    )
    gate = f"gate (delta refit >= {headline['refit_gate']}x): "
    if headline["gate_enforced"]:
        gate += f"enforced on {headline['cores']} cores"
    else:
        gate += f"SKIPPED -- {headline['gate_skip_reason']}"
    return (
        table
        + f"\n\nworst refit speedup {headline['worst_refit_speedup']:.2f}x, "
        f"max |score diff| {headline['max_abs_diff']:.1e}\n"
        + gate
    )


def _persist(rows: list[dict], headline: dict) -> None:
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    JSON_PATH.write_text(
        json.dumps({"headline": headline, "rows": rows}, indent=2) + "\n"
    )


def bench_delta_refit(benchmark):
    rows = benchmark.pedantic(run_grid, rounds=1, iterations=1)
    headline = _headline(rows)
    _persist(rows, headline)
    emit("delta_refit", _render(rows, headline))
    assert headline["max_abs_diff"] == 0.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true",
        help="small grid cell and fewer refits (CI); bit-identity and the "
             "core-gated speedup check still apply",
    )
    args = parser.parse_args(argv)
    if args.smoke:
        rows = run_grid(grid=SMOKE_GRID, refits=SMOKE_REFITS)
    else:
        rows = run_grid()
    headline = _headline(rows)
    _persist(rows, headline)
    print(_render(rows, headline))
    if headline["max_abs_diff"] != 0.0:
        print(
            "ERROR: delta-refitted scores are not bit-identical to a cold "
            "refit",
            file=sys.stderr,
        )
        return 1
    if headline["gate_enforced"]:
        if headline["worst_refit_speedup"] < REFIT_GATE:
            print(
                f"ERROR: delta refit speedup fell below the {REFIT_GATE}x "
                "acceptance bar",
                file=sys.stderr,
            )
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
