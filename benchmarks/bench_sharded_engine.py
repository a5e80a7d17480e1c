"""Sharded parallel scoring: serial compiled path vs worker-pool fan-out.

PR 3's compile-once/execute-many engine made repeated scoring cheap but
kept every ``score`` call on a single core.  This benchmark measures the
sharded execution subsystem (``repro/core/parallel.py``) end to end:

- **exact / elastic** -- ``pattern_likelihoods_batch`` partitions the
  pattern matrices into word-aligned blocks and fans each block's
  collect/compile/evaluate/accumulate pipeline across the worker pool;
- **clustered** -- each per-cluster evaluator's stacked sub-pattern
  batch (all its clusters, deduplicated together) is split into
  word-aligned row blocks whose union-plan build, model evaluation and
  accumulation fan out across the pool, with restriction, log transform
  and recombination kept serial in partition order.

Both pool backends are measured: **threads** (the default; the numpy
popcount/gather/sweep kernels release the GIL) and **processes** (the
option for the CPython-bound half of the cold path -- union-plan building
and compilation are Python loops that threads cannot overlap; process
workers sidestep the GIL at the cost of pickling each job).  Per family,
backend, and worker count we time the *cold* path (caches invalidated
before every round -- the work parallelism actually accelerates) and the
*warm* path (compiled-plan-cache hits) on BOOK-like grids, anchored on
the 48x4000 cell the clustered and plan-cache benchmarks share.  Sharded
scores must be **bit-identical** to the serial engine (max |score diff|
exactly 0.0 for every family, backend, and worker count, cold and warm);
the run fails otherwise.

Speedup gate: on runners with >= 4 cores, the better backend's 4-worker
cold path on the largest clustered cell must beat the serial compiled
path by >= 1.5x.  On narrower runners (CI shared boxes, containers
pinned to one core) the gate is *recorded as skipped* in the JSON
(``gate_enforced: false`` with the detected core count) -- a 1-core
machine cannot demonstrate multi-core speedup, and wall-clock parity
there is expected.

Runnable two ways::

    PYTHONPATH=src python -m pytest benchmarks/bench_sharded_engine.py --benchmark-only
    PYTHONPATH=src python benchmarks/bench_sharded_engine.py [--quick]

The ``--quick`` flag (used by CI's smoke job) restricts the grid to its
smallest cells; bit-identity and (on >= 4 cores) the speedup gate are
still enforced.  Results land in
``benchmarks/results/BENCH_sharded_engine.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

if __name__ == "__main__":  # allow plain `python benchmarks/bench_sharded_engine.py`
    sys.path.insert(0, str(Path(__file__).parent))

from _helpers import RESULTS_DIR, emit
from bench_clustered_engine import EXACT_CLUSTER_LIMIT, _workload
from repro.core import (
    ClusteredCorrelationFuser,
    ElasticFuser,
    ExactCorrelationFuser,
    fit_model,
)
from repro.data import SyntheticConfig, generate, uniform_sources
from repro.eval import format_table

JSON_PATH = RESULTS_DIR / "BENCH_sharded_engine.json"


def _exact_workload(n_triples: int, seed: int = 17):
    """A 12-source grid on the exact PRECRECCORR route."""
    config = SyntheticConfig(
        sources=uniform_sources(12, precision=0.65, recall=0.35),
        n_triples=n_triples,
        true_fraction=0.5,
    )
    return generate(config, seed=seed)

#: BOOK-like clustered cells; the acceptance gate anchors on (48, 4000).
CLUSTERED_GRID = ((24, 1500), (48, 4000))

#: Worker counts measured against the serial (workers=1) baseline.
WORKER_GRID = (2, 4)

#: Pool backends measured per cell (threads for the GIL-releasing numpy
#: kernels, processes for the CPython-bound plan builds).
BACKENDS = ("thread", "process")

#: The speedup the 4-worker cold path must reach on the largest clustered
#: cell when the runner has at least ``GATE_MIN_CORES`` cores.
GATE_SPEEDUP = 1.5
GATE_WORKERS = 4
GATE_MIN_CORES = 4

COLD_ROUNDS = 3
WARM_REPEATS = 5


def available_cores() -> int:
    """Cores this process may use (affinity-aware when the OS reports it)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def _time_cold(fuser, observations, rounds: int = COLD_ROUNDS):
    """Best cold ``score`` time: caches invalidated before every round."""
    best = float("inf")
    scores = None
    for _ in range(rounds):
        fuser.invalidate_caches()
        start = time.perf_counter()
        scores = fuser.score(observations)
        best = min(best, time.perf_counter() - start)
    return best, scores


def _time_warm(fuser, observations, repeats: int = WARM_REPEATS):
    """Best/mean warm ``score`` time on a hot plan cache."""
    times = []
    scores = None
    for _ in range(repeats):
        start = time.perf_counter()
        scores = fuser.score(observations)
        times.append(time.perf_counter() - start)
    return min(times), float(np.mean(times)), scores


def _measure_cell(family: str, dataset, make_fuser_fn) -> dict:
    """Serial vs sharded timings (cold + warm) for one grid cell."""
    observations = dataset.observations
    observations.patterns()  # pattern extraction is shared; off the clocks

    serial = make_fuser_fn(1, "thread")
    serial_cold, serial_scores = _time_cold(serial, observations)
    serial_warm_best, serial_warm_mean, warm_scores = _time_warm(
        serial, observations
    )
    max_diff = float(np.abs(serial_scores - warm_scores).max())

    per_workers = []
    for backend in BACKENDS:
        for workers in WORKER_GRID:
            fuser = make_fuser_fn(workers, backend)
            cold, cold_scores = _time_cold(fuser, observations)
            warm_best, warm_mean, warm_scores = _time_warm(fuser, observations)
            max_diff = max(
                max_diff,
                float(np.abs(serial_scores - cold_scores).max()),
                float(np.abs(serial_scores - warm_scores).max()),
            )
            per_workers.append(
                {
                    "backend": backend,
                    "workers": workers,
                    "cold_seconds": cold,
                    "warm_best_seconds": warm_best,
                    "warm_mean_seconds": warm_mean,
                    "cold_speedup": (
                        serial_cold / cold if cold > 0 else float("inf")
                    ),
                    "warm_speedup": (
                        serial_warm_mean / warm_mean
                        if warm_mean > 0
                        else float("inf")
                    ),
                }
            )
    return {
        "family": family,
        "n_sources": observations.n_sources,
        "n_triples": observations.n_triples,
        "n_patterns": observations.patterns().n_patterns,
        "serial_cold_seconds": serial_cold,
        "serial_warm_best_seconds": serial_warm_best,
        "serial_warm_mean_seconds": serial_warm_mean,
        "sharded": per_workers,
        "max_abs_diff": max_diff,
    }


def run_grid(clustered_grid=CLUSTERED_GRID, family_triples: int = 4000):
    """Measure every family cell on the serial and sharded engines."""
    rows: list[dict] = []
    for n_sources, n_triples in clustered_grid:
        dataset = _workload(n_sources, n_triples)
        model = fit_model(dataset.observations, dataset.labels)
        # Discover the partitions once and share them: clustering cost is
        # identical on every path and excluded from the scoring clocks.
        reference = ClusteredCorrelationFuser(
            model, exact_cluster_limit=EXACT_CLUSTER_LIMIT
        )
        partitions = dict(
            true_partition=reference.true_partition,
            false_partition=reference.false_partition,
            exact_cluster_limit=EXACT_CLUSTER_LIMIT,
        )
        rows.append(
            _measure_cell(
                "clustered",
                dataset,
                lambda workers, backend, model=model, partitions=partitions: (
                    ClusteredCorrelationFuser(
                        model,
                        workers=workers,
                        parallel_backend=backend,
                        **partitions,
                    )
                ),
            )
        )

    exact_dataset = _exact_workload(family_triples)
    exact_model = fit_model(exact_dataset.observations, exact_dataset.labels)
    rows.append(
        _measure_cell(
            "exact",
            exact_dataset,
            lambda workers, backend: ExactCorrelationFuser(
                exact_model, workers=workers, parallel_backend=backend
            ),
        )
    )
    rows.append(
        _measure_cell(
            "elastic-3",
            exact_dataset,
            lambda workers, backend: ElasticFuser(
                exact_model, level=3, workers=workers, parallel_backend=backend
            ),
        )
    )
    return rows


def _headline(rows: list[dict]) -> dict:
    """Summary anchored on the largest clustered cell at 4 workers."""
    clustered = [r for r in rows if r["family"] == "clustered"]
    largest = max(clustered, key=lambda r: (r["n_sources"], r["n_triples"]))
    at_gate = max(
        (s for s in largest["sharded"] if s["workers"] == GATE_WORKERS),
        key=lambda s: s["cold_speedup"],
    )
    cores = available_cores()
    return {
        "largest_config": {
            "n_sources": largest["n_sources"],
            "n_triples": largest["n_triples"],
        },
        "cores": cores,
        "gate_workers": GATE_WORKERS,
        "gate_speedup": GATE_SPEEDUP,
        "gate_enforced": cores >= GATE_MIN_CORES,
        "gate_skip_reason": (
            None
            if cores >= GATE_MIN_CORES
            else f"runner reports {cores} core(s) < {GATE_MIN_CORES}; "
            "multi-core speedup cannot manifest"
        ),
        "gate_backend": at_gate["backend"],
        "largest_config_cold_speedup_at_gate": at_gate["cold_speedup"],
        "largest_config_warm_speedup_at_gate": at_gate["warm_speedup"],
        "cold_speedups_at_gate_by_backend": {
            s["backend"]: s["cold_speedup"]
            for s in largest["sharded"]
            if s["workers"] == GATE_WORKERS
        },
        "max_abs_diff": max(r["max_abs_diff"] for r in rows),
    }


def _render(rows: list[dict], headline: dict) -> str:
    table = format_table(
        ["family", "sources", "triples", "patterns", "backend", "workers",
         "cold(s)", "cold-speedup", "warm(s)", "warm-speedup", "max|diff|"],
        [
            row
            for r in rows
            for row in (
                [[r["family"], r["n_sources"], r["n_triples"],
                  r["n_patterns"], "serial", 1, r["serial_cold_seconds"],
                  1.0, r["serial_warm_mean_seconds"], 1.0,
                  r["max_abs_diff"]]]
                + [
                    [r["family"], r["n_sources"], r["n_triples"],
                     r["n_patterns"], s["backend"], s["workers"],
                     s["cold_seconds"], s["cold_speedup"],
                     s["warm_mean_seconds"], s["warm_speedup"],
                     r["max_abs_diff"]]
                    for s in r["sharded"]
                ]
            )
        ],
    )
    cfg = headline["largest_config"]
    gate = (
        f"gate (>= {headline['gate_speedup']}x cold at "
        f"{headline['gate_workers']} workers, best backend): "
    )
    if headline["gate_enforced"]:
        gate += f"enforced on {headline['cores']} cores"
    else:
        gate += f"SKIPPED -- {headline['gate_skip_reason']}"
    return (
        table
        + f"\n\nlargest clustered config ({cfg['n_sources']} sources x "
        f"{cfg['n_triples']} triples): "
        f"{headline['largest_config_cold_speedup_at_gate']:.2f}x cold "
        f"({headline['gate_backend']} backend) / "
        f"{headline['largest_config_warm_speedup_at_gate']:.2f}x warm at "
        f"{headline['gate_workers']} workers; "
        f"max |score diff| {headline['max_abs_diff']:.1e}\n"
        + gate
    )


def _persist(rows: list[dict], headline: dict) -> None:
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    JSON_PATH.write_text(
        json.dumps({"headline": headline, "rows": rows}, indent=2) + "\n"
    )


def bench_sharded_engine(benchmark):
    rows = benchmark.pedantic(run_grid, rounds=1, iterations=1)
    headline = _headline(rows)
    _persist(rows, headline)
    emit("sharded_engine", _render(rows, headline))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick", action="store_true",
        help="smallest grid cells only (CI smoke); bit-identity and the "
             "core-gated speedup check still apply",
    )
    args = parser.parse_args(argv)
    if args.quick:
        rows = run_grid(clustered_grid=((24, 1200),), family_triples=1200)
    else:
        rows = run_grid()
    headline = _headline(rows)
    _persist(rows, headline)
    print(_render(rows, headline))
    if headline["max_abs_diff"] != 0.0:
        print(
            "ERROR: sharded scores are not bit-identical to the serial "
            "compiled engine",
            file=sys.stderr,
        )
        return 1
    if (
        headline["gate_enforced"]
        and headline["largest_config_cold_speedup_at_gate"] < GATE_SPEEDUP
    ):
        print(
            f"ERROR: cold speedup at {GATE_WORKERS} workers fell below the "
            f"{GATE_SPEEDUP}x acceptance bar on the largest clustered cell",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
