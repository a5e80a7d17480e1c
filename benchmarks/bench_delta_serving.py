"""Delta scoring vs the warm-cache serving path, and threaded micro-batching.

PR 3/4 made repeated scoring of the *same* matrix nearly free, but a
streaming workload never repeats a matrix exactly: each request differs
from the previous one in a few triple columns, the pattern digest changes,
and the warm path re-runs pattern extraction, plan compilation, and model
evaluation from scratch.  This benchmark measures the two serving layers
delivered on top (``repro/core/deltas.py`` + ``ScoringSession.submit``):

- **delta replay** -- a mutation trace (1-5% of triples mutated per step,
  the streaming shape) scored through a ``delta="auto"`` session vs the
  same trace through a ``delta="off"`` session whose plan caches are warm
  (the PR 4 path).  Gate: delta >= 3x on the 48x4000 BOOK-like grid.
- **micro-batching** -- bursts of 8 small requests started together on
  8 threads (a barrier), through ``ScoringSession.submit`` (coalesced
  into fused delta-aware passes) vs the same threads calling ``score``
  on a delta-on session.  Each arm has its own identically-built
  session, so neither warms the other's pattern memo, and the arms
  alternate which goes first per round.  Reported: per-request p50
  latency and burst wall time per arm.  No speed-up gate: the cell shows
  whether coalescing beats plain threaded scoring on the host it ran on.

The delta gate is enforced on runners with >= 4 cores and *recorded as
skipped* below that (``_helpers.GATE_MIN_CORES``: shared 1-core CI boxes
time too noisily to gate on).  **Bit-identity is always enforced**:
every delta, micro-batched and threaded score must equal plain cold
scoring with max |diff| exactly 0.0 in every configuration.

Runnable two ways::

    PYTHONPATH=src python -m pytest benchmarks/bench_delta_serving.py --benchmark-only
    PYTHONPATH=src python benchmarks/bench_delta_serving.py [--smoke]

The ``--smoke`` flag (used by CI) restricts the run to a small grid cell
and fewer trace steps.  Results land in
``benchmarks/results/BENCH_delta_serving.json``.
"""

from __future__ import annotations

import argparse
import json
import sys
import threading
import time
from pathlib import Path

import numpy as np

if __name__ == "__main__":  # allow plain `python benchmarks/bench_delta_serving.py`
    sys.path.insert(0, str(Path(__file__).parent))

from _helpers import GATE_MIN_CORES, RESULTS_DIR, available_cores, emit
from bench_clustered_engine import _workload
from repro.core import ScoringSession
from repro.eval import format_table, mutation_trace

JSON_PATH = RESULTS_DIR / "BENCH_delta_serving.json"

#: The BOOK-like serving cell shared with the clustered-engine and
#: delta-refit benchmarks; the delta gate anchors on (48, 4000).
FULL_GRID = ((48, 4000),)
SMOKE_GRID = ((24, 1200),)

#: Mutation fractions replayed per cell (the "1-5% of triples" regime).
MUTATE_FRACS = (0.01, 0.05)

#: Mutation-trace length per fraction (per-step times are averaged).
FULL_STEPS = 10
SMOKE_STEPS = 4

#: Micro-batching: threads (one request each) per burst, and bursts.
MICRO_REQUESTS = 8
MICRO_WIDTH = 256
MICRO_ROUNDS = 5

DELTA_GATE = 3.0


def _sessions(dataset):
    """A delta-on and a delta-off (PR 4 reference) session on one dataset."""
    delta_session = ScoringSession(
        dataset.observations, dataset.labels, method="precreccorr"
    )
    plain_session = ScoringSession(
        dataset.observations, dataset.labels, method="precreccorr",
        delta="off",
    )
    return delta_session, plain_session


def measure_delta_replay(dataset, mutate_frac: float, steps: int) -> dict:
    """Replay one mutation trace through the delta and PR 4 paths."""
    delta_session, plain_session = _sessions(dataset)
    observations = dataset.observations
    trace = mutation_trace(
        observations, steps, mutate_frac, seed=int(mutate_frac * 1000)
    )

    # Warm both sessions on the base matrix: the comparison is against the
    # PR 4 path at its best (compiled plans hot for the base digest).
    delta_session.score(observations)
    delta_session.score(observations)
    plain_session.score(observations)
    plain_session.score(observations)

    plain_seconds: list[float] = []
    plain_scores: list[np.ndarray] = []
    for matrix in trace:
        start = time.perf_counter()
        scores = plain_session.score(matrix)
        plain_seconds.append(time.perf_counter() - start)
        plain_scores.append(scores)

    delta_seconds: list[float] = []
    max_diff = 0.0
    for matrix, reference in zip(trace, plain_scores):
        start = time.perf_counter()
        scores = delta_session.score(matrix)
        delta_seconds.append(time.perf_counter() - start)
        max_diff = max(max_diff, float(np.abs(scores - reference).max()))

    delta_stats = delta_session.cache_stats()["delta"]
    plain_mean = float(np.mean(plain_seconds))
    delta_mean = float(np.mean(delta_seconds))
    return {
        "kind": "delta_replay",
        "n_sources": observations.n_sources,
        "n_triples": observations.n_triples,
        "mutate_frac": mutate_frac,
        "steps": steps,
        "plain_mean_seconds": plain_mean,
        "delta_mean_seconds": delta_mean,
        "delta_speedup": (
            plain_mean / delta_mean if delta_mean > 0 else float("inf")
        ),
        "delta_paths": {
            "identical": delta_stats["identical"],
            "delta": delta_stats["delta"],
            "cold": delta_stats["cold"],
        },
        "novel_patterns": delta_stats["novel_patterns"],
        "reused_patterns": delta_stats["reused_patterns"],
        "max_abs_diff": max_diff,
    }


def _micro_rounds(observations):
    """Per-round bursts of 8 small requests, fresh content every round.

    Each round slices a *mutated* variant of the base matrix, so every
    request carries patterns the serving process has mostly not seen --
    the streaming shape, not a loop of digest hits.
    """
    variants = mutation_trace(observations, MICRO_ROUNDS + 1, 0.02, seed=7)
    rounds = []
    for variant in variants:
        requests = []
        for k in range(MICRO_REQUESTS):
            mask = np.zeros(variant.n_triples, dtype=bool)
            start = (k * MICRO_WIDTH) % max(
                variant.n_triples - MICRO_WIDTH, 1
            )
            mask[start : start + MICRO_WIDTH] = True
            requests.append(variant.restricted_to_triples(mask))
        rounds.append(requests)
    return rounds


def run_burst(call, requests) -> tuple[float, list[float], list]:
    """Start one thread per request together; ``call`` scores each.

    Returns the burst wall time (barrier release to the last return),
    each request's own latency, and the per-request scores.
    """
    results: list = [None] * len(requests)
    latencies = [0.0] * len(requests)
    barrier = threading.Barrier(len(requests) + 1)

    def worker(k):
        barrier.wait()
        start = time.perf_counter()
        results[k] = call(requests[k])
        latencies[k] = time.perf_counter() - start

    threads = [
        threading.Thread(target=worker, args=(k,))
        for k in range(len(requests))
    ]
    for thread in threads:
        thread.start()
    barrier.wait()
    start = time.perf_counter()
    for thread in threads:
        thread.join()
    return time.perf_counter() - start, latencies, results


def measure_micro_batching(dataset) -> dict:
    """8-thread bursts: coalescing ``submit`` vs threaded ``score``."""
    observations = dataset.observations
    batched, threaded = (
        ScoringSession(
            observations, dataset.labels, method="precreccorr"
        )
        for _ in range(2)
    )
    reference = ScoringSession(
        observations, dataset.labels, method="precreccorr", delta="off"
    )
    arms = {"submit": batched.submit, "score": threaded.score}
    warmup_round, *rounds = _micro_rounds(observations)

    # Warm both sessions on the base matrix and one unmeasured burst, so
    # the measured rounds compare steady-state serving.
    for session in (batched, threaded):
        session.score(observations)
    for call in arms.values():
        run_burst(call, warmup_round)

    walls: dict = {name: [] for name in arms}
    latencies: dict = {name: [] for name in arms}
    max_diff = 0.0
    for index, requests in enumerate(rounds):
        expected = [reference.score(request) for request in requests]
        order = list(arms) if index % 2 == 0 else list(arms)[::-1]
        for name in order:
            wall, per_request, results = run_burst(arms[name], requests)
            walls[name].append(wall)
            latencies[name].extend(per_request)
            for scores, oracle in zip(results, expected):
                max_diff = max(max_diff, float(np.abs(scores - oracle).max()))

    def ms(values):
        return 1000.0 * float(np.median(values))

    batcher_stats = batched.micro_batcher.stats
    return {
        "kind": "micro_batch",
        "n_sources": observations.n_sources,
        "n_triples": observations.n_triples,
        "requests": MICRO_REQUESTS,
        "request_triples": MICRO_WIDTH,
        "rounds": len(rounds),
        "submit_p50_ms": ms(latencies["submit"]),
        "score_p50_ms": ms(latencies["score"]),
        "submit_burst_ms": ms(walls["submit"]),
        "score_burst_ms": ms(walls["score"]),
        "batches": batcher_stats["batches"],
        "fused_requests": batcher_stats["fused_requests"],
        "max_abs_diff": max_diff,
    }


def run_grid(grid=FULL_GRID, steps: int = FULL_STEPS) -> list[dict]:
    rows: list[dict] = []
    for n_sources, n_triples in grid:
        dataset = _workload(n_sources, n_triples)
        for mutate_frac in MUTATE_FRACS:
            rows.append(measure_delta_replay(dataset, mutate_frac, steps))
        rows.append(measure_micro_batching(dataset))
    return rows


def _headline(rows: list[dict]) -> dict:
    replays = [r for r in rows if r["kind"] == "delta_replay"]
    cores = available_cores()
    worst_delta = min(r["delta_speedup"] for r in replays)
    return {
        "cores": cores,
        "delta_gate": DELTA_GATE,
        "gate_enforced": cores >= GATE_MIN_CORES,
        "gate_skip_reason": (
            None
            if cores >= GATE_MIN_CORES
            else f"runner reports {cores} core(s) < {GATE_MIN_CORES}; "
            "timings too noisy to gate on"
        ),
        "worst_delta_speedup": worst_delta,
        "delta_speedups_by_frac": {
            str(r["mutate_frac"]): r["delta_speedup"] for r in replays
        },
        "max_abs_diff": max(r["max_abs_diff"] for r in rows),
    }


def _render(rows: list[dict], headline: dict) -> str:
    replay_table = format_table(
        ["sources", "triples", "mutate%", "steps", "pr4-warm(s)",
         "delta(s)", "speedup", "novel", "reused", "max|diff|"],
        [
            [r["n_sources"], r["n_triples"], 100 * r["mutate_frac"],
             r["steps"], r["plain_mean_seconds"], r["delta_mean_seconds"],
             r["delta_speedup"], r["novel_patterns"], r["reused_patterns"],
             r["max_abs_diff"]]
            for r in rows
            if r["kind"] == "delta_replay"
        ],
    )
    micro_table = format_table(
        ["sources", "triples", "threads", "req-triples", "submit p50(ms)",
         "score p50(ms)", "submit burst(ms)", "score burst(ms)",
         "batches", "max|diff|"],
        [
            [r["n_sources"], r["n_triples"], r["requests"],
             r["request_triples"], r["submit_p50_ms"], r["score_p50_ms"],
             r["submit_burst_ms"], r["score_burst_ms"], r["batches"],
             r["max_abs_diff"]]
            for r in rows
            if r["kind"] == "micro_batch"
        ],
    )
    gate = f"gate (delta >= {headline['delta_gate']}x): "
    if headline["gate_enforced"]:
        gate += f"enforced on {headline['cores']} cores"
    else:
        gate += f"SKIPPED -- {headline['gate_skip_reason']}"
    return (
        replay_table
        + "\n\n"
        + micro_table
        + f"\n\nworst delta speedup {headline['worst_delta_speedup']:.2f}x, "
        f"max |score diff| {headline['max_abs_diff']:.1e}\n"
        + gate
    )


def _persist(rows: list[dict], headline: dict) -> None:
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    JSON_PATH.write_text(
        json.dumps({"headline": headline, "rows": rows}, indent=2) + "\n"
    )


def bench_delta_serving(benchmark):
    rows = benchmark.pedantic(run_grid, rounds=1, iterations=1)
    headline = _headline(rows)
    _persist(rows, headline)
    emit("delta_serving", _render(rows, headline))
    assert headline["max_abs_diff"] == 0.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true",
        help="small grid cell and short traces (CI); bit-identity and the "
             "core-gated delta speedup check still apply",
    )
    args = parser.parse_args(argv)
    if args.smoke:
        rows = run_grid(grid=SMOKE_GRID, steps=SMOKE_STEPS)
    else:
        rows = run_grid()
    headline = _headline(rows)
    _persist(rows, headline)
    print(_render(rows, headline))
    if headline["max_abs_diff"] != 0.0:
        print(
            "ERROR: delta / micro-batched / threaded scores are not "
            "bit-identical to plain cold scoring",
            file=sys.stderr,
        )
        return 1
    if (
        headline["gate_enforced"]
        and headline["worst_delta_speedup"] < DELTA_GATE
    ):
        print(
            f"ERROR: delta speedup fell below the {DELTA_GATE}x "
            "acceptance bar",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
