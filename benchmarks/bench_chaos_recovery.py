"""Chaos-recovery benchmark: fault injection against the serving stack.

Replays the open-loop serving trace of ``bench_serving_load`` under
deterministic fault schedules (``repro.core.faults``) and measures what
recovery *costs*, not just whether it happens:

- **baseline** -- the open-loop runner with an inert plan (a fault armed
  so far into the trace it never fires): same accounting machinery,
  zero injected failures.  Every cell's duration reads against this.
- **score_raise** -- every scoring attempt faults
  (``score:raise:1:0``); the front end must walk the full degradation
  ladder (retry, cold micro-batch, inline serial) for every batch.
- **dispatch_delay** -- three 50 ms stalls at lane dispatch
  (``dispatch:delay:2:3@0.05``): dispatcher stalls that retries never
  see.  The dispatch site trips before the batch enters the resilient
  scoring call, so no delay there can reach the scoring timeout or
  retry; the cell shows that stalled lanes still drain with complete
  accounting and unchanged scores.
- **refit_fault** -- a generation swap faults mid-refit
  (``refit:raise:1``); the session must roll back to the old generation
  and serve on, and the *next* refit must succeed.

Gates (any machine): every run terminates with complete accounting
(``run_serving_load`` raises on hangs, leaks, or accounting gaps), served
scores are bit-identical to a fault-free cold twin, the raise cell
actually degraded, the dispatch cell fired its 3 stalls with 0 retries
and 0 degraded batches, and the refit cell rolled back exactly one refit.

Emits ``BENCH_chaos_recovery.json``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

if __name__ == "__main__":  # allow plain `python benchmarks/bench_chaos_recovery.py`
    sys.path.insert(0, str(Path(__file__).parent))

from _helpers import RESULTS_DIR, emit
from repro.data import (
    CorrelationGroup,
    SyntheticConfig,
    generate,
    uniform_sources,
)
from repro.eval import format_table
from repro.core.faults import FaultPlan
from repro.eval.harness import run_serving_load

JSON_PATH = RESULTS_DIR / "BENCH_chaos_recovery.json"

#: ``(sources, triples)`` of the served workload.
FULL_CELL = (8, 960)
SMOKE_CELL = (8, 960)

FULL_REQUESTS = 48
SMOKE_REQUESTS = 24

#: Modest offered rate: chaos cells measure recovery cost, not batching
#: policy.
RATE_QPS = 100.0
REQUEST_TRIPLES = 256
LATENCY_BUDGET = 0.1
SEED = 7

#: A fault armed so deep into the trace it can never fire: the baseline
#: runs the full chaos machinery with zero injected failures.
INERT_SPEC = "score:raise:1000000"

#: Stalls at lane dispatch, before resilient scoring: hits 2-4 sleep 50 ms.
DISPATCH_SPEC = "dispatch:delay:2:3@0.05"
DISPATCH_HITS = 3


def _workload(n_sources: int, n_triples: int, seed: int = 17):
    config = SyntheticConfig(
        sources=uniform_sources(n_sources, precision=0.65, recall=0.45),
        n_triples=n_triples,
        true_fraction=0.5,
        groups=(
            CorrelationGroup(
                members=(0, 1, 2), mode="overlap_true", strength=0.85
            ),
        ),
    )
    return generate(config, seed=seed)


def _report_row(kind: str, report) -> dict:
    resilience = report.stats["resilience"]
    return {
        "kind": kind,
        "fault_spec": report.fault_spec,
        "faults_fired": dict(report.fault_stats.get("fired", {})),
        "requests": report.requests,
        "completed": report.completed,
        "shed": report.shed,
        "failed": report.failed,
        "terminated": report.terminated,
        "retries": resilience["retries"],
        "degraded_batches": resilience["degraded_batches"],
        "forced_degrades": resilience["forced_degrades"],
        "refit_attempts": report.refit_attempts,
        "refit_failures": report.refit_failures,
        "refits": report.refits,
        "duration_seconds": report.duration_seconds,
        "max_abs_diff": report.max_abs_diff,
    }


def _chaos(dataset, kind: str, spec: str, requests: int, **overrides) -> dict:
    settings = {
        "rate_qps": RATE_QPS,
        "requests": requests,
        "request_triples": REQUEST_TRIPLES,
        "latency_budget": LATENCY_BUDGET,
        "seed": SEED,
    }
    settings.update(overrides)
    report = run_serving_load(
        dataset, fault_plan=FaultPlan.from_spec(spec), **settings
    )
    return _report_row(kind, report)


def run_cells(cell=FULL_CELL, requests: int = FULL_REQUESTS) -> list[dict]:
    n_sources, n_triples = cell
    dataset = _workload(n_sources, n_triples, seed=17)
    rows = [
        _chaos(dataset, "baseline", INERT_SPEC, requests),
        _chaos(dataset, "score_raise", "score:raise:1:0", requests),
        _chaos(dataset, "dispatch_delay", DISPATCH_SPEC, requests),
        _chaos(
            dataset, "refit_fault", "refit:raise:1", requests,
            refit_every=max(1, requests // 3),
        ),
    ]
    return rows


def _headline(rows: list[dict]) -> dict:
    by_kind = {r["kind"]: r for r in rows}
    return {
        "baseline_duration_seconds": by_kind["baseline"]["duration_seconds"],
        "raise_degraded_batches": by_kind["score_raise"]["degraded_batches"],
        "dispatch_stalls": by_kind["dispatch_delay"]["faults_fired"].get(
            "dispatch", 0
        ),
        "dispatch_retries": by_kind["dispatch_delay"]["retries"],
        "dispatch_degraded_batches": by_kind["dispatch_delay"][
            "degraded_batches"
        ],
        "refit_failures": by_kind["refit_fault"]["refit_failures"],
        "refits_after_rollback": by_kind["refit_fault"]["refits"],
        "all_terminated": all(
            r["terminated"] == r["requests"] for r in rows
        ),
        "max_abs_diff": max(r["max_abs_diff"] for r in rows),
    }


def _render(rows: list[dict], headline: dict) -> str:
    table = format_table(
        ["cell", "fault", "done", "shed", "fail", "retry", "degr",
         "dur(s)", "max|diff|"],
        [
            [r["kind"], r["fault_spec"], r["completed"], r["shed"],
             r["failed"], r["retries"], r["degraded_batches"],
             round(r["duration_seconds"], 3), r["max_abs_diff"]]
            for r in rows
        ],
    )
    return (
        table
        + f"\n\ninert baseline {headline['baseline_duration_seconds']:.3f}s; "
        f"{headline['raise_degraded_batches']} degraded batch(es) under "
        f"persistent scoring faults; "
        f"{headline['dispatch_stalls']} dispatch stall(s) with "
        f"{headline['dispatch_retries']} retries; "
        f"{headline['refit_failures']} refit rolled back then "
        f"{headline['refits_after_rollback']} applied; "
        f"max |served - twin| {headline['max_abs_diff']:.1e}"
    )


def _persist(rows: list[dict], headline: dict) -> None:
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    JSON_PATH.write_text(
        json.dumps({"headline": headline, "rows": rows}, indent=2) + "\n"
    )


def _check(headline: dict) -> list[str]:
    """Gate violations (empty when the run passes)."""
    errors: list[str] = []
    if not headline["all_terminated"]:
        errors.append(
            "a chaos cell lost requests: completed + shed + failed != "
            "requests"
        )
    if headline["max_abs_diff"] != 0.0:
        errors.append(
            "served scores are not bit-identical to the fault-free cold "
            f"twin (max |diff| = {headline['max_abs_diff']:.3e})"
        )
    if headline["raise_degraded_batches"] < 1:
        errors.append(
            "score-raise cell never degraded a batch: the ladder was not "
            "exercised"
        )
    if headline["dispatch_stalls"] != DISPATCH_HITS:
        errors.append(
            f"dispatch-delay cell fired {headline['dispatch_stalls']} "
            f"stall(s); expected exactly {DISPATCH_HITS}"
        )
    if headline["dispatch_retries"] or headline["dispatch_degraded_batches"]:
        errors.append(
            "dispatch-delay cell retried or degraded: a stall before "
            "resilient scoring must reach neither (retries "
            f"{headline['dispatch_retries']}, degraded batches "
            f"{headline['dispatch_degraded_batches']})"
        )
    if headline["refit_failures"] != 1:
        errors.append(
            "refit-fault cell rolled back "
            f"{headline['refit_failures']} refit(s); expected exactly 1"
        )
    if headline["refits_after_rollback"] < 1:
        errors.append(
            "no refit succeeded after the rollback: the session did not "
            "recover a swappable generation"
        )
    return errors


def bench_chaos_recovery(benchmark):
    rows = benchmark.pedantic(
        run_cells, args=(SMOKE_CELL, SMOKE_REQUESTS), rounds=1, iterations=1
    )
    headline = _headline(rows)
    _persist(rows, headline)
    emit("chaos_recovery", _render(rows, headline))
    assert headline["all_terminated"]
    assert headline["max_abs_diff"] == 0.0
    assert headline["raise_degraded_batches"] >= 1
    assert headline["dispatch_stalls"] == DISPATCH_HITS
    assert headline["dispatch_retries"] == 0
    assert headline["dispatch_degraded_batches"] == 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true",
        help="shorter trace (CI); accounting, bit-identity, ladder and "
             "rollback checks still apply",
    )
    args = parser.parse_args(argv)
    if args.smoke:
        rows = run_cells(cell=SMOKE_CELL, requests=SMOKE_REQUESTS)
    else:
        rows = run_cells()
    headline = _headline(rows)
    _persist(rows, headline)
    print(_render(rows, headline))
    errors = _check(headline)
    for error in errors:
        print(f"ERROR: {error}", file=sys.stderr)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
