"""Command-line interface: fuse, compare, and inspect correlations.

Usage (after ``pip install -e .``)::

    python -m repro datasets
    python -m repro fuse --dataset reverb --method precreccorr
    python -m repro compare --dataset restaurant
    python -m repro correlations --dataset book
    python -m repro fuse --dataset figure1 --method precrec --scores-csv out.csv

All commands are offline and deterministic (datasets are generated from
their canonical seeds unless ``--seed`` is given).
"""

from __future__ import annotations

import argparse
import csv
import math
import sys
from typing import Mapping, Optional, Sequence

from repro.core import faults
from repro.core.api import METHOD_NAMES, fuse
from repro.core.clustering import correlation_edges, detect_partition_state
from repro.core.api import fit_model
from repro.data.registry import available_datasets, get_dataset
from repro.eval.harness import (
    paper_method_specs,
    run_comparison,
    run_serving,
    run_serving_load,
)
from repro.eval.metrics import auc_pr, auc_roc, binary_metrics
from repro.eval.report import comparison_table, format_table
from repro.util.validation import check_positive


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Correlation-aware data fusion "
            "(reproduction of Pochampally et al., SIGMOD 2014)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("datasets", help="list the registered datasets")

    fuse_cmd = sub.add_parser("fuse", help="fuse one dataset with one method")
    _add_dataset_args(fuse_cmd)
    fuse_cmd.add_argument(
        "--method", default="precreccorr",
        help=f"fusion method; one of {', '.join(METHOD_NAMES)}",
    )
    fuse_cmd.add_argument(
        "--decision-prior", type=float, default=None,
        help="alpha of the posterior formula (default: 0.5, the paper "
             "protocol); pass -1 to use the calibrated prior; does not "
             "apply to --method em, whose evolving prior plays that role",
    )
    fuse_cmd.add_argument(
        "--smoothing", type=float, default=0.0,
        help="Laplace smoothing for quality estimation (does not apply to "
             "--method em, which has its own pseudo-count)",
    )
    fuse_cmd.add_argument(
        "--scores-csv", metavar="PATH",
        help="write per-triple scores (id, score, accepted, gold) to a CSV",
    )
    fuse_cmd.add_argument(
        "--repeat", type=int, default=1, metavar="N",
        help="score the dataset N times through one ScoringSession and "
             "report cold vs warm timing -- the serving loop, where "
             "repeated calls hit the compiled-plan cache (default: 1)",
    )
    fuse_cmd.add_argument(
        "--mutate-frac", type=float, default=0.0, metavar="F",
        help="with --repeat: mutate this fraction of triple columns "
             "between consecutive scores, replaying a streaming mutation "
             "trace through the delta engine instead of re-scoring an "
             "identical matrix (default: 0.0); with --delta auto every "
             "delta score is verified bit-for-bit against an independent "
             "plain-scoring session (with --delta off there is no delta "
             "layer to check and the drift reads n/a)",
    )
    fuse_cmd.add_argument(
        "--delta", choices=("auto", "off"), default="auto",
        help="incremental delta scoring across --repeat requests: reuse "
             "previous scores for unchanged triple columns and evaluate "
             "only novel observation patterns (auto, default) or always "
             "score cold (off); scores are bit-identical either way",
    )
    fuse_cmd.add_argument(
        "--refit-every", type=int, default=0, metavar="N",
        help="with --repeat: refit the model from the mutated matrix every "
             "N serving steps (0 = never, default); every refit is "
             "verified bit-for-bit against an independent cold-refit "
             "session",
    )
    fuse_cmd.add_argument(
        "--refit-mode", choices=("delta", "cold"), default="delta",
        help="how --refit-every refits: 'delta' updates the joint-count "
             "statistics for dirty uint64 words only (and warm-starts EM "
             "from the previous posteriors), 'cold' refits from scratch; "
             "count-based methods are bit-identical either way "
             "(default: delta)",
    )
    fuse_cmd.add_argument(
        "--checkpoint-dir", metavar="DIR", default=None,
        help="with --repeat: durably checkpoint the serving loop into "
             "DIR (atomic snapshots + a write-ahead log); a crashed run "
             "is recoverable bit-identically via 'repro recover'",
    )
    fuse_cmd.add_argument(
        "--record-trace", metavar="PATH", default=None,
        help="with --repeat and --mutate-frac: record the mutation trace "
             "as checksummed WAL records at PATH for later --replay-trace "
             "runs (the file must not already exist)",
    )
    fuse_cmd.add_argument(
        "--replay-trace", metavar="PATH", default=None,
        help="with --repeat: replay a recorded mutation trace (or any "
             "checkpoint directory's wal.log) instead of drawing "
             "synthetic mutations; overrides --mutate-frac",
    )

    compare_cmd = sub.add_parser(
        "compare", help="run the paper's seven methods on one dataset"
    )
    _add_dataset_args(compare_cmd)
    compare_cmd.add_argument(
        "--ltm-iterations", type=int, default=60,
        help="Gibbs sweeps for the LTM baseline",
    )

    corr_cmd = sub.add_parser(
        "correlations", help="report the discovered source correlations"
    )
    _add_dataset_args(corr_cmd)
    corr_cmd.add_argument(
        "--min-phi", type=float, default=0.15,
        help="minimum |phi| for a pair to count as correlated",
    )

    serve_cmd = sub.add_parser(
        "serve-bench",
        help="drive the async serving front end with an open-loop load "
             "generator and report p50/p99 latency, QPS, shedding, and "
             "bit-identity",
    )
    _add_dataset_args(serve_cmd)
    serve_cmd.add_argument(
        "--method", default="precreccorr",
        help=f"fusion method; one of {', '.join(METHOD_NAMES)}",
    )
    serve_cmd.add_argument(
        "--rate", type=float, default=200.0, metavar="QPS",
        help="open-loop arrival rate: requests are scheduled at fixed "
             "times k/rate regardless of completions (default: 200)",
    )
    serve_cmd.add_argument(
        "--requests", type=int, default=200, metavar="N",
        help="total requests to offer (default: 200)",
    )
    serve_cmd.add_argument(
        "--request-triples", type=int, default=96, metavar="W",
        help="triple columns per request window (default: 96)",
    )
    serve_cmd.add_argument(
        "--budget", type=float, default=0.05, metavar="SECONDS",
        help="per-request latency SLO: requests are never held for it "
             "(an idle lane ships at once, arrivals during a batch ship "
             "together next); served requests that exceed it are "
             "counted as deadline misses (default: 0.05)",
    )
    serve_cmd.add_argument(
        "--max-queue-depth", type=int, default=256, metavar="N",
        help="admission control: shed once this many requests are "
             "admitted but unfinished (default: 256)",
    )
    serve_cmd.add_argument(
        "--max-inflight-bytes", type=int, default=None, metavar="B",
        help="admission control: shed once admitted requests' summed "
             "payload exceeds this (default: unbounded)",
    )
    serve_cmd.add_argument(
        "--refit-every", type=int, default=0, metavar="N",
        help="swap model generations under live traffic every N request "
             "arrivals (0 = never, default); served scores stay "
             "bit-identical to the serving generation's direct scores",
    )
    serve_cmd.add_argument(
        "--refit-mode", choices=("delta", "cold"), default="delta",
        help="refit strategy for --refit-every (default: delta)",
    )
    serve_cmd.add_argument(
        "--mutate-frac", type=float, default=0.02, metavar="F",
        help="fraction of columns mutated between consecutive trace "
             "steps (default: 0.02)",
    )
    serve_cmd.add_argument(
        "--chaos", action="store_true",
        help="replay the trace under deterministic fault injection "
             "(see --faults); every run, with or without faults, "
             "asserts that every request terminates, the admission "
             "ledger drains to zero, and completed scores stay "
             "bit-identical to a fault-free cold twin",
    )
    serve_cmd.add_argument(
        "--faults", default=None, metavar="SPEC",
        help="fault schedule for --chaos, e.g. "
             "'compile:raise:2,score:raise:1:0' (site:action[:nth[:count]]"
             "[@delay]); default: reuse $REPRO_FAULTS if armed, else a "
             "random plan drawn from --chaos-seed",
    )
    serve_cmd.add_argument(
        "--chaos-seed", type=int, default=0, metavar="N",
        help="seed for the random fault plan when --faults is not given "
             "(default: 0)",
    )
    serve_cmd.add_argument(
        "--checkpoint-dir", metavar="DIR", default=None,
        help="durably checkpoint serving state into DIR: every "
             "mid-traffic generation swap lands in a write-ahead log and "
             "snapshots follow the refit cadence; with --chaos, "
             "persist-site faults exercise the checkpointer's "
             "absorb-and-degrade policy",
    )

    recover_cmd = sub.add_parser(
        "recover",
        help="inspect and validate a checkpoint directory: load the "
             "newest valid snapshot, replay the WAL suffix, and report "
             "what a crashed serving process would recover to",
    )
    recover_cmd.add_argument(
        "--checkpoint-dir", metavar="DIR", required=True,
        help="checkpoint directory written by --checkpoint-dir runs",
    )
    return parser


def _add_dataset_args(command: argparse.ArgumentParser) -> None:
    command.add_argument(
        "--dataset", required=True,
        help=f"one of: {', '.join(available_datasets())}",
    )
    command.add_argument(
        "--seed", type=int, default=None,
        help="generator seed (default: the benchmark suite's canonical seed)",
    )


def _cmd_datasets() -> int:
    rows = []
    for name in available_datasets():
        dataset = get_dataset(name) if name == "figure1" else None
        description = dataset.description if dataset else ""
        rows.append([name, description])
    print(format_table(["dataset", "notes"], rows))
    print("\n(generate any of them with: python -m repro fuse --dataset <name> ...)")
    return 0


def _cmd_fuse(args: argparse.Namespace) -> int:
    if args.repeat < 1:
        raise ValueError(f"--repeat must be >= 1, got {args.repeat}")
    if not 0.0 <= args.mutate_frac <= 1.0:
        raise ValueError(
            f"--mutate-frac must be in [0, 1], got {args.mutate_frac}"
        )
    if args.mutate_frac > 0.0 and args.repeat < 2:
        raise ValueError(
            "--mutate-frac needs --repeat >= 2: mutations apply between "
            "consecutive scores of the serving loop"
        )
    if args.refit_every < 0:
        raise ValueError(
            f"--refit-every must be >= 0, got {args.refit_every}"
        )
    if args.refit_every > 0 and args.repeat < 2:
        raise ValueError(
            "--refit-every needs --repeat >= 2: refits happen between "
            "consecutive scores of the serving loop"
        )
    dataset = get_dataset(args.dataset, seed=args.seed)
    # Unset defaults to the paper protocol's 0.5 for model-based methods;
    # EM has no separate decision alpha, so the default stays unset there
    # and any *explicit* value (including -1) is passed through for fuse
    # to reject with a clear error.
    decision_prior = args.decision_prior
    if args.method.lower() != "em":
        if decision_prior is None:
            decision_prior = 0.5
        elif decision_prior < 0:
            decision_prior = None
    if (
        args.checkpoint_dir or args.record_trace or args.replay_trace
    ) and args.repeat < 2:
        raise ValueError(
            "--checkpoint-dir/--record-trace/--replay-trace need "
            "--repeat >= 2: they act on the serving loop"
        )
    serving = None
    if args.repeat > 1:
        serving = run_serving(
            dataset,
            method=args.method,
            repeats=args.repeat - 1,
            smoothing=args.smoothing,
            decision_prior=decision_prior,
            delta=args.delta,
            mutate_frac=args.mutate_frac,
            refit_every=args.refit_every,
            refit_mode=args.refit_mode,
            checkpoint_dir=args.checkpoint_dir,
            record_trace=args.record_trace,
            replay_trace=args.replay_trace,
        )
        result = serving.result
    else:
        result = fuse(
            dataset.observations,
            dataset.labels,
            method=args.method,
            smoothing=args.smoothing,
            decision_prior=decision_prior,
        )
    metrics = binary_metrics(result.accepted, dataset.labels)
    print(dataset.summary())
    print(
        format_table(
            ["method", "precision", "recall", "F1", "AUC-PR", "AUC-ROC", "time(s)"],
            [[
                result.method, metrics.precision, metrics.recall, metrics.f1,
                auc_pr(result.scores, dataset.labels),
                auc_roc(result.scores, dataset.labels),
                result.elapsed_seconds,
            ]],
        )
    )
    if serving is not None:
        if args.replay_trace:
            trace = f"recorded-trace steps ({args.replay_trace})"
        elif serving.mutate_frac > 0.0:
            trace = (
                f"mutation-trace steps ({serving.mutate_frac:.1%} "
                "columns/step)"
            )
        else:
            trace = "identical repeats"
        drift = (
            "n/a (no delta layer to check)"
            if math.isnan(serving.max_warm_drift)
            else f"{serving.max_warm_drift:.1e}"
        )
        print(
            f"serving: fit {serving.fit_seconds:.4f}s, "
            f"cold score {serving.cold_seconds:.4f}s, "
            f"warm mean {serving.warm_mean_seconds:.4f}s over "
            f"{serving.repeats} {trace} "
            f"({serving.cold_over_warm:.1f}x cold/warm, "
            f"max warm drift {drift})"
        )
        per_score = (
            serving.cold_seconds + sum(serving.warm_seconds)
        ) / (1 + serving.repeats)
        print(
            f"serving: {per_score:.4f}s wall-clock per score over "
            f"{1 + serving.repeats} calls, delta {serving.delta}"
        )
        plan = serving.plan_cache_stats
        if plan:
            print(
                "serving: plan cache "
                f"hits={plan.get('hits', 0)} misses={plan.get('misses', 0)} "
                f"computes={plan.get('computes', 0)} "
                f"evictions={plan.get('evictions', 0)} "
                f"entries={plan.get('entries', 0)}"
            )
        delta_stats = serving.delta_stats
        if delta_stats:
            print(
                "serving: delta paths "
                f"identical={delta_stats.get('identical', 0)} "
                f"delta={delta_stats.get('delta', 0)} "
                f"cold={delta_stats.get('cold', 0)}; reused "
                f"{delta_stats.get('reused_columns', 0)} columns / "
                f"{delta_stats.get('reused_patterns', 0)} patterns, "
                f"{delta_stats.get('novel_patterns', 0)} novel patterns"
            )
        if serving.refit_count:
            refit = serving.refit_stats
            refit_drift = (
                "n/a"
                if math.isnan(serving.refit_max_score_diff)
                else f"{serving.refit_max_score_diff:.1e}"
            )
            print(
                f"serving: refits every {serving.refit_every} steps "
                f"({serving.refit_mode} mode): "
                f"{refit.get('delta_refits', 0)} delta + "
                f"{refit.get('cold_refits', 0)} cold, mean "
                f"{serving.refit_mean_seconds:.4f}s, max score diff vs "
                f"cold refit {refit_drift}"
            )
            fractions = refit.get("dirty_word_fractions") or ()
            if fractions:
                print(
                    "serving: refit dirty-word fraction mean "
                    f"{sum(fractions) / len(fractions):.1%} over "
                    f"{len(fractions)} diffed refits"
                )
            warm = refit.get("em_warm_start") or {}
            if warm.get("warm_scores", 0):
                print(
                    "serving: EM warm starts "
                    f"{warm.get('warm_scores', 0)}, iterations saved "
                    f"{warm.get('iterations_saved', 0)}"
                )
        checkpoint = serving.checkpoint_stats
        if checkpoint:
            print(_checkpoint_line(checkpoint))
        if args.record_trace:
            print(f"serving: mutation trace recorded to {args.record_trace}")
    if args.scores_csv:
        with open(args.scores_csv, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["triple", "score", "accepted", "gold"])
            for j in range(dataset.n_triples):
                writer.writerow(
                    [j, f"{result.scores[j]:.6f}",
                     int(result.accepted[j]), int(dataset.labels[j])]
                )
        print(f"per-triple scores written to {args.scores_csv}")
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    dataset = get_dataset(args.dataset, seed=args.seed)
    specs = paper_method_specs(ltm_iterations=args.ltm_iterations)
    comparison = run_comparison(dataset, specs)
    print(comparison_table(comparison))
    return 0


def _cmd_correlations(args: argparse.Namespace) -> int:
    dataset = get_dataset(args.dataset, seed=args.seed)
    model = fit_model(dataset.observations, dataset.labels)
    state = detect_partition_state(model, min_phi=args.min_phi)
    groups = state.groups()
    names = dataset.observations.source_names
    for side in ("true", "false"):
        print(f"{side}-side correlation groups:")
        if not groups[side]:
            print("  (none)")
        for group in groups[side]:
            members = ", ".join(names[i] for i in group)
            print(f"  [{len(group)}] {members}")
    if dataset.n_sources <= 12:
        rows = []
        for side in ("true", "false"):
            for e in correlation_edges(model, state, side):
                rows.append(
                    [side, names[e.source_i], names[e.source_j],
                     "positive" if e.positive else "negative", e.phi]
                )
        if rows:
            print()
            print(format_table(["side", "A", "B", "direction", "phi"], rows))
    return 0


def _checkpoint_line(stats: "Mapping") -> str:
    """One-line human summary of a run's checkpoint counters."""
    state = "DEGRADED" if stats.get("degraded") else "healthy"
    return (
        f"checkpoint: {state}, {stats.get('records', 0)} WAL records "
        f"({stats.get('mutations', 0)} mutations, "
        f"{stats.get('refits', 0)} refits), "
        f"{stats.get('snapshots', 0)} snapshots, "
        f"{stats.get('torn_repairs', 0)} torn-tail repairs, "
        f"{stats.get('skipped_degraded', 0)} skipped, "
        f"{stats.get('wal_bytes', 0)} WAL bytes in "
        f"{stats.get('directory', '?')}"
    )


def _serve_fault_plan(args: argparse.Namespace) -> "Optional[faults.FaultPlan]":
    """The fault plan ``serve-bench`` arms: none unless ``--chaos``.

    Under ``--chaos``: the ``--faults`` spec, else ``None`` when an
    injector is already armed from ``$REPRO_FAULTS`` (the runner serves
    under it), else a random plan drawn from ``--chaos-seed``.
    """
    if not args.chaos:
        return None
    if args.faults is not None:
        return faults.FaultPlan.from_spec(args.faults)
    if faults.active_injector() is not None:
        return None
    return faults.FaultPlan.random(args.chaos_seed)


def _cmd_serve_bench(args: argparse.Namespace) -> int:
    # Checked here so the error names the flag, not the keyword it feeds.
    check_positive(args.rate, "--rate")
    check_positive(args.budget, "--budget")
    dataset = get_dataset(args.dataset, seed=args.seed)
    try:
        report = run_serving_load(
            dataset,
            method=args.method,
            rate_qps=args.rate,
            requests=args.requests,
            request_triples=args.request_triples,
            latency_budget=args.budget,
            max_queue_depth=args.max_queue_depth,
            max_inflight_bytes=args.max_inflight_bytes,
            mutate_frac=args.mutate_frac,
            refit_every=args.refit_every,
            refit_mode=args.refit_mode,
            fault_plan=_serve_fault_plan(args),
            checkpoint_dir=args.checkpoint_dir,
        )
    except RuntimeError as error:
        # A violated serving invariant: a hang, an accounting gap, an
        # admission leak, a failure with no fault plan armed, or a
        # bit-identity break.
        print(f"error: {error}", file=sys.stderr)
        return 1
    print(dataset.summary())
    stats = report.stats
    rows = [
        ["offered rate (qps)", f"{report.rate_qps:.1f}"],
        ["requests", str(report.requests)],
        ["completed", str(report.completed)],
        ["shed", str(report.shed)],
        ["achieved qps", f"{report.achieved_qps:.1f}"],
        ["p50 latency (ms)", f"{report.p50_latency_seconds * 1e3:.2f}"],
        ["p99 latency (ms)", f"{report.p99_latency_seconds * 1e3:.2f}"],
        ["max latency (ms)", f"{report.max_latency_seconds * 1e3:.2f}"],
        ["deadline misses", str(stats["deadline_misses"])],
        ["refits", str(report.refits)],
    ]
    if report.fault_spec is not None:
        fired = report.fault_stats.get("fired", {})
        resilience = stats["resilience"]
        rows += [
            ["fault plan", report.fault_spec],
            ["faults fired", ", ".join(
                f"{site}x{n}" for site, n in sorted(fired.items())
            ) or "none"],
            ["failed", str(report.failed)],
            ["retries", str(resilience["retries"])],
            ["degraded batches", str(resilience["degraded_batches"])],
            ["forced degrades", str(resilience["forced_degrades"])],
            ["refit attempts", str(report.refit_attempts)],
            ["refit failures", str(report.refit_failures)],
        ]
    rows += [
        ["admission depth after", str(stats["admission"]["depth"])],
        ["max |served - twin|", f"{report.max_abs_diff:.1e}"],
    ]
    print(format_table(["serving", "value"], rows))
    routing = stats["routing"]
    admission = stats["admission"]
    print(
        f"\nlanes: delta={routing.get('delta_routed', 0)} "
        f"cold={routing.get('cold_routed', 0)} "
        f"(churn evictions: {routing.get('churn_evictions', 0)}); "
        f"admission peak depth {admission.get('peak_depth', 0)}/"
        f"{admission.get('max_queue_depth', 0)}"
    )
    if report.checkpoint_stats:
        print(_checkpoint_line(report.checkpoint_stats))
    print(
        "all admitted requests terminated, the admission ledger drained "
        "to zero, and completed scores are bit-identical to the "
        "fault-free cold twin"
    )
    return 0


def _cmd_recover(args: argparse.Namespace) -> int:
    """``repro recover``: dry-run recovery and print what it found."""
    import json

    from repro.persist import RecoveryError, RecoveryManager

    manager = RecoveryManager(args.checkpoint_dir)
    try:
        recovered = manager.recover()
    except RecoveryError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    try:
        report = recovered.report()
        report["method"] = recovered.config.get("method")
        report["n_sources"] = recovered.observations.n_sources
        report["n_triples"] = recovered.observations.n_triples
        print(json.dumps(report, indent=2))
        if recovered.snapshots_skipped:
            print(
                f"warning: {len(recovered.snapshots_skipped)} corrupt "
                "snapshot(s) skipped; recovery fell back to an older one",
                file=sys.stderr,
            )
        if recovered.wal_torn_bytes:
            print(
                f"note: {recovered.wal_torn_bytes} torn bytes at the WAL "
                "tail will be truncated on the next serving run",
                file=sys.stderr,
            )
    finally:
        recovered.session.close()
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    try:
        if args.command == "datasets":
            return _cmd_datasets()
        if args.command == "fuse":
            return _cmd_fuse(args)
        if args.command == "compare":
            return _cmd_compare(args)
        if args.command == "correlations":
            return _cmd_correlations(args)
        if args.command == "serve-bench":
            return _cmd_serve_bench(args)
        if args.command == "recover":
            return _cmd_recover(args)
    except ValueError as error:
        # Unsupported option combinations (e.g. --method em with
        # --smoothing or --decision-prior) raise ValueError with an
        # actionable message; surface it cleanly instead of a traceback.
        print(f"error: {error}", file=sys.stderr)
        return 2
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
