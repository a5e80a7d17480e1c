"""Benchmark of the fusion engine on three workloads: cold, stream, serve.

Run from the repository root::

    python3 perfbench/run.py --workload stream --seed 1 --seconds 10 --trace 0

The program is imported from ``src/`` next to this directory (no build
step).  Inputs are generated from ``--seed``; the workload measures for
``--seconds`` seconds, checks its outputs, and prints one JSON object as
the last line of standard output::

    {"correct": true, "attempted": 1969, "failed": 0, "metrics": {...}}

``--trace 0`` reports the end-to-end metrics (latency percentiles,
throughput, set-up time); ``--trace 1`` reruns with span wrappers around
each layer and reports the per-layer metrics instead.  Human-readable
notes go to standard error.  Durable state lives in a scratch directory
under ``.perfbench-work/`` and is removed on exit.  See README.md here
for the workloads and metric definitions.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

try:
    import numpy as np

    import repro
except ImportError as error:
    print(f"perfbench: cannot import the program from {ROOT / 'src'}: {error}",
          file=sys.stderr)
    sys.exit(2)
if not Path(repro.__file__).resolve().is_relative_to(ROOT / "src"):
    print(f"perfbench: refusing to measure repro from {repro.__file__}, "
          f"not from {ROOT / 'src'}", file=sys.stderr)
    sys.exit(2)

from spans import Tracer  # noqa: E402
from workloads import WORKLOADS, Outcome, run  # noqa: E402


def sliced(outcome: Outcome, stat: Callable[[np.ndarray], float]) -> float:
    """Median over the run's time slices of ``stat`` of each slice's latencies.

    A transient stall of the shared host slows one or two slices; the
    median over slices keeps it from moving the result.  Requests are
    assigned to the slice they started (or were due) in; a trailing
    partial slice is dropped unless it is the only one.  Closed-loop
    latencies are scaled to the nominal host speed (see ``host.py``);
    open-loop latencies are not, since most of one is a wait for the
    batching deadline, which does not stretch with the host.
    """
    width = outcome.slice_seconds
    full = max(1, int(outcome.elapsed // width))
    groups: list[list[float]] = [[] for _ in range(full)]
    for offset, latency in outcome.samples:
        if not outcome.open_loop:
            start = outcome.begin + offset
            latency *= outcome.host.scale_around(start, start + latency)
        index = int(offset // width)
        if index < full or full == 1:
            groups[min(index, full - 1)].append(latency)
    return float(np.median([stat(np.asarray(g)) for g in groups if g]))


def end_to_end(outcome: Outcome) -> dict[str, tuple[float, str]]:
    if outcome.open_loop:
        # Achieved rate: completions over the time until the last one.
        throughput = len(outcome.samples) / outcome.elapsed
    else:
        # Requests per second of the single client's busy time.
        throughput = sliced(outcome, lambda g: g.size / float(g.sum()))
    return {
        "latency_p50_ms": (sliced(outcome, lambda g: np.percentile(g, 50)) * 1e3, "ms"),
        "latency_p90_ms": (sliced(outcome, lambda g: np.percentile(g, 90)) * 1e3, "ms"),
        "throughput_rps": (throughput, "1/s"),
        "setup_s": (statistics.median(outcome.setups), "s"),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans-out", help="write the traced spans here as JSON")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    tracer = Tracer(keep_spans=args.spans_out is not None) if args.trace else None
    outcome = run(args.workload, args.seed, args.seconds, tracer, ROOT / ".perfbench-work")
    if not outcome.samples:
        print("perfbench: no request completed", file=sys.stderr)
        return 1

    if tracer is None:
        metrics = end_to_end(outcome)
    else:
        metrics = tracer.metrics(len(outcome.samples))
        metrics.update(outcome.layer)
        if args.spans_out:
            tracer.write_spans(args.spans_out)
    outcome.notes.append(
        f"reference kernel median {statistics.median(outcome.host.times) * 1e3:.3f} ms "
        f"({len(outcome.host.times)} probes); set-up median as measured "
        f"{statistics.median(outcome.raw_setups):.4f} s"
    )
    for note in outcome.notes:
        print(f"perfbench: {args.workload}: {note}", file=sys.stderr)
    for problem in outcome.problems:
        print(f"perfbench: {args.workload}: CHECK FAILED: {problem}", file=sys.stderr)
    result = {
        "correct": not outcome.problems,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
