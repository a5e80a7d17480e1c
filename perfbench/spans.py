"""Layer spans and work counters, recorded around calls into each layer.

With ``--trace 1`` the benchmark wraps the entry points of each layer
of the engine (named in :data:`LAYERS`) with timing wrappers before the
measured phase, and removes them afterwards; the program itself is not
changed.  Each wrapped call opens a span (layer, start, end, parent
span, request id) on a per-thread stack.  A layer's *self time* is its
spans' duration minus the part covered by child spans of other layers,
so the per-layer figures do not double count.  A call into a layer that
is already the innermost open span is folded into that span.

:data:`PROBES` are wrapped for counts only (no span): distinct patterns
extracted, joint-model rows evaluated, plan builds, memo hits, dirty
columns, durable bytes and fsyncs, front-end batch sizes.

Spans stay in memory and are written out at the end when ``--spans-out``
is given.  Tracing adds a Python call per wrapped entry point, so the
end-to-end metrics always come from an untraced run.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Optional

#: Layer name -> entry points ("module:qualname"), bottom of the stack
#: last.  The front end's own work (admission, lanes, deadline batching)
#: is what remains of serve latency outside these spans.
LAYERS: dict[str, tuple[str, ...]] = {
    "fit": (
        "repro.core.api:ScoringSession.__init__",
        "repro.core.api:ScoringSession.refit",
        "repro.core.api:ScoringSession.refit_delta",
    ),
    "correlate": (
        "repro.core.clustering:correlation_clusters",
        "repro.core.clustering:pairwise_correlations",
        "repro.core.clustering:detect_partition_state",
        "repro.core.clustering:refresh_partition_state",
    ),
    "delta": ("repro.core.deltas:DeltaScorer.score",),
    "fuser": (
        "repro.core.fusion:ModelBasedFuser.score",
        "repro.core.fusion:ModelBasedFuser.pattern_probabilities",
        "repro.core.clustering:ClusteredCorrelationFuser.pattern_mu_batch",
        "repro.core.exact:ExactCorrelationFuser.pattern_likelihoods_batch",
        "repro.core.elastic:ElasticFuser.pattern_likelihoods_batch",
    ),
    "plan": (
        "repro.core.plans:ExactUnionPlan.build",
        "repro.core.plans:ExactUnionPlan.compile",
        "repro.core.plans:CompiledExactPlan.accumulate",
        "repro.core.plans:ElasticUnionPlan.build",
        "repro.core.plans:ElasticUnionPlan.compile",
        "repro.core.plans:CompiledElasticPlan.accumulate",
    ),
    "patterns": (
        "repro.core.patterns:extract_patterns",
        "repro.core.patterns:restricted_unique_patterns",
    ),
    "joint": ("repro.core.joint:EmpiricalJointModel.joint_params_batch",),
    "wal": (
        "repro.persist.checkpoint:Checkpointer.log_mutation",
        "repro.persist.checkpoint:Checkpointer.prepare_refit",
        "repro.persist.checkpoint:Checkpointer.commit_refit",
    ),
}

#: Layers whose self time is reported as a per-layer metric.  Every
#: workload passes through each of them; the durable log is reported by
#: its counters instead, since the cold workload never writes one.
TIMED_LAYERS = ("fit", "correlate", "delta", "fuser", "plan", "patterns", "joint")


def _count_patterns(tracer: "Tracer", args: tuple, result: Any) -> None:
    tracer.count("patterns", int(result.n_patterns))


def _count_joint_rows(tracer: "Tracer", args: tuple, result: Any) -> None:
    tracer.count("joint_rows", int(len(args[1])))


def _count_plan_build(tracer: "Tracer", args: tuple, result: Any) -> None:
    tracer.count("plan_builds", 1)


def _count_memo(tracer: "Tracer", args: tuple, result: Any) -> None:
    keys = len(args[1])
    tracer.count("memo_lookups", keys)
    tracer.count("memo_hits", keys - int(len(result[1])))


def _count_dirty(tracer: "Tracer", args: tuple, result: Any) -> None:
    if result is not None:
        tracer.count("dirty_columns", int(result.size))
        tracer.count("diffed_columns", int(args[1].n_triples))


def _count_durable(tracer: "Tracer", args: tuple, result: Any) -> None:
    tracer.count("durable_bytes", len(args[1]))


def _count_fsync(tracer: "Tracer", args: tuple, result: Any) -> None:
    tracer.count("fsyncs", 1)


def _count_batch(tracer: "Tracer", args: tuple, result: Any) -> None:
    tracer.count("batches", 1)
    tracer.count("batched_requests", len(args[1]))


#: Entry point -> counter probe (called with the call's args and result).
PROBES: dict[str, Callable[["Tracer", tuple, Any], None]] = {
    "repro.core.patterns:extract_patterns": _count_patterns,
    "repro.core.joint:EmpiricalJointModel.joint_params_batch": _count_joint_rows,
    "repro.core.plans:ExactUnionPlan.build": _count_plan_build,
    "repro.core.plans:ElasticUnionPlan.build": _count_plan_build,
    "repro.core.plans:PatternValueMemo.lookup": _count_memo,
    "repro.core.deltas:dirty_columns": _count_dirty,
    "repro.persist.atomic:durable_write": _count_durable,
    "os:fsync": _count_fsync,
    "repro.core.api:ScoringSession.score_batch": _count_batch,
}


class _Open:
    __slots__ = ("layer", "index", "child")

    def __init__(self, layer: str, index: int) -> None:
        self.layer = layer
        self.index = index
        self.child = 0.0


class Tracer:
    """Installs span/counter wrappers; accumulates self time per layer."""

    def __init__(self, keep_spans: bool = False) -> None:
        self._keep = keep_spans
        self._local = threading.local()
        self._lock = threading.Lock()
        self._restore: list[tuple[Any, str, Any]] = []
        self.self_seconds: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.spans: list[tuple[str, int, float, float, int, int]] = []
        self._next_index = 0
        self.missing: list[str] = []
        #: Set while the benchmark does work that is not a request.
        self.suspended = False
        self.broken: set[str] = set()

    # -- request scoping -------------------------------------------------

    def set_request(self, request: int) -> None:
        """Tag spans opened on this thread with ``request`` (-1: none)."""
        self._local.request = request

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, name: str, amount: int) -> None:
        with self._lock:
            self.counts[name] += amount

    # -- wrappers --------------------------------------------------------

    def _wrap(
        self,
        fn: Callable,
        layer: Optional[str],
        probe: Optional[Callable[["Tracer", tuple, Any], None]],
    ) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if tracer.suspended:
                return fn(*args, **kwargs)
            stack = tracer._stack()
            if layer is None or (stack and stack[-1].layer == layer):
                result = fn(*args, **kwargs)
            else:
                with tracer._lock:
                    index = tracer._next_index
                    tracer._next_index += 1
                span = _Open(layer, index)
                parent = stack[-1].index if stack else -1
                stack.append(span)
                start = time.perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    end = time.perf_counter()
                    stack.pop()
                    duration = end - start
                    if stack:
                        stack[-1].child += duration
                    with tracer._lock:
                        tracer.self_seconds[layer] += duration - span.child
                        if tracer._keep:
                            tracer.spans.append((
                                layer, index, start, end, parent,
                                getattr(tracer._local, "request", -1),
                            ))
            if probe is not None:
                try:
                    probe(tracer, args, result)
                except (AttributeError, IndexError, TypeError):
                    # The entry point changed shape: its counter reads 0.
                    tracer.broken.add(fn.__qualname__)
            return result

        return wrapper

    def _patch(
        self,
        target: str,
        layer: Optional[str],
        probe: Optional[Callable[["Tracer", tuple, Any], None]],
    ) -> None:
        module_name, qualname = target.split(":")
        try:
            owner: Any = importlib.import_module(module_name)
            *path, name = qualname.split(".")
            for part in path:
                owner = getattr(owner, part)
            raw = vars(owner)[name]
        except (ImportError, AttributeError, KeyError):
            self.missing.append(target)
            return
        if isinstance(owner, type):
            if isinstance(raw, (classmethod, staticmethod)):
                wrapped: Any = type(raw)(self._wrap(raw.__func__, layer, probe))
            else:
                wrapped = self._wrap(raw, layer, probe)
            self._restore.append((owner, name, raw))
            setattr(owner, name, wrapped)
            return
        # A module-level function: replace it in every module that bound
        # it by import, so callers see the wrapper whichever name they use.
        wrapped = self._wrap(raw, layer, probe)
        holders = [owner] + [
            module for key, module in list(sys.modules.items())
            if key.startswith("repro") and module is not owner
        ]
        for holder in holders:
            for attr, value in list(vars(holder).items()):
                if value is raw:
                    self._restore.append((holder, attr, raw))
                    setattr(holder, attr, wrapped)

    def install(self) -> None:
        """Wrap every layer entry point and probe."""
        for target, probe in PROBES.items():
            layer = next(
                (name for name, targets in LAYERS.items() if target in targets),
                None,
            )
            self._patch(target, layer, probe)
        for layer, targets in LAYERS.items():
            for target in targets:
                if target not in PROBES:
                    self._patch(target, layer, None)
        if self.missing:
            print(
                "perfbench: entry points not found, their metrics read 0: "
                + ", ".join(self.missing),
                file=sys.stderr,
            )

    def uninstall(self) -> None:
        """Put every wrapped attribute back."""
        for holder, attr, raw in reversed(self._restore):
            setattr(holder, attr, raw)
        self._restore.clear()
        if self.broken:
            print(
                "perfbench: counter probes failed, their counts read 0: "
                + ", ".join(sorted(self.broken)),
                file=sys.stderr,
            )

    # -- results ---------------------------------------------------------

    def metrics(self, requests: int) -> dict[str, tuple[float, str]]:
        """The per-layer metrics, normalised per measured request."""
        n = max(requests, 1)
        counts = self.counts
        out = {
            f"{layer}_ms": (self.self_seconds[layer] * 1e3 / n, "ms")
            for layer in TIMED_LAYERS
        }
        out["patterns_per_req"] = (counts["patterns"] / n, "count")
        out["joint_rows_per_req"] = (counts["joint_rows"] / n, "count")
        out["plan_builds_per_req"] = (counts["plan_builds"] / n, "count")
        out["memo_hit_rate"] = (
            counts["memo_hits"] / counts["memo_lookups"]
            if counts["memo_lookups"] else 0.0,
            "ratio",
        )
        out["dirty_fraction"] = (
            counts["dirty_columns"] / counts["diffed_columns"]
            if counts["diffed_columns"] else 0.0,
            "ratio",
        )
        out["durable_bytes_per_req"] = (counts["durable_bytes"] / n, "bytes")
        out["fsyncs_per_req"] = (counts["fsyncs"] / n, "count")
        out["batch_size_mean"] = (
            counts["batched_requests"] / counts["batches"]
            if counts["batches"] else 0.0,
            "count",
        )
        out["requests"] = (float(requests), "count")
        return out

    def write_spans(self, path: str) -> None:
        """Dump the recorded spans as JSON (times relative to the first)."""
        origin = min((span[2] for span in self.spans), default=0.0)
        rows = [
            {
                "layer": layer, "id": index, "parent": parent,
                "request": request,
                "start_us": round((start - origin) * 1e6, 1),
                "end_us": round((end - origin) * 1e6, 1),
            }
            for layer, index, start, end, parent, request in self.spans
        ]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(rows, handle)
            handle.write("\n")
