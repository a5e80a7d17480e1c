"""Experiment harness: run methods over datasets the way Section 5 does.

The harness owns three jobs:

- **MethodSpec** -- a named recipe that builds a fuser *for a given dataset*
  (supervised methods fit their quality model on the dataset's labels at
  build time, exactly like the paper calibrates on the gold standard);
- **run_method / run_comparison** -- execute specs, time them end-to-end
  (fitting + scoring), and package binary metrics, PR/ROC curves and AUCs;
- **sweeps** -- repeat a generator-backed experiment over seeds and average,
  which is how Figures 6 and 7 are produced ("we averaged 10 repetitions").
"""

from __future__ import annotations

import asyncio
import contextlib
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterable, Mapping, Optional, Sequence

import numpy as np

from repro.baselines.estimates import ThreeEstimatesFuser
from repro.baselines.ltm import LatentTruthModel
from repro.baselines.voting import UnionKFuser
from repro.core import faults
from repro.core.api import (
    ScoringSession,
    check_refit_mode,
    fit_model,
    make_fuser,
)
from repro.core.fusion import DEFAULT_THRESHOLD, FusionResult, TruthFuser
from repro.core.observations import ObservationMatrix
from repro.data.model import FusionDataset
from repro.eval.metrics import BinaryMetrics, Curve, binary_metrics, pr_curve, roc_curve

FuserBuilder = Callable[[FusionDataset], TruthFuser]


@dataclass(frozen=True)
class MethodSpec:
    """A named, dataset-parameterised fuser recipe."""

    name: str
    build: FuserBuilder


@dataclass(frozen=True)
class MethodEvaluation:
    """Everything Section 5 reports about one method on one dataset."""

    method: str
    result: FusionResult
    metrics: BinaryMetrics
    pr: Curve
    roc: Curve
    elapsed_seconds: float

    @property
    def precision(self) -> float:
        return self.metrics.precision

    @property
    def recall(self) -> float:
        return self.metrics.recall

    @property
    def f1(self) -> float:
        return self.metrics.f1

    @property
    def auc_pr(self) -> float:
        return self.pr.area

    @property
    def auc_roc(self) -> float:
        return self.roc.area


def evaluate_result(
    result: FusionResult, labels: np.ndarray, elapsed_seconds: Optional[float] = None
) -> MethodEvaluation:
    """Score a finished :class:`FusionResult` against gold labels."""
    labels = np.asarray(labels, dtype=bool)
    return MethodEvaluation(
        method=result.method,
        result=result,
        metrics=binary_metrics(result.accepted, labels),
        pr=pr_curve(result.scores, labels),
        roc=roc_curve(result.scores, labels),
        elapsed_seconds=(
            result.elapsed_seconds if elapsed_seconds is None else elapsed_seconds
        ),
    )


def run_method(dataset: FusionDataset, spec: MethodSpec) -> MethodEvaluation:
    """Build, run, time, and evaluate one method on one dataset.

    The clock covers building (which includes model fitting for supervised
    methods) plus scoring -- the paper's runtimes are end-to-end too.
    """
    start = time.perf_counter()
    fuser = spec.build(dataset)
    result = fuser.fuse(dataset.observations)
    elapsed = time.perf_counter() - start
    result = FusionResult(
        method=spec.name,
        scores=result.scores,
        threshold=result.threshold,
        elapsed_seconds=elapsed,
    )
    return evaluate_result(result, dataset.labels, elapsed_seconds=elapsed)


@dataclass
class Comparison:
    """All methods' evaluations on one dataset, in run order."""

    dataset: FusionDataset
    evaluations: list[MethodEvaluation] = field(default_factory=list)

    def __getitem__(self, method: str) -> MethodEvaluation:
        for evaluation in self.evaluations:
            if evaluation.method == method:
                return evaluation
        raise KeyError(f"no evaluation for method {method!r}")

    @property
    def methods(self) -> list[str]:
        return [e.method for e in self.evaluations]

    def best_by_f1(self) -> MethodEvaluation:
        return max(self.evaluations, key=lambda e: e.f1)


def run_comparison(
    dataset: FusionDataset, specs: Sequence[MethodSpec]
) -> Comparison:
    """Run every spec on the dataset (the paper's Figure 4 protocol)."""
    comparison = Comparison(dataset=dataset)
    for spec in specs:
        comparison.evaluations.append(run_method(dataset, spec))
    return comparison


# ----------------------------------------------------------------------
# Serving loop: fit once, score repeatedly
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ServingReport:
    """Timing of one fit plus repeated scoring through a ScoringSession.

    Attributes
    ----------
    method:
        The session's method name.
    fit_seconds:
        Model fitting + fuser construction time.
    cold_seconds:
        The first ``score`` call -- pays pattern extraction, plan
        collection, compilation, and model evaluation.
    warm_seconds:
        Each subsequent ``score`` call, in order -- the plan-cache path
        (with ``mutate_frac > 0``, the delta path over a mutation trace).
    max_warm_drift:
        Largest ``|warm score - reference score|`` over all repeats.  With
        an unmutated trace the reference is the cold run; with mutation,
        each step's reference is an independent delta-off session scoring
        the same mutated matrix.  Both must be exactly 0.0.  NaN when a
        mutated trace had no delta layer to check (``delta="off"``, EM):
        the session already scores through the plain path, so no
        independent reference exists.
    result:
        The cold run's :class:`FusionResult`.
    delta:
        The session's delta-scoring mode (``"auto"`` / ``"off"``).
    mutate_frac:
        Fraction of triple columns mutated between consecutive repeats
        (0.0 reproduces the identical-matrix serving loop).
    plan_cache_stats, delta_stats:
        Final counters of the compiled-plan cache and the delta engine
        (empty when the layer is absent) -- see
        ``ScoringSession.cache_stats``.
    refit_every, refit_mode:
        The streaming-refit schedule the loop ran with (0 = no refits).
    refit_seconds:
        Wall-clock of each primary-session refit, in step order (empty
        with ``refit_every == 0``).
    refit_max_score_diff:
        Largest ``|primary score - cold-refit reference score|`` over the
        refit steps.  Exactly 0.0 for model-based methods (delta refits
        are bit-identical by construction, and :func:`run_serving` raises
        if not); small but nonzero for warm-started EM (same fixed point,
        different trajectory); NaN when no refits ran.
    refit_stats:
        The session's ``cache_stats()["refit"]`` block: delta vs cold
        refits taken, per-refit dirty-word fractions, EM warm-start
        counters (empty with no refits).
    """

    method: str
    fit_seconds: float
    cold_seconds: float
    warm_seconds: tuple[float, ...]
    max_warm_drift: float
    result: FusionResult
    delta: str = "off"
    mutate_frac: float = 0.0
    plan_cache_stats: Mapping = field(default_factory=dict)
    delta_stats: Mapping = field(default_factory=dict)
    refit_every: int = 0
    refit_mode: str = "cold"
    refit_seconds: tuple[float, ...] = ()
    refit_max_score_diff: float = float("nan")
    refit_stats: Mapping = field(default_factory=dict)
    #: Final :attr:`repro.persist.Checkpointer.stats` when the loop ran
    #: with ``checkpoint_dir`` (empty otherwise).
    checkpoint_stats: Mapping = field(default_factory=dict)

    @property
    def repeats(self) -> int:
        """Warm ``score`` calls after the cold one."""
        return len(self.warm_seconds)

    @property
    def refit_count(self) -> int:
        """Primary-session refits the loop performed."""
        return len(self.refit_seconds)

    @property
    def refit_mean_seconds(self) -> float:
        if not self.refit_seconds:
            return float("nan")
        return float(np.mean(self.refit_seconds))

    @property
    def warm_mean_seconds(self) -> float:
        if not self.warm_seconds:
            return float("nan")
        return float(np.mean(self.warm_seconds))

    @property
    def warm_best_seconds(self) -> float:
        if not self.warm_seconds:
            return float("nan")
        return float(min(self.warm_seconds))

    @property
    def cold_over_warm(self) -> float:
        """Cold-to-warm-mean speedup ratio (NaN with no warm repeats)."""
        warm = self.warm_mean_seconds
        if np.isnan(warm):
            return warm
        return self.cold_seconds / warm if warm > 0 else float("inf")


def mutate_observations(
    observations: ObservationMatrix,
    frac: float,
    rng: np.random.Generator,
) -> ObservationMatrix:
    """Flip provider bits in ``~frac`` of the triple columns.

    The streaming-trace step: for each selected column one random source's
    provide bit is toggled (only where that source covers the triple, so
    the matrix stays valid).  Coverage is untouched -- the shape of real
    update streams, where claims arrive and retract but scopes are stable.
    """
    if not 0.0 <= frac <= 1.0:
        raise ValueError(f"mutate fraction must be in [0, 1], got {frac}")
    n_triples = observations.n_triples
    n_sources = observations.n_sources
    if n_triples == 0 or n_sources == 0 or frac == 0.0:
        return observations
    count = min(max(1, int(round(frac * n_triples))), n_triples)
    columns = rng.choice(n_triples, size=count, replace=False)
    rows = rng.integers(0, n_sources, size=count)
    covered = observations.coverage[rows, columns]
    provides = observations.provides.copy()
    provides[rows[covered], columns[covered]] ^= True
    return ObservationMatrix(
        provides,
        observations.source_names,
        triple_index=observations.triple_index,
        coverage=observations.coverage,
    )


def mutation_trace(
    observations: ObservationMatrix,
    steps: int,
    frac: float,
    seed: int = 0,
) -> list[ObservationMatrix]:
    """``steps`` successive mutations of ``observations`` (cumulative).

    Each step mutates the previous step's matrix, so consecutive entries
    differ by ``~frac`` of their columns -- the replay input for
    ``run_serving(mutate_frac=...)`` and the delta-replay tests.
    """
    if steps < 0:
        raise ValueError(f"steps must be non-negative, got {steps}")
    rng = np.random.default_rng(seed)
    trace: list[ObservationMatrix] = []
    current = observations
    for _ in range(steps):
        current = mutate_observations(current, frac, rng)
        trace.append(current)
    return trace


def run_serving(
    dataset: FusionDataset,
    method: str = "precreccorr",
    repeats: int = 5,
    threshold: float = DEFAULT_THRESHOLD,
    prior: Optional[float] = None,
    smoothing: float = 0.0,
    delta: str = "auto",
    mutate_frac: float = 0.0,
    mutate_seed: int = 0,
    refit_every: int = 0,
    refit_mode: str = "cold",
    checkpoint_dir: Optional[str] = None,
    snapshot_every: int = 4,
    record_trace: Optional[str] = None,
    replay_trace: Optional[str] = None,
    **options: Any,
) -> ServingReport:
    """Fit once on ``dataset`` and score it ``1 + repeats`` times.

    The serving-loop probe behind ``python -m repro fuse --repeat``: one
    :class:`ScoringSession` is fitted on the dataset's labels, the first
    ``score`` is timed cold, and ``repeats`` further calls measure the
    warm path.

    With ``mutate_frac == 0`` every repeat re-scores the identical matrix
    (the compiled-plan-cache loop; with ``delta="auto"`` the delta engine
    short-circuits it outright) and drift is measured against the cold
    run.  With ``mutate_frac > 0`` the repeats replay a *mutation trace*:
    each repeat scores a matrix differing from the previous one in
    ``~mutate_frac`` of its columns -- the streaming-serving shape the
    delta engine exists for -- and every delta-scored step is checked
    bit-for-bit against a plain (non-delta) scoring of the same matrix.

    ``refit_every=N`` (with ``N > 0``) refits the primary session on
    every N-th repeat's matrix (against the dataset's labels) before
    scoring it -- the streaming shape where fresh training labels arrive
    periodically.  ``refit_mode`` picks the strategy: ``"cold"`` rebuilds
    from scratch (:meth:`ScoringSession.refit`), ``"delta"`` transports
    counts incrementally (:meth:`ScoringSession.refit_delta`).  Every
    refit step is verified against an independent reference session that
    always cold-refits in lockstep: for model-based methods the primary's
    post-refit scores must match the reference **exactly** (a nonzero
    difference raises ``RuntimeError``); for warm-started EM the gap is
    recorded in ``refit_max_score_diff`` but not enforced, since a warm
    trajectory reaches the same fixed point without being bitwise
    identical.  Refit wall-clock is kept off the scoring clock and lands
    in ``ServingReport.refit_seconds``.

    The final cache/delta counters land in the report's stats fields.

    ``checkpoint_dir`` arms durability: a
    :class:`repro.persist.Checkpointer` snapshots the initial generation,
    logs every trace step as a WAL mutation record before it is scored,
    and persists each refit (begin/publish records plus snapshots every
    ``snapshot_every`` refits) -- the state a crashed process recovers
    from.  ``record_trace`` writes the mutation trace to a standalone
    recorded-trace file; ``replay_trace`` drives the loop from a
    previously recorded file instead of drawing from ``mutate_frac``.
    """
    if repeats < 0:
        raise ValueError(f"repeats must be non-negative, got {repeats}")
    if not 0.0 <= mutate_frac <= 1.0:
        raise ValueError(
            f"mutate_frac must be in [0, 1], got {mutate_frac}"
        )
    if refit_every < 0:
        raise ValueError(
            f"refit_every must be non-negative, got {refit_every}"
        )
    refit_mode = check_refit_mode(refit_mode)
    session = ScoringSession(
        dataset.observations,
        dataset.labels,
        method=method,
        prior=prior,
        smoothing=smoothing,
        threshold=threshold,
        delta=delta,
        **options,
    )
    checkpointer = None
    if checkpoint_dir is not None:
        from repro.persist import Checkpointer

        checkpointer = Checkpointer.attach(
            session,
            dataset.observations,
            dataset.labels,
            Path(checkpoint_dir),
            snapshot_every=snapshot_every,
        )
    start = time.perf_counter()
    result = session.fuse(dataset.observations)
    cold_seconds = time.perf_counter() - start
    mutated_trace = True
    if replay_trace is not None:
        from repro.persist import replay_mutation_trace

        trace, _ = replay_mutation_trace(
            Path(replay_trace), dataset.observations, limit=repeats
        )
        if len(trace) < repeats:
            raise ValueError(
                f"recorded trace {replay_trace} holds {len(trace)} steps; "
                f"{repeats} repeats requested"
            )
    elif mutate_frac > 0.0:
        trace = mutation_trace(
            dataset.observations, repeats, mutate_frac, seed=mutate_seed
        )
    else:
        trace = [dataset.observations] * repeats
        mutated_trace = False
    if record_trace is not None:
        if not mutated_trace:
            raise ValueError(
                "record_trace needs a mutated trace (mutate_frac > 0 or "
                "replay_trace)"
            )
        from repro.persist import record_mutation_trace

        record_mutation_trace(
            Path(record_trace), dataset.observations, trace, dataset.labels
        )
    reference_session: Optional[ScoringSession] = None
    if refit_every > 0 or (
        mutated_trace and session.delta_scorer is not None
    ):
        # The per-step drift reference must be *independent* of the delta
        # machinery -- the primary session's own fuser shares the pattern
        # memos the delta path populates, so scoring through it could
        # never expose a corrupted memo entry.  A second, delta-off
        # session fits the same model state and scores every mutated
        # matrix through the plain (non-delta) path.  With refits scheduled
        # the reference is also the verification oracle: it always
        # cold-refits in lockstep with the primary, whatever the
        # primary's refit_mode.
        reference_session = ScoringSession(
            dataset.observations,
            dataset.labels,
            method=method,
            prior=prior,
            smoothing=smoothing,
            threshold=threshold,
            delta="off",
            **options,
        )
    warm_seconds: list[float] = []
    refit_seconds: list[float] = []
    max_drift = 0.0
    refit_max_diff = float("nan")
    warm_em_refits = method.lower() == "em" and refit_mode == "delta"
    em_reference_stale = False
    # With mutation but no delta layer (delta="off", EM)
    # session.score *is* the plain path: there is nothing independent to
    # check a mutated step against, and the report says so with NaN
    # instead of a vacuous 0.0.
    drift_checked = not mutated_trace or reference_session is not None
    for step, observations in enumerate(trace, start=1):
        refit_step = refit_every > 0 and step % refit_every == 0
        if checkpointer is not None and mutated_trace:
            # Append-before-apply: the step's matrix becomes durable
            # before any refit or score acts on it.
            checkpointer.log_mutation(observations, step=step - 1)
        if refit_step:
            refit_start = time.perf_counter()
            if refit_mode == "delta":
                session.refit_delta(observations, dataset.labels)
            else:
                session.refit(observations, dataset.labels)
            refit_seconds.append(time.perf_counter() - refit_start)
            if reference_session is not None:
                # Off the clock: the oracle always rebuilds cold.
                reference_session.refit(observations, dataset.labels)
        start = time.perf_counter()
        scores = session.score(observations)
        warm_seconds.append(time.perf_counter() - start)
        if reference_session is not None:
            # Off the clock: the delta path must be bit-identical to
            # plain cold scoring at every step.
            reference = reference_session.score(observations)
        elif drift_checked:
            reference = result.scores
        else:
            continue
        drift = (
            float(np.abs(scores - reference).max()) if len(scores) else 0.0
        )
        if refit_step:
            refit_max_diff = (
                drift
                if np.isnan(refit_max_diff)
                else max(refit_max_diff, drift)
            )
            if drift != 0.0 and not warm_em_refits:
                raise RuntimeError(
                    f"refit_mode={refit_mode!r} scores diverged from a cold "
                    f"refit by {drift} at step {step}; delta refits must be "
                    "bit-identical"
                )
            if warm_em_refits:
                # Warm-started EM legitimately differs from the cold
                # trajectory; keep it out of the bit-identity drift field.
                # The reference session's model now differs from the
                # primary's for good, so later steps can't be compared
                # against it either.
                em_reference_stale = True
                continue
        if em_reference_stale:
            continue
        max_drift = max(max_drift, drift)
    if not drift_checked:
        max_drift = float("nan")
    checkpoint_stats: dict[str, Any] = {}
    if checkpointer is not None:
        checkpoint_stats = checkpointer.stats
        checkpointer.close()
        session.attach_checkpointer(None)
    stats = session.cache_stats()
    return ServingReport(
        method=result.method,
        fit_seconds=session.fit_seconds,
        cold_seconds=cold_seconds,
        warm_seconds=tuple(warm_seconds),
        max_warm_drift=max_drift,
        result=result,
        delta=session.delta,
        mutate_frac=mutate_frac,
        plan_cache_stats={
            key: value
            for key, value in stats.items()
            if not isinstance(value, Mapping)
        },
        delta_stats=dict(stats.get("delta", {})),
        refit_every=refit_every,
        refit_mode=refit_mode,
        refit_seconds=tuple(refit_seconds),
        refit_max_score_diff=refit_max_diff,
        refit_stats=dict(stats.get("refit", {})),
        checkpoint_stats=checkpoint_stats,
    )


# ----------------------------------------------------------------------
# Open-loop serving load: the async front end under a fixed arrival rate
# ----------------------------------------------------------------------


def serving_request_trace(
    observations: ObservationMatrix,
    requests: int,
    request_triples: int,
    mutate_frac: float = 0.02,
    seed: int = 0,
    cold_every: int = 4,
) -> list[ObservationMatrix]:
    """A deterministic per-request trace for the serving load generator.

    Builds a cumulative :func:`mutation_trace` of the full matrix and
    slices one ``request_triples``-wide window out of each step.  Most
    requests read the *same* leading window, so consecutive requests
    differ only in the step's mutated columns -- the delta-lane shape.
    Every ``cold_every``-th request instead reads a roaming window
    elsewhere in the matrix (high churn against the stream), giving the
    cold lane steady traffic.  ``cold_every=0`` disables the roamers.
    """
    if requests < 0:
        raise ValueError(f"requests must be non-negative, got {requests}")
    if request_triples < 1:
        raise ValueError(
            f"request_triples must be >= 1, got {request_triples}"
        )
    width = min(request_triples, observations.n_triples)
    variants = mutation_trace(observations, requests, mutate_frac, seed=seed)
    trace: list[ObservationMatrix] = []
    for k, variant in enumerate(variants):
        mask = np.zeros(variant.n_triples, dtype=bool)
        if cold_every > 0 and k % cold_every == cold_every - 1:
            span = max(1, variant.n_triples - width)
            lo = (1 + k * width) % span
            mask[lo : lo + width] = True
        else:
            mask[:width] = True
        trace.append(variant.restricted_to_triples(mask))
    return trace


@dataclass(frozen=True)
class AsyncServingReport:
    """One open-loop run through the async serving front end.

    A returned report certifies the serving contract;
    :func:`run_serving_load` raises instead of returning one that breaks
    it.  Every request *terminated* (``completed + shed + failed ==
    requests``, nothing hung), the admission ledger drained to exactly
    zero depth and zero in-flight bytes, and every completed request's
    scores are **bit-identical** (``max_abs_diff == 0.0``) to an
    independent fault-free delta-off twin of the generation that served
    it, including requests served across a mid-traffic refit.

    Latencies are *open-loop*: measured from each request's scheduled
    arrival time (``start + k / rate_qps``), not from when the generator
    got around to submitting it, so a backlogged server cannot hide
    queueing delay the way a closed-loop measurement would.  Shed
    requests (typed ``Overloaded`` rejections) are counted, never
    silently retried.  ``failed`` counts requests whose future resolved
    with any other error; that is a legal outcome only while a fault
    plan is armed (``fault_spec`` is then its spec).  ``latency_budget``
    is each request's SLO; ``stats`` is the front end's final
    :attr:`~repro.serve.AsyncServingFrontend.stats` snapshot
    (``stats["deadline_misses"]`` counts served requests that exceeded
    the budget).
    """

    method: str
    rate_qps: float
    requests: int
    completed: int
    shed: int
    failed: int
    duration_seconds: float
    achieved_qps: float
    latency_budget: float
    p50_latency_seconds: float
    p99_latency_seconds: float
    mean_latency_seconds: float
    max_latency_seconds: float
    max_abs_diff: float
    refit_attempts: int
    fault_spec: Optional[str] = None
    latencies: tuple[float, ...] = ()
    stats: Mapping = field(default_factory=dict)
    fault_stats: Mapping = field(default_factory=dict)

    @property
    def terminated(self) -> int:
        return self.completed + self.shed + self.failed

    @property
    def refits(self) -> int:
        """Generation swaps the front end applied."""
        return int(self.stats["refits"])

    @property
    def refit_failures(self) -> int:
        """Refits that faulted and rolled back to the old generation."""
        return int(self.stats["resilience"]["refit_failures"])

    @property
    def checkpoint_stats(self) -> Mapping:
        """The checkpointer's counters (empty without ``checkpoint_dir``)."""
        return self.stats["checkpoint"]


def _latency_percentile(latencies: Sequence[float], q: float) -> float:
    if not latencies:
        return float("nan")
    return float(np.percentile(np.asarray(latencies, dtype=float), q))


def run_serving_load(
    dataset: FusionDataset,
    method: str = "precreccorr",
    rate_qps: float = 200.0,
    requests: int = 200,
    request_triples: int = 96,
    latency_budget: float = 0.05,
    max_batch_requests: int = 32,
    max_queue_depth: int = 256,
    max_inflight_bytes: Optional[int] = None,
    mutate_frac: float = 0.02,
    cold_every: int = 4,
    seed: int = 0,
    refit_every: int = 0,
    refit_mode: str = "delta",
    fault_plan: Optional[faults.FaultPlan] = None,
    max_seconds: float = 120.0,
    checkpoint_dir: Optional[str] = None,
    snapshot_every: int = 4,
    **options: Any,
) -> AsyncServingReport:
    """Drive the async front end with an open-loop load generator.

    Arrivals are scheduled at fixed times ``k / rate_qps`` regardless of
    completions (open-loop -- the load does not slow down when the
    server falls behind, unlike a closed-loop driver whose backpressure
    flatters p99).  Each request is one window of a deterministic
    mutation trace (:func:`serving_request_trace`) submitted with
    ``latency_budget``; overload sheds are counted via the front end's
    typed ``Overloaded`` error.

    ``refit_every=N`` (requests) schedules generation swaps *during* the
    run: at every N-th arrival slot a refit task submits the step's full
    mutated matrix through :meth:`AsyncServingFrontend.refit` with
    ``refit_mode``, exercising the drain -> swap -> replay protocol
    under live traffic.  ``method="em"`` cannot be combined with
    ``refit_every > 0``: warm-started EM refits are not bitwise
    reproducible, so no independent oracle exists.

    ``fault_plan`` arms a :class:`~repro.core.faults.FaultPlan` for the
    traffic phase (session build, checkpoint begin and traffic).  With
    no plan, an injector already armed (e.g. from ``$REPRO_FAULTS``)
    stays live for that phase.  Injection is suspended while the twins
    verify and a pre-armed injector is put back afterwards, so the
    oracle always runs fault-free.  While an injector is armed, a
    request failing with a non-``Overloaded`` error and a refit that
    rolls back are legal outcomes; without one, either raises
    ``RuntimeError``.

    Every run *asserts* the serving contract and raises ``RuntimeError``
    on any violation:

    - termination: the traffic phase finishes within ``max_seconds``
      wall clock (a watchdog -- a hang is a failure, not a wait), and
      every request ends completed, shed or failed;
    - admission drain: queue depth and in-flight bytes are exactly zero
      after the front end closes (no leaked budget on any error path);
    - bit-identity: every completed request matches an independent
      delta-off twin session of the generation that served it
      (cold-fitted on exactly that generation's inputs) with
      ``max_abs_diff == 0.0`` -- every degradation-ladder rung is
      exactness-preserving.

    The front end runs with fixed resilience settings: a 1 s timeout per
    scoring attempt, two retries with jitter seeded by ``seed``, and
    per-lane breakers that open after five consecutive failures for
    0.25 s and degrade delta traffic to the cold lane.  ``checkpoint_dir``
    arms durability: a :class:`~repro.persist.Checkpointer` is attached
    through the front end, so every mid-traffic generation swap lands in
    the WAL (input mutation + begin/publish) and snapshots follow the
    ``snapshot_every`` cadence; under a fault plan, ``persist``-site
    faults (torn writes, IO errors) land inside those writes and the
    checkpointer must absorb them, degrading visibly
    (``checkpoint_stats["degraded"]``) rather than failing the serving
    path.
    """
    from repro.serve import AsyncServingFrontend, Overloaded, RetryPolicy

    # ``not x > 0.0`` refuses NaN too; ``inf`` stays legal (a burst).
    if not rate_qps > 0.0:
        raise ValueError(f"rate_qps must be positive, got {rate_qps}")
    if requests < 1:
        raise ValueError(f"requests must be >= 1, got {requests}")
    if refit_every < 0:
        raise ValueError(
            f"refit_every must be non-negative, got {refit_every}"
        )
    if not max_seconds > 0.0:
        raise ValueError(f"max_seconds must be positive, got {max_seconds}")
    refit_mode = check_refit_mode(refit_mode)
    if refit_every > 0 and method.lower() == "em":
        raise ValueError(
            "refit_every > 0 is not supported with method='em': warm EM "
            "refits are not bitwise reproducible, so served scores have "
            "no independent oracle"
        )
    trace = serving_request_trace(
        dataset.observations,
        requests,
        request_triples,
        mutate_frac=mutate_frac,
        seed=seed,
        cold_every=cold_every,
    )
    # Full-matrix refit inputs, one per scheduled refit, continuing the
    # request trace's mutation stream deterministically.
    n_refits = requests // refit_every if refit_every > 0 else 0
    refit_matrices = mutation_trace(
        dataset.observations, n_refits, mutate_frac, seed=seed + 1
    )
    results: list[Optional[Any]] = [None] * requests
    errors: "dict[int, BaseException]" = {}
    refit_errors: list[BaseException] = []
    latencies: list[float] = []
    # Training inputs per generation number; refits that roll back never
    # get one.
    fit_inputs = {0: dataset.observations}
    shed = 0

    async def _run(frontend: AsyncServingFrontend) -> float:
        nonlocal shed
        async with frontend:
            loop = asyncio.get_running_loop()
            start = loop.time()

            async def fire(k: int, matrix: ObservationMatrix) -> None:
                nonlocal shed
                scheduled = start + k / rate_qps
                delay = scheduled - loop.time()
                if delay > 0:
                    await asyncio.sleep(delay)
                try:
                    results[k] = await frontend.submit_detailed(
                        matrix, latency_budget=latency_budget
                    )
                except Overloaded:
                    shed += 1
                    return
                except Exception as error:  # fault-barrier: a per-request failure is recorded and judged after the run (legal only under an armed fault plan)
                    errors[k] = error
                    return
                latencies.append(loop.time() - scheduled)

            async def refit_at(g: int, matrix: ObservationMatrix) -> None:
                scheduled = start + (g + 1) * refit_every / rate_qps
                delay = scheduled - loop.time()
                if delay > 0:
                    await asyncio.sleep(delay)
                try:
                    generation = await frontend.refit(
                        matrix, dataset.labels, mode=refit_mode
                    )
                except Exception as error:  # fault-barrier: a refit that rolled back is recorded and judged after the run (legal only under an armed fault plan)
                    refit_errors.append(error)
                else:
                    fit_inputs[generation] = matrix

            tasks = [
                asyncio.ensure_future(fire(k, matrix))
                for k, matrix in enumerate(trace)
            ]
            tasks.extend(
                asyncio.ensure_future(refit_at(g, matrix))
                for g, matrix in enumerate(refit_matrices)
            )
            try:
                await asyncio.wait_for(
                    asyncio.gather(*tasks), timeout=max_seconds
                )
            except asyncio.TimeoutError:
                for task in tasks:
                    task.cancel()
                raise RuntimeError(
                    "serving accounting violation: the run did not "
                    f"terminate within {max_seconds}s (possible hang)"
                    f"{plan_note}"
                ) from None
            return loop.time() - start

    traffic_faults: "contextlib.AbstractContextManager[Optional[faults.FaultInjector]]" = (
        faults.armed(fault_plan)
        if fault_plan is not None
        else contextlib.nullcontext(faults.active_injector())
    )
    with traffic_faults as injector:
        fault_spec = injector.plan.spec if injector is not None else None
        plan_note = (
            f" under fault plan {fault_spec!r}" if fault_spec else ""
        )
        session = ScoringSession(
            dataset.observations,
            dataset.labels,
            method=method,
            **options,
        )
        checkpointer = None
        try:
            if checkpoint_dir is not None:
                from repro.persist import Checkpointer

                checkpointer = Checkpointer(
                    Path(checkpoint_dir), snapshot_every=snapshot_every
                )
                checkpointer.begin(
                    session, dataset.observations, dataset.labels
                )
            frontend = AsyncServingFrontend(
                session,
                max_queue_depth=max_queue_depth,
                max_inflight_bytes=max_inflight_bytes,
                max_batch_requests=max_batch_requests,
                default_latency_budget=latency_budget,
                checkpointer=checkpointer,
                retry_policy=RetryPolicy(max_retries=2, jitter_seed=seed),
                scoring_timeout=1.0,
                breaker_threshold=5,
                breaker_cooldown=0.25,
                breaker_policy="degrade",
            )
            duration = asyncio.run(_run(frontend))
        except BaseException:
            if checkpointer is not None:
                checkpointer.close()
            session.close()
            raise
        fault_stats = injector.stats if injector is not None else {}
    # The twin phase runs disarmed whatever the caller had installed;
    # armed(None) reinstalls a pre-armed injector on the way out.
    with faults.armed(None):
        stats = frontend.stats
        if checkpointer is not None:
            checkpointer.close()
            session.attach_checkpointer(None)
        twins: "dict[int, ScoringSession]" = {}
        max_abs_diff = 0.0
        try:
            if fault_spec is None and (errors or refit_errors):
                first = (
                    errors[min(errors)] if errors else refit_errors[0]
                )
                raise RuntimeError(
                    f"serving failure without a fault plan: {len(errors)} "
                    f"request(s) and {len(refit_errors)} refit(s) failed; "
                    f"first: {first!r}"
                ) from first
            for k, result in enumerate(results):
                if result is None:
                    continue
                generation = int(result.generation)
                twin = twins.get(generation)
                if twin is None:
                    twin = ScoringSession(
                        fit_inputs[generation],
                        dataset.labels,
                        method=method,
                        delta="off",
                        **options,
                    )
                    twins[generation] = twin
                direct = twin.score(trace[k])
                if len(result.scores):
                    diff = float(np.abs(result.scores - direct).max())
                    max_abs_diff = max(max_abs_diff, diff)
        finally:
            for twin in twins.values():
                twin.close()
            session.close()
    completed = sum(1 for result in results if result is not None)
    report = AsyncServingReport(
        method=method,
        rate_qps=float(rate_qps),
        requests=requests,
        completed=completed,
        shed=shed,
        failed=len(errors),
        duration_seconds=float(duration),
        achieved_qps=completed / duration if duration > 0 else float("nan"),
        latency_budget=float(latency_budget),
        p50_latency_seconds=_latency_percentile(latencies, 50.0),
        p99_latency_seconds=_latency_percentile(latencies, 99.0),
        mean_latency_seconds=(
            float(np.mean(latencies)) if latencies else float("nan")
        ),
        max_latency_seconds=(
            float(np.max(latencies)) if latencies else float("nan")
        ),
        max_abs_diff=max_abs_diff,
        refit_attempts=n_refits,
        fault_spec=fault_spec,
        latencies=tuple(latencies),
        stats=stats,
        fault_stats=fault_stats,
    )
    if report.terminated != requests:
        raise RuntimeError(
            "serving accounting violation: "
            f"completed({completed}) + shed({shed}) + "
            f"failed({report.failed}) != requests({requests}){plan_note}"
        )
    admission = stats["admission"]
    if admission["depth"] or admission["inflight_bytes"]:
        raise RuntimeError(
            "serving admission leak: after drain depth="
            f"{admission['depth']}, inflight_bytes="
            f"{admission['inflight_bytes']} (both must be 0){plan_note}"
        )
    if max_abs_diff != 0.0:
        raise RuntimeError(
            "serving bit-identity violation: max |served - twin| = "
            f"{max_abs_diff!r} (must be exactly 0.0){plan_note}"
        )
    return report


# ----------------------------------------------------------------------
# Standard method line-ups
# ----------------------------------------------------------------------


def supervised_spec(
    name: str,
    method: str,
    prior: Optional[float] = None,
    smoothing: float = 0.0,
    decision_prior: Optional[float] = 0.5,
    **options: Any,
) -> MethodSpec:
    """Spec for a model-based fuser calibrated on the dataset's labels.

    ``prior=None`` estimates ``alpha`` from the labels for the quality
    model; ``decision_prior=0.5`` fixes the posterior's ``alpha`` the way
    the paper's Section 5 protocol does ("we set alpha = 0.5").
    """

    def build(dataset: FusionDataset) -> TruthFuser:
        model = fit_model(
            dataset.observations,
            dataset.labels,
            prior=prior,
            smoothing=smoothing,
        )
        fuser = make_fuser(method, model, decision_prior=decision_prior, **options)
        fuser.name = name
        return fuser

    return MethodSpec(name=name, build=build)


def paper_method_specs(
    prior: Optional[float] = None,
    smoothing: float = 0.0,
    decision_prior: Optional[float] = 0.5,
    ltm_iterations: int = 60,
    ltm_burn_in: int = 10,
    ltm_seed: int = 7,
    estimates_iterations: int = 20,
    corr_options: Optional[Mapping] = None,
) -> list[MethodSpec]:
    """The seven methods of the paper's main comparison (Figure 4).

    UNION-25/50/75, 3-Estimates, LTM, PrecRec, and PrecRecCorr -- the last
    automatically switches from the exact solver to the clustered one on
    wide source sets, mirroring the paper's BOOK treatment.
    """
    corr_options = dict(corr_options or {})
    return [
        MethodSpec("Union-25", lambda ds: UnionKFuser(25)),
        MethodSpec("Union-50", lambda ds: UnionKFuser(50)),
        MethodSpec("Union-75", lambda ds: UnionKFuser(75)),
        MethodSpec(
            "3-Estimates",
            lambda ds: ThreeEstimatesFuser(iterations=estimates_iterations),
        ),
        MethodSpec(
            "LTM",
            lambda ds: LatentTruthModel(
                iterations=ltm_iterations,
                burn_in=min(ltm_burn_in, max(ltm_iterations // 2, 1)),
                seed=ltm_seed,
            ),
        ),
        supervised_spec(
            "PrecRec", "precrec",
            prior=prior, smoothing=smoothing, decision_prior=decision_prior,
        ),
        supervised_spec(
            "PrecRecCorr", "precreccorr",
            prior=prior, smoothing=smoothing, decision_prior=decision_prior,
            **corr_options,
        ),
    ]


# ----------------------------------------------------------------------
# Repetition sweeps (Figures 6 and 7)
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class SweepPoint:
    """Mean +/- std of each method's F1 at one sweep configuration."""

    label: str
    mean_f1: Mapping[str, float]
    std_f1: Mapping[str, float]


def sweep_f1(
    label: str,
    dataset_factory: Callable[[int], FusionDataset],
    specs: Sequence[MethodSpec],
    repetitions: int = 10,
    base_seed: int = 0,
) -> SweepPoint:
    """Average each method's F1 over ``repetitions`` generated datasets."""
    if repetitions < 1:
        raise ValueError(f"repetitions must be >= 1, got {repetitions}")
    per_method: dict[str, list[float]] = {spec.name: [] for spec in specs}
    for rep in range(repetitions):
        dataset = dataset_factory(base_seed + rep)
        for spec in specs:
            evaluation = run_method(dataset, spec)
            per_method[spec.name].append(evaluation.f1)
    return SweepPoint(
        label=label,
        mean_f1={name: float(np.mean(v)) for name, v in per_method.items()},
        std_f1={name: float(np.std(v)) for name, v in per_method.items()},
    )


def run_sweep(
    points: Iterable[tuple[str, Callable[[int], FusionDataset]]],
    specs: Sequence[MethodSpec],
    repetitions: int = 10,
    base_seed: int = 0,
) -> list[SweepPoint]:
    """Run :func:`sweep_f1` for each labelled dataset factory."""
    return [
        sweep_f1(label, factory, specs, repetitions=repetitions, base_seed=base_seed)
        for label, factory in points
    ]
