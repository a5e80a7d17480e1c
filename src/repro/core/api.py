"""High-level convenience API: fit a quality model and fuse in one call.

Typical use::

    from repro import fuse

    result = fuse(observations, labels, method="precreccorr")
    accepted = result.accepted

The labels play the role of the paper's training set (Section 3.2): they
calibrate source quality and correlations; scoring is then applied to every
triple in the matrix.  Pass ``train_mask`` to calibrate on a subset only.

For serving traffic -- fit rarely, score constantly -- use
:class:`ScoringSession`, which keeps the fitted model and fuser (and
therefore their compiled-plan caches) alive across many ``score`` calls::

    session = ScoringSession(train_observations, train_labels)
    for batch in request_batches:
        scores = session.score(batch)
"""

from __future__ import annotations

import time
from typing import Any, Optional, Sequence

import numpy as np

from repro.core import faults
from repro.core.aggressive import AggressiveFuser
from repro.core.clustering import (
    ClusteredCorrelationFuser,
    PartitionDetectionState,
    SignificanceMemo,
    detect_partition_state,
    refresh_partition_state,
)
from repro.core.deltas import DeltaScorer
from repro.core.elastic import ElasticFuser
from repro.core.em import ExpectationMaximizationFuser
from repro.core.exact import ExactCorrelationFuser
from repro.core.fusion import (
    DEFAULT_THRESHOLD,
    FusionResult,
    ModelBasedFuser,
    TruthFuser,
)
from repro.core.locktrace import make_lock
from repro.core.joint import (
    DEFAULT_REFIT_CHURN_FRACTION,
    EmpiricalJointModel,
    JointQualityModel,
    ModelRefitStats,
)
from repro.core.observations import ObservationMatrix
from repro.core.precrec import PrecRecFuser
from repro.core.quality import estimate_prior
from repro.util.validation import check_probability

#: Valid values for the delta-scoring opt-out (``delta``).
SERVING_MODES = ("auto", "off")

#: Valid values for the streaming refit strategy (``refit_mode`` knobs).
REFIT_MODES = ("cold", "delta")


def check_refit_mode(value: str) -> str:
    """Validate a ``refit_mode`` knob (shared by harness and CLI)."""
    key = str(value).lower()
    if key not in REFIT_MODES:
        raise ValueError(
            f"refit_mode must be one of {REFIT_MODES}, got {value!r}"
        )
    return key


def _check_serving_mode(value: str) -> str:
    """Validate a ``delta`` knob."""
    key = str(value).lower()
    if key not in SERVING_MODES:
        raise ValueError(
            f"delta must be one of {SERVING_MODES}, got {value!r}"
        )
    return key

#: Canonical method names accepted by :func:`fuse`.
METHOD_NAMES = (
    "precrec",
    "precreccorr",
    "aggressive",
    "elastic",
    "clustered",
    "em",
)

#: Above this many sources the exact method is infeasible and
#: ``method="precreccorr"`` silently switches to the clustered fuser, which
#: is how the paper itself handles the BOOK dataset.
EXACT_SOURCE_LIMIT = 16


def fit_model(
    observations: ObservationMatrix,
    labels: np.ndarray,
    prior: Optional[float] = None,
    smoothing: float = 0.0,
    train_mask: Optional[np.ndarray] = None,
) -> EmpiricalJointModel:
    """Fit an :class:`EmpiricalJointModel` from labelled observations.

    Parameters
    ----------
    observations, labels:
        The data and its gold truth (one boolean per triple).
    prior:
        ``alpha``; estimated from the labels when omitted.
    smoothing:
        Laplace pseudo-count for all quality ratios.
    train_mask:
        Optional boolean mask restricting which triples calibrate the model
        (a train/test split); ``None`` uses everything, as the paper's
        evaluation does.
    """
    labels = np.asarray(labels, dtype=bool)
    if train_mask is not None:
        train_mask = np.asarray(train_mask, dtype=bool)
        observations = observations.restricted_to_triples(train_mask)
        labels = labels[train_mask]
    if prior is None:
        prior = estimate_prior(labels)
    return EmpiricalJointModel(
        observations, labels, prior=prior, smoothing=smoothing
    )


#: ``precreccorr`` options that only parameterise the clustered fallback
#: (dropped when the exact solver runs).
_CLUSTERED_ONLY_OPTIONS = frozenset(
    {
        "true_partition", "false_partition", "min_phi", "min_expected",
        "significance", "exact_cluster_limit", "elastic_level",
        "significance_memo", "carried_elastic",
    }
)

#: ``precreccorr`` options that only parameterise the exact solver (dropped
#: when the dataset is wide enough to route to the clustered fuser).
_EXACT_ONLY_OPTIONS = frozenset({"max_silent_sources"})


def make_fuser(
    method: str,
    model: Optional[JointQualityModel] = None,
    **options: Any,
) -> TruthFuser:
    """Instantiate a fuser by canonical name.

    ``model`` is required for every method except ``"em"``.  ``options`` are
    forwarded to the fuser constructor (e.g. ``level=2`` for elastic,
    ``min_phi=0.25`` for clustered).

    ``method="precreccorr"`` routes by width: the exact solver up to
    ``EXACT_SOURCE_LIMIT`` sources, the clustered fuser beyond it (the
    paper's BOOK treatment).  Solver-specific tuning options are filtered
    symmetrically so one call site can pass both kinds: exact-only options
    (``max_silent_sources``) are dropped on the clustered route, and
    clustered-only options (partitions, ``min_phi``, ``min_expected``,
    ``significance``, ``exact_cluster_limit``, ``elastic_level``) are
    dropped on the exact route.  Options shared by both solvers
    (``decision_prior``, ``max_plan_cache_entries``) always apply.
    """
    key = method.lower().replace("-", "").replace("_", "")
    if key == "em":
        return ExpectationMaximizationFuser(**options)
    if model is None:
        raise ValueError(f"method {method!r} requires a fitted quality model")
    if key == "precrec":
        return PrecRecFuser(model, **options)
    if key == "precreccorr":
        # Solver-specific options are tuning hints, not requirements --
        # filter them symmetrically so one call site can configure both
        # routes without crashing whichever solver ends up running.
        if model.n_sources > EXACT_SOURCE_LIMIT:
            clustered_options = {
                k: v for k, v in options.items() if k not in _EXACT_ONLY_OPTIONS
            }
            return ClusteredCorrelationFuser(model, **clustered_options)
        exact_options = {
            k: v for k, v in options.items() if k not in _CLUSTERED_ONLY_OPTIONS
        }
        return ExactCorrelationFuser(model, **exact_options)
    if key == "exact":
        return ExactCorrelationFuser(model, **options)
    if key == "aggressive":
        return AggressiveFuser(model, **options)
    if key == "elastic":
        return ElasticFuser(model, **options)
    if key == "clustered":
        return ClusteredCorrelationFuser(model, **options)
    raise ValueError(
        f"unknown fusion method {method!r}; expected one of {METHOD_NAMES}"
    )


def fuse(
    observations: ObservationMatrix,
    labels: np.ndarray,
    method: str = "precreccorr",
    prior: Optional[float] = None,
    smoothing: float = 0.0,
    train_mask: Optional[np.ndarray] = None,
    threshold: float = DEFAULT_THRESHOLD,
    **options: Any,
) -> FusionResult:
    """Calibrate on ``labels`` and score every triple with ``method``.

    This is the one-call entry point mirroring the paper's experimental
    protocol: quality and correlation parameters are measured on the
    training labels, then every triple receives a posterior truthfulness.

    ``prior`` calibrates the quality model (estimated from the labels when
    omitted); pass ``decision_prior=...`` among ``options`` to override the
    ``alpha`` of the posterior formula only (the paper's Section 5 protocol
    uses ``decision_prior=0.5``).

    ``method="precreccorr"`` routes to the exact solver or (beyond
    ``EXACT_SOURCE_LIMIT`` sources) the clustered fuser; solver-specific
    options are filtered symmetrically -- see :func:`make_fuser`.

    ``method="em"`` fits no quality model: ``prior`` is forwarded as the EM
    loop's initial ``alpha``, while ``smoothing``, ``train_mask``, and
    ``decision_prior`` (which only configure a fitted model's posterior)
    raise ``ValueError`` instead of being silently ignored.
    """
    fuser, _ = _build_fuser(
        observations,
        labels,
        method=method,
        prior=prior,
        smoothing=smoothing,
        train_mask=train_mask,
        options=options,
    )
    return fuser.fuse(observations, threshold=threshold)


def _detection_state(fuser: TruthFuser) -> Optional[PartitionDetectionState]:
    """The correlation-detection state a freshly built fuser ran, if any."""
    if isinstance(fuser, ClusteredCorrelationFuser):
        return fuser.partition_state
    return None


def _build_fuser(
    observations: ObservationMatrix,
    labels: np.ndarray,
    method: str,
    prior: Optional[float],
    smoothing: float,
    train_mask: Optional[np.ndarray],
    options: dict,
) -> tuple[TruthFuser, Optional[EmpiricalJointModel]]:
    """Fit (unless EM) and instantiate -- the shared core of :func:`fuse`
    and :class:`ScoringSession`.  Returns ``(fuser, fitted model or None)``.
    """
    options = dict(options)
    if method.lower() == "em":
        if train_mask is not None:
            raise ValueError(
                "train_mask is not supported for method='em': EM fits no "
                "quality model to a labelled split; pin known labels with "
                "make_fuser('em', seed_labels=...) instead"
            )
        if smoothing != 0.0:
            raise ValueError(
                "smoothing calibrates the fitted quality model and does not "
                "apply to method='em'; configure the EM loop's own "
                "pseudo-count with make_fuser('em', smoothing=...)"
            )
        # The CLI forwards decision_prior unconditionally (None when unset);
        # EM has no separate decision alpha -- its evolving prior plays that
        # role -- so drop the unset default and reject explicit values.
        if options.pop("decision_prior", None) is not None:
            raise ValueError(
                "decision_prior is not supported for method='em': the EM "
                "posterior uses the loop's own (evolving) prior; pass "
                "prior=... to set the initial alpha instead"
            )
        if prior is not None:
            options["prior"] = prior
        return make_fuser("em", **options), None
    model = fit_model(
        observations,
        labels,
        prior=prior,
        smoothing=smoothing,
        train_mask=train_mask,
    )
    return make_fuser(method, model, **options), model


class _PendingScore:
    """One enqueued :meth:`MicroBatcher.submit` request.

    ``done`` is set under ``MicroBatcher._combine`` once its batch scored.
    """

    __slots__ = ("observations", "scores", "error", "done")

    def __init__(self, observations: ObservationMatrix) -> None:
        self.observations = observations
        self.scores: Optional[np.ndarray] = None
        self.error: Optional[BaseException] = None
        self.done = False


class BatchScoreOutcome:
    """Per-request results of one :meth:`ScoringSession.score_batch` call.

    ``scores[i]`` and ``errors[i]`` are mutually exclusive per request;
    ``fused_requests`` counts how many of the requests actually shared
    the fused scoring pass (0 when everything scored individually).
    """

    __slots__ = ("scores", "errors", "fused_requests")

    def __init__(
        self,
        scores: "list[Optional[np.ndarray]]",
        errors: "list[Optional[Exception]]",
        fused_requests: int,
    ) -> None:
        self.scores = scores
        self.errors = errors
        self.fused_requests = fused_requests


class MicroBatcher:
    """Cross-request micro-batching for concurrent small score requests.

    N threads each scoring a small matrix through one session pay N
    pattern extractions and N GIL-contended scoring passes.  The batcher
    concatenates the queued requests' columns into one fused matrix,
    scores it with **one** delta-aware session call (one model
    generation, bound once) and hands each request its slice.  A
    triple's score depends only on its own pattern, so the slices are
    bit-identical to individual scoring (``tests/test_microbatch.py``).
    Requests that cannot fuse (EM, a fuser without
    ``pattern_batch_invariant``, a mismatched source count) score
    individually, so ``submit`` is always a drop-in for ``score``.

    It is a combining lock with no background thread: ``submit`` queues
    the request and takes ``_combine``, and whoever holds it scores the
    queue for everyone until its own request is done.  Waiters block on
    that lock, so nothing is handed over, and a holder that raises
    leaves the queue to the next one.

    Dispatch is a group commit, as in the async front end's lanes, with
    no window: a holder ships what is queued at once (up to
    ``max_requests``), and arrivals during a batch ship as the next one.
    Before each cut it yields the interpreter lock (``time.sleep(0)``)
    while the queue keeps growing, so a burst woken together lands in
    one batch.  The busier the session, the wider the batches.
    """

    def __init__(
        self,
        session: "ScoringSession",
        max_requests: int = 64,
    ) -> None:
        if max_requests < 1:
            raise ValueError(
                f"max_requests must be >= 1, got {max_requests}"
            )
        self._session = session
        self._max_requests = int(max_requests)
        self._lock = make_lock("MicroBatcher._lock")
        # Held by the submitter cutting and scoring batches; taken
        # before _lock, never inside it.
        self._combine = make_lock("MicroBatcher._combine")
        # guarded-by: _lock
        self._pending: list[_PendingScore] = []
        # guarded-by: _lock
        self._closed = False
        # guarded-by: _lock
        self._counts = dict.fromkeys(
            ("requests", "batches", "fused_requests", "fused_batches",
             "largest_batch", "largest_fused_batch"),
            0,
        )

    def __getstate__(self) -> dict:
        raise TypeError(
            "MicroBatcher is process-local (it owns locks); build one "
            "per process instead of pickling it"
        )

    @property
    def stats(self) -> dict:
        """Coalescing diagnostics for ``ServingReport`` / benchmarks.

        ``largest_batch`` is the biggest *dequeued* batch (including
        requests that had to score individually); ``largest_fused_batch``
        and ``fused_batches`` report what actually coalesced, so serving
        reports reflect real fusion rather than queue depth.
        """
        with self._lock:
            return dict(
                self._counts,
                max_requests=self._max_requests,
                closed=self._closed,
            )

    def close(self) -> None:
        """Retire the batcher: stop coalescing new traffic.

        Already-queued requests still ship with the next holders'
        batches; submits arriving after close score inline through the
        session (no queue, no fusion).  Idempotent.
        """
        with self._lock:
            self._closed = True

    def submit(self, observations: ObservationMatrix) -> np.ndarray:
        """Score ``observations``, coalescing with concurrent submitters.

        Blocks until this request's scores are ready; scoring errors land
        on the requests that caused them.  Uncontended, the caller scores
        at once; otherwise it takes ``_combine`` after the current holder
        and finds its request scored or at the head of the queue.
        """
        request = _PendingScore(observations)
        with self._lock:
            closed = self._closed
            if not closed:
                self._pending.append(request)
                self._counts["requests"] += 1
        if closed:
            return self._session.score(observations)
        try:
            with self._combine:
                while not request.done:
                    batch = self._take_batch()
                    if not batch:  # a holder died between dequeue and _execute
                        raise RuntimeError("micro-batch request was dropped")
                    self._execute(batch)
        except BaseException:
            # Withdraw only our own entry; the queue stays for the next
            # holder.
            with self._lock:
                if request in self._pending:
                    self._pending.remove(request)
            raise
        if request.error is not None:
            raise request.error
        return request.scores

    def _take_batch(self) -> list[_PendingScore]:
        """Dequeue the next batch: everything queued, up to ``max_requests``.

        No timer runs: ``sleep(0)`` only releases the interpreter lock so
        runnable submitters (a burst woken together) enqueue first.  The
        holder yields while each yield grows the queue; uncontended, it
        pays two yields.
        """
        queued = 0
        while True:
            time.sleep(0)
            with self._lock:
                pending = len(self._pending)
                if queued < pending < self._max_requests:
                    queued = pending
                    continue
                batch = self._pending[: self._max_requests]
                del self._pending[: len(batch)]
                return batch

    def _execute(self, batch: list[_PendingScore]) -> None:
        """Score one batch (fused when possible) and mark its requests done."""
        counts = self._counts
        with self._lock:
            counts["batches"] += 1
            counts["largest_batch"] = max(counts["largest_batch"], len(batch))
        try:
            outcome = self._session.score_batch(
                [request.observations for request in batch]
            )
            for request, scores, error in zip(
                batch, outcome.scores, outcome.errors
            ):
                request.scores = scores
                request.error = error
            fused = outcome.fused_requests
            if fused:
                with self._lock:
                    counts["fused_requests"] += fused
                    counts["fused_batches"] += 1
                    counts["largest_fused_batch"] = max(
                        counts["largest_fused_batch"], fused
                    )
        except BaseException as error:
            # Even a KeyboardInterrupt must leave every request with scores
            # or an error before it propagates.  One wrapper per request:
            # threads re-raising a shared instance race on its traceback.
            for request in batch:
                if request.scores is None and request.error is None:
                    wrapped = RuntimeError(
                        "micro-batch scoring failed for this request"
                    )
                    wrapped.__cause__ = error
                    request.error = wrapped
            if not isinstance(error, Exception):
                raise
        finally:
            for request in batch:
                request.done = True


class ScoringSession:
    """Fit once, score many observation batches -- the serving loop.

    The one-call :func:`fuse` entry point refits the quality model and
    rebuilds the fuser on every invocation, which is the right shape for
    experiments but wasteful under serving traffic where the model changes
    rarely and ``score`` runs constantly.  A session performs the fit
    exactly once (at construction) and keeps the fuser -- and therefore its
    memoised patterns and compiled union plans -- alive
    across calls: the first ``score`` over a new pattern set pays the
    collect + compile + model-evaluation cost, repeated batches sharing a
    pattern set execute from the digest-keyed
    :class:`~repro.core.plans.CompiledPlanCache`.

    Parameters mirror :func:`fuse` (``method``, ``prior``, ``smoothing``,
    ``train_mask``, plus fuser ``options``); ``threshold`` is
    the default acceptance threshold for :meth:`fuse`.

    Use :meth:`refit` when fresh labels arrive: it fits a new model,
    rebuilds the fuser, and explicitly invalidates the retired fuser's
    caches so no holder of a stale reference can keep serving plans
    compiled against the replaced model.

    Incremental serving: with ``delta="auto"`` (the default) the session
    scores through a :class:`~repro.core.deltas.DeltaScorer` -- an
    identical repeated matrix returns the previous scores outright, a
    matrix differing in a few triple columns re-evaluates only the dirty
    columns' novel patterns, and even full-churn requests reuse every
    previously-seen pattern through a bounded memo.  Delta scores are
    bit-identical to cold scoring; ``delta="off"`` restores the plain
    path.  The delta state is swapped together with the fuser on
    :meth:`refit`, so stale per-pattern memos never survive a model
    generation bump.

    Cross-request micro-batching: :meth:`submit` is a concurrency-aware
    drop-in for :meth:`score` that coalesces simultaneous small requests
    into one fused delta-aware scoring pass (see :class:`MicroBatcher`).

    Concurrency: one session may be scored from many threads at once,
    including while :meth:`refit` runs.  Each ``score`` call binds the
    live fuser (and delta scorer) exactly once and computes entirely
    against that object, so a returned score vector always reflects one
    model generation -- never a mix of pre- and post-refit parameters.
    The fuser swap itself is a single reference assignment (atomic under
    the GIL), refits are serialised by an internal lock, and the fusers'
    caches are locked single-flight (see
    :class:`~repro.core.plans.CompiledPlanCache`), so concurrent first
    requests compile each plan digest once.

    ``workers`` is accepted only as ``1``: scoring is serial, and any
    other value raises ``ValueError`` (sharded execution was removed).
    """

    def __init__(
        self,
        observations: ObservationMatrix,
        labels: np.ndarray,
        method: str = "precreccorr",
        prior: Optional[float] = None,
        smoothing: float = 0.0,
        train_mask: Optional[np.ndarray] = None,
        threshold: float = DEFAULT_THRESHOLD,
        workers: int = 1,
        delta: str = "auto",
        **options: Any,
    ) -> None:
        self._method = method
        # guarded-by: _refit_lock
        self._prior = prior
        # guarded-by: _refit_lock
        self._smoothing = smoothing
        self._threshold = check_probability(threshold, "threshold")
        if isinstance(workers, bool) or workers != 1:
            raise ValueError(
                f"workers={workers!r}: sharded execution was removed and "
                "scoring is serial; pass workers=1 or omit it"
            )
        self._delta = _check_serving_mode(delta)
        self._batcher_lock = make_lock("ScoringSession._batcher_lock")
        # guarded-by: _batcher_lock
        self._batcher: Optional[MicroBatcher] = None
        self._options = dict(options)
        # Durability hook (repro.persist.Checkpointer, duck-typed to keep
        # core free of a persist import): when attached, refits log
        # begin/publish records to the WAL and trigger snapshots.
        # Single-assignment before serving starts; refit hooks read it
        # under _refit_lock.
        self._checkpointer: Optional[Any] = None
        self._refit_lock = make_lock("ScoringSession._refit_lock")
        # Streaming-refit diagnostics (see refit_delta / cache_stats):
        # counts of delta vs cold refits, per-refit dirty-word fractions
        # and wall-clock, and the last refit's full ModelRefitStats.
        # guarded-by: _refit_lock
        self._refit_delta_count = 0
        # guarded-by: _refit_lock
        self._refit_cold_count = 0
        # guarded-by: _refit_lock
        self._refit_dirty_fractions: list[float] = []
        # guarded-by: _refit_lock
        self._refit_seconds: list[float] = []
        # guarded-by: _refit_lock
        self._last_refit_stats: Optional[ModelRefitStats] = None
        # Exact significance-decision memo shared across delta refits on
        # the clustered route (decisions are keyed by the exact integer
        # contingency table, so reuse across generations is bit-safe).
        # Created lazily on the first delta refit -- plain refit() stays
        # memo-free so cold-vs-delta comparisons measure the cold path
        # honestly.
        # guarded-by: _refit_lock
        self._significance_memo: Optional[SignificanceMemo] = None
        # The live generation's correlation-detection state (edges +
        # partitions), kept so the next delta refit re-decides only pairs
        # touching dirty sources.  A cold build (construction, plain
        # refit()) takes it from the clustered fuser it just built.
        # guarded-by: _refit_lock
        self._partition_state: Optional[PartitionDetectionState] = None
        start = time.perf_counter()
        # guarded-by: _refit_lock
        self._fuser, self._model = _build_fuser(
            observations,
            labels,
            method=method,
            prior=prior,
            smoothing=smoothing,
            train_mask=train_mask,
            options=self._options,
        )
        self._partition_state = _detection_state(self._fuser)
        # guarded-by: _refit_lock
        self._delta_scorer = self._make_delta_scorer(self._fuser)
        # guarded-by: _refit_lock
        self.fit_seconds = time.perf_counter() - start

    def _make_delta_scorer(self, fuser: TruthFuser) -> Optional[DeltaScorer]:
        """A delta scorer for ``fuser``, or ``None`` when delta is off.

        Delta scoring requires pattern-pure scores: EM (whose scores depend
        on the whole matrix) always scores cold.
        """
        if self._delta == "off":
            return None
        if not isinstance(fuser, ModelBasedFuser):
            return None
        # Likelihood-level reuse inside the inclusion-exclusion fusers
        # (novel cluster-restrictions only) -- see enable_delta_memo.
        fuser.enable_delta_memo()
        return DeltaScorer(fuser)

    @property
    def method(self) -> str:
        return self._method

    def attach_checkpointer(self, checkpointer: Optional[Any]) -> None:
        """Attach (or detach with ``None``) a durability checkpointer.

        The attached object receives ``prepare_refit`` before each refit
        builds (mutation + refit-begin WAL records) and ``commit_refit``
        after the new generation publishes (refit-publish record, maybe
        a snapshot).  Attach before serving starts; the hooks themselves
        run under ``_refit_lock``.
        """
        self._checkpointer = checkpointer

    def persist_config(self) -> "dict[str, Any]":
        """The JSON-able constructor arguments a recovery rebuild needs.

        Non-JSON fuser options cannot ride a snapshot; their keys are
        reported under ``dropped_options`` so recovery can refuse loudly
        instead of silently rebuilding a different session.

        Deliberately lock-free: the commit hook calls this while already
        holding ``_refit_lock``, and outside a refit every field read
        here is stable.
        """
        options = {
            key: value
            for key, value in self._options.items()
            if value is None or isinstance(value, (str, int, float, bool))
        }
        dropped = sorted(set(self._options) - set(options))
        return {
            "method": self._method,
            "prior": self._prior,
            "smoothing": self._smoothing,
            "threshold": self._threshold,
            "delta": self._delta,
            "options": options,
            "dropped_options": dropped,
        }

    def persist_statistics(self) -> "Optional[dict[str, np.ndarray]]":
        """The live model's integer sufficient statistics (or ``None``).

        Snapshot integrity cross-check input -- see
        :meth:`EmpiricalJointModel.sufficient_statistics`.
        """
        model = self._model
        if isinstance(model, EmpiricalJointModel):
            return model.sufficient_statistics()
        return None

    @property
    def fuser(self) -> TruthFuser:
        """The live fuser (rebuilt by :meth:`refit`)."""
        return self._fuser

    @property
    def model(self) -> Optional[EmpiricalJointModel]:
        """The fitted quality model, or ``None`` for ``method="em"``."""
        return self._model

    @property
    def threshold(self) -> float:
        return self._threshold

    @property
    def delta(self) -> str:
        """The delta-scoring mode (``"auto"`` or ``"off"``)."""
        return self._delta

    @property
    def delta_scorer(self) -> Optional[DeltaScorer]:
        """The live delta scorer, or ``None`` (delta off / EM)."""
        return self._delta_scorer

    def _compute_scores(self, observations: ObservationMatrix) -> np.ndarray:
        """Bind the live scorer (or fuser) once and score through it."""
        scorer = self._delta_scorer
        if scorer is not None:
            return scorer.score(observations)
        return self._fuser.score(observations)

    def _score_coalesced(self, observations: ObservationMatrix) -> np.ndarray:
        """Score a micro-batched fused matrix (internal).

        Like :meth:`score`, but without installing the fused
        concatenation as the delta engine's previous-request snapshot: a
        fused matrix belongs to no streaming sequence, and letting it
        replace the snapshot would knock interleaved :meth:`score`
        traffic off its delta fast path.  The pattern memo still serves
        and absorbs the fused patterns.
        """
        scorer = self._delta_scorer
        if scorer is not None:
            return scorer.score(observations, snapshot=False)
        return self._fuser.score(observations)

    def score(self, observations: ObservationMatrix) -> np.ndarray:
        """One truthfulness score per triple of ``observations``.

        Safe to call from many threads at once: the live fuser (and delta
        scorer) is bound exactly once per call, so a concurrent
        :meth:`refit` can never mix old and new parameters inside one
        score vector.  With ``delta="auto"`` the call runs the cheapest
        bit-identical path -- see :class:`~repro.core.deltas.DeltaScorer`.
        """
        return self._compute_scores(observations)

    def score_cold(self, observations: ObservationMatrix) -> np.ndarray:
        """Score through the live fuser directly, bypassing the delta layer.

        The degradation ladder's slow rung: no delta snapshot, no
        per-pattern memo -- just the fuser's own (plan-cached) scoring,
        which is precisely the reference the delta engine's bit-identity
        contract is pinned against.  Serving may fall back to this path
        under faults and lose only latency, never a bit of output.
        """
        return self._fuser.score(observations)

    def score_batch(
        self,
        requests: Sequence[ObservationMatrix],
        cold: bool = False,
    ) -> BatchScoreOutcome:
        """Score several matrices at once, coalescing the fusable ones.

        The shared engine behind :class:`MicroBatcher` batches and the
        async serving front end (:mod:`repro.serve`).  Requests whose
        per-pattern scores are bitwise independent of batch composition
        (a ``pattern_batch_invariant`` fuser, matching source count) are
        concatenated column-wise and scored in one fused delta-aware
        pass; everything else is scored individually.  Per-request
        slices are bit-identical to :meth:`score` of the same matrix.
        Errors are captured per request (``errors[i]``) instead of
        raised, so one bad request never poisons its batch -- and a solo
        bad request keeps its original exception type.

        ``cold=True`` is the degradation ladder's middle rung: the batch
        is still coalesced, but scored through the fuser directly
        (:meth:`score_cold` semantics) with the delta layer bypassed --
        for when the fast path is the thing that is failing.
        """
        faults.trip(faults.SITE_SCORE)
        matrices = list(requests)
        n = len(matrices)
        scores: list[Optional[np.ndarray]] = [None] * n
        errors: list[Optional[Exception]] = [None] * n
        fusable: list[int] = []
        if n > 1:
            fuser = self._fuser
            # Fused scoring needs per-pattern scores that are bitwise
            # independent of batch composition; PrecRec/aggressive (BLAS
            # matmuls, see pattern_batch_invariant) and EM score
            # individually so the bit-identity contract holds.  Within
            # an eligible batch only requests matching the model's
            # source count share the fused matrix -- the rest score
            # individually (and get their own width errors) without
            # costing the valid traffic its coalescing.
            if (
                isinstance(fuser, ModelBasedFuser)
                and fuser.pattern_batch_invariant
            ):
                expected_sources = fuser.model.n_sources
                fusable = [
                    i
                    for i, matrix in enumerate(matrices)
                    if matrix.n_sources == expected_sources
                ]
            if len(fusable) < 2:
                fusable = []
        # Membership via an index set, not a per-request `in` scan over
        # the fusable list: a 64-request batch does 64 probes, not 4096
        # identity comparisons.
        fused_ids = set(fusable)
        score_one = self.score_cold if cold else self.score
        for i in range(n):
            if i not in fused_ids:
                try:
                    scores[i] = score_one(matrices[i])
                except Exception as error:  # fault-barrier: captured per request so one bad matrix cannot poison its batch
                    errors[i] = error
        if not fusable:
            return BatchScoreOutcome(scores, errors, 0)
        provides = np.concatenate(
            [matrices[i].provides for i in fusable], axis=1
        )
        coverage = np.concatenate(
            [matrices[i].coverage for i in fusable], axis=1
        )
        fused = ObservationMatrix(
            provides,
            matrices[fusable[0]].source_names,
            coverage=coverage,
        )
        try:
            if cold:
                fused_scores = self.score_cold(fused)
            else:
                fused_scores = self._score_coalesced(fused)
        except Exception:  # fault-barrier: fall through to per-request scoring; errors land only on the requests that cause them
            # A fused-pass failure (e.g. the concatenation is too wide
            # to score) must not condemn requests that would score fine
            # individually; retry per request so errors land only on the
            # requests that cause them.
            for i in fusable:
                try:
                    scores[i] = score_one(matrices[i])
                except Exception as error:  # fault-barrier: captured per request (same contract as the unfused loop above)
                    errors[i] = error
            return BatchScoreOutcome(scores, errors, 0)
        offset = 0
        for i in fusable:
            width = matrices[i].n_triples
            scores[i] = fused_scores[offset : offset + width].copy()
            offset += width
        return BatchScoreOutcome(scores, errors, len(fusable))

    def submit(self, observations: ObservationMatrix) -> np.ndarray:
        """Score with cross-request micro-batching (see :class:`MicroBatcher`).

        Concurrent submitters share one fused delta-aware scoring pass
        and get back per-request slices bit-identical to :meth:`score`.
        An uncontended call scores at once.
        """
        batcher = self._batcher
        if batcher is None:
            with self._batcher_lock:
                if self._batcher is None:
                    self._batcher = MicroBatcher(self)
                batcher = self._batcher
        return batcher.submit(observations)

    @property
    def micro_batcher(self) -> Optional[MicroBatcher]:
        """The lazily-created batcher behind :meth:`submit`, if any."""
        return self._batcher

    def fuse(
        self,
        observations: ObservationMatrix,
        threshold: Optional[float] = None,
    ) -> FusionResult:
        """Score and package a timed :class:`FusionResult`."""
        threshold = self._threshold if threshold is None else threshold
        scorer = self._delta_scorer
        if scorer is None:
            return self._fuser.fuse(observations, threshold=threshold)
        start = time.perf_counter()
        scores = scorer.score(observations)
        elapsed = time.perf_counter() - start
        return FusionResult(
            method=scorer.fuser.name,
            scores=np.asarray(scores, dtype=float),
            threshold=threshold,
            elapsed_seconds=elapsed,
        )

    def refit(
        self,
        observations: ObservationMatrix,
        labels: np.ndarray,
        train_mask: Optional[np.ndarray] = None,
        **overrides: Any,
    ) -> "ScoringSession":
        """Refit on fresh labels, rebuild the fuser, invalidate old caches.

        ``overrides`` may replace ``prior`` or ``smoothing`` for the new
        fit; everything else (method, fuser options, threshold) is
        carried over.  Returns ``self`` for chaining.
        """
        unknown = set(overrides) - {"prior", "smoothing"}
        if unknown:
            raise ValueError(
                f"refit accepts prior/smoothing overrides, got {sorted(unknown)}"
            )
        # Refits are serialised; scoring threads keep running against the
        # previous fuser until the single-assignment swap below and always
        # see one generation end to end.
        with self._refit_lock:
            # Append-before-apply: the mutation and refit-begin records
            # must be durable before the new generation exists, so a
            # crash anywhere past this line is recoverable by replay.
            checkpointer = self._checkpointer
            if checkpointer is not None:
                checkpointer.prepare_refit(
                    observations, labels, mode="cold", train_mask=train_mask
                )
            # Stage the overrides and commit only after a successful build:
            # a refit that fails validation must leave the live session
            # able to keep serving (and to refit again) with its previous
            # settings.
            prior = overrides.get("prior", self._prior)
            smoothing = overrides.get("smoothing", self._smoothing)
            retired = self._fuser
            start = time.perf_counter()
            fuser, model = _build_fuser(
                observations,
                labels,
                method=self._method,
                prior=prior,
                smoothing=smoothing,
                train_mask=train_mask,
                options=self._options,
            )
            # Injection site between build and publish: a fault here must
            # leave the session serving the old generation untouched (the
            # new fuser is dropped) -- the rollback contract the chaos
            # suite pins.
            faults.trip(faults.SITE_REFIT)
            self._publish_generation(
                fuser, model, prior, smoothing, start, retired
            )
            self._partition_state = _detection_state(fuser)
            self._note_refit(None, self.fit_seconds)
            if checkpointer is not None:
                checkpointer.commit_refit(self, observations, labels)
        return self

    def refit_delta(
        self,
        observations: ObservationMatrix,
        labels: np.ndarray,
        train_mask: Optional[np.ndarray] = None,
        max_churn_fraction: float = DEFAULT_REFIT_CHURN_FRACTION,
        **overrides: Any,
    ) -> "ScoringSession":
        """Refit incrementally: delta-update counts, warm-start EM.

        The streaming counterpart of :meth:`refit`.  For model-based
        methods the retired :class:`EmpiricalJointModel` transports its
        integer sufficient statistics through
        :meth:`EmpiricalJointModel.refit_delta` -- popcount deltas over
        only the dirty packed words -- and the resulting model (and hence
        every score served from it) is **bit-identical** to a cold refit,
        at a cost proportional to churn rather than dataset size.  The
        exact-recount fallback fires automatically when the diff is
        unavailable or churn exceeds
        ``max_churn_fraction``; either way the generation swap and cache
        invalidation are exactly :meth:`refit`'s.

        On the clustered route the rebuilt fuser shares the session's
        :class:`~repro.core.clustering.SignificanceMemo`, so correlation
        significance decisions (keyed by exact integer contingency tables)
        are reused across generations without affecting results.

        For ``method="em"`` there are no counts to transport; instead the
        new fuser is warm-started from the retired generation's posteriors
        (:meth:`~repro.core.em.ExpectationMaximizationFuser.warm_start_from`),
        which converges to the same fixed point in fewer iterations but is
        *not* bitwise identical to a cold EM run.

        ``overrides`` may replace ``prior`` or ``smoothing``; returns
        ``self`` for chaining.  Inspect :attr:`last_refit_stats` or
        ``cache_stats()["refit"]`` for what the refit actually did.
        """
        unknown = set(overrides) - {"prior", "smoothing"}
        if unknown:
            raise ValueError(
                "refit_delta accepts prior/smoothing overrides, got "
                f"{sorted(unknown)}"
            )
        with self._refit_lock:
            # Append-before-apply (see refit): durable mutation +
            # refit-begin records precede the build.
            checkpointer = self._checkpointer
            if checkpointer is not None:
                checkpointer.prepare_refit(
                    observations, labels, mode="delta", train_mask=train_mask
                )
            prior = overrides.get("prior", self._prior)
            smoothing = overrides.get("smoothing", self._smoothing)
            retired = self._fuser
            retired_model = self._model
            # Partition-detection state is *staged* until the generation
            # publishes: a build failure after detection must not leave
            # the session holding partitions of a generation that never
            # served (the half-swap the rollback tests pin).
            staged_partition = self._partition_state
            start = time.perf_counter()
            if self._method.lower() == "em":
                fuser, model = _build_fuser(
                    observations,
                    labels,
                    method=self._method,
                    prior=prior,
                    smoothing=smoothing,
                    train_mask=train_mask,
                    options=self._options,
                )
                stats = self._warm_start_em(fuser, retired)
            else:
                labels_arr = np.asarray(labels, dtype=bool)
                observations_fit = observations
                labels_fit = labels_arr
                if train_mask is not None:
                    mask = np.asarray(train_mask, dtype=bool)
                    observations_fit = observations.restricted_to_triples(mask)
                    labels_fit = labels_arr[mask]
                if isinstance(retired_model, EmpiricalJointModel):
                    # estimate_prior mirrors fit_model's behaviour when the
                    # session has no explicit prior: a cold refit would
                    # re-estimate alpha from the new labels, so the delta
                    # path must too or bit-identity breaks.
                    effective_prior = (
                        prior if prior is not None else estimate_prior(labels_fit)
                    )
                    model, stats = retired_model.refit_delta(
                        observations_fit,
                        labels_fit,
                        prior=effective_prior,
                        smoothing=smoothing,
                        max_churn_fraction=max_churn_fraction,
                    )
                else:
                    model = fit_model(
                        observations_fit,
                        labels_fit,
                        prior=prior,
                        smoothing=smoothing,
                    )
                    stats = ModelRefitStats(
                        mode="cold",
                        reason="no previous fitted model",
                        dirty_words=0,
                        total_words=0,
                        dirty_sources=0,
                        labels_changed=True,
                        carried_cache_entries=0,
                    )
                options = dict(self._options)
                if self._clustered_route(model):
                    options.setdefault(
                        "significance_memo", self._shared_significance_memo()
                    )
                    staged_partition = self._stage_partition_carry(
                        model, retired_model, retired, stats, options
                    )
                fuser = make_fuser(self._method, model, **options)
            # Injection site between build and publish (see refit): the
            # staged partition state commits only with the generation.
            faults.trip(faults.SITE_REFIT)
            self._publish_generation(
                fuser, model, prior, smoothing, start, retired
            )
            self._partition_state = staged_partition
            self._note_refit(stats, self.fit_seconds)
            if checkpointer is not None:
                checkpointer.commit_refit(self, observations, labels)
        return self

    # guarded-by: _refit_lock (callers hold it across the swap)
    def _publish_generation(
        self,
        fuser: TruthFuser,
        model: Optional[EmpiricalJointModel],
        prior: Optional[float],
        smoothing: float,
        start: float,
        retired: TruthFuser,
    ) -> None:
        """Swap in a freshly-built generation (caller holds ``_refit_lock``).

        The delta scorer is swapped together with the fuser: its
        previous-request snapshot and per-pattern memo belong to one model
        generation, so stale memos cannot survive a refit.  Plans compiled
        against the retired model must not survive anywhere, so the retired
        fuser's caches are explicitly invalidated; in-flight scores on the
        retired generation stay consistent (it still references the old
        model, recomputing old-generation values on demand).
        """
        self._delta_scorer = self._make_delta_scorer(fuser)
        self._fuser = fuser
        self._model = model
        self.fit_seconds = time.perf_counter() - start
        self._prior = prior
        self._smoothing = smoothing
        if isinstance(retired, ModelBasedFuser):
            retired.invalidate_caches()

    def _warm_start_em(
        self, fuser: TruthFuser, retired: TruthFuser
    ) -> ModelRefitStats:
        """Seed a fresh EM fuser from the retired generation's posteriors."""
        warm = getattr(retired, "last_posteriors", None)
        if warm is None:
            return ModelRefitStats(
                mode="cold",
                reason="no previous posteriors to warm-start from",
                dirty_words=0,
                total_words=0,
                dirty_sources=0,
                labels_changed=False,
                carried_cache_entries=0,
            )
        diagnostics = getattr(retired, "diagnostics", None)
        baseline = diagnostics.iterations if diagnostics is not None else None
        fuser.warm_start_from(warm, baseline_iterations=baseline)
        return ModelRefitStats(
            mode="delta",
            reason=None,
            dirty_words=0,
            total_words=0,
            dirty_sources=0,
            labels_changed=False,
            carried_cache_entries=0,
        )

    # guarded-by: _refit_lock (called while building the new generation)
    def _stage_partition_carry(
        self,
        model: EmpiricalJointModel,
        retired_model: Optional[EmpiricalJointModel],
        retired: TruthFuser,
        stats: ModelRefitStats,
        options: dict,
    ) -> Optional[PartitionDetectionState]:
        """Churn-bounded fuser construction for the clustered route.

        Precomputes the two correlation partitions outside the fuser --
        re-deciding only pairs that touch a dirty source when the previous
        generation's detection state can be carried -- and passes them in
        via ``true_partition``/``false_partition``, together with the
        retired generation's elastic evaluators for oversized clusters
        whose sources are all clean.  Carry requires bit-identical clean
        parameters: a delta-mode model refit with unchanged labels, prior,
        and smoothing.  Anything else (cold fallback, label churn, a knob
        override, user-pinned partitions) runs the full detection, so the
        resulting fuser is always exactly what a cold rebuild would make.

        Returns the detection state to *stage*; the caller commits it to
        ``self._partition_state`` only after the generation publishes, so
        a failed build rolls back to the old generation's state intact.
        """
        if (
            "true_partition" in options
            or "false_partition" in options
        ):
            # User-pinned partitions: nothing to detect or carry; the
            # session's own detection state is stale either way.
            return self._partition_state
        memo = options.get("significance_memo")
        min_phi = options.get("min_phi", 0.15)
        min_expected = options.get("min_expected", 2.0)
        significance = options.get("significance", 0.05)
        carry_ok = (
            stats.mode == "delta"
            and not stats.labels_changed
            and isinstance(retired_model, EmpiricalJointModel)
            and model.prior == retired_model.prior
            and model.smoothing == retired_model.smoothing
        )
        state = self._partition_state
        new_state: Optional[PartitionDetectionState] = None
        if (
            carry_ok
            and state is not None
            and state.matches(
                model.n_sources, min_phi, min_expected, significance
            )
        ):
            new_state = refresh_partition_state(
                state, model, stats.dirty_source_ids, memo=memo
            )
        if new_state is None:
            new_state = detect_partition_state(
                model,
                min_phi=min_phi,
                min_expected=min_expected,
                significance=significance,
                memo=memo,
            )
        options["true_partition"] = new_state.true_partition
        options["false_partition"] = new_state.false_partition
        if carry_ok and isinstance(retired, ClusteredCorrelationFuser):
            dirty = frozenset(stats.dirty_source_ids)
            carried = {
                cluster: evaluator
                for cluster, evaluator in retired.elastic_evaluators().items()
                if not (cluster & dirty)
            }
            if carried:
                options["carried_elastic"] = carried
        return new_state

    def _clustered_route(self, model: JointQualityModel) -> bool:
        """Does ``self._method`` build a clustered fuser for ``model``?"""
        key = self._method.lower().replace("-", "").replace("_", "")
        if key == "clustered":
            return True
        return key == "precreccorr" and model.n_sources > EXACT_SOURCE_LIMIT

    # guarded-by: _refit_lock (only delta refits reach for the memo)
    def _shared_significance_memo(self) -> SignificanceMemo:
        """The session's cross-generation significance memo (lazy)."""
        if self._significance_memo is None:
            self._significance_memo = SignificanceMemo()
        return self._significance_memo

    # guarded-by: _refit_lock (refit bookkeeping happens inside the refit)
    def _note_refit(
        self, stats: Optional[ModelRefitStats], seconds: float
    ) -> None:
        """Record one refit in the session's counters (under the lock).

        ``stats=None`` marks a plain :meth:`refit` (always a cold rebuild).
        """
        if stats is None or stats.mode == "cold":
            self._refit_cold_count += 1
        else:
            self._refit_delta_count += 1
        if stats is not None and stats.total_words:
            self._refit_dirty_fractions.append(stats.dirty_word_fraction)
        self._refit_seconds.append(float(seconds))
        self._last_refit_stats = stats

    @property
    def last_refit_stats(self) -> Optional[ModelRefitStats]:
        """What the most recent :meth:`refit_delta` actually did.

        ``None`` until the first refit; plain :meth:`refit` also resets it
        to ``None`` (there is no delta bookkeeping to report).
        """
        return self._last_refit_stats

    @property
    def significance_memo(self) -> Optional[SignificanceMemo]:
        """The cross-generation significance memo (``None`` until used)."""
        return self._significance_memo

    def close(self) -> None:
        """Retire the lazily-built micro-batcher, if any (idempotent).

        Its queued requests still ship; later submits score inline.  Scoring keeps working afterwards, so closing a session is
        always safe.
        """
        batcher = self._batcher
        if batcher is not None:
            batcher.close()

    def __getstate__(self) -> dict:
        raise TypeError(
            "ScoringSession is process-local (it owns locks); build one "
            "session per process instead of pickling it"
        )

    def __enter__(self) -> "ScoringSession":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def cache_stats(self) -> dict:
        """Serving diagnostics across every cache layer.

        The flat keys are the live fuser's compiled-plan cache stats;
        nested dicts add the delta engine
        (``"delta"``: path counts, reuse volumes, pattern-memo counters),
        micro-batching (``"micro_batch"``) and refits (``"refit"``) when
        those layers are active.  Empty for sessions with none of them (EM).
        """
        fuser = self._fuser
        scorer = self._delta_scorer
        plan_cache = getattr(fuser, "plan_cache", None)
        refit = self._refit_stats_dict()
        if plan_cache is None and scorer is None and refit is None:
            return {}
        stats: dict = dict(plan_cache.stats) if plan_cache is not None else {}
        if scorer is not None:
            stats["delta"] = scorer.stats
        batcher = self._batcher
        if batcher is not None:
            stats["micro_batch"] = batcher.stats
        if refit is not None:
            stats["refit"] = refit
        return stats

    def _refit_stats_dict(self) -> Optional[dict]:
        """The ``"refit"`` block of :meth:`cache_stats` (``None`` if unused)."""
        if self._refit_cold_count == 0 and self._refit_delta_count == 0:
            return None
        refit: dict = {
            "delta_refits": self._refit_delta_count,
            "cold_refits": self._refit_cold_count,
            "dirty_word_fractions": list(self._refit_dirty_fractions),
            "seconds": list(self._refit_seconds),
        }
        last = self._last_refit_stats
        if last is not None:
            refit["last"] = {
                "mode": last.mode,
                "reason": last.reason,
                "dirty_words": last.dirty_words,
                "total_words": last.total_words,
                "dirty_word_fraction": last.dirty_word_fraction,
                "dirty_sources": last.dirty_sources,
                "labels_changed": last.labels_changed,
                "carried_cache_entries": last.carried_cache_entries,
            }
        memo = self._significance_memo
        if memo is not None:
            refit["significance_memo"] = memo.stats
        fuser = self._fuser
        if isinstance(fuser, ExpectationMaximizationFuser):
            refit["em_warm_start"] = fuser.warm_start_stats
        return refit
