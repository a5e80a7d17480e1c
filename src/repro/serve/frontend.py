"""The async serving front end: admission -> lanes -> group-commit batcher.

:class:`AsyncServingFrontend` turns a :class:`~repro.core.api.ScoringSession`
into an ``asyncio`` service.  Each ``await frontend.submit(matrix)`` travels
through three stages:

1. **Admission** (:mod:`repro.serve.admission`): a bounded queue by depth
   and in-flight bytes; excess traffic is shed immediately with a typed
   :class:`~repro.serve.admission.Overloaded` instead of queueing
   unboundedly.
2. **Lanes** (:mod:`repro.serve.lanes`): delta-friendly requests (same
   width as the model, small churn) batch separately from cold traffic,
   so odd matrices never dilute the delta stream's fused batches.
3. **Group-commit dispatch**: a lane with pending work and no batch in
   flight ships up to ``max_batch_requests`` of it at once; requests
   arriving while that batch scores queue up and ship together as the
   next one.  Batch size follows load and no timer holds a request back.
   A request's ``latency_budget`` is its SLO, not a wait:
   ``stats["deadline_misses"]`` counts served requests that exceeded it.

Batches execute on a small thread pool through
:meth:`~repro.core.api.ScoringSession.score_batch`, so all coroutine
state stays confined to the event-loop thread (no locks) and the GIL is
released inside numpy while the loop keeps admitting traffic.

Refit-during-traffic (:meth:`AsyncServingFrontend.refit`) follows a
drain -> swap -> replay protocol: new batch dispatch is gated, in-flight
batches drain to zero, the session swaps generations via its own
``refit``/``refit_delta``, and only then does queued traffic replay --
so no request is ever scored against a mixed generation, and every
result carries the generation that scored it.

Fault tolerance (:mod:`repro.serve.resilience`): every admitted request
*terminates* -- with scores, a typed shed, or a typed failure -- and its
admission charge is released exactly once, no matter where a fault
lands.  A failing batch walks the degradation ladder (retried
delta-aware scoring -> cold micro-batch -> inline per-request cold
scoring), every rung of which is bit-identical to the reference path,
so faults can cost latency but never correctness.  Per-lane circuit
breakers shed or force-degrade traffic aimed at a persistently failing
lane, and per-attempt scoring timeouts keep a hung executor from
wedging the loop.  A refit that fails mid-swap leaves the session on
its old generation with the gate reopened -- serving resumes, the
caller gets the error.
"""

from __future__ import annotations

import asyncio
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial
from typing import Any, Optional

import numpy as np

from repro.core import faults
from repro.core.api import BatchScoreOutcome, ScoringSession, check_refit_mode
from repro.core.observations import ObservationMatrix
from repro.serve.admission import (
    SHED_CIRCUIT_OPEN,
    SHED_CLOSED,
    AdmissionController,
    Overloaded,
)
from repro.serve.lanes import (
    COLD_LANE,
    DELTA_LANE,
    LANES,
    LaneRouter,
    expected_sources_of,
)
from repro.serve.resilience import CircuitBreaker, RetryPolicy


def _swallow_late_result(future: "asyncio.Future[Any]") -> None:
    """Done-callback for abandoned (timed-out) scoring attempts.

    Retrieves a late exception so the event loop never logs it as
    never-retrieved; a late result is simply dropped.
    """
    if not future.cancelled():
        future.exception()


@dataclass(frozen=True)
class ServeResult:
    """One served request: scores plus serving metadata.

    ``generation`` counts the session's refits as seen by this front end
    (0 until the first :meth:`AsyncServingFrontend.refit`), so callers
    can pin exactly which model scored them.  Latencies are measured on
    the event loop's clock: ``queued_seconds`` from admission to batch
    dispatch, ``service_seconds`` inside the scoring pass, and
    ``latency_seconds`` end to end.
    """

    scores: np.ndarray
    lane: str
    generation: int
    batch_size: int
    queued_seconds: float
    service_seconds: float
    latency_seconds: float


class _Request:
    """One admitted request waiting in a lane."""

    __slots__ = (
        "observations",
        "future",
        "nbytes",
        "admitted_at",
        "budget",
        "settled",
    )

    def __init__(
        self,
        observations: ObservationMatrix,
        future: "asyncio.Future[ServeResult]",
        nbytes: int,
        admitted_at: float,
        budget: float,
    ) -> None:
        self.observations = observations
        self.future = future
        self.nbytes = nbytes
        self.admitted_at = admitted_at
        self.budget = budget
        # Flipped exactly once by _settle_result/_settle_error: the
        # admission charge is released at the same moment, so "every
        # request settles exactly once" is the accounting invariant.
        self.settled = False


class _LaneState:
    """Per-lane pending queue plus its dispatcher's wake-up event."""

    __slots__ = ("name", "pending", "event", "batches", "served")

    def __init__(self, name: str) -> None:
        self.name = name
        self.pending: list[_Request] = []
        self.event = asyncio.Event()
        self.batches = 0
        self.served = 0


class AsyncServingFrontend:
    """Admission-controlled, SLO-aware async serving over one session.

    Use as an async context manager (or call :meth:`start` / :meth:`close`
    explicitly)::

        async with AsyncServingFrontend(session) as frontend:
            scores = await frontend.submit(matrix, latency_budget=0.05)

    All coroutine methods must run on one event loop; scoring itself
    runs on an internal thread pool.  Scores are bit-identical to a
    direct ``session.score`` of the same matrix -- batching, lanes, and
    refit gating change scheduling, never values.
    """

    def __init__(
        self,
        session: ScoringSession,
        *,
        max_queue_depth: int = 256,
        max_inflight_bytes: Optional[int] = None,
        max_batch_requests: int = 64,
        default_latency_budget: float = 0.05,
        small_churn_fraction: float = 0.25,
        executor_workers: int = 2,
        retry_policy: Optional[RetryPolicy] = None,
        scoring_timeout: Optional[float] = None,
        breaker_threshold: int = 5,
        breaker_cooldown: float = 0.5,
        breaker_policy: str = "degrade",
        checkpointer: Optional[Any] = None,
    ) -> None:
        if max_batch_requests < 1:
            raise ValueError(
                f"max_batch_requests must be >= 1, got {max_batch_requests}"
            )
        # ``not x > 0.0`` refuses NaN too; ``inf`` stays legal (no SLO).
        if not default_latency_budget > 0.0:
            raise ValueError(
                "default_latency_budget must be positive, got "
                f"{default_latency_budget}"
            )
        if executor_workers < 1:
            raise ValueError(
                f"executor_workers must be >= 1, got {executor_workers}"
            )
        if scoring_timeout is not None and not scoring_timeout > 0.0:
            raise ValueError(
                f"scoring_timeout must be positive or None, got "
                f"{scoring_timeout}"
            )
        if breaker_policy not in ("degrade", "shed"):
            raise ValueError(
                "breaker_policy must be 'degrade' or 'shed', got "
                f"{breaker_policy!r}"
            )
        self._session = session
        # Optional durability (repro.persist.Checkpointer).  The front
        # end itself never writes: attaching it to the session routes
        # every drain->swap refit through the session's prepare/commit
        # hooks, so admitted refit inputs hit the WAL before the build
        # and each published generation appends a publish record (and,
        # on cadence, a snapshot) -- all inside the session's refit lock.
        self._checkpointer = checkpointer
        self._max_batch = int(max_batch_requests)
        self._default_budget = float(default_latency_budget)
        self._admission = AdmissionController(
            max_queue_depth=max_queue_depth,
            max_inflight_bytes=max_inflight_bytes,
        )
        self._router = LaneRouter.for_session(
            session, small_churn_fraction=small_churn_fraction
        )
        self._executor_workers = int(executor_workers)
        # Resilience: retries on by default (bounded, retry-safe errors
        # only -- a fault-free run never enters the retry path, so the
        # default changes no healthy-path behaviour).  Pass
        # RetryPolicy(max_retries=0) to disable.
        self._retry_policy = (
            retry_policy if retry_policy is not None else RetryPolicy()
        )
        self._scoring_timeout = (
            None if scoring_timeout is None else float(scoring_timeout)
        )
        self._breaker_policy = breaker_policy
        self._breakers = {
            name: CircuitBreaker(
                failure_threshold=breaker_threshold,
                cooldown_seconds=breaker_cooldown,
                clock=time.monotonic,
            )
            for name in LANES
        }
        # Loop-confined state, created by start(); no locks by design --
        # every mutation below happens on the event-loop thread.
        self._lanes: dict[str, _LaneState] = {}
        self._tasks: list["asyncio.Task[None]"] = []
        self._executor: Optional[ThreadPoolExecutor] = None
        self._refit_gate: Optional[asyncio.Event] = None
        self._idle: Optional[asyncio.Event] = None
        self._refit_serialize: Optional[asyncio.Lock] = None
        self._started = False
        self._closing = False
        self._inflight = 0
        self._generation = 0
        self._refits = 0
        self._fused_requests = 0
        self._largest_batch = 0
        self._deadline_misses = 0
        self._retries = 0
        self._degraded_batches = 0
        self._forced_degrades = 0
        self._shed_circuit = 0
        self._refit_failures = 0

    def __getstate__(self) -> dict:
        raise TypeError(
            "AsyncServingFrontend is process-local (it owns an executor "
            "and event-loop primitives); build one per process instead "
            "of pickling it"
        )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    async def __aenter__(self) -> "AsyncServingFrontend":
        await self.start()
        return self

    async def __aexit__(self, *exc_info: object) -> None:
        await self.close()

    async def start(self) -> None:
        """Start the per-lane dispatchers (idempotent until closed)."""
        if self._closing:
            raise RuntimeError("a closed frontend cannot be restarted")
        if self._started:
            return
        self._refit_gate = asyncio.Event()
        self._refit_gate.set()
        self._idle = asyncio.Event()
        self._idle.set()
        self._refit_serialize = asyncio.Lock()
        if self._checkpointer is not None:
            self._session.attach_checkpointer(self._checkpointer)
        self._executor = ThreadPoolExecutor(
            max_workers=self._executor_workers,
            thread_name_prefix="repro-serve",
        )
        for name in LANES:
            lane = _LaneState(name)
            self._lanes[name] = lane
            self._tasks.append(
                asyncio.ensure_future(self._dispatch_lane(lane))
            )
        self._started = True

    async def close(self) -> None:
        """Graceful shutdown: flush every queued request, then stop.

        Pending traffic is served (the dispatchers drain their queues
        before returning); submits racing or following the close are
        shed with ``Overloaded("closed")``.
        Idempotent.
        """
        if self._closing:
            return
        self._closing = True
        if not self._started:
            return
        for lane in self._lanes.values():
            lane.event.set()
        await asyncio.gather(*self._tasks)
        if self._executor is not None:
            self._executor.shutdown(wait=True)

    # ------------------------------------------------------------------
    # Serving
    # ------------------------------------------------------------------

    async def submit(
        self,
        observations: ObservationMatrix,
        latency_budget: Optional[float] = None,
    ) -> np.ndarray:
        """Score ``observations``; returns the per-triple score vector.

        ``latency_budget`` (default: the front end's
        ``default_latency_budget``) is the request's SLO: it never delays
        dispatch, and a served request that overruns it is counted in
        ``stats["deadline_misses"]``.  Raises
        :class:`~repro.serve.admission.Overloaded` when shed.
        """
        result = await self.submit_detailed(
            observations, latency_budget=latency_budget
        )
        return result.scores

    async def submit_detailed(
        self,
        observations: ObservationMatrix,
        latency_budget: Optional[float] = None,
    ) -> ServeResult:
        """Like :meth:`submit`, returning the full :class:`ServeResult`."""
        if not self._started:
            raise RuntimeError(
                "start() the frontend (or enter its async context) "
                "before submitting"
            )
        if self._closing:
            raise Overloaded(SHED_CLOSED, 0.0, 0.0)
        budget = (
            self._default_budget if latency_budget is None
            else float(latency_budget)
        )
        if not budget > 0.0:
            raise ValueError(
                f"latency_budget must be positive, got {latency_budget}"
            )
        nbytes = int(
            observations.provides.nbytes + observations.coverage.nbytes
        )
        self._admission.admit(nbytes)
        loop = asyncio.get_running_loop()
        try:
            lane_name = self._admit_lane(self._router.classify(observations))
            lane = self._lanes[lane_name]
            request = _Request(
                observations,
                loop.create_future(),
                nbytes,
                admitted_at=loop.time(),
                budget=budget,
            )
            lane.pending.append(request)
            lane.event.set()
        except BaseException:
            # Admission was charged but the request never reached a
            # lane; dispatch can no longer release it, so do it here.
            # (Covers circuit-open shedding too: _admit_lane raises
            # before the request object exists.)
            self._admission.release(nbytes)
            raise
        return await request.future

    def _admit_lane(self, lane_name: str) -> str:
        """Apply the lane's circuit breaker: pass, force-degrade, or shed.

        An open delta-lane breaker under ``breaker_policy="degrade"``
        reroutes the request to the cold lane when cold serving is
        healthy -- degradation is bit-identical, so rerouting beats
        shedding.  Everything else (cold lane open, ``"shed"`` policy,
        both lanes open) sheds with a typed
        ``Overloaded("circuit_open")``.
        """
        breaker = self._breakers[lane_name]
        if breaker.allow():
            return lane_name
        if (
            self._breaker_policy == "degrade"
            and lane_name == DELTA_LANE
            and self._breakers[COLD_LANE].allow()
        ):
            self._forced_degrades += 1
            return COLD_LANE
        self._shed_circuit += 1
        raise Overloaded(
            SHED_CIRCUIT_OPEN,
            float(breaker.failure_threshold),
            float(breaker.stats["consecutive_failures"]),
        )

    async def refit(
        self,
        observations: ObservationMatrix,
        labels: np.ndarray,
        mode: str = "delta",
        train_mask: Optional[np.ndarray] = None,
        **overrides: Any,
    ) -> int:
        """Swap model generations under live traffic (drain -> swap -> replay).

        Gates new batch dispatch, waits for in-flight batches to drain,
        runs the session's :meth:`~repro.core.api.ScoringSession.refit`
        (``mode="cold"``) or
        :meth:`~repro.core.api.ScoringSession.refit_delta`
        (``mode="delta"``) on the executor, rebinds the lane router to
        the new generation, then reopens the gate so queued requests
        replay against it.  Returns the new generation number.
        """
        mode = check_refit_mode(mode)
        if not self._started:
            raise RuntimeError("start() the frontend before refitting")
        if self._closing:
            raise RuntimeError("a closing frontend cannot refit")
        assert self._refit_serialize is not None
        assert self._refit_gate is not None
        assert self._idle is not None
        assert self._executor is not None
        loop = asyncio.get_running_loop()
        async with self._refit_serialize:
            self._refit_gate.clear()
            try:
                while self._inflight:
                    self._idle.clear()
                    await self._idle.wait()
                refit_call = (
                    self._session.refit_delta if mode == "delta"
                    else self._session.refit
                )
                try:
                    await loop.run_in_executor(
                        self._executor,
                        partial(
                            refit_call,
                            observations,
                            labels,
                            train_mask=train_mask,
                            **overrides,
                        ),
                    )
                except BaseException:
                    # The session rolled back to its old generation (its
                    # refit publishes atomically); count the failure and
                    # let the finally reopen the gate so queued traffic
                    # replays against the unchanged generation.
                    self._refit_failures += 1
                    raise
                self._generation += 1
                self._refits += 1
                self._router.rebind(expected_sources_of(self._session))
            finally:
                self._refit_gate.set()
        return self._generation

    # ------------------------------------------------------------------
    # Internals (event-loop thread only)
    # ------------------------------------------------------------------

    async def _dispatch_lane(self, lane: _LaneState) -> None:
        """One lane's dispatcher: group-commit pending work, one batch at a time.

        An idle lane ships whatever is pending at once; everything that
        arrives while the batch scores waits for it to settle and then
        ships together as the next batch.
        """
        try:
            while True:
                if not lane.pending:
                    if self._closing:
                        return
                    lane.event.clear()
                    await lane.event.wait()
                    continue
                batch = lane.pending[: self._max_batch]
                del lane.pending[: len(batch)]
                await self._execute_batch(lane, batch)
        except BaseException as error:
            # A dying dispatcher (cancellation, a bug in the loop above)
            # must not strand its queue: fail every still-pending request
            # so callers unblock and their admission charges drain, then
            # propagate.  _execute_batch settles its own dequeued batch.
            for request in lane.pending:
                wrapped = RuntimeError(
                    f"{lane.name} lane dispatcher crashed before scoring "
                    "this request"
                )
                wrapped.__cause__ = error
                self._settle_error(request, wrapped)
            lane.pending.clear()
            raise

    async def _execute_batch(
        self, lane: _LaneState, batch: list[_Request]
    ) -> None:
        """Score one batch on the executor and resolve its futures."""
        assert self._refit_gate is not None
        assert self._idle is not None
        assert self._executor is not None
        # Gate check and in-flight increment must share one synchronous
        # block: a refit clearing the gate between our wake-up and the
        # dispatch would otherwise race the drain.
        while True:
            if self._refit_gate.is_set():
                self._inflight += 1
                break
            await self._refit_gate.wait()
        loop = asyncio.get_running_loop()
        try:
            generation = self._generation
            dispatched_at = loop.time()
            breaker = self._breakers[lane.name]
            try:
                faults.trip(faults.SITE_DISPATCH)
                outcome = await self._score_resilient(batch)
            except Exception as error:  # fault-barrier: the dispatcher keeps serving; every request in the batch gets its own typed failure
                breaker.record_failure()
                for request in batch:
                    wrapped = RuntimeError(
                        "serving batch failed before scoring this "
                        "request"
                    )
                    wrapped.__cause__ = error
                    self._settle_error(request, wrapped)
                return
            breaker.record_success()
            completed_at = loop.time()
            lane.batches += 1
            lane.served += len(batch)
            self._fused_requests += outcome.fused_requests
            self._largest_batch = max(self._largest_batch, len(batch))
            for request, scores, request_error in zip(
                batch, outcome.scores, outcome.errors
            ):
                if request_error is not None:
                    self._settle_error(request, request_error)
                    continue
                assert scores is not None
                latency = completed_at - request.admitted_at
                if latency > request.budget:
                    self._deadline_misses += 1
                self._settle_result(
                    request,
                    ServeResult(
                        scores=scores,
                        lane=lane.name,
                        generation=generation,
                        batch_size=len(batch),
                        queued_seconds=dispatched_at - request.admitted_at,
                        service_seconds=completed_at - dispatched_at,
                        latency_seconds=latency,
                    ),
                )
        finally:
            # Accounting backstop: any request not settled above (an
            # unexpected unwind, including task cancellation mid-await)
            # still releases its admission charge and fails its caller --
            # settled requests are untouched, settlement is exactly-once.
            for request in batch:
                if not request.settled:
                    self._settle_error(
                        request,
                        RuntimeError(
                            "serving batch was abandoned before settling "
                            "this request"
                        ),
                    )
            self._inflight -= 1
            if self._inflight == 0:
                self._idle.set()

    def _settle_result(self, request: _Request, result: ServeResult) -> None:
        """Resolve a request exactly once: release admission, set scores.

        Safe on a cancelled future (the charge still releases; the
        result is dropped) and a second settle attempt is a no-op --
        which is what lets every error path call it defensively.
        """
        if request.settled:
            return
        request.settled = True
        self._admission.release(request.nbytes)
        if not request.future.done():
            request.future.set_result(result)

    def _settle_error(self, request: _Request, error: BaseException) -> None:
        """Fail a request exactly once: release admission, set the error."""
        if request.settled:
            return
        request.settled = True
        self._admission.release(request.nbytes)
        if not request.future.done():
            request.future.set_exception(error)

    async def _score_resilient(self, batch: "list[_Request]") -> Any:
        """Score a batch down the degradation ladder; every rung bit-identical.

        Rung 0: the fast path -- fused, delta-aware ``score_batch`` --
        retried per :class:`RetryPolicy` with backoff.  Rung 1: the cold
        micro-batch (same coalescing, delta layer bypassed), likewise
        retried -- for when the delta/fused machinery is what is
        failing.  Rung 2: inline per-request cold scoring with errors
        captured per request, so a batch can no longer fail outright --
        the final rung trades every optimisation for certainty, and
        because each rung is exactness-preserving the caller cannot tell
        (except by latency) which rung served it.
        """
        matrices = [request.observations for request in batch]
        try:
            return await self._attempt_with_retries(
                partial(self._session.score_batch, matrices)
            )
        except Exception:  # fault-barrier: rung 0 exhausted its retries; degrade to the cold micro-batch rung
            self._degraded_batches += 1
        try:
            return await self._attempt_with_retries(
                partial(self._session.score_batch, matrices, cold=True)
            )
        except Exception:  # fault-barrier: rung 1 failed too; the inline-serial rung below cannot fail a whole batch
            pass
        scores: "list[Optional[np.ndarray]]" = [None] * len(matrices)
        errors: "list[Optional[Exception]]" = [None] * len(matrices)
        for i, matrix in enumerate(matrices):
            try:
                scores[i] = await self._score_on_executor(
                    partial(self._session.score_cold, matrix)
                )
            except Exception as error:  # fault-barrier: per-request typed failure on the last rung; the request terminates either way
                errors[i] = error
        return BatchScoreOutcome(scores, errors, 0)

    async def _attempt_with_retries(self, call: Any) -> Any:
        """One ladder rung: run ``call`` with bounded, backoff'd retries."""
        policy = self._retry_policy
        attempt = 0
        while True:
            try:
                return await self._score_on_executor(call)
            except Exception as error:
                if (
                    attempt >= policy.max_retries
                    or not policy.is_retryable(error)
                ):
                    raise
                self._retries += 1
                await asyncio.sleep(policy.backoff_seconds(attempt))
                attempt += 1

    async def _score_on_executor(self, call: Any) -> Any:
        """Run ``call`` on the scoring executor, under the attempt timeout.

        A timeout abandons the *await*, not the thread -- executor jobs
        cannot be cancelled once running (``wait_for`` would block on
        them), so the attempt future is left to finish on its own and
        its late result dropped; settlement idempotency makes that safe.
        The raised ``TimeoutError`` is retry-safe, so a hung attempt
        walks the same retry/degradation path as a crashed one.
        """
        assert self._executor is not None
        loop = asyncio.get_running_loop()
        future = loop.run_in_executor(self._executor, call)
        if self._scoring_timeout is None:
            return await future
        done, _pending = await asyncio.wait(
            {future}, timeout=self._scoring_timeout
        )
        if done:
            return future.result()
        future.add_done_callback(_swallow_late_result)
        raise asyncio.TimeoutError(
            f"scoring attempt exceeded its {self._scoring_timeout}s budget"
        )

    # ------------------------------------------------------------------
    # Diagnostics
    # ------------------------------------------------------------------

    @property
    def session(self) -> ScoringSession:
        return self._session

    @property
    def generation(self) -> int:
        """How many refits this front end has applied (0 = the initial fit)."""
        return self._generation

    @property
    def stats(self) -> dict:
        """Serving diagnostics: admission, lanes, batching, generations."""
        lanes = {
            name: {"batches": lane.batches, "served": lane.served}
            for name, lane in self._lanes.items()
        }
        return {
            "generation": self._generation,
            "refits": self._refits,
            "inflight_batches": self._inflight,
            "fused_requests": self._fused_requests,
            "largest_batch": self._largest_batch,
            "deadline_misses": self._deadline_misses,
            "max_batch_requests": self._max_batch,
            "default_latency_budget": self._default_budget,
            "admission": self._admission.stats,
            "routing": self._router.stats,
            "lanes": lanes,
            "checkpoint": (
                self._checkpointer.stats
                if self._checkpointer is not None
                else {}
            ),
            "resilience": {
                "retries": self._retries,
                "degraded_batches": self._degraded_batches,
                "forced_degrades": self._forced_degrades,
                "shed_circuit_open": self._shed_circuit,
                "refit_failures": self._refit_failures,
                "scoring_timeout": self._scoring_timeout,
                "breaker_policy": self._breaker_policy,
                "breakers": {
                    name: breaker.stats
                    for name, breaker in self._breakers.items()
                },
            },
            "closed": self._closing,
        }
