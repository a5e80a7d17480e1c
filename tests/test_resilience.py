"""Serving resilience: retries, circuit breaking, the degradation ladder.

Unit layer (``repro.serve.resilience``): retryability classification
walks cause chains and refuses ``Overloaded``; backoff schedules are
seeded and bounded; the circuit breaker's closed -> open -> half-open
state machine runs on an injectable clock.

Integration layer (``AsyncServingFrontend`` under injected faults):

- a transient scoring fault is retried and served bit-identically;
- a persistent scoring fault walks the full degradation ladder down to
  inline cold scoring -- still bit-identical (every rung is
  exactness-preserving);
- dispatch-level failures trip the per-lane breaker, which either sheds
  typed ``Overloaded("circuit_open")`` errors or force-degrades delta
  traffic onto the healthy cold lane;
- hung scoring attempts are cut off by the per-request scoring timeout
  and absorbed by the ladder;
- the admission ledger drains to exactly zero on *every* path --
  including batch failure, cancelled callers, and refit faults
  (satellite S1);
- a refit that faults mid-swap rolls back to the old generation and the
  next refit succeeds (satellite S3).
"""

from __future__ import annotations

import asyncio
import time
from concurrent.futures import BrokenExecutor
from concurrent.futures import TimeoutError as FuturesTimeout

import numpy as np
import pytest

from repro.core import ObservationMatrix, ScoringSession, faults
from repro.core.faults import FaultPlan, InjectedFault
from repro.data import (
    CorrelationGroup,
    SyntheticConfig,
    generate,
    uniform_sources,
)
from repro.serve import (
    BREAKER_CLOSED,
    BREAKER_HALF_OPEN,
    BREAKER_OPEN,
    COLD_LANE,
    DELTA_LANE,
    SHED_CIRCUIT_OPEN,
    AsyncServingFrontend,
    CircuitBreaker,
    Overloaded,
    RetryPolicy,
    is_retryable,
)


@pytest.fixture(autouse=True)
def _disarmed():
    faults.uninstall()
    yield
    faults.uninstall()


def _dataset(seed=7, n_sources=8, n_triples=240):
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


def _session(dataset, **kwargs):
    kwargs.setdefault("method", "exact")
    return ScoringSession(dataset.observations, dataset.labels, **kwargs)


def _reference(dataset, **kwargs):
    kwargs.setdefault("method", "exact")
    return ScoringSession(
        dataset.observations, dataset.labels, delta="off", **kwargs
    )


def _request_slices(observations, n_requests, width):
    requests = []
    for k in range(n_requests):
        mask = np.zeros(observations.n_triples, dtype=bool)
        start = (k * width) % max(observations.n_triples - width, 1)
        mask[start : start + width] = True
        requests.append(observations.restricted_to_triples(mask))
    return requests


class TestRetryability:
    def test_infrastructure_errors_are_retryable(self):
        assert is_retryable(InjectedFault("score", 1))
        assert is_retryable(BrokenExecutor("pool died"))
        assert is_retryable(FuturesTimeout())
        assert is_retryable(asyncio.TimeoutError())
        assert is_retryable(ConnectionError())
        assert is_retryable(OSError(9, "bad fd"))

    def test_semantic_errors_are_not(self):
        assert not is_retryable(ValueError("bad width"))
        assert not is_retryable(TypeError("bad type"))
        assert not is_retryable(RuntimeError("plain"))

    def test_cause_chain_keeps_retryability(self):
        wrapped = RuntimeError("scoring a serving batch failed")
        wrapped.__cause__ = InjectedFault("dispatch", 2)
        assert is_retryable(wrapped)
        context_only = RuntimeError("while handling")
        context_only.__context__ = FuturesTimeout()
        assert is_retryable(context_only)

    def test_overloaded_wins_as_non_retryable(self):
        shed = Overloaded("circuit_open", 5.0, 5.0)
        assert not is_retryable(shed)
        wrapped = RuntimeError("request failed")
        wrapped.__cause__ = shed
        assert not is_retryable(wrapped)

    def test_cause_cycles_terminate(self):
        first = RuntimeError("a")
        second = RuntimeError("b")
        first.__cause__ = second
        second.__cause__ = first
        assert not is_retryable(first)


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ValueError, match="max_retries"):
            RetryPolicy(max_retries=-1)
        with pytest.raises(ValueError, match="base_delay"):
            RetryPolicy(base_delay=-0.1)
        with pytest.raises(ValueError, match="max_delay"):
            RetryPolicy(base_delay=0.2, max_delay=0.1)
        with pytest.raises(ValueError, match="attempt"):
            RetryPolicy().backoff_seconds(-1)

    def test_backoff_is_seeded_and_bounded(self):
        first = RetryPolicy(base_delay=0.01, max_delay=0.08, jitter_seed=3)
        second = RetryPolicy(base_delay=0.01, max_delay=0.08, jitter_seed=3)
        schedule = [first.backoff_seconds(k) for k in range(6)]
        assert schedule == [second.backoff_seconds(k) for k in range(6)]
        for attempt, delay in enumerate(schedule):
            ceiling = min(0.08, 0.01 * 2.0 ** attempt)
            assert 0.5 * ceiling <= delay < ceiling

    def test_different_seeds_decorrelate(self):
        a = RetryPolicy(jitter_seed=1)
        b = RetryPolicy(jitter_seed=2)
        assert [a.backoff_seconds(k) for k in range(4)] != [
            b.backoff_seconds(k) for k in range(4)
        ]


class _FakeClock:
    def __init__(self):
        self.now = 100.0

    def __call__(self):
        return self.now


class TestCircuitBreaker:
    def test_validation(self):
        with pytest.raises(ValueError, match="failure_threshold"):
            CircuitBreaker(failure_threshold=0)
        with pytest.raises(ValueError, match="cooldown_seconds"):
            CircuitBreaker(cooldown_seconds=-1.0)

    def test_opens_at_threshold_and_probes_after_cooldown(self):
        clock = _FakeClock()
        breaker = CircuitBreaker(
            failure_threshold=3, cooldown_seconds=10.0, clock=clock
        )
        assert breaker.state == BREAKER_CLOSED
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.allow()  # still closed below the threshold
        breaker.record_failure()
        assert breaker.state == BREAKER_OPEN
        assert not breaker.allow()  # cooling down
        clock.now += 10.0
        assert breaker.allow()  # the single half-open probe
        assert breaker.state == BREAKER_HALF_OPEN
        assert not breaker.allow()  # probe already in flight
        breaker.record_success()
        assert breaker.state == BREAKER_CLOSED
        stats = breaker.stats
        assert stats["opens"] == 1
        assert stats["probes"] == 1
        assert stats["shed"] == 2

    def test_failed_probe_reopens_immediately(self):
        clock = _FakeClock()
        breaker = CircuitBreaker(
            failure_threshold=5, cooldown_seconds=1.0, clock=clock
        )
        for _ in range(5):
            breaker.record_failure()
        clock.now += 1.0
        assert breaker.allow()
        breaker.record_failure()  # the probe fails: one strike re-opens
        assert breaker.state == BREAKER_OPEN
        assert breaker.stats["opens"] == 2

    def test_success_resets_the_consecutive_run(self):
        breaker = CircuitBreaker(failure_threshold=2)
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state == BREAKER_CLOSED


class TestFrontendResilience:
    def _drive(self, frontend, requests):
        async def run():
            async with frontend:
                return await asyncio.gather(
                    *(frontend.submit_detailed(r) for r in requests),
                    return_exceptions=True,
                )

        return asyncio.run(run())

    def test_transient_fault_is_retried_bit_identically(self):
        dataset = _dataset(seed=3)
        session = _session(dataset)
        reference = _reference(dataset)
        requests = _request_slices(dataset.observations, 4, 48)
        expected = [reference.score(r) for r in requests]
        faults.install(FaultPlan.from_spec("score:raise:1"))
        frontend = AsyncServingFrontend(
            session, default_latency_budget=0.05
        )
        results = self._drive(frontend, requests)
        for result, scores in zip(results, expected):
            assert not isinstance(result, BaseException)
            assert np.array_equal(result.scores, scores)
        resilience = frontend.stats["resilience"]
        assert resilience["retries"] >= 1
        assert frontend.stats["admission"]["depth"] == 0
        assert frontend.stats["admission"]["inflight_bytes"] == 0

    def test_persistent_fault_walks_the_full_ladder(self):
        # Every score_batch call (fused and cold alike) faults; only the
        # inline per-request cold rung can complete -- and it must still
        # be bit-identical.
        dataset = _dataset(seed=5)
        session = _session(dataset)
        reference = _reference(dataset)
        requests = _request_slices(dataset.observations, 6, 48)
        expected = [reference.score(r) for r in requests]
        faults.install(FaultPlan.from_spec("score:raise:1:0"))
        frontend = AsyncServingFrontend(
            session,
            default_latency_budget=0.05,
            retry_policy=RetryPolicy(max_retries=1, base_delay=0.001),
        )
        results = self._drive(frontend, requests)
        for result, scores in zip(results, expected):
            assert not isinstance(result, BaseException)
            assert np.array_equal(result.scores, scores)
        resilience = frontend.stats["resilience"]
        assert resilience["degraded_batches"] >= 1
        assert resilience["retries"] >= 1
        assert frontend.stats["admission"]["depth"] == 0

    def test_scoring_timeout_is_absorbed_by_the_ladder(self):
        dataset = _dataset(seed=7)
        session = _session(dataset)
        reference = _reference(dataset)
        requests = _request_slices(dataset.observations, 2, 48)
        expected = [reference.score(r) for r in requests]
        real_score_batch = session.score_batch
        calls = {"n": 0}

        def hung_score_batch(matrices, cold=False):
            # Only the first (fused, rung 0) attempt hangs; the cold
            # rung-1 retry runs clean on a free executor thread.
            calls["n"] += 1
            if calls["n"] == 1:
                time.sleep(0.25)
            return real_score_batch(matrices, cold=cold)

        session.score_batch = hung_score_batch
        frontend = AsyncServingFrontend(
            session,
            default_latency_budget=0.05,
            scoring_timeout=0.05,
            executor_workers=4,
            retry_policy=RetryPolicy(max_retries=0),
        )
        results = self._drive(frontend, requests)
        for result, scores in zip(results, expected):
            assert not isinstance(result, BaseException)
            assert np.array_equal(result.scores, scores)
        # Both batch rungs timed out; the inline cold rung served.
        assert frontend.stats["resilience"]["degraded_batches"] >= 1

    def test_dispatch_failures_open_the_breaker_and_shed(self):
        dataset = _dataset(seed=9)
        session = _session(dataset)
        observations = dataset.observations
        faults.install(FaultPlan.from_spec("dispatch:raise:1:0"))
        frontend = AsyncServingFrontend(
            session,
            default_latency_budget=0.05,
            breaker_threshold=1,
            breaker_cooldown=60.0,
            breaker_policy="shed",
            retry_policy=RetryPolicy(max_retries=0),
        )

        async def run():
            async with frontend:
                first = await asyncio.gather(
                    frontend.submit(observations), return_exceptions=True
                )
                second = await asyncio.gather(
                    frontend.submit(observations), return_exceptions=True
                )
                return first[0], second[0]

        first, second = asyncio.run(run())
        # The first request's batch failed outright (wrapped dispatch
        # fault) and opened the lane's breaker ...
        assert isinstance(first, RuntimeError)
        assert not isinstance(first, Overloaded)
        # ... so the second is shed with the typed circuit-open error
        # without ever queueing behind the failing lane.
        assert isinstance(second, Overloaded)
        assert second.reason == SHED_CIRCUIT_OPEN
        stats = frontend.stats
        assert stats["resilience"]["shed_circuit_open"] == 1
        assert stats["admission"]["depth"] == 0
        assert stats["admission"]["inflight_bytes"] == 0

    def test_open_delta_breaker_degrades_to_the_cold_lane(self):
        dataset = _dataset(seed=11)
        session = _session(dataset)
        reference = _reference(dataset)
        observations = dataset.observations
        # Exactly one dispatch fault: the first delta batch fails and
        # opens its breaker; the rule is then consumed, so the rerouted
        # cold traffic is healthy.
        faults.install(FaultPlan.from_spec("dispatch:raise:1:1"))
        frontend = AsyncServingFrontend(
            session,
            default_latency_budget=0.05,
            breaker_threshold=1,
            breaker_cooldown=60.0,
            breaker_policy="degrade",
            retry_policy=RetryPolicy(max_retries=0),
        )

        async def run():
            async with frontend:
                first = await asyncio.gather(
                    frontend.submit_detailed(observations),
                    return_exceptions=True,
                )
                second = await asyncio.gather(
                    frontend.submit_detailed(observations),
                    return_exceptions=True,
                )
                return first[0], second[0]

        first, second = asyncio.run(run())
        assert isinstance(first, RuntimeError)
        assert not isinstance(second, BaseException)
        assert second.lane == COLD_LANE
        assert np.array_equal(second.scores, reference.score(observations))
        stats = frontend.stats
        assert stats["resilience"]["forced_degrades"] == 1
        assert stats["resilience"]["shed_circuit_open"] == 0
        breakers = stats["resilience"]["breakers"]
        assert breakers[DELTA_LANE]["state"] == BREAKER_OPEN
        assert stats["admission"]["depth"] == 0

    def test_cancelled_caller_still_releases_admission(self):
        # Satellite S1: a caller abandoning its future must not leak the
        # admission budget -- the dispatcher settles (and releases) the
        # request even though nobody is waiting.
        dataset = _dataset(seed=13)
        session = _session(dataset)

        async def run():
            frontend = AsyncServingFrontend(
                session, default_latency_budget=5.0, max_batch_requests=64
            )
            await frontend.start()
            task = asyncio.ensure_future(
                frontend.submit(dataset.observations)
            )
            await asyncio.sleep(0)  # let it reach a lane
            task.cancel()
            with pytest.raises(asyncio.CancelledError):
                await task
            await frontend.close()  # flushes the abandoned request
            return frontend.stats

        stats = asyncio.run(run())
        assert stats["admission"]["depth"] == 0
        assert stats["admission"]["inflight_bytes"] == 0

    def test_refit_fault_rolls_back_and_the_next_refit_succeeds(self):
        # Satellite S3: an injected fault between building and publishing
        # a generation leaves the session on the old generation; traffic
        # keeps serving it bit-identically, and a later refit swaps
        # cleanly.
        dataset = _dataset(seed=15)
        observations = dataset.observations
        session = _session(dataset)
        rng = np.random.default_rng(9)
        provides = observations.provides.copy()
        for column in rng.choice(observations.n_triples, size=5,
                                 replace=False):
            provides[0, column] = ~provides[0, column]
        refit_matrix = ObservationMatrix(
            provides, observations.source_names,
            coverage=observations.coverage,
        )
        requests = _request_slices(observations, 4, 48)
        faults.install(FaultPlan.from_spec("refit:raise:1"))

        async def run():
            async with AsyncServingFrontend(
                session, default_latency_budget=0.05
            ) as frontend:
                with pytest.raises(Exception) as excinfo:
                    await frontend.refit(
                        refit_matrix, dataset.labels, mode="delta"
                    )
                after_failure = await asyncio.gather(
                    *(frontend.submit_detailed(r) for r in requests)
                )
                generation = await frontend.refit(
                    refit_matrix, dataset.labels, mode="delta"
                )
                after_success = await asyncio.gather(
                    *(frontend.submit_detailed(r) for r in requests)
                )
                return (
                    excinfo.value, after_failure, generation,
                    after_success, frontend.stats,
                )

        error, after_failure, generation, after_success, stats = (
            asyncio.run(run())
        )
        assert isinstance(error, InjectedFault)
        assert generation == 1
        assert stats["resilience"]["refit_failures"] == 1
        assert stats["refits"] == 1
        oracles = {
            0: _reference(dataset),
            1: ScoringSession(
                refit_matrix, dataset.labels, method="exact",
                delta="off",
            ),
        }
        # The failed refit left generation 0 fully intact -- not
        # half-swapped -- and the successful one published generation 1.
        for result, request in zip(after_failure, requests):
            assert result.generation == 0
            assert np.array_equal(
                result.scores, oracles[0].score(request)
            )
        for result, request in zip(after_success, requests):
            assert result.generation == 1
            assert np.array_equal(
                result.scores, oracles[1].score(request)
            )
        assert stats["admission"]["depth"] == 0
        assert stats["admission"]["inflight_bytes"] == 0
