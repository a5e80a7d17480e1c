"""The async serving front end end to end (``repro.serve.frontend``).

The contract under test, in priority order:

- **bit-identity** -- every served score equals a direct
  ``session.score`` of the same matrix (max |diff| exactly 0.0), through
  batching, lanes, shedding, and mid-traffic refits;
- **work-conserving dispatch** -- an idle lane ships at once, arrivals
  during a batch ship together as the next one, ``max_batch_requests``
  caps a batch, and a budget overrun counts as a deadline miss;
- **admission** -- overload sheds typed ``Overloaded`` errors instead of
  queueing unboundedly;
- **refit-during-traffic** -- the drain -> swap -> replay protocol never
  scores a request against a mixed generation;
- **lifecycle** -- close flushes pending work, later submits shed, and
  a closed front end stays closed.
"""

from __future__ import annotations

import asyncio
import time

import numpy as np
import pytest

from repro.core import ObservationMatrix, ScoringSession, faults
from repro.data import (
    CorrelationGroup,
    SyntheticConfig,
    generate,
    uniform_sources,
)
from repro.eval.harness import run_serving_load
from repro.serve import (
    COLD_LANE,
    DELTA_LANE,
    SHED_CLOSED,
    SHED_INFLIGHT_BYTES,
    SHED_QUEUE_DEPTH,
    AsyncServingFrontend,
    Overloaded,
)


def _dataset(seed=7, n_sources=8, n_triples=240, correlated=True):
    groups = []
    if correlated and n_sources >= 6:
        groups = [
            CorrelationGroup(
                members=(0, 1, 2), mode="overlap_true", strength=0.85
            ),
        ]
    config = SyntheticConfig(
        sources=uniform_sources(n_sources, precision=0.65, recall=0.45),
        n_triples=n_triples,
        true_fraction=0.5,
        groups=tuple(groups),
    )
    return generate(config, seed=seed)


def _request_slices(observations, n_requests, width):
    requests = []
    for k in range(n_requests):
        mask = np.zeros(observations.n_triples, dtype=bool)
        start = (k * width) % max(observations.n_triples - width, 1)
        mask[start : start + width] = True
        requests.append(observations.restricted_to_triples(mask))
    return requests


def _session(dataset, **kwargs):
    kwargs.setdefault("method", "exact")
    return ScoringSession(dataset.observations, dataset.labels, **kwargs)


def _reference(dataset, **kwargs):
    kwargs.setdefault("method", "exact")
    return ScoringSession(
        dataset.observations, dataset.labels, delta="off", **kwargs
    )


class TestServingBitIdentity:
    def test_concurrent_submits_are_bit_identical_and_batch(self):
        dataset = _dataset(seed=3)
        session = _session(dataset)
        reference = _reference(dataset)
        requests = _request_slices(dataset.observations, 8, 48)
        expected = [reference.score(request) for request in requests]

        async def drive():
            async with AsyncServingFrontend(
                session, default_latency_budget=0.05
            ) as frontend:
                results = await asyncio.gather(
                    *(frontend.submit_detailed(r) for r in requests)
                )
                return results, frontend.stats

        results, stats = asyncio.run(drive())
        for result, reference_scores in zip(results, expected):
            assert np.array_equal(result.scores, reference_scores)
            assert result.generation == 0
            assert result.latency_seconds >= result.service_seconds
        # Concurrent same-width traffic coalesced into fused batches.
        assert stats["fused_requests"] >= 2
        assert stats["largest_batch"] >= 2

    def test_non_batch_invariant_sessions_still_serve_identically(self):
        dataset = _dataset(seed=5)
        session = _session(dataset, method="precrec")
        reference = _reference(dataset, method="precrec")
        requests = _request_slices(dataset.observations, 4, 48)
        expected = [reference.score(request) for request in requests]

        async def drive():
            async with AsyncServingFrontend(session) as frontend:
                results = await asyncio.gather(
                    *(frontend.submit_detailed(r) for r in requests)
                )
                return results, frontend.stats

        results, stats = asyncio.run(drive())
        for result, reference_scores in zip(results, expected):
            assert np.array_equal(result.scores, reference_scores)
            # No batch-invariance guarantee: everything rides cold.
            assert result.lane == COLD_LANE
        assert stats["fused_requests"] == 0

    def test_bad_request_error_routes_to_its_caller_only(self):
        dataset = _dataset(seed=7)
        session = _session(dataset)
        reference = _reference(dataset)
        good = dataset.observations
        bad = ObservationMatrix(
            np.zeros((3, 10), dtype=bool), ["a", "b", "c"]
        )

        async def drive():
            async with AsyncServingFrontend(session) as frontend:
                results = await asyncio.gather(
                    frontend.submit(good),
                    frontend.submit(bad),
                    return_exceptions=True,
                )
                return results

        good_scores, bad_error = asyncio.run(drive())
        assert np.array_equal(good_scores, reference.score(good))
        assert isinstance(bad_error, ValueError)
        assert "sources" in str(bad_error)


def _delta_stream(observations, n_requests, width):
    """Distinct same-width requests that all ride the delta lane.

    Request ``k`` is one fixed window with source 0 flipped on column
    ``k``: each differs from its predecessor in two columns, well under
    the router's churn bound.
    """
    mask = np.zeros(observations.n_triples, dtype=bool)
    mask[:width] = True
    base = observations.restricted_to_triples(mask)
    requests = []
    for k in range(n_requests):
        provides = base.provides.copy()
        provides[0, k] = ~provides[0, k]
        requests.append(
            ObservationMatrix(
                provides, base.source_names, coverage=base.coverage
            )
        )
    return requests


class TestWorkConservingDispatch:
    def test_lone_submits_ship_at_once(self):
        # A huge budget is an SLO, not a wait: an idle lane ships a lone
        # request immediately instead of holding it for half the budget.
        dataset = _dataset(seed=11)
        session = _session(dataset)
        reference = _reference(dataset)
        requests = _delta_stream(dataset.observations, 3, 48)

        async def drive():
            async with AsyncServingFrontend(
                session, default_latency_budget=10.0
            ) as frontend:
                results = [
                    await frontend.submit_detailed(r) for r in requests
                ]
                return results, frontend.stats

        results, stats = asyncio.run(drive())
        for result, request in zip(results, requests):
            assert result.queued_seconds < 1.0, (
                f"a lone request queued {result.queued_seconds:.2f}s "
                "behind an idle lane"
            )
            assert result.batch_size == 1
            assert np.array_equal(result.scores, reference.score(request))
        assert stats["deadline_misses"] == 0

    def test_arrivals_during_a_batch_ship_together(self):
        # Group commit: the first batch is held inside score_batch; the
        # five requests arriving meanwhile queue up and ship as one.  The
        # hold overruns the first request's 0.1s budget: it is served
        # anyway, with the same scores, and counted as a deadline miss.
        dataset = _dataset(seed=9)
        session = _session(dataset)
        reference = _reference(dataset)
        requests = _delta_stream(dataset.observations, 6, 48)
        expected = [reference.score(request) for request in requests]

        async def drive():
            async with AsyncServingFrontend(
                session, default_latency_budget=10.0
            ) as frontend:
                first = asyncio.ensure_future(
                    frontend.submit_detailed(requests[0], latency_budget=0.1)
                )
                while frontend.stats["inflight_batches"] == 0:
                    await asyncio.sleep(0)
                rest = await asyncio.gather(
                    *(frontend.submit_detailed(r) for r in requests[1:])
                )
                return [await first] + rest, frontend.stats

        faults.install(faults.FaultPlan.from_spec("score:delay:1@0.2"))
        try:
            results, stats = asyncio.run(drive())
        finally:
            faults.uninstall()
        assert [r.batch_size for r in results] == [1, 5, 5, 5, 5, 5]
        assert all(r.lane == DELTA_LANE for r in results)
        assert stats["lanes"][DELTA_LANE]["batches"] == 2
        assert results[0].latency_seconds > 0.1
        assert stats["deadline_misses"] == 1
        for result, reference_scores in zip(results, expected):
            assert np.array_equal(result.scores, reference_scores)

    def test_max_batch_splits_queued_requests(self):
        dataset = _dataset(seed=13)
        session = _session(dataset)
        reference = _reference(dataset)
        requests = _delta_stream(dataset.observations, 6, 48)
        expected = [reference.score(request) for request in requests]

        async def drive():
            async with AsyncServingFrontend(
                session, max_batch_requests=4
            ) as frontend:
                # gather queues all six on one loop tick, before the
                # lane's dispatcher wakes.
                results = await asyncio.gather(
                    *(frontend.submit_detailed(r) for r in requests)
                )
                return results, frontend.stats

        results, stats = asyncio.run(drive())
        assert [r.batch_size for r in results] == [4, 4, 4, 4, 2, 2]
        assert stats["largest_batch"] == 4
        assert stats["lanes"][DELTA_LANE]["batches"] == 2
        for result, reference_scores in zip(results, expected):
            assert np.array_equal(result.scores, reference_scores)

    def test_validation(self):
        dataset = _dataset(seed=13, n_sources=4, n_triples=60,
                           correlated=False)
        session = _session(dataset)
        with pytest.raises(ValueError, match="max_batch_requests"):
            AsyncServingFrontend(session, max_batch_requests=0)
        with pytest.raises(ValueError, match="default_latency_budget"):
            AsyncServingFrontend(session, default_latency_budget=0.0)

        async def bad_budget():
            async with AsyncServingFrontend(session) as frontend:
                await frontend.submit(
                    dataset.observations, latency_budget=-1.0
                )

        with pytest.raises(ValueError, match="latency_budget"):
            asyncio.run(bad_budget())

        async def unstarted():
            frontend = AsyncServingFrontend(session)
            await frontend.submit(dataset.observations)

        with pytest.raises(RuntimeError, match="start"):
            asyncio.run(unstarted())

    @pytest.mark.parametrize(
        "parameter",
        ("rate_qps", "max_seconds", "default_latency_budget",
         "latency_budget", "scoring_timeout"),
    )
    def test_nan_is_refused(self, parameter):
        # NaN passes a ``<= 0.0`` check, so every positive bound must be
        # written to refuse it; inf stays legal (a burst, or no SLO).
        dataset = _dataset(seed=13, n_sources=4, n_triples=60,
                           correlated=False)
        session = _session(dataset)

        async def submit():
            async with AsyncServingFrontend(session) as frontend:
                await frontend.submit(
                    dataset.observations, latency_budget=float("nan")
                )

        with pytest.raises(ValueError, match=parameter):
            if parameter in ("rate_qps", "max_seconds"):
                run_serving_load(
                    dataset, method="exact", requests=1,
                    **{parameter: float("nan")},
                )
            elif parameter == "latency_budget":
                asyncio.run(submit())
            else:
                AsyncServingFrontend(session, **{parameter: float("nan")})


class TestAdmission:
    def test_queue_depth_overload_sheds_typed_errors(self):
        dataset = _dataset(seed=15)
        session = _session(dataset)
        reference = _reference(dataset)
        requests = _request_slices(dataset.observations, 6, 48)
        expected = [reference.score(request) for request in requests]

        async def drive():
            async with AsyncServingFrontend(
                session, max_queue_depth=2, default_latency_budget=0.05
            ) as frontend:
                return await asyncio.gather(
                    *(frontend.submit(r) for r in requests),
                    return_exceptions=True,
                )

        results = asyncio.run(drive())
        served = [r for r in results if isinstance(r, np.ndarray)]
        shed = [r for r in results if isinstance(r, Overloaded)]
        assert len(served) + len(shed) == len(requests)
        # gather starts submits in order on one loop tick: the first two
        # are admitted, the rest shed -- bounded, not queued.
        assert len(shed) == len(requests) - 2
        assert all(e.reason == SHED_QUEUE_DEPTH for e in shed)
        for scores, reference_scores in zip(served, expected[:2]):
            assert np.array_equal(scores, reference_scores)

    def test_byte_overload_sheds_typed_errors(self):
        dataset = _dataset(seed=17)
        session = _session(dataset)
        nbytes = int(
            dataset.observations.provides.nbytes
            + dataset.observations.coverage.nbytes
        )

        async def drive():
            async with AsyncServingFrontend(
                session, max_inflight_bytes=max(1, nbytes // 2)
            ) as frontend:
                await frontend.submit(dataset.observations)

        with pytest.raises(Overloaded) as excinfo:
            asyncio.run(drive())
        assert excinfo.value.reason == SHED_INFLIGHT_BYTES


class TestLanes:
    def test_small_churn_traffic_rides_the_delta_lane(self):
        dataset = _dataset(seed=19)
        observations = dataset.observations
        session = _session(dataset)
        provides = observations.provides.copy()
        provides[0, 0] = ~provides[0, 0]
        nearby = ObservationMatrix(
            provides, observations.source_names,
            coverage=observations.coverage,
        )

        async def drive():
            async with AsyncServingFrontend(session) as frontend:
                first = await frontend.submit_detailed(observations)
                second = await frontend.submit_detailed(nearby)
                return first, second

        first, second = asyncio.run(drive())
        assert first.lane == DELTA_LANE
        assert second.lane == DELTA_LANE

    def test_high_churn_traffic_rides_the_cold_lane(self):
        dataset = _dataset(seed=21)
        observations = dataset.observations
        session = _session(dataset)
        rng = np.random.default_rng(4)
        provides = observations.provides.copy()
        flips = rng.choice(
            observations.n_triples,
            size=observations.n_triples // 2,
            replace=False,
        )
        for column in flips:
            provides[:, column] = ~provides[:, column]
        churned = ObservationMatrix(
            provides, observations.source_names,
            coverage=observations.coverage,
        )
        reference = _reference(dataset)

        async def drive():
            async with AsyncServingFrontend(
                session, small_churn_fraction=0.1
            ) as frontend:
                first = await frontend.submit_detailed(observations)
                second = await frontend.submit_detailed(churned)
                return first, second

        first, second = asyncio.run(drive())
        assert first.lane == DELTA_LANE
        assert second.lane == COLD_LANE
        # Lane placement never changes scores.
        assert np.array_equal(second.scores, reference.score(churned))


class TestRefitDuringTraffic:
    def test_refit_swaps_generations_and_keeps_bit_identity(self):
        dataset = _dataset(seed=23)
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
        requests = _request_slices(observations, 12, 48)

        async def drive():
            async with AsyncServingFrontend(
                session, default_latency_budget=0.02
            ) as frontend:
                # Phase 1: traffic fully served before the swap.
                before = await asyncio.gather(
                    *(frontend.submit_detailed(r) for r in requests[:4])
                )
                # Phase 2: traffic racing the refit -- each request lands
                # on whichever generation the drain -> swap -> replay
                # protocol assigns it, never a mixture.
                racing = [
                    asyncio.ensure_future(frontend.submit_detailed(r))
                    for r in requests[4:8]
                ]
                generation = await frontend.refit(
                    refit_matrix, dataset.labels, mode="delta"
                )
                during = await asyncio.gather(*racing)
                # Phase 3: traffic fully after the swap.
                after = await asyncio.gather(
                    *(frontend.submit_detailed(r) for r in requests[8:])
                )
                return generation, before, during, after

        generation, before, during, after = asyncio.run(drive())
        assert generation == 1
        # Twin oracles: a cold session per generation (delta refits of
        # count models are bit-identical to cold fits on the same data).
        oracles = {
            0: _reference(dataset),
            1: ScoringSession(
                refit_matrix, dataset.labels, method="exact",
                delta="off",
            ),
        }
        assert all(result.generation == 0 for result in before)
        assert all(result.generation == 1 for result in after)
        results = before + during + after
        for result, request in zip(results, requests):
            assert np.array_equal(
                result.scores, oracles[result.generation].score(request)
            )

    def test_refit_requires_a_started_frontend(self):
        dataset = _dataset(seed=25, n_sources=4, n_triples=60,
                           correlated=False)
        session = _session(dataset)

        async def drive():
            frontend = AsyncServingFrontend(session)
            await frontend.refit(dataset.observations, dataset.labels)

        with pytest.raises(RuntimeError, match="start"):
            asyncio.run(drive())


class TestLifecycle:
    def test_close_flushes_pending_and_sheds_later_submits(self):
        dataset = _dataset(seed=27)
        session = _session(dataset)
        reference = _reference(dataset)
        requests = _request_slices(dataset.observations, 3, 48)

        async def drive():
            frontend = AsyncServingFrontend(
                session, default_latency_budget=10.0, max_batch_requests=64
            )
            await frontend.start()
            # Pending or in flight under a 10s budget ...
            tasks = [
                asyncio.ensure_future(frontend.submit(r)) for r in requests
            ]
            await asyncio.sleep(0)  # let submits reach their lanes
            loop = asyncio.get_running_loop()
            start = loop.time()
            await frontend.close()  # ... must be served now
            elapsed = loop.time() - start
            flushed = await asyncio.gather(*tasks)
            with pytest.raises(Overloaded) as excinfo:
                await frontend.submit(dataset.observations)
            await frontend.close()  # idempotent
            with pytest.raises(RuntimeError, match="restarted"):
                await frontend.start()
            return elapsed, flushed, excinfo.value, frontend.stats

        elapsed, flushed, shed_error, stats = asyncio.run(drive())
        assert elapsed < 5.0, (
            f"close() took {elapsed:.2f}s: it waited on the budget "
            "instead of flushing pending requests"
        )
        for scores, request in zip(flushed, requests):
            assert np.array_equal(scores, reference.score(request))
        assert shed_error.reason == SHED_CLOSED
        assert stats["closed"]
        assert stats["admission"]["depth"] == 0


class TestServingLoadHarness:
    def test_open_loop_report_accounts_for_every_request(self):
        dataset = _dataset(seed=29, n_sources=6, n_triples=160)
        report = run_serving_load(
            dataset,
            method="exact",
            rate_qps=500.0,
            requests=30,
            request_triples=48,
            latency_budget=0.05,
            refit_every=12,
            seed=3,
        )
        assert report.completed + report.shed == report.requests
        assert report.completed > 0
        assert report.refits == 2
        assert report.max_abs_diff == 0.0
        assert len(report.latencies) == report.completed
        if report.completed >= 2:
            assert (
                report.p99_latency_seconds >= report.p50_latency_seconds
            )

    def test_em_with_refits_is_rejected(self):
        # Warm-started EM is not bitwise reproducible, so there is no
        # cold twin oracle to verify against.
        dataset = _dataset(seed=31, n_sources=5, correlated=False)
        with pytest.raises(ValueError, match="em"):
            run_serving_load(
                dataset, method="em", requests=4, refit_every=2, seed=1
            )

    # The hard asserts run on fault-free runs too: each of these breaks
    # one of them with no fault plan armed, and the run must raise
    # instead of returning a report.

    def test_corrupted_served_score_fails_the_run(self, monkeypatch):
        real_score_batch = ScoringSession.score_batch

        def corrupted(self, matrices, **kwargs):
            outcome = real_score_batch(self, matrices, **kwargs)
            scores = outcome.scores[0]
            if scores is not None and len(scores):
                outcome.scores[0] = scores.copy()
                outcome.scores[0][0] = np.nextafter(scores[0], 2.0)
            return outcome

        monkeypatch.setattr(ScoringSession, "score_batch", corrupted)
        dataset = _dataset(seed=43, n_sources=6, n_triples=160)
        with pytest.raises(RuntimeError, match="bit-identity violation"):
            run_serving_load(
                dataset,
                method="exact",
                rate_qps=500.0,
                requests=6,
                request_triples=48,
                seed=3,
            )

    def test_request_error_without_a_fault_plan_fails_the_run(
        self, monkeypatch
    ):
        class _Broken(Exception):
            pass

        real_score_batch = ScoringSession.score_batch

        def failing(self, matrices, **kwargs):
            outcome = real_score_batch(self, matrices, **kwargs)
            outcome.scores[0] = None
            outcome.errors[0] = _Broken("scoring broke, nothing injected")
            return outcome

        monkeypatch.setattr(ScoringSession, "score_batch", failing)
        dataset = _dataset(seed=45, n_sources=6, n_triples=160)
        with pytest.raises(
            RuntimeError, match="without a fault plan"
        ) as info:
            run_serving_load(
                dataset,
                method="exact",
                rate_qps=500.0,
                requests=6,
                request_triples=48,
                seed=3,
            )
        assert isinstance(info.value.__cause__, _Broken)

    def test_watchdog_fails_a_hung_run(self, monkeypatch):
        async def hang(self, observations, latency_budget=None):
            await asyncio.Event().wait()

        monkeypatch.setattr(AsyncServingFrontend, "submit_detailed", hang)
        dataset = _dataset(seed=47, n_sources=6, n_triples=160)
        start = time.monotonic()
        with pytest.raises(RuntimeError, match="did not terminate within"):
            run_serving_load(
                dataset,
                method="exact",
                rate_qps=500.0,
                requests=4,
                request_triples=48,
                max_seconds=0.5,
            )
        assert time.monotonic() - start < 30.0


class TestServingChaosHarness:
    # run_serving_load arms the fault plan for the traffic phase only
    # and self-checks its three hard invariants -- termination, a
    # drained admission ledger, and bit-identity -- by raising; these
    # tests pin the reported numbers on top.

    def test_persistent_scoring_fault_degrades_but_stays_bit_identical(
        self,
    ):
        dataset = _dataset(seed=37, n_sources=6, n_triples=160)
        report = run_serving_load(
            dataset,
            method="exact",
            rate_qps=400.0,
            requests=16,
            request_triples=48,
            fault_plan=faults.FaultPlan.from_spec("score:raise:1:0"),
            seed=3,
        )
        assert report.terminated == report.requests
        assert report.completed > 0
        assert report.max_abs_diff == 0.0
        assert report.stats["resilience"]["retries"] >= 1
        assert report.stats["resilience"]["degraded_batches"] >= 1
        assert report.fault_stats["fired"].get("score", 0) >= 1
        assert report.stats["admission"]["depth"] == 0
        assert report.stats["admission"]["inflight_bytes"] == 0
        assert faults.active_injector() is None  # the plan was disarmed

    def test_dispatch_stalls_neither_retry_nor_degrade(self):
        # The dispatch site trips before a batch enters resilient
        # scoring, so its stalls can reach neither the scoring timeout
        # nor a retry: stalled lanes just drain late.  100 qps keeps
        # well over the 4 dispatches the schedule needs.
        dataset = _dataset(seed=51, n_sources=6, n_triples=160)
        report = run_serving_load(
            dataset,
            method="exact",
            rate_qps=100.0,
            requests=24,
            request_triples=48,
            fault_plan=faults.FaultPlan.from_spec("dispatch:delay:2:3@0.05"),
            seed=3,
        )
        assert report.terminated == report.requests
        assert report.failed == 0
        assert report.fault_stats["fired"] == {"dispatch": 3}
        assert report.stats["resilience"]["retries"] == 0
        assert report.stats["resilience"]["degraded_batches"] == 0
        assert report.max_abs_diff == 0.0

    def test_refit_fault_rolls_back_then_recovers(self):
        dataset = _dataset(seed=39, n_sources=6, n_triples=160)
        report = run_serving_load(
            dataset,
            method="exact",
            rate_qps=400.0,
            requests=16,
            request_triples=48,
            refit_every=8,
            fault_plan=faults.FaultPlan.from_spec("refit:raise:1"),
            seed=5,
        )
        assert report.terminated == report.requests
        assert report.refit_attempts == 2
        assert report.refit_failures == 1
        assert report.refits == 1  # the post-rollback refit succeeded
        assert report.max_abs_diff == 0.0

    def test_pre_armed_injector_is_suspended_for_the_twins(self):
        # An injector armed before the run (as $REPRO_FAULTS arms one)
        # serves the traffic, but the twins must verify fault-free: with
        # every compile after the first raising, a twin phase that left
        # it live could not fit a single twin.
        dataset = _dataset(seed=49, n_sources=6, n_triples=160)
        injector = faults.install(
            faults.FaultPlan.from_spec("compile:raise:2:0")
        )
        try:
            report = run_serving_load(
                dataset,
                method="exact",
                rate_qps=400.0,
                requests=16,
                request_triples=48,
                seed=3,
            )
            # Reinstalled after the twin phase, counters intact.
            assert faults.active_injector() is injector
        finally:
            faults.uninstall()
        assert report.fault_spec == "compile:raise:2:0"
        assert report.terminated == report.requests
        assert report.completed > 0
        assert report.max_abs_diff == 0.0

    def test_random_plans_are_seed_deterministic(self):
        dataset = _dataset(seed=41, n_sources=6, n_triples=160)
        reports = [
            run_serving_load(
                dataset,
                method="exact",
                rate_qps=400.0,
                requests=8,
                request_triples=48,
                fault_plan=faults.FaultPlan.random(11),
                seed=7,
            )
            for _ in range(2)
        ]
        assert reports[0].fault_spec == reports[1].fault_spec
        assert all(r.terminated == r.requests for r in reports)
        assert all(r.max_abs_diff == 0.0 for r in reports)
