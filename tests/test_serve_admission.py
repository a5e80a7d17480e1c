"""Admission control and lane routing units (``repro.serve``).

The front end's two synchronous building blocks:

- :class:`AdmissionController` -- bounded depth / in-flight bytes, typed
  :class:`Overloaded` shedding, exact admit/release bookkeeping;
- :class:`LaneRouter` -- delta vs cold classification by model width and
  exact packed-word churn, generation rebinds, and degeneration to a
  single cold lane for fusers without the batch-invariance guarantee.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import ObservationMatrix, ScoringSession
from repro.data import SyntheticConfig, generate, uniform_sources
from repro.serve import (
    COLD_LANE,
    DELTA_LANE,
    SHED_INFLIGHT_BYTES,
    SHED_QUEUE_DEPTH,
    AdmissionController,
    LaneRouter,
    Overloaded,
    expected_sources_of,
)


def _dataset(seed=7, n_sources=6, n_triples=120):
    config = SyntheticConfig(
        sources=uniform_sources(n_sources, precision=0.65, recall=0.45),
        n_triples=n_triples,
        true_fraction=0.5,
    )
    return generate(config, seed=seed)


def _mutated(observations, n_columns, seed=0):
    """A copy of ``observations`` with ``n_columns`` provide-columns flipped."""
    rng = np.random.default_rng(seed)
    provides = observations.provides.copy()
    columns = rng.choice(
        observations.n_triples, size=n_columns, replace=False
    )
    for column in columns:
        provides[0, column] = ~provides[0, column]
    return ObservationMatrix(
        provides, observations.source_names, coverage=observations.coverage
    )


class TestAdmissionController:
    def test_admit_and_release_track_depth_and_bytes(self):
        controller = AdmissionController(
            max_queue_depth=4, max_inflight_bytes=1000
        )
        controller.admit(300)
        controller.admit(200)
        stats = controller.stats
        assert stats["depth"] == 2
        assert stats["inflight_bytes"] == 500
        assert stats["admitted"] == 2
        assert stats["peak_depth"] == 2
        assert stats["peak_inflight_bytes"] == 500
        controller.release(300)
        controller.release(200)
        stats = controller.stats
        assert stats["depth"] == 0
        assert stats["inflight_bytes"] == 0
        # Peaks survive releases.
        assert stats["peak_depth"] == 2

    def test_depth_limit_sheds_with_typed_reason(self):
        controller = AdmissionController(max_queue_depth=2)
        controller.admit(10)
        controller.admit(10)
        with pytest.raises(Overloaded) as excinfo:
            controller.admit(10)
        assert excinfo.value.reason == SHED_QUEUE_DEPTH
        assert excinfo.value.limit == 2
        assert excinfo.value.value == 3
        # The shed request changed nothing.
        stats = controller.stats
        assert stats["depth"] == 2
        assert stats["shed_queue_depth"] == 1
        assert stats["admitted"] == 2
        # Overloaded is a RuntimeError so generic handlers still catch it.
        assert isinstance(excinfo.value, RuntimeError)

    def test_byte_limit_sheds_with_typed_reason(self):
        controller = AdmissionController(
            max_queue_depth=16, max_inflight_bytes=500
        )
        controller.admit(400)
        with pytest.raises(Overloaded) as excinfo:
            controller.admit(200)
        assert excinfo.value.reason == SHED_INFLIGHT_BYTES
        assert excinfo.value.limit == 500
        assert excinfo.value.value == 600
        stats = controller.stats
        assert stats["inflight_bytes"] == 400
        assert stats["shed_inflight_bytes"] == 1
        # Releasing frees the budget again.
        controller.release(400)
        controller.admit(200)

    def test_byte_limit_disabled_by_default(self):
        controller = AdmissionController(max_queue_depth=2)
        controller.admit(10**12)  # no byte bound: depth is the only limit
        assert controller.stats["max_inflight_bytes"] is None

    def test_release_without_admit_is_an_error(self):
        controller = AdmissionController(max_queue_depth=2)
        with pytest.raises(RuntimeError, match="without a matching admit"):
            controller.release(0)

    def test_validation(self):
        with pytest.raises(ValueError, match="max_queue_depth"):
            AdmissionController(max_queue_depth=0)
        with pytest.raises(ValueError, match="max_inflight_bytes"):
            AdmissionController(max_queue_depth=1, max_inflight_bytes=0)
        controller = AdmissionController(max_queue_depth=1)
        with pytest.raises(ValueError, match="nbytes"):
            controller.admit(-1)

    def test_not_picklable(self):
        with pytest.raises(TypeError, match="process-local"):
            AdmissionController().__getstate__()


class TestLaneRouter:
    def test_first_same_width_request_seeds_the_delta_lane(self):
        dataset = _dataset(seed=3)
        router = LaneRouter(expected_sources=dataset.observations.n_sources)
        assert router.classify(dataset.observations) == DELTA_LANE
        stats = router.stats
        assert stats["delta_routed"] == 1
        assert stats["cold_routed"] == 0

    def test_small_churn_stays_in_the_delta_lane(self):
        dataset = _dataset(seed=5)
        observations = dataset.observations
        router = LaneRouter(expected_sources=observations.n_sources)
        router.classify(observations)
        nearby = _mutated(observations, 2, seed=1)
        assert router.classify(nearby) == DELTA_LANE
        assert router.stats["churn_evictions"] == 0

    def test_high_churn_rides_the_cold_lane_and_keeps_the_snapshot(self):
        dataset = _dataset(seed=7)
        observations = dataset.observations
        router = LaneRouter(
            expected_sources=observations.n_sources,
            small_churn_fraction=0.1,
        )
        router.classify(observations)
        churned = _mutated(
            observations, observations.n_triples // 2, seed=2
        )
        assert router.classify(churned) == COLD_LANE
        assert router.stats["churn_evictions"] == 1
        # The snapshot still belongs to the delta stream: a request near
        # the *original* matrix re-enters the delta lane.
        nearby = _mutated(observations, 1, seed=3)
        assert router.classify(nearby) == DELTA_LANE

    def test_width_mismatch_is_cold(self):
        dataset = _dataset(seed=9)
        router = LaneRouter(
            expected_sources=dataset.observations.n_sources + 1
        )
        assert router.classify(dataset.observations) == COLD_LANE
        assert router.stats["width_mismatches"] == 1

    def test_unfusable_sessions_route_everything_cold(self):
        dataset = _dataset(seed=11)
        router = LaneRouter(expected_sources=None)
        assert router.classify(dataset.observations) == COLD_LANE
        assert router.classify(dataset.observations) == COLD_LANE
        stats = router.stats
        assert stats["cold_routed"] == 2
        # No expectation means no mismatch to count.
        assert stats["width_mismatches"] == 0

    def test_rebind_drops_the_snapshot_but_keeps_counters(self):
        dataset = _dataset(seed=13)
        observations = dataset.observations
        router = LaneRouter(expected_sources=observations.n_sources)
        router.classify(observations)
        router.rebind(observations.n_sources)
        # Post-rebind, the previous stream is gone: the next same-width
        # request seeds a fresh snapshot (delta by definition).
        churned = _mutated(
            observations, observations.n_triples // 2, seed=4
        )
        assert router.classify(churned) == DELTA_LANE
        assert router.stats["delta_routed"] == 2

    def test_for_session_reads_the_fuser_guarantee(self):
        dataset = _dataset(seed=15)
        exact = ScoringSession(
            dataset.observations, dataset.labels, method="exact"
        )
        precrec = ScoringSession(
            dataset.observations, dataset.labels, method="precrec"
        )
        assert (
            expected_sources_of(exact) == dataset.observations.n_sources
        )
        # PrecRec's matmul is not bitwise batch-invariant: no fused
        # batches, so no delta lane either.
        assert expected_sources_of(precrec) is None
        assert (
            LaneRouter.for_session(exact).expected_sources
            == dataset.observations.n_sources
        )
        assert LaneRouter.for_session(precrec).expected_sources is None

    def test_validation_and_pickling(self):
        with pytest.raises(ValueError, match="small_churn_fraction"):
            LaneRouter(expected_sources=4, small_churn_fraction=1.5)
        with pytest.raises(TypeError, match="process-local"):
            LaneRouter(expected_sources=4).__getstate__()
