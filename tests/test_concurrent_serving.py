"""Concurrent serving, and the serial-only ``workers`` keyword.

- **concurrent serving** -- many threads hammering one
  :class:`ScoringSession` while ``refit`` fires: no torn reads (every
  returned vector matches one model generation's golden scores exactly)
  and single-flight compilation (each plan digest compiled at most once
  per generation);
- **removed sharding knobs** -- scoring is serial: the session accepts
  only ``workers=1``, and the fusers and :func:`fuse` take no worker
  count at all.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.core import ScoringSession, fit_model, fuse, make_fuser
from repro.data import (
    CorrelationGroup,
    SyntheticConfig,
    generate,
    uniform_sources,
)


def _dataset(seed=21, n_sources=8, n_triples=200, correlated=True):
    groups = []
    if correlated and n_sources >= 6:
        groups = [
            CorrelationGroup(
                members=(0, 1, 2), mode="overlap_true", strength=0.85
            ),
            CorrelationGroup(
                members=(3, 4, 5), mode="overlap_false", strength=0.85
            ),
        ]
    config = SyntheticConfig(
        sources=uniform_sources(n_sources, precision=0.65, recall=0.45),
        n_triples=n_triples,
        true_fraction=0.5,
        groups=tuple(groups),
    )
    return generate(config, seed=seed)


# ----------------------------------------------------------------------
# Removed sharding knobs
# ----------------------------------------------------------------------


class TestWorkersValidation:
    def test_workers_one_is_accepted(self):
        dataset = _dataset(n_sources=5, n_triples=60, correlated=False)
        session = ScoringSession(
            dataset.observations, dataset.labels, method="exact", workers=1
        )
        default = ScoringSession(
            dataset.observations, dataset.labels, method="exact"
        )
        assert np.array_equal(
            session.score(dataset.observations),
            default.score(dataset.observations),
        )

    @pytest.mark.parametrize("bad", [0, -1, -4])
    def test_nonpositive_workers_raise_value_error(self, bad):
        dataset = _dataset(n_sources=5, n_triples=60, correlated=False)
        with pytest.raises(ValueError, match="sharded execution was removed"):
            ScoringSession(dataset.observations, dataset.labels, workers=bad)

    @pytest.mark.parametrize("bad", [2, 4, None, True, "1"])
    def test_any_other_worker_count_is_refused(self, bad):
        dataset = _dataset(n_sources=5, n_triples=60, correlated=False)
        with pytest.raises(ValueError, match="sharded execution was removed"):
            ScoringSession(dataset.observations, dataset.labels, workers=bad)

    def test_fuser_rejects_zero_workers_with_clear_error(self):
        dataset = _dataset(n_sources=5, n_triples=60, correlated=False)
        model = fit_model(dataset.observations, dataset.labels)
        for option in ("workers", "shard_size", "parallel_backend"):
            with pytest.raises(TypeError, match=option):
                make_fuser("exact", model, **{option: 0})

    def test_fuse_rejects_negative_workers(self):
        dataset = _dataset(n_sources=5, n_triples=60, correlated=False)
        with pytest.raises(TypeError, match="workers"):
            fuse(dataset.observations, dataset.labels, method="precrec",
                 workers=-1)
        with pytest.raises(TypeError, match="workers"):
            fit_model(dataset.observations, dataset.labels, workers=1)


# ----------------------------------------------------------------------
# Concurrent serving
# ----------------------------------------------------------------------


class TestConcurrentServing:
    def test_hammered_session_with_refits_never_tears_scores(self):
        dataset = _dataset(seed=17, n_sources=8, n_triples=240)
        observations, labels = dataset.observations, dataset.labels

        # Golden scores for the two model generations the refits toggle
        # between (smoothing 0.0 <-> 1.0); any returned vector must equal
        # one of them exactly -- a mixed old/new read would match neither.
        golden_a = fuse(observations, labels, method="exact").scores
        golden_b = fuse(
            observations, labels, method="exact", smoothing=1.0
        ).scores
        assert not np.array_equal(golden_a, golden_b)

        session = ScoringSession(observations, labels, method="exact")
        errors: list[str] = []
        stop = threading.Event()

        def hammer():
            while not stop.is_set():
                scores = session.score(observations)
                if not (
                    np.array_equal(scores, golden_a)
                    or np.array_equal(scores, golden_b)
                ):
                    errors.append("torn or mixed-generation scores")
                    return

        threads = [threading.Thread(target=hammer) for _ in range(6)]
        for thread in threads:
            thread.start()
        for smoothing in (1.0, 0.0, 1.0, 0.0):
            session.refit(observations, labels, smoothing=smoothing)
        stop.set()
        for thread in threads:
            thread.join(timeout=30)
            assert not thread.is_alive(), "deadlocked scoring thread"
        assert errors == []
        final = session.score(observations)
        assert np.array_equal(final, golden_a)

    def test_concurrent_cold_scores_compile_each_digest_once(self):
        dataset = _dataset(seed=23, n_sources=8, n_triples=200)
        observations = dataset.observations
        observations.patterns()  # share pattern extraction across threads
        # delta="off" pins every thread to the plan-cache path: with the
        # delta engine on, a straggler thread could legitimately reuse an
        # earlier thread's finished scores and never touch the cache.
        session = ScoringSession(
            observations, dataset.labels, method="exact", delta="off",
        )
        barrier = threading.Barrier(6)
        results: list[np.ndarray] = []
        lock = threading.Lock()

        def cold_score():
            barrier.wait()
            scores = session.score(observations)
            with lock:
                results.append(scores)

        threads = [threading.Thread(target=cold_score) for _ in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
            assert not thread.is_alive()
        stats = session.cache_stats()
        # Single-flight: six simultaneous first requests, one compile.
        assert stats["computes"] == 1
        assert stats["hits"] >= 5
        for scores in results[1:]:
            assert np.array_equal(results[0], scores)

    def test_refit_mid_compute_does_not_resurrect_stale_plans(self):
        from repro.core.plans import CompiledPlanCache

        cache = CompiledPlanCache(max_entries=8)
        release = threading.Event()
        entered = threading.Event()

        def slow_factory():
            entered.set()
            release.wait(timeout=30)
            return "stale"

        worker = threading.Thread(
            target=lambda: cache.get_or_compute("key", slow_factory)
        )
        worker.start()
        assert entered.wait(timeout=30)
        cache.invalidate()  # fires while the factory is in flight
        release.set()
        worker.join(timeout=30)
        assert not worker.is_alive()
        # The stale result was returned to its caller but never stored.
        assert len(cache) == 0
        assert cache.get_or_compute("key", lambda: "fresh") == "fresh"

    def test_invalidate_during_serving_recompiles_identically(self):
        dataset = _dataset(seed=29, n_sources=7, n_triples=180)
        session = ScoringSession(
            dataset.observations, dataset.labels, method="elastic"
        )
        first = session.score(dataset.observations)
        session.fuser.invalidate_caches()
        assert np.array_equal(first, session.score(dataset.observations))

    def test_disabled_cache_never_blocks_concurrent_computes(self):
        from repro.core.plans import CompiledPlanCache

        cache = CompiledPlanCache(max_entries=0)
        barrier = threading.Barrier(4, timeout=30)

        def compute():
            # With single-flight engaged despite the disabled cache, the
            # barrier inside the factory would deadlock: only one factory
            # would run at a time.  All four must be in flight at once.
            return cache.get_or_compute(
                "shared-key", lambda: barrier.wait() or "value"
            )

        threads = [threading.Thread(target=compute) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
            assert not thread.is_alive(), "disabled cache serialised computes"
        assert cache.stats["computes"] == 4
        assert len(cache) == 0

    def test_concurrent_em_scores_are_deterministic(self):
        # The EM workspace is thread-local: two threads scoring one fuser
        # must not share scratch buffers.
        from repro.core import ExpectationMaximizationFuser

        dataset = _dataset(seed=37, n_sources=6, n_triples=150,
                           correlated=False)
        fuser = ExpectationMaximizationFuser(max_iterations=40)
        reference = fuser.score(dataset.observations)
        results: list[np.ndarray] = []
        lock = threading.Lock()
        barrier = threading.Barrier(4, timeout=30)

        def score():
            barrier.wait()
            scores = fuser.score(dataset.observations)
            with lock:
                results.append(scores)

        threads = [threading.Thread(target=score) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
            assert not thread.is_alive()
        for scores in results:
            assert np.array_equal(reference, scores)
