"""Cross-request micro-batching and the session lifecycle.

- **coalescing** -- submits that arrive while a batch scores ship
  together as the next batch (group commit, no window), share one fused
  scoring pass and get back per-request slices bit-identical to
  individual ``score`` calls; an uncontended submit scores at once;
  non-coalescable requests (EM, mismatched widths) degrade to
  individual scoring with per-request error routing; a waiter that is
  interrupted, or a holder that fails, leaves no hung thread and no
  stale queue entry behind;
- **lifecycle** -- ``ScoringSession.close`` is idempotent and leaves the
  session scoring, and fused micro-batches leave the streaming delta
  snapshot alone.
"""

from __future__ import annotations

import signal
import sys
import threading
import time

import numpy as np
import pytest

from repro.core import (
    MicroBatcher,
    ObservationMatrix,
    ScoringSession,
)
from repro.data import (
    CorrelationGroup,
    SyntheticConfig,
    generate,
    uniform_sources,
)
from repro.eval import mutation_trace


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
        mask[k * width : (k + 1) * width] = True
        requests.append(observations.restricted_to_triples(mask))
    return requests


def _hold_first_batch(session):
    """Make the session's first ``score_batch`` call wait for a release.

    Returns ``(entered, release)`` events: ``entered`` is set once the
    holder is inside its first batch, which then blocks until the test
    sets ``release``.  Later calls run straight through.
    """
    entered = threading.Event()
    release = threading.Event()
    real_score_batch = session.score_batch

    def held(matrices, **kwargs):
        if not entered.is_set():
            entered.set()
            release.wait(timeout=30)
        return real_score_batch(matrices, **kwargs)

    session.score_batch = held
    return entered, release


def _held_burst(session, submit, stats, first, followers):
    """Queue ``followers`` behind a holder held inside its first batch.

    ``first`` is submitted alone and its holder is held in
    ``score_batch`` until ``stats()["requests"]`` shows every follower
    queued; then the hold is released.  Group commit must ship all the
    followers together as the next batch.  Returns per-request
    ``(results, errors)``, ``first`` at index 0.
    """
    entered, release = _hold_first_batch(session)
    matrices = [first, *followers]
    results: list = [None] * len(matrices)
    errors: list = [None] * len(matrices)

    def run(k):
        try:
            results[k] = submit(matrices[k])
        except Exception as error:
            errors[k] = error

    threads = [threading.Thread(target=run, args=(0,))]
    threads[0].start()
    assert entered.wait(timeout=30), "the holder never started scoring"
    for k in range(1, len(matrices)):
        threads.append(threading.Thread(target=run, args=(k,)))
        threads[-1].start()
    deadline = time.monotonic() + 30
    while stats()["requests"] < len(matrices):
        assert time.monotonic() < deadline, "followers never queued"
        time.sleep(0.001)
    release.set()
    for thread in threads:
        thread.join(timeout=30)
        assert not thread.is_alive()
    return results, errors


# ----------------------------------------------------------------------
# Coalescing
# ----------------------------------------------------------------------


class TestMicroBatching:
    def test_single_submit_equals_score(self):
        dataset = _dataset(seed=3)
        session = ScoringSession(
            dataset.observations, dataset.labels, method="exact"
        )
        reference = ScoringSession(
            dataset.observations, dataset.labels, method="exact",
            delta="off",
        )
        assert np.array_equal(
            session.submit(dataset.observations),
            reference.score(dataset.observations),
        )
        assert session.micro_batcher.stats["requests"] == 1

    def test_concurrent_submits_coalesce_and_match_individual_scores(self):
        dataset = _dataset(seed=5)
        observations = dataset.observations
        session = ScoringSession(
            observations, dataset.labels, method="exact"
        )
        reference = ScoringSession(
            observations, dataset.labels, method="exact", delta="off"
        )
        requests = _request_slices(observations, 6, 40)
        expected = [reference.score(request) for request in requests]
        results, errors = _held_burst(
            session,
            session.submit,
            lambda: session.micro_batcher.stats,
            requests[0],
            requests[1:],
        )
        assert errors == [None] * len(requests)
        for k in range(len(requests)):
            assert np.array_equal(results[k], expected[k])
        stats = session.micro_batcher.stats
        assert stats["requests"] == len(requests)
        # The holder's solo batch, then every follower in one fused pass.
        assert stats["batches"] == 2
        assert stats["fused_batches"] == 1
        assert stats["fused_requests"] == len(requests) - 1
        assert stats["largest_fused_batch"] == len(requests) - 1

    def test_book_like_bursts_of_eight_threads_match_plain_scoring(
        self, book_like
    ):
        # Clustered route; each round's eight requests tile a fresh
        # mutated variant.  One holder plus seven followers per burst,
        # so group commit ships the seven together.
        dataset = book_like(24, 1200)
        observations = dataset.observations
        session = ScoringSession(
            observations, dataset.labels, method="precreccorr"
        )
        reference = ScoringSession(
            observations, dataset.labels, method="precreccorr",
            delta="off",
        )
        rounds = mutation_trace(observations, 2, 0.02, seed=7)
        for index, variant in enumerate(rounds, start=1):
            requests = _request_slices(variant, 8, 150)
            expected = [reference.score(request) for request in requests]
            results, errors = _held_burst(
                session,
                session.submit,
                lambda: session.micro_batcher.stats,
                requests[0],
                requests[1:],
            )
            assert errors == [None] * len(requests)
            for scores, oracle in zip(results, expected):
                assert np.array_equal(scores, oracle)
            stats = session.micro_batcher.stats
            assert stats["requests"] == 8 * index
            assert stats["batches"] == 2 * index
            assert stats["fused_batches"] == index
            assert stats["fused_requests"] == 7 * index

    def test_uncontended_submit_scores_at_once(self):
        # No window: a lone submitter takes the combining lock, and its
        # batch starts on its own thread as soon as it is queued -- well
        # under the 2 ms the old coalescing window held every batch for.
        dataset = _dataset(seed=7, n_sources=4, n_triples=60,
                           correlated=False)
        session = ScoringSession(
            dataset.observations, dataset.labels, method="exact"
        )
        expected = session.score(dataset.observations)
        real_score_batch = session.score_batch
        entries: list = []

        def timed(matrices, **kwargs):
            entries.append((threading.get_ident(), time.perf_counter()))
            return real_score_batch(matrices, **kwargs)

        session.score_batch = timed
        delays = []
        for _ in range(5):
            start = time.perf_counter()
            scores = session.submit(dataset.observations)
            thread, entered = entries[-1]
            assert thread == threading.get_ident()
            assert np.array_equal(scores, expected)
            delays.append(entered - start)
        assert min(delays) < 0.001, delays
        assert session.micro_batcher.stats["batches"] == 5

    def test_em_sessions_submit_without_coalescing(self):
        dataset = _dataset(seed=11, n_sources=5, correlated=False)
        session = ScoringSession(
            dataset.observations, dataset.labels, method="em"
        )
        requests = _request_slices(dataset.observations, 3, 60)
        expected = [session.score(request) for request in requests]
        results, errors = _held_burst(
            session,
            session.submit,
            lambda: session.micro_batcher.stats,
            requests[0],
            requests[1:],
        )
        assert errors == [None] * 3
        for k in range(3):
            assert np.array_equal(results[k], expected[k])
        # EM is matrix-global: the two-request batch scored individually.
        stats = session.micro_batcher.stats
        assert stats["largest_batch"] == 2
        assert stats["fused_requests"] == 0

    def test_non_batch_invariant_fusers_submit_without_coalescing(self):
        # PrecRec's matmul scores are not bitwise batch-invariant, so
        # submit must score its requests individually to keep the
        # bit-identity contract with score().
        dataset = _dataset(seed=21)
        session = ScoringSession(
            dataset.observations, dataset.labels, method="precrec"
        )
        requests = _request_slices(dataset.observations, 3, 60)
        expected = [session.score(request) for request in requests]
        results, errors = _held_burst(
            session,
            session.submit,
            lambda: session.micro_batcher.stats,
            requests[0],
            requests[1:],
        )
        assert errors == [None] * 3
        for k in range(3):
            assert np.array_equal(results[k], expected[k])
        stats = session.micro_batcher.stats
        assert stats["largest_batch"] == 2
        assert stats["fused_requests"] == 0

    def test_bad_request_errors_do_not_poison_the_batch(self):
        dataset = _dataset(seed=13)
        session = ScoringSession(
            dataset.observations, dataset.labels, method="exact"
        )
        first, good = _request_slices(dataset.observations, 2, 60)
        bad = ObservationMatrix(
            np.zeros((3, 10), dtype=bool), ["a", "b", "c"]
        )
        # good and bad share the batch that follows the held one.
        results, errors = _held_burst(
            session,
            session.submit,
            lambda: session.micro_batcher.stats,
            first,
            [good, bad],
        )
        assert errors[:2] == [None, None]
        assert isinstance(errors[2], ValueError)
        assert "sources" in str(errors[2])
        assert session.micro_batcher.stats["largest_batch"] == 2
        reference = ScoringSession(
            dataset.observations, dataset.labels, method="exact",
            delta="off",
        )
        assert np.array_equal(results[0], reference.score(first))
        assert np.array_equal(results[1], reference.score(good))

    def test_sustained_traffic_completes_with_leadership_handoff(self):
        # Several threads submitting in a loop: the combining lock must
        # pass between them (a holder stops once its own request is
        # served), every request must complete, and every result must
        # match plain scoring.
        dataset = _dataset(seed=15)
        observations = dataset.observations
        session = ScoringSession(
            observations, dataset.labels, method="exact"
        )
        reference = ScoringSession(
            observations, dataset.labels, method="exact", delta="off"
        )
        requests = _request_slices(observations, 4, 50)
        expected = [reference.score(request) for request in requests]
        rounds = 5
        failures: list[str] = []
        barrier = threading.Barrier(len(requests))

        def hammer(k):
            barrier.wait()
            for _ in range(rounds):
                scores = session.submit(requests[k])
                if not np.array_equal(scores, expected[k]):
                    failures.append(f"thread {k} got wrong scores")
                    return

        threads = [
            threading.Thread(target=hammer, args=(k,))
            for k in range(len(requests))
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive(), "starved micro-batch submitter"
        assert failures == []
        assert session.micro_batcher.stats["requests"] == rounds * len(
            requests
        )

    def test_partial_batch_fuses_valid_requests_around_a_bad_one(self):
        # One mismatched request must not cost the valid traffic its
        # coalescing: the fusable subset still shares one fused pass.
        from repro.core.api import _PendingScore

        dataset = _dataset(seed=27)
        observations = dataset.observations
        session = ScoringSession(
            observations, dataset.labels, method="exact"
        )
        reference = ScoringSession(
            observations, dataset.labels, method="exact", delta="off"
        )
        requests = _request_slices(observations, 3, 40)
        good = [_PendingScore(request) for request in requests]
        bad = _PendingScore(
            ObservationMatrix(np.zeros((3, 10), dtype=bool), ["a", "b", "c"])
        )
        batcher = MicroBatcher(session)
        batcher._execute([good[0], bad, good[1], good[2]])
        assert bad.error is not None and "sources" in str(bad.error)
        assert batcher.stats["fused_requests"] == 3
        for pending, request in zip(good, requests):
            assert np.array_equal(pending.scores, reference.score(request))

    def test_solo_bad_submit_raises_the_original_error_type(self):
        # submit is a drop-in for score: a lone bad request must raise
        # the same exception score would, not a batching wrapper.
        dataset = _dataset(seed=25, n_sources=4, n_triples=40,
                           correlated=False)
        session = ScoringSession(
            dataset.observations, dataset.labels, method="exact"
        )
        bad = ObservationMatrix(np.zeros((3, 10), dtype=bool),
                                ["a", "b", "c"])
        with pytest.raises(ValueError, match="sources"):
            session.submit(bad)

    @pytest.mark.skipif(
        not hasattr(signal, "setitimer"), reason="needs an interval timer"
    )
    def test_interrupted_waiter_leaves_no_queue_entry(self):
        # A submitter interrupted while blocked on the combining lock
        # (a signal raising on the main thread) must withdraw its own
        # queue entry and nothing else: the queued follower still ships,
        # and later submits complete.
        class _Interrupted(Exception):
            pass

        dataset = _dataset(seed=33, n_sources=4, n_triples=60,
                           correlated=False)
        session = ScoringSession(
            dataset.observations, dataset.labels, method="exact"
        )
        batcher = MicroBatcher(session)
        requests = _request_slices(dataset.observations, 3, 20)
        expected = [session.score(request) for request in requests]
        entered, release = _hold_first_batch(session)
        results: list = [None, None]

        def run(k):
            results[k] = batcher.submit(requests[k])

        threads = [threading.Thread(target=run, args=(k,)) for k in (0, 1)]
        threads[0].start()
        assert entered.wait(timeout=30)
        threads[1].start()
        deadline = time.monotonic() + 30
        while batcher.stats["requests"] < 2:
            assert time.monotonic() < deadline, "follower never queued"
            time.sleep(0.001)

        def interrupt(signum, frame):
            raise _Interrupted

        previous = signal.signal(signal.SIGALRM, interrupt)
        try:
            signal.setitimer(signal.ITIMER_REAL, 0.2)
            with pytest.raises(_Interrupted):
                batcher.submit(requests[2])
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        with batcher._lock:
            queued = [pending.observations for pending in batcher._pending]
        assert len(queued) == 1 and queued[0] is requests[1]
        release.set()
        for thread in threads:
            thread.join(timeout=30)
            assert not thread.is_alive(), "the queued follower never shipped"
        assert not batcher._pending
        for k in (0, 1):
            assert np.array_equal(results[k], expected[k])
        assert np.array_equal(batcher.submit(requests[2]), expected[2])
        assert batcher.stats["batches"] == 3

    def test_failed_holder_leaves_no_waiter_hanging(self):
        # _execute itself exploding (a holder dying outside the
        # per-request error routing) under a thread burst: every
        # submitter must return with an error rather than block or spin,
        # the queue must end empty, and once scoring is restored a fresh
        # submit completes.
        class _HolderDeath(Exception):
            pass

        dataset = _dataset(seed=35, n_sources=4, n_triples=120,
                           correlated=False)
        session = ScoringSession(
            dataset.observations, dataset.labels, method="exact"
        )
        batcher = MicroBatcher(session, max_requests=8)
        real_execute = batcher._execute

        def exploding_execute(batch):
            raise _HolderDeath("holder died mid-batch")

        batcher._execute = exploding_execute
        requests = _request_slices(dataset.observations, 4, 24)
        errors = [None] * len(requests)
        barrier = threading.Barrier(len(requests))

        def worker(k):
            barrier.wait()
            try:
                batcher.submit(requests[k])
            except BaseException as error:
                errors[k] = error

        threads = [
            threading.Thread(target=worker, args=(k,))
            for k in range(len(requests))
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10.0)
        assert not any(t.is_alive() for t in threads)  # nobody hangs
        assert all(
            isinstance(error, (_HolderDeath, RuntimeError))
            for error in errors
        ), errors
        assert not batcher._pending
        batcher._execute = real_execute
        expected = session.score(requests[0])
        assert np.array_equal(batcher.submit(requests[0]), expected)

    def test_holder_dying_after_dequeue_fails_the_dropped_request(self):
        # A holder that dies between dequeuing a batch and scoring it
        # takes its followers' requests with it.  The next holder must
        # fail such a request, not spin on an empty queue forever.
        class _HolderDeath(Exception):
            pass

        dataset = _dataset(seed=37, n_sources=4, n_triples=60,
                           correlated=False)
        session = ScoringSession(
            dataset.observations, dataset.labels, method="exact"
        )
        batcher = MicroBatcher(session)
        real_take_batch = batcher._take_batch
        calls = []

        def dying_take_batch():
            calls.append(None)
            if len(calls) == 1:
                deadline = time.monotonic() + 30
                while batcher.stats["requests"] < 2:
                    assert time.monotonic() < deadline
                    time.sleep(0.001)
                real_take_batch()
                raise _HolderDeath("holder died after dequeue")
            return real_take_batch()

        batcher._take_batch = dying_take_batch
        errors: list = [None, None]

        def run(k):
            try:
                batcher.submit(dataset.observations)
            except BaseException as error:
                errors[k] = error

        threads = [
            threading.Thread(target=run, args=(k,), daemon=True)
            for k in (0, 1)
        ]
        threads[0].start()
        while not calls:
            time.sleep(0.001)
        threads[1].start()
        for thread in threads:
            thread.join(timeout=30)
            assert not thread.is_alive(), "a waiter spun on an empty queue"
        assert isinstance(errors[0], _HolderDeath)
        assert isinstance(errors[1], RuntimeError)
        assert "dropped" in str(errors[1])
        assert not batcher._pending
        scores = batcher.submit(dataset.observations)
        assert np.array_equal(scores, session.score(dataset.observations))

    def test_batcher_validation(self):
        dataset = _dataset(seed=17, n_sources=4, n_triples=40,
                           correlated=False)
        session = ScoringSession(dataset.observations, dataset.labels)
        with pytest.raises(ValueError, match="max_requests"):
            MicroBatcher(session, max_requests=0)


# ----------------------------------------------------------------------
# Burst latency: group commit with no window
# ----------------------------------------------------------------------


class TestBurstLatency:
    def test_zero_window_concurrent_bursts_complete(self):
        # With no window a holder ships whatever is pending at once, so
        # concurrent bursts pass the combining lock around constantly;
        # they must neither hang nor lose requests.
        dataset = _dataset(seed=45)
        observations = dataset.observations
        session = ScoringSession(
            observations, dataset.labels, method="exact"
        )
        batcher = MicroBatcher(session, max_requests=4)
        reference = ScoringSession(
            observations, dataset.labels, method="exact", delta="off"
        )
        requests = _request_slices(observations, 6, 40)
        expected = [reference.score(request) for request in requests]
        rounds = 10
        failures: list[str] = []
        barrier = threading.Barrier(len(requests))

        def hammer(k):
            barrier.wait()
            for _ in range(rounds):
                scores = batcher.submit(requests[k])
                if not np.array_equal(scores, expected[k]):
                    failures.append(f"thread {k} got wrong scores")
                    return

        threads = [
            threading.Thread(target=hammer, args=(k,))
            for k in range(len(requests))
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive(), "zero-window burst hung"
        assert failures == []
        assert batcher.stats["requests"] == rounds * len(requests)

    def test_no_lost_wakeups_under_sustained_hammering(self):
        # 8 threads x 100 submits: every submit must complete (a lost
        # wake-up would strand a waiter behind a queue nobody drains).
        dataset = _dataset(seed=47)
        observations = dataset.observations
        session = ScoringSession(
            observations, dataset.labels, method="exact"
        )
        batcher = MicroBatcher(session, max_requests=8)
        requests = _request_slices(observations, 8, 24)
        rounds = 100
        completed = [0] * len(requests)
        barrier = threading.Barrier(len(requests))

        def hammer(k):
            barrier.wait()
            for _ in range(rounds):
                scores = batcher.submit(requests[k])
                assert scores.shape == (requests[k].n_triples,)
                completed[k] += 1

        threads = [
            threading.Thread(target=hammer, args=(k,))
            for k in range(len(requests))
        ]
        # A short switch interval interleaves submitters between the
        # batcher's lock sections far more often than the 5 ms default.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
                assert not thread.is_alive(), (
                    "submitter hung: lost wake-up"
                )
        finally:
            sys.setswitchinterval(interval)
        assert completed == [rounds] * len(requests)
        assert batcher.stats["requests"] == rounds * len(requests)

    def test_stats_split_fused_from_raw_batches(self):
        # largest_batch counts what the holder drained; the fused
        # counters only count requests that actually shared a fused
        # scoring pass.  A solo batch must not inflate the fused side.
        from repro.core.api import _PendingScore

        dataset = _dataset(seed=49)
        observations = dataset.observations
        session = ScoringSession(
            observations, dataset.labels, method="exact"
        )
        batcher = MicroBatcher(session)
        fused = [
            _PendingScore(request)
            for request in _request_slices(observations, 3, 40)
        ]
        batcher._execute(fused)
        solo = [_PendingScore(observations)]
        batcher._execute(solo)
        stats = batcher.stats
        assert stats["batches"] == 2
        assert stats["largest_batch"] == 3
        assert stats["fused_batches"] == 1
        assert stats["largest_fused_batch"] == 3
        assert stats["fused_requests"] == 3

    def test_close_flushes_pending_and_degrades_to_inline(self):
        # close() while a holder is mid-batch with a follower queued:
        # the queued request still ships with the next batch, and a
        # submit after close scores inline instead of queueing behind
        # the busy holder.
        dataset = _dataset(seed=51, n_sources=4, n_triples=60,
                           correlated=False)
        session = ScoringSession(
            dataset.observations, dataset.labels, method="exact"
        )
        batcher = MicroBatcher(session, max_requests=64)
        entered, release = _hold_first_batch(session)
        results: list = [None, None]

        def submit(k):
            results[k] = batcher.submit(dataset.observations)

        threads = [threading.Thread(target=submit, args=(k,)) for k in (0, 1)]
        threads[0].start()
        assert entered.wait(timeout=30)
        threads[1].start()
        deadline = time.monotonic() + 30
        while batcher.stats["requests"] < 2:
            assert time.monotonic() < deadline, "follower never queued"
            time.sleep(0.001)
        batcher.close()
        assert batcher.stats["closed"]
        # The holder is still held: this returns only if it ran inline.
        inline = batcher.submit(dataset.observations)
        assert batcher.stats["requests"] == 2
        release.set()
        for thread in threads:
            thread.join(timeout=30)
            assert not thread.is_alive(), "close() stranded a queued request"
        assert np.array_equal(results[0], inline)
        assert np.array_equal(results[1], inline)
        assert batcher.stats["batches"] == 2
        batcher.close()  # idempotent

    def test_session_close_closes_the_batcher(self):
        dataset = _dataset(seed=53, n_sources=4, n_triples=60,
                           correlated=False)
        session = ScoringSession(
            dataset.observations, dataset.labels, method="exact"
        )
        session.submit(dataset.observations)
        session.close()
        assert session.micro_batcher.stats["closed"]
        # Post-close submit still answers (inline path).
        scores = session.submit(dataset.observations)
        assert scores.shape == (dataset.observations.n_triples,)


# ----------------------------------------------------------------------
# Session lifecycle
# ----------------------------------------------------------------------


class TestSessionLifecycle:
    def test_session_close_is_idempotent_and_keeps_scoring(self):
        dataset = _dataset(seed=29, n_sources=6, n_triples=120)
        with ScoringSession(
            dataset.observations, dataset.labels, method="exact"
        ) as session:
            before = session.score(dataset.observations)
        session.close()
        assert np.array_equal(before, session.score(dataset.observations))

    def test_fused_passes_preserve_streaming_delta_continuity(self):
        # A micro-batched fused matrix must not replace the delta
        # snapshot: an interleaved streaming score() sequence keeps its
        # delta fast path across submit() traffic.
        from repro.core.api import _PendingScore

        dataset = _dataset(seed=35)
        observations = dataset.observations
        session = ScoringSession(
            observations, dataset.labels, method="exact"
        )
        session.score(observations)  # streaming snapshot installed
        batcher = MicroBatcher(session)
        fused_batch = [
            _PendingScore(request)
            for request in _request_slices(observations, 2, 40)
        ]
        batcher._execute(fused_batch)
        assert batcher.stats["fused_requests"] == 2
        # A one-column mutation of the *streaming* matrix still diffs
        # against the full streaming snapshot (reusing all but one of its
        # columns) -- the fused concatenation did not become "prev".
        before = session.cache_stats()["delta"]
        provides = observations.provides.copy()
        provides[0, 3] = ~provides[0, 3]
        mutated = ObservationMatrix(
            provides, observations.source_names,
            coverage=observations.coverage,
        )
        reference = ScoringSession(
            observations, dataset.labels, method="exact", delta="off"
        )
        assert np.array_equal(
            session.score(mutated), reference.score(mutated)
        )
        after = session.cache_stats()["delta"]
        assert after["delta"] == before["delta"] + 1
        assert (
            after["reused_columns"] - before["reused_columns"]
            == observations.n_triples - 1
        )
