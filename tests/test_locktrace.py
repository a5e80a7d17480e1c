"""Runtime lock-order tracing (``REPRO_LOCK_CHECK=1``).

- the tracer records held-while-acquiring edges and reports ordering
  cycles (the deadlock shape) without needing the deadlock to happen;
- ``make_lock`` is a plain ``threading.Lock`` when tracking is off
  (the zero-overhead default) and a :class:`TrackedLock` when on;
- a real ``ScoringSession`` serving workload (score / submit / refit /
  refit_delta) run under tracking exhibits an acyclic lock order --
  this is the assertion CI re-runs the concurrency suites for.
"""

from __future__ import annotations

import threading

import pytest

from repro.core import ScoringSession
from repro.core.locktrace import (
    LOCK_CHECK_ENV_VAR,
    TrackedLock,
    detected_cycles,
    held_tracked_locks,
    lock_check_enabled,
    lock_order_report,
    make_lock,
    reset_lock_tracking,
)
from repro.data import SyntheticConfig, generate, uniform_sources


@pytest.fixture(autouse=True)
def _clean_graph():
    reset_lock_tracking()
    yield
    reset_lock_tracking()


def _dataset(seed=11, n_sources=8, n_triples=200):
    config = SyntheticConfig(
        sources=uniform_sources(n_sources, precision=0.65, recall=0.45),
        n_triples=n_triples,
        true_fraction=0.5,
    )
    return generate(config, seed=seed)


# ----------------------------------------------------------------------
# make_lock gating
# ----------------------------------------------------------------------


def test_make_lock_plain_when_disabled(monkeypatch):
    monkeypatch.delenv(LOCK_CHECK_ENV_VAR, raising=False)
    assert not lock_check_enabled()
    lock = make_lock("X._lock")
    assert not isinstance(lock, TrackedLock)
    assert isinstance(lock, type(threading.Lock()))
    reentrant = make_lock("X._rlock", reentrant=True)
    assert isinstance(reentrant, type(threading.RLock()))


def test_make_lock_tracked_when_enabled(monkeypatch):
    monkeypatch.setenv(LOCK_CHECK_ENV_VAR, "1")
    assert lock_check_enabled()
    lock = make_lock("X._lock")
    assert isinstance(lock, TrackedLock)
    assert lock.name == "X._lock"


@pytest.mark.parametrize("value", ["0", "false", "off", "no", ""])
def test_disabling_values(monkeypatch, value):
    monkeypatch.setenv(LOCK_CHECK_ENV_VAR, value)
    assert not lock_check_enabled()


# ----------------------------------------------------------------------
# TrackedLock semantics
# ----------------------------------------------------------------------


def test_tracked_lock_is_a_working_lock():
    lock = TrackedLock("T._lock")
    with lock:
        assert lock.locked()
        assert [l.name for l in held_tracked_locks()] == ["T._lock"]
    assert not lock.locked()
    assert held_tracked_locks() == ()
    assert lock.acquire(blocking=False)
    assert not lock.acquire(blocking=False)
    lock.release()


def test_tracked_rlock_reentrant_without_self_edge():
    lock = TrackedLock("T._rlock", reentrant=True)
    with lock:
        with lock:
            assert len(held_tracked_locks()) == 2
    assert detected_cycles() == []


# ----------------------------------------------------------------------
# cycle detection
# ----------------------------------------------------------------------


def test_two_lock_cycle_detected():
    a = TrackedLock("A._lock")
    b = TrackedLock("B._lock")
    with a:
        with b:
            pass
    assert detected_cycles() == []  # consistent order so far
    with b:
        with a:
            pass
    assert detected_cycles() == [["A._lock", "B._lock"]]
    report = lock_order_report()
    assert "A._lock -> B._lock" in report["edges"]
    assert "B._lock -> A._lock" in report["edges"]
    assert report["cycles"] == [["A._lock", "B._lock"]]


def test_consistent_order_stays_acyclic():
    a = TrackedLock("A._lock")
    b = TrackedLock("B._lock")
    c = TrackedLock("C._lock")
    for _ in range(3):
        with a, b, c:
            pass
    assert detected_cycles() == []


def test_two_instances_sharing_a_name_self_edge():
    """Distinct instances of one component class aggregate into one
    node; nesting one under the other is a real ordering hazard."""
    first = TrackedLock("Cache._lock")
    second = TrackedLock("Cache._lock")
    with first:
        with second:
            pass
    assert [["Cache._lock"]] == detected_cycles()


def test_cycle_recorded_across_threads():
    """The graph aggregates orders from different threads -- a cycle no
    single thread exhibits is still a schedule that can deadlock."""
    a = TrackedLock("A._lock")
    b = TrackedLock("B._lock")

    def inverse_order():
        with b:
            with a:
                pass

    with a:
        with b:
            pass
    worker = threading.Thread(target=inverse_order)
    worker.start()
    worker.join()
    assert detected_cycles() == [["A._lock", "B._lock"]]


def test_reset_clears_graph():
    a = TrackedLock("A._lock")
    b = TrackedLock("B._lock")
    with a, b:
        pass
    with b, a:
        pass
    assert detected_cycles()
    reset_lock_tracking()
    assert detected_cycles() == []
    assert lock_order_report()["edges"] == {}


# ----------------------------------------------------------------------
# the real serving stack under tracking
# ----------------------------------------------------------------------


def _serving_workload(monkeypatch):
    monkeypatch.setenv(LOCK_CHECK_ENV_VAR, "1")
    dataset = _dataset()
    session = ScoringSession(
        dataset.observations,
        dataset.labels,
        method="precreccorr",
    )
    try:
        session.score(dataset.observations)
        # A lone submit of a different matrix scores through the delta
        # engine's pattern memo while holding the combining lock.
        session.submit(_dataset(seed=12).observations)
        threads = [
            threading.Thread(
                target=session.submit, args=(dataset.observations,)
            )
            for _ in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        flipped = dataset.labels.copy()
        flipped[:5] = ~flipped[:5]
        session.refit_delta(dataset.observations, flipped)
        session.refit(dataset.observations, dataset.labels)
        session.score(dataset.observations)
    finally:
        session.close()


def test_serving_stack_lock_order_is_acyclic(monkeypatch):
    """The CI gate: a full serving workload (score, concurrent submit,
    delta refit, cold refit, close) exhibits an acyclic lock order."""
    _serving_workload(monkeypatch)
    report = lock_order_report()
    assert report["enabled"]
    assert report["cycles"] == []
    assert detected_cycles() == []
    # The workload actually exercised tracked locks (the test would pass
    # vacuously if make_lock stopped routing through TrackedLock).
    assert report["edges"], "no lock-order edges recorded"
    # The combining lock is held across scoring, so the gate must see
    # it ordered before the pattern memo's lock, which scoring takes.
    assert "MicroBatcher._combine -> PatternValueMemo._lock" in report[
        "edges"
    ], sorted(report["edges"])


def test_session_locks_are_tracked_when_enabled(monkeypatch):
    monkeypatch.setenv(LOCK_CHECK_ENV_VAR, "1")
    dataset = _dataset(n_triples=80)
    with ScoringSession(dataset.observations, dataset.labels) as session:
        assert isinstance(session._refit_lock, TrackedLock)
        assert isinstance(session._batcher_lock, TrackedLock)


def test_session_locks_plain_by_default(monkeypatch):
    monkeypatch.delenv(LOCK_CHECK_ENV_VAR, raising=False)
    dataset = _dataset(n_triples=80)
    with ScoringSession(dataset.observations, dataset.labels) as session:
        assert not isinstance(session._refit_lock, TrackedLock)
