"""Sharded parallel execution: shard planning and reusable worker pools.

The compile-once/execute-many engine made repeated scoring cheap, but every
``score`` call still ran single-threaded: pattern extraction feeds one
batched evaluation, the clustered fuser walks its clusters serially, and
the compiled-plan column sweep owns a single core.  This module supplies
the dispatch layer that fans that work out:

- :class:`ShardPlanner` partitions ``n`` items (triples or patterns) into
  balanced blocks whose boundaries land on packed-word multiples (64 items,
  the ``uint64`` word width of :mod:`repro.core.bitset`), so per-shard
  bit-packed work never splits a word;
- :class:`WorkerPool` is a reusable pool -- threads by default (the hot
  loops are GIL-releasing numpy popcounts, gathers, and segmented sweeps),
  with a process backend option for CPython-bound fallbacks such as the
  scalar-model likelihood walk;
- :class:`ShardedExecutor` composes the two: plan shards, map a function
  over them on the pool, and hand back per-shard results *in shard order*
  so callers can merge by concatenation.

Bit-identity contract
---------------------
Everything dispatched through this module is column-independent: a
pattern's likelihood (and therefore a triple's score) depends only on its
own terms, never on which other patterns share its batch.  Sharding a
pattern set and concatenating per-shard results therefore reproduces the
serial output *bit for bit* -- the property the shard-equivalence suite
(``tests/test_parallel.py``) and ``benchmarks/bench_sharded_engine.py``
pin down to a max |score diff| of exactly 0.0.

Worker-pool lifecycle
---------------------
Pools are created lazily on first parallel dispatch and reused across
calls (the serving loop dispatches thousands of times through one pool).
``workers=1`` never creates a pool -- every map runs inline, which is also
the deterministic reference the equivalence tests compare against.  Pools
are owned per component (a fuser's executor and a quality model's executor
are distinct), so a fuser's block job blocking on a model batch call can
never deadlock the pool it runs on.

``close()`` shuts a pool down explicitly (pools are context managers, and
``ScoringSession.refit`` closes the retired fuser's and model's pools).
Maps issued after ``close()`` -- e.g. an in-flight score still holding the
retired fuser -- degrade gracefully to inline serial execution instead of
raising, so closing a pool can never break a concurrent caller, only
de-parallelise it.  A pool that is garbage-collected without an explicit
``close()`` shuts its executor down through a ``weakref`` finalizer, so
dropping the last reference to a fuser cannot leak executor threads or
processes.

``REPRO_DEFAULT_WORKERS`` sets the default worker count consulted when a
caller passes ``workers=None`` (the library default stays 1 -- serial);
CI runs the whole test suite once under ``REPRO_DEFAULT_WORKERS=2`` so the
parallel paths are exercised by every test.

Supervision
-----------
A map is a promise, not an attempt: :meth:`WorkerPool.map` *always*
returns ``[fn(x) for x in items]`` or raises ``fn``'s own error -- never
an infrastructure error.  A dead process worker (``BrokenProcessPool``
-- the whole pool is poisoned once any worker dies) or a watchdog
timeout (``map_timeout`` seconds per map, default
``$REPRO_MAP_TIMEOUT``) retires the executor and retries the map on a
fresh one, at most ``max_restarts`` times; beyond that the map runs
inline-serial on the calling thread, which cannot lose workers.  Faults
therefore cost latency, never results -- the same contract the scoring
engine gives for speed.  ``restarts`` / ``timeouts`` /
``inline_fallbacks`` counters surface through :attr:`WorkerPool.stats`
(and from there through ``ScoringSession.cache_stats()["pool"]``).
Retries re-run ``fn`` for every item in the map, so dispatched ``fn``
must stay idempotent -- true for everything here (pure per-shard
scoring), and the property the bit-identity suites already pin.
"""

from __future__ import annotations

import math
import os
import weakref
from concurrent.futures import (
    BrokenExecutor,
    Executor,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
)
from concurrent.futures import TimeoutError as FuturesTimeout
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence, TypeVar

from repro.core import faults
from repro.core.locktrace import assert_map_safe, make_lock

#: Items per packed ``uint64`` word -- shard boundaries align to this so
#: bit-packed per-shard work never splits a word.
WORD_BITS = 64

#: Worker-pool backends: ``"thread"`` (default; the hot loops release the
#: GIL inside numpy) or ``"process"`` (for CPython-bound fallbacks; jobs and
#: their arguments must be picklable).
PARALLEL_BACKENDS = ("thread", "process")

#: Environment variable consulted when ``workers=None``: the default worker
#: count for every fuser / model / session built without an explicit knob.
WORKERS_ENV_VAR = "REPRO_DEFAULT_WORKERS"

#: Environment variable consulted when ``map_timeout=None``: the per-map
#: watchdog in (float) seconds for every pool built without an explicit
#: knob.  Unset / empty means no watchdog (the library default -- the
#: engine's maps are compute-bound and self-terminating; the watchdog
#: exists for chaos drills and belt-and-braces production configs).
MAP_TIMEOUT_ENV_VAR = "REPRO_MAP_TIMEOUT"

#: Executor rebuild attempts per map before falling back inline-serial.
DEFAULT_MAX_RESTARTS = 2

_T = TypeVar("_T")
_R = TypeVar("_R")


def _shutdown_executor(executor: Executor) -> None:
    """Finalizer target: shut an orphaned executor down without blocking.

    A module-level function (not a bound method) so the ``weakref.finalize``
    registration holds no reference back to the pool it guards.
    """
    executor.shutdown(wait=False)


def _range_call(job: "tuple[Callable[[int, int], _R], int, int]") -> "_R":
    """Worker-pool adapter: ``(fn, start, stop) -> fn(start, stop)``.

    Module-level (not a closure) so :meth:`ShardedExecutor.map_shards`
    works on the process backend too -- there ``fn`` itself must still be
    picklable (a module-level function or bound method of a picklable
    object).
    """
    fn, start, stop = job
    return fn(start, stop)


def check_backend(value: str, name: str = "backend") -> str:
    """Validate and normalise a worker-pool backend name."""
    key = str(value).lower()
    if key not in PARALLEL_BACKENDS:
        raise ValueError(
            f"unknown {name} {value!r}; expected one of {PARALLEL_BACKENDS}"
        )
    return key


def default_workers() -> int:
    """The ambient worker count: ``$REPRO_DEFAULT_WORKERS`` or 1 (serial)."""
    raw = os.environ.get(WORKERS_ENV_VAR, "").strip()
    if not raw:
        return 1
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(
            f"{WORKERS_ENV_VAR} must be a positive integer, got {raw!r}"
        ) from None
    if value < 1:
        raise ValueError(
            f"{WORKERS_ENV_VAR} must be a positive integer, got {value}"
        )
    return value


def default_map_timeout() -> Optional[float]:
    """The ambient per-map watchdog: ``$REPRO_MAP_TIMEOUT`` or ``None``."""
    raw = os.environ.get(MAP_TIMEOUT_ENV_VAR, "").strip()
    if not raw:
        return None
    try:
        value = float(raw)
    except ValueError:
        raise ValueError(
            f"{MAP_TIMEOUT_ENV_VAR} must be a positive number of seconds, "
            f"got {raw!r}"
        ) from None
    if value <= 0:
        raise ValueError(
            f"{MAP_TIMEOUT_ENV_VAR} must be a positive number of seconds, "
            f"got {value}"
        )
    return value


def resolve_map_timeout(
    map_timeout: Optional[float], name: str = "map_timeout"
) -> Optional[float]:
    """Resolve a watchdog knob: ``None`` consults ``$REPRO_MAP_TIMEOUT``."""
    if map_timeout is None:
        return default_map_timeout()
    timeout = float(map_timeout)
    if timeout <= 0:
        raise ValueError(
            f"{name} must be a positive number of seconds, got {map_timeout}"
        )
    return timeout


def resolve_workers(workers: Optional[int], name: str = "workers") -> int:
    """Resolve a ``workers`` knob: ``None`` consults the environment default.

    Zero and negative counts raise ``ValueError`` with an actionable
    message instead of crashing the pool (``--workers 0`` at the CLI lands
    here).
    """
    if workers is None:
        return default_workers()
    if isinstance(workers, bool) or not isinstance(workers, int):
        raise TypeError(
            f"{name} must be an int or None, got {type(workers).__name__}"
        )
    if workers < 1:
        raise ValueError(
            f"{name} must be a positive integer (1 = serial), got {workers}"
        )
    return workers


@dataclass(frozen=True)
class Shard:
    """One half-open block ``[start, stop)`` of a sharded range."""

    start: int
    stop: int

    def __post_init__(self) -> None:
        if not 0 <= self.start < self.stop:
            raise ValueError(
                f"shard must satisfy 0 <= start < stop, got [{self.start}, "
                f"{self.stop})"
            )

    @property
    def size(self) -> int:
        return self.stop - self.start


class ShardPlanner:
    """Partition ``n`` items into balanced, word-aligned blocks.

    Parameters
    ----------
    shard_size:
        Target items per shard.  ``None`` (default) derives one shard per
        worker (``ceil(n / workers)``); an explicit value fixes the block
        size (more blocks than workers is fine -- the pool load-balances).
        Either way the size is rounded up to a multiple of ``align``.
    align:
        Boundary multiple, default :data:`WORD_BITS` -- triples are packed
        64 per ``uint64`` word, so word-aligned shard starts keep per-shard
        bit-packed work off word seams.
    """

    __slots__ = ("_shard_size", "_align")

    def __init__(
        self, shard_size: Optional[int] = None, align: int = WORD_BITS
    ) -> None:
        if shard_size is not None:
            if isinstance(shard_size, bool) or not isinstance(shard_size, int):
                raise TypeError(
                    f"shard_size must be an int or None, got "
                    f"{type(shard_size).__name__}"
                )
            if shard_size < 1:
                raise ValueError(
                    f"shard_size must be a positive integer, got {shard_size}"
                )
        if align < 1:
            raise ValueError(f"align must be a positive integer, got {align}")
        self._shard_size = shard_size
        self._align = int(align)

    @property
    def shard_size(self) -> Optional[int]:
        return self._shard_size

    @property
    def align(self) -> int:
        return self._align

    def plan(self, n_items: int, workers: int = 1) -> list[Shard]:
        """Balanced shards covering ``[0, n_items)``, in range order.

        ``n_items == 0`` yields no shards; a ``shard_size`` larger than
        ``n_items`` (or a single worker with no explicit size) yields one
        shard covering everything.
        """
        if n_items < 0:
            raise ValueError(f"n_items must be non-negative, got {n_items}")
        if n_items == 0:
            return []
        if self._shard_size is None:
            if workers <= 1:
                return [Shard(0, n_items)]
            target = math.ceil(n_items / workers)
        else:
            target = self._shard_size
        size = max(self._align * math.ceil(target / self._align), self._align)
        return [
            Shard(start, min(start + size, n_items))
            for start in range(0, n_items, size)
        ]


class WorkerPool:
    """A reusable, lazily-created worker pool behind one ``map``.

    ``workers=1`` never creates an OS pool: every map runs inline on the
    calling thread, making the single-worker configuration the bitwise
    reference path.  The underlying executor is created on the first
    parallel dispatch and reused until :meth:`close` (serving processes
    dispatch through one pool for their lifetime).

    Lifecycle: the pool is a context manager, :meth:`close` is idempotent,
    and a ``weakref`` finalizer shuts the executor down if the pool is
    garbage-collected without an explicit close -- a fuser dropped without
    ``close()`` cannot leak executor threads.  Maps issued after
    :meth:`close` run inline (serial) instead of raising, so a concurrent
    holder of a retired pool degrades to serial execution, never to an
    error.

    The pool is picklable (for process-backend jobs whose arguments hold
    one): the live executor is dropped and lazily recreated on first use
    in the receiving process.
    """

    def __init__(
        self,
        workers: int = 1,
        backend: str = "thread",
        max_restarts: int = DEFAULT_MAX_RESTARTS,
        map_timeout: Optional[float] = None,
    ) -> None:
        self._workers = resolve_workers(workers)
        self._backend = check_backend(backend)
        if isinstance(max_restarts, bool) or not isinstance(max_restarts, int):
            raise TypeError(
                f"max_restarts must be an int, got "
                f"{type(max_restarts).__name__}"
            )
        if max_restarts < 0:
            raise ValueError(
                f"max_restarts must be >= 0, got {max_restarts}"
            )
        self._max_restarts = max_restarts
        self._map_timeout = resolve_map_timeout(map_timeout)
        self._lock = make_lock("WorkerPool._lock")
        # guarded-by: _lock
        self._executor: Optional[Executor] = None
        # guarded-by: _lock
        self._finalizer: Optional[weakref.finalize] = None
        # guarded-by: _lock
        self._closed = False
        # guarded-by: _lock -- supervision counters (see stats)
        self._restarts = 0
        # guarded-by: _lock
        self._timeouts = 0
        # guarded-by: _lock
        self._inline_fallbacks = 0

    @property
    def workers(self) -> int:
        return self._workers

    @property
    def backend(self) -> str:
        return self._backend

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has run (maps then fall back inline)."""
        return self._closed

    @property
    def max_restarts(self) -> int:
        return self._max_restarts

    @property
    def map_timeout(self) -> Optional[float]:
        return self._map_timeout

    @property
    def stats(self) -> dict:
        """Supervision counters plus static pool configuration (snapshot)."""
        with self._lock:
            return {
                "workers": self._workers,
                "backend": self._backend,
                "max_restarts": self._max_restarts,
                "map_timeout": self._map_timeout,
                "restarts": self._restarts,
                "timeouts": self._timeouts,
                "inline_fallbacks": self._inline_fallbacks,
                "closed": self._closed,
            }

    def _ensure_executor(self) -> Optional[Executor]:
        """The live executor, or ``None`` when the pool is closed.

        A map racing :meth:`close` must not lazily resurrect a pool nobody
        will ever shut down again, so post-close dispatch returns ``None``
        and the caller runs inline.
        """
        with self._lock:
            if self._closed:
                return None
            if self._executor is None:
                if self._backend == "process":
                    self._executor = ProcessPoolExecutor(
                        max_workers=self._workers
                    )
                else:
                    self._executor = ThreadPoolExecutor(
                        max_workers=self._workers,
                        thread_name_prefix="repro-shard",
                    )
                # GC insurance: shut the executor down when the pool is
                # collected without an explicit close().
                self._finalizer = weakref.finalize(
                    self, _shutdown_executor, self._executor
                )
            return self._executor

    def map(self, fn: Callable[[_T], _R], items: Iterable[_T]) -> list[_R]:
        """``[fn(x) for x in items]``, fanned across the pool, in order.

        Results preserve input order regardless of completion order; the
        first raised exception propagates to the caller.  On a closed pool
        the map runs inline (serial), so retiring a pool under a
        concurrent caller is always safe.

        Under ``REPRO_LOCK_CHECK=1`` a fan-out refuses to run while the
        calling thread holds a tracked component lock (unless that lock
        is declared ``allow_across_map``): blocking on worker completion
        inside a critical section is the nested-wait deadlock shape PR 4
        eliminated, and this assertion keeps it eliminated.  The inline
        paths are exempt -- they never wait on another thread.
        """
        items = list(items)
        if self._workers == 1 or len(items) <= 1:
            return [fn(item) for item in items]
        assert_map_safe(
            f"WorkerPool.map (backend={self._backend!r}, "
            f"workers={self._workers})"
        )
        attempts = 0
        while True:
            executor = self._ensure_executor()
            if executor is None:
                return [fn(item) for item in items]
            try:
                return self._dispatch(executor, fn, items)
            except BrokenExecutor:
                # A worker died (killed process, failed initializer); the
                # executor is permanently poisoned.  Retire it and retry
                # the whole map on a fresh one.
                failure = "restarts"
            except FuturesTimeout:
                # The per-map watchdog fired: some job is hung (or an
                # injected delay outlived the budget).  The executor may
                # still be wedged on it -- retire without waiting.
                failure = "timeouts"
            except RuntimeError:
                # close() can land between the executor handoff above and
                # the submit ("cannot schedule new futures after
                # shutdown"); only that race is swallowed -- degrade to
                # inline execution.  (BrokenExecutor subclasses
                # RuntimeError, so supervision is handled above.)
                if not self._closed:
                    raise
                return [fn(item) for item in items]
            self._retire_executor(executor, failure)
            attempts += 1
            if attempts > self._max_restarts:
                # Out of restart budget: the final rung.  Inline serial
                # execution has no workers to lose and no watchdog to
                # trip, so the map still completes (fn's own errors
                # propagate -- supervision never masks those).
                with self._lock:
                    self._inline_fallbacks += 1
                return [fn(item) for item in items]

    def _dispatch(
        self, executor: Executor, fn: Callable[[_T], _R], items: "list[_T]"
    ) -> "list[_R]":
        """One supervised fan-out attempt on ``executor``.

        When a fault injector watches the worker site, every job is
        wrapped with a parent-minted fault token (the Nth-hit decision
        happens here, where the counters live; the child just performs
        it).  Hit counters advance per attempt, so a retried map meets a
        once-only rule already consumed -- which is what makes the retry
        succeed.
        """
        timeout = self._map_timeout
        injector = faults.active_injector()
        if injector is not None and injector.watches(faults.SITE_WORKER):
            jobs = [
                (injector.token(faults.SITE_WORKER), fn, item)
                for item in items
            ]
            return list(executor.map(faults.faulty_call, jobs,
                                     timeout=timeout))
        return list(executor.map(fn, items, timeout=timeout))

    def _retire_executor(self, executor: Executor, failure: str) -> None:
        """Drop a broken/hung executor so the next attempt rebuilds one.

        The executor is shut down without waiting (its workers may be
        dead or wedged) and detached from the GC finalizer; the matching
        supervision counter records why.
        """
        with self._lock:
            if failure == "timeouts":
                self._timeouts += 1
            else:
                self._restarts += 1
            if self._executor is not executor:
                # A concurrent map already retired it (or close() ran);
                # nothing further to detach.
                finalizer = None
            else:
                self._executor = None
                finalizer, self._finalizer = self._finalizer, None
        if finalizer is not None:
            finalizer.detach()
        executor.shutdown(wait=False, cancel_futures=True)

    def close(self) -> None:
        """Shut the underlying executor down (idempotent).

        Subsequent maps run inline (serial) -- they never raise -- and the
        GC finalizer is detached because there is nothing left to reclaim.
        """
        with self._lock:
            executor, self._executor = self._executor, None
            finalizer, self._finalizer = self._finalizer, None
            self._closed = True
        if finalizer is not None:
            finalizer.detach()
        if executor is not None:
            executor.shutdown(wait=True)

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __getstate__(self) -> dict:
        return {
            "workers": self._workers,
            "backend": self._backend,
            "max_restarts": self._max_restarts,
            "map_timeout": self._map_timeout,
        }

    def __setstate__(self, state: dict) -> None:
        self._workers = state["workers"]
        self._backend = state["backend"]
        self._max_restarts = state.get("max_restarts", DEFAULT_MAX_RESTARTS)
        self._map_timeout = state.get("map_timeout")
        self._executor = None
        self._finalizer = None
        self._closed = False
        self._restarts = 0
        self._timeouts = 0
        self._inline_fallbacks = 0
        self._lock = make_lock("WorkerPool._lock")


class ShardedExecutor:
    """Shard planning plus a reusable worker pool, merged by concatenation.

    The dispatch object every parallel component holds: the fusers shard
    their pattern matrices through :meth:`shards` and fan per-shard jobs
    with :meth:`map`; the clustered fuser shards each per-cluster
    evaluator's stacked sub-pattern batch the same way; the empirical
    joint model fans its batch-evaluation chunks.  Results
    always come back in submission order, so merging is a concatenation
    and scores stay bit-identical to the serial path.
    """

    def __init__(
        self,
        workers: Optional[int] = None,
        shard_size: Optional[int] = None,
        backend: str = "thread",
        max_restarts: int = DEFAULT_MAX_RESTARTS,
        map_timeout: Optional[float] = None,
    ) -> None:
        self._pool = WorkerPool(
            resolve_workers(workers),
            backend,
            max_restarts=max_restarts,
            map_timeout=map_timeout,
        )
        self._planner = ShardPlanner(shard_size)

    @property
    def workers(self) -> int:
        return self._pool.workers

    @property
    def backend(self) -> str:
        return self._pool.backend

    @property
    def shard_size(self) -> Optional[int]:
        return self._planner.shard_size

    @property
    def closed(self) -> bool:
        """Whether the underlying pool has been closed."""
        return self._pool.closed

    @property
    def stats(self) -> dict:
        """The pool's supervision counters plus the shard configuration."""
        stats = self._pool.stats
        stats["shard_size"] = self._planner.shard_size
        return stats

    def shards(self, n_items: int) -> list[Shard]:
        """The planner's balanced word-aligned blocks for ``n_items``."""
        return self._planner.plan(n_items, self._pool.workers)

    def map(self, fn: Callable[[_T], _R], items: Iterable[_T]) -> list[_R]:
        """Fan ``fn`` over ``items`` on the pool; results in input order."""
        return self._pool.map(fn, items)

    def map_shards(
        self, fn: Callable[[int, int], _R], n_items: int
    ) -> Optional[list[_R]]:
        """``fn(start, stop)`` per shard, in shard order.

        Returns ``None`` when the plan is a single shard (or empty) --
        callers then run their unsharded path, keeping the one-shard case
        free of dispatch overhead and byte-identical in cache keying to
        the serial configuration.  On the process backend ``fn`` must be
        picklable (module-level function or bound method of a picklable
        object).
        """
        shards = self.shards(n_items)
        if len(shards) <= 1:
            return None
        return self._pool.map(
            _range_call, [(fn, shard.start, shard.stop) for shard in shards]
        )

    def close(self) -> None:
        """Shut the pool down (idempotent)."""
        self._pool.close()

    def __enter__(self) -> "ShardedExecutor":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __getstate__(self) -> dict:
        return {
            "pool": self._pool,
            "shard_size": self._planner.shard_size,
            "align": self._planner.align,
        }

    def __setstate__(self, state: dict) -> None:
        self._pool = state["pool"]
        self._planner = ShardPlanner(state["shard_size"], align=state["align"])


def make_executor(
    workers: Optional[int] = None,
    shard_size: Optional[int] = None,
    backend: str = "thread",
) -> Optional[ShardedExecutor]:
    """Build a :class:`ShardedExecutor`, or ``None`` for the serial default.

    ``None`` is returned only for the fully-default configuration
    (one worker, no explicit shard size): components then skip dispatch
    entirely.  An explicit ``shard_size`` with ``workers=1`` still returns
    an executor -- its maps run inline, which is how the equivalence tests
    drive the shard path deterministically.
    """
    resolved = resolve_workers(workers)
    if resolved == 1 and shard_size is None:
        check_backend(backend)
        return None
    return ShardedExecutor(
        workers=resolved, shard_size=shard_size, backend=backend
    )
