"""Runtime lock-order tracing: deadlock-hazard detection for serving.

The threaded serving stack rests on one prose invariant that no test
could otherwise *watch* being upheld: **lock ordering is acyclic.**  Every
component lock (plan cache, joint cache, session refit/count locks,
micro-batcher queue and combining locks) may be held while acquiring certain others --
e.g. a refit holds the session's refit lock while invalidating the retired
fuser's plan cache.  As long as the "held while acquiring" relation over
lock *names* stays acyclic, no schedule of threads can deadlock on them.

This module turns that invariant into a runtime check.  Set
``REPRO_LOCK_CHECK=1`` and every lock built through :func:`make_lock`
becomes a :class:`TrackedLock`: acquisitions record per-thread held-lock
stacks into a process-wide lock-order graph, and :func:`detected_cycles`
reports any cycle in that graph (a potential deadlock even if no run has
hit it yet).  With the variable unset (the default), :func:`make_lock`
returns a plain ``threading.Lock`` -- zero overhead, byte-identical
behaviour.

The checker is a *tracer*, not a scheduler: it observes orders that real
executions exhibit, so its guarantees are as good as the workload that ran
under it.  CI re-runs the concurrency-focused test modules with
``REPRO_LOCK_CHECK=1`` and asserts the cycle set stays empty
(``tests/test_locktrace.py``).
"""

from __future__ import annotations

import os
import threading
import traceback
from typing import Iterator, Optional, Union

#: Environment variable that activates lock tracking (``1``/``true``/...).
LOCK_CHECK_ENV_VAR = "REPRO_LOCK_CHECK"

#: Frames kept in the acquisition-stack samples attached to graph edges.
_STACK_DEPTH = 6


def lock_check_enabled() -> bool:
    """Whether ``REPRO_LOCK_CHECK`` asks for tracked locks."""
    raw = os.environ.get(LOCK_CHECK_ENV_VAR, "").strip().lower()
    return raw not in ("", "0", "false", "off", "no")


def _acquisition_site() -> str:
    """A short formatted stack sample for edge reports."""
    frames = traceback.extract_stack(limit=_STACK_DEPTH + 2)[:-2]
    return " <- ".join(
        f"{frame.name}:{frame.lineno}" for frame in reversed(frames)
    )


class _LockRegistry:
    """Process-wide lock-order graph plus per-thread held-lock stacks.

    Nodes are lock *names* (component-level, e.g.
    ``"CompiledPlanCache._lock"``), so every instance of a component class
    aggregates into one node and an ordering inversion between *any* two
    instances surfaces as a cycle.  Edges ``(held, acquired)`` mean "some
    thread acquired ``acquired`` while holding ``held``"; each edge keeps
    an occurrence count and one sample acquisition site.  Re-entrant
    re-acquisition of the *same instance* records no edge (that is what
    ``reentrant=True`` locks are for); two distinct instances sharing a
    name do record a self-edge, which is a genuine ordering hazard.
    """

    def __init__(self) -> None:
        # A plain lock, not a TrackedLock: the registry cannot trace itself.
        self._lock = threading.Lock()
        self._tls = threading.local()
        # guarded-by: _lock
        self._edges: dict[tuple[str, str], dict] = {}

    # -- per-thread held stack ----------------------------------------

    def _stack(self) -> list["TrackedLock"]:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = []
            self._tls.stack = stack
        return stack

    def held(self) -> tuple["TrackedLock", ...]:
        """The tracked locks the *calling thread* currently holds."""
        return tuple(self._stack())

    def note_acquire(self, lock: "TrackedLock") -> None:
        """Record edges from every held lock, then push ``lock``.

        Called *before* the underlying acquire blocks, so an ordering that
        would deadlock still lands in the graph (the cycle report must not
        depend on the deadlock winning the race).
        """
        stack = self._stack()
        if stack:
            site = _acquisition_site()
            with self._lock:
                for held in stack:
                    if held is lock:
                        continue  # re-entrant same-instance acquire
                    key = (held.name, lock.name)
                    entry = self._edges.get(key)
                    if entry is None:
                        self._edges[key] = {"count": 1, "site": site}
                    else:
                        entry["count"] += 1

    def note_acquired(self, lock: "TrackedLock") -> None:
        self._stack().append(lock)

    def note_release(self, lock: "TrackedLock") -> None:
        stack = self._stack()
        for index in range(len(stack) - 1, -1, -1):
            if stack[index] is lock:
                del stack[index]
                return

    # -- reporting -----------------------------------------------------

    def edges(self) -> dict[tuple[str, str], dict]:
        with self._lock:
            return {key: dict(value) for key, value in self._edges.items()}

    def cycles(self) -> list[list[str]]:
        """Every elementary ordering cycle currently in the graph.

        Strongly connected components of the name-level digraph: an SCC
        with more than one node -- or a node with a self-edge -- admits a
        thread schedule in which two threads wait on each other.  Returned
        as sorted name lists, deterministically ordered.
        """
        with self._lock:
            edge_keys = list(self._edges)
        graph: dict[str, set[str]] = {}
        for src, dst in edge_keys:
            graph.setdefault(src, set()).add(dst)
            graph.setdefault(dst, set())
        sccs = _strongly_connected(graph)
        cycles = [sorted(component) for component in sccs if len(component) > 1]
        for src, dst in edge_keys:
            if src == dst:
                cycles.append([src])
        return sorted(cycles)

    def report(self) -> dict:
        """Graph and cycles in one serialisable snapshot."""
        return {
            "enabled": lock_check_enabled(),
            "edges": {
                f"{src} -> {dst}": value
                for (src, dst), value in sorted(self.edges().items())
            },
            "cycles": self.cycles(),
        }

    def reset(self) -> None:
        """Drop all recorded edges (tests only).

        Per-thread held stacks are left alone: locks currently held by
        live threads must keep unwinding correctly through release.
        """
        with self._lock:
            self._edges.clear()


def _strongly_connected(graph: dict[str, set[str]]) -> list[list[str]]:
    """Iterative Tarjan SCC over a small name-level digraph."""
    index_of: dict[str, int] = {}
    low: dict[str, int] = {}
    on_stack: set[str] = set()
    stack: list[str] = []
    result: list[list[str]] = []
    counter = 0
    for root in sorted(graph):
        if root in index_of:
            continue
        work: list[tuple[str, Iterator[str]]] = [(root, iter(sorted(graph[root])))]
        index_of[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            node, children = work[-1]
            advanced = False
            for child in children:
                if child not in index_of:
                    index_of[child] = low[child] = counter
                    counter += 1
                    stack.append(child)
                    on_stack.add(child)
                    work.append((child, iter(sorted(graph[child]))))
                    advanced = True
                    break
                if child in on_stack:
                    low[node] = min(low[node], index_of[child])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
            if low[node] == index_of[node]:
                component: list[str] = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.append(member)
                    if member == node:
                        break
                result.append(component)
    return result


# The process-wide registry: one lock-order graph per process, by design --
# the graph aggregates orderings across every component instance, which is
# exactly what makes cross-instance inversions visible.
_REGISTRY = _LockRegistry()  # reprolint: allow[REP004]


class TrackedLock:
    """A ``threading.Lock``/``RLock`` that records acquisition order.

    Drop-in for the plain lock in every ``with``/``acquire``/``release``
    use.  ``name`` should identify the component attribute
    (``"ClassName._lock"``); all instances sharing a name aggregate into
    one lock-order graph node.
    """

    __slots__ = ("name", "_inner")

    def __init__(self, name: str, reentrant: bool = False) -> None:
        self.name = str(name)
        self._inner = threading.RLock() if reentrant else threading.Lock()

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        _REGISTRY.note_acquire(self)
        acquired = self._inner.acquire(blocking, timeout)
        if acquired:
            _REGISTRY.note_acquired(self)
        return acquired

    def release(self) -> None:
        self._inner.release()
        _REGISTRY.note_release(self)

    def locked(self) -> bool:
        return self._inner.locked()

    def __enter__(self) -> bool:
        return self.acquire()

    def __exit__(self, *exc_info: object) -> None:
        self.release()

    def __repr__(self) -> str:
        return f"TrackedLock({self.name!r})"


LockLike = Union[threading.Lock, TrackedLock]


def make_lock(name: str, reentrant: bool = False) -> LockLike:
    """A component lock: plain by default, tracked under lock checking.

    The single constructor every core component routes its locks through.
    With ``REPRO_LOCK_CHECK`` unset this returns a plain
    ``threading.Lock`` (or ``RLock``) -- no wrapper, no overhead; with it
    set, a :class:`TrackedLock` that feeds the process lock-order graph.
    """
    if lock_check_enabled():
        return TrackedLock(name, reentrant=reentrant)
    if reentrant:
        return threading.RLock()  # type: ignore[return-value]
    return threading.Lock()


def held_tracked_locks() -> tuple[TrackedLock, ...]:
    """The tracked locks held by the calling thread (empty when disabled)."""
    return _REGISTRY.held()


def detected_cycles() -> list[list[str]]:
    """Cycles in the recorded lock-order graph (empty = no deadlock risk
    observed among tracked acquisitions so far)."""
    return _REGISTRY.cycles()


def lock_order_report() -> dict:
    """Snapshot of the lock-order graph and its cycle set."""
    return _REGISTRY.report()


def reset_lock_tracking() -> None:
    """Clear recorded edges (test isolation helper)."""
    _REGISTRY.reset()


__all__ = [
    "LOCK_CHECK_ENV_VAR",
    "TrackedLock",
    "detected_cycles",
    "held_tracked_locks",
    "lock_check_enabled",
    "lock_order_report",
    "make_lock",
    "reset_lock_tracking",
]
