"""Deterministic fault injection: seeded plans, named sites, zero-cost off.

The fault-tolerance layer (serving retries, the degradation ladder,
refit rollback) is only trustworthy if its failure paths are
*exercised deterministically* -- a chaos test that fails a request "at
some point" cannot pin accounting or bit-identity.  This module supplies
the injection substrate:

- **Named sites.**  Five hooks cover the serving stack's failure
  surfaces: :data:`SITE_COMPILE` (plan compilation inside
  ``CompiledPlanCache.get_or_compute``), :data:`SITE_SCORE`
  (``ScoringSession.score_batch`` entry), :data:`SITE_DISPATCH` (lane
  dispatch in ``AsyncServingFrontend``), :data:`SITE_REFIT` (between
  building and publishing a refitted generation), and
  :data:`SITE_PERSIST` (durable snapshot/WAL writes in
  ``repro.persist``, including the persist-only ``torn-write`` action).
- **Seeded plans.**  A :class:`FaultPlan` is an ordered tuple of
  :class:`FaultRule`\\ s -- *at site S, on the Nth hit (for C hits), do
  action A* -- parsed from a compact spec string or drawn reproducibly by
  :meth:`FaultPlan.random`.  Same plan, same workload, same faults.
- **Zero overhead off.**  Like :mod:`repro.core.locktrace`, injection is
  dormant unless armed: :func:`trip` is a module-global ``None`` check
  when no injector is installed.  Arm it with ``REPRO_FAULTS=<spec>`` in
  the environment (read once at import) or programmatically via
  :func:`install`.

Actions are ``raise`` (a typed, retry-safe :class:`InjectedFault`),
``delay`` (sleep, to trip watchdogs, overrun latency budgets and hold a
batch in flight), and the persist-only ``torn-write``.  A fired rule is
a plain *token* tuple (:data:`FaultToken`): :func:`perform` carries it
out, and sites that need call-site context (``torn-write``) take it from
:func:`trip_token` and act on it themselves.  Process-level crashes are
not an action here: the crash campaigns SIGKILL a real serving process
(:mod:`repro.eval.crash`).
"""

from __future__ import annotations

import os
import random
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Iterator, Optional, Sequence, Tuple

from repro.core.locktrace import make_lock

#: Environment variable holding a fault-plan spec (see
#: :meth:`FaultPlan.from_spec`); read once at import.
FAULTS_ENV_VAR = "REPRO_FAULTS"

#: Plan compilation (``CompiledPlanCache.get_or_compute`` factory call).
SITE_COMPILE = "compile"
#: Scoring entry (``ScoringSession.score_batch``).
SITE_SCORE = "score"
#: Lane dispatch (``AsyncServingFrontend._execute_batch``).
SITE_DISPATCH = "dispatch"
#: Refit swap (after building, before publishing a new generation).
SITE_REFIT = "refit"
#: Durable-persistence IO (snapshot and WAL writes in ``repro.persist``).
SITE_PERSIST = "persist"

#: Every named injection site, in documentation order.
FAULT_SITES = (
    SITE_COMPILE,
    SITE_SCORE,
    SITE_DISPATCH,
    SITE_REFIT,
    SITE_PERSIST,
)

ACTION_RAISE = "raise"
ACTION_DELAY = "delay"
ACTION_TORN_WRITE = "torn-write"

#: Every fault action.  ``torn-write`` is specific to the ``persist``
#: site: the in-flight durable write is truncated at a seeded byte offset
#: (the rule's ``@`` value is the fraction of the payload that reaches
#: the file) and then fails -- the crash shape the WAL torn-tail scan and
#: snapshot fallback exist to survive.
FAULT_ACTIONS = (ACTION_RAISE, ACTION_DELAY, ACTION_TORN_WRITE)

#: A fired-fault instruction: ``(action, delay_seconds, site, hit)``.
FaultToken = Tuple[str, float, str, int]


class InjectedFault(RuntimeError):
    """A deliberately injected failure (retry-safe by construction).

    Raised by the ``raise`` action.  The serving retry policy classifies
    this as transient: re-running the same computation without the
    injection succeeds, which is exactly the contract a retry needs.
    """

    def __init__(self, site: str, hit: int) -> None:
        super().__init__(f"injected fault at site {site!r} (hit {hit})")
        self.site = site
        self.hit = hit


@dataclass(frozen=True)
class FaultRule:
    """*At* ``site``, *on hits* ``[nth, nth + count)``, *do* ``action``.

    ``count=0`` means "every hit from ``nth`` on" -- a persistent fault,
    used to drive the degradation ladder all the way down.
    ``delay_seconds`` only matters for the ``delay`` action.
    """

    site: str
    action: str
    nth: int = 1
    count: int = 1
    delay_seconds: float = 0.01

    def __post_init__(self) -> None:
        if self.site not in FAULT_SITES:
            raise ValueError(
                f"unknown fault site {self.site!r}; expected one of "
                f"{FAULT_SITES}"
            )
        if self.action not in FAULT_ACTIONS:
            raise ValueError(
                f"unknown fault action {self.action!r}; expected one of "
                f"{FAULT_ACTIONS}"
            )
        if self.nth < 1:
            raise ValueError(f"nth must be >= 1, got {self.nth}")
        if self.count < 0:
            raise ValueError(f"count must be >= 0, got {self.count}")
        if self.delay_seconds < 0:
            raise ValueError(
                f"delay_seconds must be >= 0, got {self.delay_seconds}"
            )
        if self.action == ACTION_TORN_WRITE and self.site != SITE_PERSIST:
            raise ValueError(
                f"action {ACTION_TORN_WRITE!r} only applies to site "
                f"{SITE_PERSIST!r} (got site {self.site!r}); other sites "
                "have no in-flight durable write to tear"
            )

    def matches(self, hit: int) -> bool:
        """Whether this rule fires on the ``hit``-th trip of its site."""
        if hit < self.nth:
            return False
        return self.count == 0 or hit < self.nth + self.count

    @property
    def spec(self) -> str:
        """The compact spec form parsed by :meth:`FaultPlan.from_spec`."""
        text = f"{self.site}:{self.action}:{self.nth}:{self.count}"
        if self.action in (ACTION_DELAY, ACTION_TORN_WRITE):
            # For torn-write the @ value is the written-prefix fraction,
            # not a delay -- same slot, same round-trip grammar.
            text += f"@{self.delay_seconds:g}"
        return text


@dataclass(frozen=True)
class FaultPlan:
    """An ordered set of :class:`FaultRule` s (first matching rule wins)."""

    rules: "tuple[FaultRule, ...]" = ()

    @classmethod
    def from_spec(cls, spec: str) -> "FaultPlan":
        """Parse ``site:action[:nth[:count]][@delay][,...]``.

        Examples: ``compile:raise:2`` (the 2nd plan compile fails),
        ``score:raise:1:0`` (every ``score_batch`` call
        fails -- the full-ladder drill), ``dispatch:delay:3@0.05`` (the
        3rd lane dispatch stalls 50 ms).
        """
        rules = []
        for chunk in str(spec).split(","):
            chunk = chunk.strip()
            if not chunk:
                continue
            body, _, delay_text = chunk.partition("@")
            parts = body.split(":")
            if len(parts) < 2 or len(parts) > 4:
                raise ValueError(
                    f"bad fault rule {chunk!r}; expected "
                    "site:action[:nth[:count]][@delay]"
                )
            site, action = parts[0].strip(), parts[1].strip()
            try:
                nth = int(parts[2]) if len(parts) > 2 else 1
                count = int(parts[3]) if len(parts) > 3 else 1
                delay = float(delay_text) if delay_text else 0.01
            except ValueError:
                raise ValueError(
                    f"bad fault rule {chunk!r}; nth/count must be ints "
                    "and delay a float"
                ) from None
            rules.append(
                FaultRule(site, action, nth=nth, count=count,
                          delay_seconds=delay)
            )
        return cls(tuple(rules))

    @classmethod
    def random(
        cls,
        seed: int,
        sites: Sequence[str] = FAULT_SITES,
        actions: Sequence[str] = FAULT_ACTIONS,
        max_rules: int = 2,
        max_nth: int = 4,
        delay_seconds: float = 0.02,
    ) -> "FaultPlan":
        """A reproducible plan drawn from ``seed`` (chaos-test input).

        The draw is intentionally small-biased: early ``nth`` values and
        one-or-two-rule plans hit the serving window of a short chaos
        trace; delays stay tiny so injected stalls cost milliseconds, not
        CI minutes.
        """
        rng = random.Random(seed)
        rules = []
        for _ in range(rng.randint(1, max_rules)):
            site = rng.choice(tuple(sites))
            # torn-write is persist-only (see FaultRule validation), so
            # the action draw is conditioned on the drawn site.
            site_actions = tuple(
                action
                for action in actions
                if action != ACTION_TORN_WRITE or site == SITE_PERSIST
            )
            rules.append(
                FaultRule(
                    site,
                    rng.choice(site_actions),
                    nth=rng.randint(1, max_nth),
                    count=rng.randint(1, 2),
                    delay_seconds=delay_seconds,
                )
            )
        return cls(tuple(rules))

    @property
    def spec(self) -> str:
        """Round-trippable spec string (``FaultPlan.from_spec(plan.spec)``)."""
        return ",".join(rule.spec for rule in self.rules)


def perform(token: FaultToken) -> None:
    """Carry out a fired fault token (see :data:`FaultToken`).

    ``raise`` raises :class:`InjectedFault`; ``delay`` sleeps.
    ``torn-write`` tokens are interpreted by the persist layer's durable
    writers (which have the file context needed to tear the write); when
    one reaches ``perform`` anyway it degrades to ``raise``.
    """
    action, delay_seconds, site, hit = token
    if action == ACTION_DELAY:
        time.sleep(delay_seconds)
        return
    raise InjectedFault(site, hit)


class FaultInjector:
    """Per-site hit counting plus rule matching for one :class:`FaultPlan`.

    Thread-safe: sites are tripped from the serving loop and executor
    threads concurrently; hit counters advance under one lock so a
    plan's Nth-hit semantics are well-defined even then.
    Deterministic given a deterministic workload -- and *consumable*:
    a rule with ``count=1`` fires once ever, so a supervised retry of the
    same work does not re-trip it (which is what lets retries succeed).
    """

    def __init__(self, plan: FaultPlan) -> None:
        self._plan = plan
        self._lock = make_lock("FaultInjector._lock")
        # guarded-by: _lock
        self._hits: dict[str, int] = {}
        # guarded-by: _lock
        self._fired: dict[str, int] = {}

    @property
    def plan(self) -> FaultPlan:
        return self._plan

    def token(self, site: str) -> Optional[FaultToken]:
        """Advance ``site``'s hit counter; a token if a rule fires, else None.

        The token is a plain tuple (:data:`FaultToken`).
        """
        with self._lock:
            hit = self._hits.get(site, 0) + 1
            self._hits[site] = hit
            for rule in self._plan.rules:
                if rule.site == site and rule.matches(hit):
                    self._fired[site] = self._fired.get(site, 0) + 1
                    return (rule.action, rule.delay_seconds, site, hit)
        return None

    def fire(self, site: str) -> None:
        """Trip ``site`` in-process: perform the fault here if one fires."""
        token = self.token(site)
        if token is not None:
            perform(token)

    @property
    def stats(self) -> "dict[str, Any]":
        """Plan spec plus per-site hit/fired counters (snapshot)."""
        with self._lock:
            return {
                "plan": self._plan.spec,
                "hits": dict(self._hits),
                "fired": dict(self._fired),
            }

    def __getstate__(self) -> None:
        raise TypeError(
            "FaultInjector is process-local (it owns a lock over live hit "
            "counters); arm one per process instead of pickling it"
        )


# The installed injector, or None (the zero-overhead default).  Installed
# once from $REPRO_FAULTS at import or via install()/uninstall(); trip()
# reads it without locking -- a torn read can only see the old or new
# injector, both valid.
_INJECTOR: Optional[FaultInjector] = None


def install(plan: FaultPlan) -> FaultInjector:
    """Arm injection with ``plan``; returns the live injector."""
    global _INJECTOR
    _INJECTOR = FaultInjector(plan)
    return _INJECTOR


def uninstall() -> None:
    """Disarm injection (back to the zero-overhead no-op)."""
    global _INJECTOR
    _INJECTOR = None


def active_injector() -> Optional[FaultInjector]:
    """The armed injector, or ``None`` when injection is off."""
    return _INJECTOR


@contextmanager
def armed(plan: Optional[FaultPlan]) -> Iterator[Optional[FaultInjector]]:
    """Arm ``plan`` for the block (``None`` disarms injection instead).

    On exit the injector that was installed before -- e.g. one armed
    from ``$REPRO_FAULTS`` -- is put back as the same object, its hit
    counters intact.
    """
    global _INJECTOR
    previous = _INJECTOR
    _INJECTOR = None if plan is None else FaultInjector(plan)
    try:
        yield _INJECTOR
    finally:
        _INJECTOR = previous


def trip(site: str) -> None:
    """Injection hook: no-op unless an injector is armed and a rule fires.

    This is the line instrumented code calls on its hot path, so the
    disarmed cost is one module-global load and a ``None`` check.
    """
    injector = _INJECTOR
    if injector is None:
        return
    injector.fire(site)


def trip_token(site: str) -> Optional[FaultToken]:
    """Like :func:`trip`, but hand the fired token back instead of acting.

    For sites whose actions need call-site context to carry out --
    ``torn-write`` must tear *this* write, which :func:`perform` cannot
    do.  The caller inspects the token's action and either handles it
    locally or forwards it to :func:`perform`.  ``None`` when injection
    is off or no rule fires.
    """
    injector = _INJECTOR
    if injector is None:
        return None
    return injector.token(site)


def _install_from_env() -> None:
    """Arm from ``$REPRO_FAULTS`` at import (empty/unset leaves it off)."""
    raw = os.environ.get(FAULTS_ENV_VAR, "").strip()
    if raw:
        install(FaultPlan.from_spec(raw))


_install_from_env()
