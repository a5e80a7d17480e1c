"""Priority lanes: route delta-friendly traffic apart from cold traffic.

The delta engine (:mod:`repro.core.deltas`) is at its best on a stream
of *similar* requests: same source count as the fitted model, few dirty
columns against the previous request.  Interleaving wildly different
matrices into that stream costs twice -- the odd matrices cannot join
the fused batch (width mismatch) and their patterns dilute the memo.

:class:`LaneRouter` therefore classifies each incoming request into one
of two lanes the front end batches independently:

- ``"delta"`` -- same width as the fitted model and small churn against
  the lane's previous request (measured exactly, via the packed-word
  XOR diff of :func:`repro.core.deltas.dirty_columns`, which memoises
  its result on the request so the scorer's diff against the same
  previous matrix costs no second pass);
- ``"cold"`` -- everything else: width mismatches, high-churn requests,
  and all traffic for fusers without the ``pattern_batch_invariant``
  guarantee (their batches score individually anyway).

Routing changes *where* a request is batched, never *how* it is scored
-- every lane scores through the same session, so lane placement cannot
affect scores (bit-identity is pinned by ``tests/test_serve*.py``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.core.deltas import dirty_columns
from repro.core.fusion import ModelBasedFuser
from repro.core.locktrace import make_lock
from repro.core.observations import ObservationMatrix

if TYPE_CHECKING:
    from repro.core.api import ScoringSession

#: Lane names, in dispatch-priority order (delta first).
DELTA_LANE = "delta"
COLD_LANE = "cold"
LANES = (DELTA_LANE, COLD_LANE)

#: Default churn bound for the delta lane: at most this fraction of the
#: incoming request's columns may differ from the lane's previous
#: request.  Mirrors the delta engine's own notion of a "small" diff.
DEFAULT_SMALL_CHURN_FRACTION = 0.25


def expected_sources_of(session: "ScoringSession") -> Optional[int]:
    """The source count fused batches require, or ``None`` if unfusable.

    ``None`` (EM, PrecRec, aggressive -- no ``pattern_batch_invariant``
    guarantee) means no request can share a fused pass, so lane routing
    degenerates to a single cold lane.
    """
    fuser = session.fuser
    if isinstance(fuser, ModelBasedFuser) and fuser.pattern_batch_invariant:
        return int(fuser.model.n_sources)
    return None


class LaneRouter:
    """Classify requests into the delta or cold lane (see module doc).

    The router keeps one snapshot per delta lane -- the last matrix it
    routed there -- and measures each candidate's churn against it with
    the exact packed-word diff.  The first same-width request seeds the
    snapshot and rides the delta lane by definition (churn zero against
    itself would be meaningless; it *starts* the stream).

    ``rebind`` repoints the router at a new model generation: the width
    expectation is replaced and the snapshot dropped (it belonged to the
    previous generation's stream), while shed/served counters survive.
    """

    def __init__(
        self,
        expected_sources: Optional[int],
        small_churn_fraction: float = DEFAULT_SMALL_CHURN_FRACTION,
    ) -> None:
        if not 0.0 <= small_churn_fraction <= 1.0:
            raise ValueError(
                "small_churn_fraction must be in [0, 1], got "
                f"{small_churn_fraction}"
            )
        self._expected_sources = expected_sources
        self._small_churn = float(small_churn_fraction)
        self._lock = make_lock("LaneRouter._lock")
        # guarded-by: _lock
        self._snapshot: Optional[ObservationMatrix] = None
        # guarded-by: _lock
        self._delta_routed = 0
        # guarded-by: _lock
        self._cold_routed = 0
        # guarded-by: _lock
        self._width_mismatches = 0
        # guarded-by: _lock
        self._churn_evictions = 0

    def __getstate__(self) -> dict:
        raise TypeError(
            "LaneRouter is process-local (it owns a lock over live "
            "routing state); build one per process instead of pickling it"
        )

    @classmethod
    def for_session(
        cls,
        session: "ScoringSession",
        small_churn_fraction: float = DEFAULT_SMALL_CHURN_FRACTION,
    ) -> "LaneRouter":
        """A router matching ``session``'s live fuser generation."""
        return cls(
            expected_sources_of(session),
            small_churn_fraction=small_churn_fraction,
        )

    @property
    def expected_sources(self) -> Optional[int]:
        return self._expected_sources

    def rebind(self, expected_sources: Optional[int]) -> None:
        """Point the router at a new model generation (drops the snapshot)."""
        with self._lock:
            self._expected_sources = expected_sources
            self._snapshot = None

    def classify(self, observations: ObservationMatrix) -> str:
        """The lane for ``observations``: :data:`DELTA_LANE` or :data:`COLD_LANE`."""
        expected = self._expected_sources
        if expected is None or observations.n_sources != expected:
            with self._lock:
                self._cold_routed += 1
                if expected is not None:
                    self._width_mismatches += 1
            return COLD_LANE
        with self._lock:
            snapshot = self._snapshot
            if snapshot is None:
                self._snapshot = observations
                self._delta_routed += 1
                return DELTA_LANE
            dirty = dirty_columns(snapshot, observations)
            total = max(observations.n_triples, snapshot.n_triples, 1)
            if dirty is not None and len(dirty) <= self._small_churn * total:
                self._snapshot = observations
                self._delta_routed += 1
                return DELTA_LANE
            # High churn: leave the snapshot in place -- the delta
            # stream continues from its last member, this request rides
            # the cold lane.
            self._churn_evictions += 1
            self._cold_routed += 1
            return COLD_LANE

    @property
    def stats(self) -> dict:
        """Routing counters for reports and benchmarks."""
        with self._lock:
            return {
                "delta_routed": self._delta_routed,
                "cold_routed": self._cold_routed,
                "width_mismatches": self._width_mismatches,
                "churn_evictions": self._churn_evictions,
                "expected_sources": self._expected_sources,
                "small_churn_fraction": self._small_churn,
            }
