"""Crash-exact recovery: newest valid snapshot + WAL-suffix replay.

The recovery argument, end to end:

1. A snapshot stores the packed observation matrices, packed labels, and
   session config of a published generation.  Every quality parameter
   the session serves is a pure float function of integer sufficient
   statistics derived from exactly these inputs (the one array rule,
   ``quality.rates_from_counts``), so a session rebuilt cold from a snapshot
   is **bit-identical** to the one that wrote it -- the same invariant
   the delta-refit oracle (`run_serving(refit_every=...)`) pins on every
   CI run.  The snapshot additionally stores the writer's integer
   counters; the rebuilt model must reproduce them exactly or the
   snapshot is treated as corrupt.
2. WAL records were appended *before* they were applied, so the WAL
   suffix past the snapshot's sequence number is a complete account of
   everything the dead process may have done.  Replaying mutations
   rebuilds the observation state; replaying publish records re-runs
   ``refit_delta`` -- bit-identical to the original refit by the same
   contract.  A ``refit_begin`` with no matching publish is dropped:
   the dead process never published, so the recovered session correctly
   rolls back to the last published generation.
3. Validation failures fall back: a corrupt newest snapshot (bad CRC,
   torn rename, statistics mismatch) is skipped and the next-older one
   is loaded instead, at the cost of a longer replay -- never a refusal
   while any valid snapshot exists.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.core import (
    AggressiveFuser,
    ClusteredCorrelationFuser,
    ElasticFuser,
    ExactCorrelationFuser,
    ExpectationMaximizationFuser,
    PrecRecFuser,
)
from repro.core.api import ScoringSession
from repro.core.observations import ObservationMatrix
from repro.persist.checkpoint import Checkpointer
from repro.persist.format import PersistFormatError
from repro.persist.snapshot import (
    SnapshotState,
    iter_snapshot_paths,
    load_snapshot,
    parse_snapshot_name,
)
from repro.persist.wal import (
    RECORD_MUTATION,
    RECORD_REFIT_BEGIN,
    RECORD_REFIT_PUBLISH,
    WAL_FILENAME,
    WalScan,
    apply_mutation,
    scan_wal,
)


class RecoveryError(RuntimeError):
    """No valid snapshot could be recovered from the directory."""


class SnapshotIntegrityError(PersistFormatError):
    """A snapshot decoded cleanly but failed a cross-check (treated as
    corrupt, so the caller falls back to an older snapshot)."""


@dataclass(frozen=True)
class RecoveredState:
    """What :meth:`RecoveryManager.recover` reconstructed."""

    session: ScoringSession
    #: The durable observation state -- may be *ahead* of the session's
    #: last published generation (mutations logged but not yet refitted
    #: on; exactly what the dead process had admitted).
    observations: ObservationMatrix
    labels: np.ndarray
    config: Dict[str, Any]
    #: Last *published* generation (mid-refit deaths roll back to it).
    generation: int
    #: Highest WAL sequence number incorporated (resume point).
    wal_seq: int
    #: Trace-step watermark from tagged mutation records.
    mutation_steps: int
    snapshot_path: Path
    snapshots_skipped: Tuple[str, ...] = ()
    records_replayed: int = 0
    refits_replayed: int = 0
    rolled_back_refits: int = 0
    wal_records_total: int = 0
    wal_valid_bytes: int = 0
    wal_torn_bytes: int = 0
    statistics_verified: bool = False

    def report(self) -> Dict[str, Any]:
        """JSON-able summary (crash-harness and CLI output)."""
        return {
            "generation": self.generation,
            "wal_seq": self.wal_seq,
            "mutation_steps": self.mutation_steps,
            "snapshot": self.snapshot_path.name,
            "snapshots_skipped": list(self.snapshots_skipped),
            "records_replayed": self.records_replayed,
            "refits_replayed": self.refits_replayed,
            "rolled_back_refits": self.rolled_back_refits,
            "wal_records_total": self.wal_records_total,
            "wal_valid_bytes": self.wal_valid_bytes,
            "wal_torn_bytes": self.wal_torn_bytes,
            "statistics_verified": self.statistics_verified,
        }


class RecoveryManager:
    """Rebuild the exact pre-crash session from a checkpoint directory."""

    def __init__(self, directory: Path, *, fsync: bool = True) -> None:
        self._dir = Path(directory)
        self._fsync = fsync

    @staticmethod
    def has_state(directory: Path) -> bool:
        """Whether ``directory`` holds anything recoverable."""
        return bool(iter_snapshot_paths(Path(directory)))

    def recover(self, **session_overrides: Any) -> RecoveredState:
        """Load the newest valid snapshot and replay the WAL suffix.

        ``session_overrides`` replace config fields (e.g. ``threshold``)
        and reach the rebuilt :class:`ScoringSession` as keywords.
        Snapshots written while sharded execution existed also carry its
        worker and shard settings; those described the host, never the
        scores, and are ignored (see :func:`_build_session`).
        """
        scan = scan_wal(self._dir / WAL_FILENAME)
        skipped: List[str] = []
        for path in iter_snapshot_paths(self._dir):
            try:
                state = load_snapshot(path)
                return self._rebuild(path, state, scan, skipped, session_overrides)
            except PersistFormatError as exc:
                # fault-barrier: this snapshot is corrupt (torn rename,
                # bad checksum, failed integrity cross-check); fall back
                # to the next-older one -- degraded recovery beats none.
                skipped.append(f"{path.name}: {exc}")
                continue
        raise RecoveryError(
            f"no valid snapshot in {self._dir} "
            f"(skipped: {skipped or 'none -- directory empty'})"
        )

    def _rebuild(
        self,
        snapshot_file: Path,
        state: SnapshotState,
        scan: WalScan,
        skipped: List[str],
        session_overrides: Dict[str, Any],
    ) -> RecoveredState:
        config = dict(state.config)
        config.update(session_overrides)
        if config.get("dropped_options"):
            raise RecoveryError(
                "snapshot config lost non-serializable options: "
                f"{config['dropped_options']}"
            )
        session = _build_session(
            state.observations, state.labels, state.config, session_overrides
        )
        verified = _verify_statistics(session, state)
        observations = state.observations
        labels = state.labels
        generation = state.generation
        mutation_steps = state.mutation_steps
        last_seq = state.wal_seq
        pending_begin: Optional[Dict[str, Any]] = None
        replayed = 0
        refits = 0
        for meta, arrays in scan.records:
            seq = int(meta.get("seq", 0))
            if seq <= state.wal_seq:
                continue
            record_type = meta.get("type")
            if record_type == RECORD_MUTATION:
                observations, labels = apply_mutation(observations, meta, arrays)
                step = int(meta.get("step", -1))
                if step >= 0:
                    mutation_steps = max(mutation_steps, step + 1)
            elif record_type == RECORD_REFIT_BEGIN:
                pending_begin = dict(meta)
            elif record_type == RECORD_REFIT_PUBLISH:
                mode = (
                    pending_begin.get("mode", "delta")
                    if pending_begin is not None
                    else "delta"
                )
                if mode == "cold":
                    session.refit(observations, labels)
                else:
                    session.refit_delta(observations, labels)
                generation = int(meta["generation"])
                pending_begin = None
                refits += 1
            else:
                raise PersistFormatError(
                    f"unknown WAL record type {record_type!r}"
                )
            last_seq = seq
            replayed += 1
        return RecoveredState(
            session=session,
            observations=observations,
            labels=labels,
            config=config,
            generation=generation,
            wal_seq=last_seq,
            mutation_steps=mutation_steps,
            snapshot_path=snapshot_file,
            snapshots_skipped=tuple(skipped),
            records_replayed=replayed,
            refits_replayed=refits,
            rolled_back_refits=1 if pending_begin is not None else 0,
            wal_records_total=len(scan.records),
            wal_valid_bytes=scan.valid_bytes,
            wal_torn_bytes=scan.torn_bytes,
            statistics_verified=verified,
        )

    def resume(
        self, recovered: RecoveredState, **policy: Any
    ) -> Checkpointer:
        """Re-arm durability on the recovered session.

        The returned :class:`Checkpointer` continues the same WAL (its
        open path truncates any torn tail) and numbers new snapshots
        past every existing file, valid or not.
        """
        max_index = 0
        for path in iter_snapshot_paths(self._dir):
            parsed = parse_snapshot_name(path)
            if parsed is not None:
                max_index = max(max_index, parsed[0])
        checkpointer = Checkpointer(self._dir, fsync=self._fsync, **policy)
        checkpointer.resume_from(
            seq=recovered.wal_seq,
            generation=recovered.generation,
            mutation_steps=recovered.mutation_steps,
            snapshot_index=max_index,
            observations=recovered.observations,
            labels=recovered.labels,
        )
        recovered.session.attach_checkpointer(checkpointer)
        return checkpointer


def _fuser_options() -> "frozenset[str]":
    """Every keyword some fuser constructor accepts today."""
    return frozenset(
        name
        for fuser in (
            PrecRecFuser,
            ExactCorrelationFuser,
            AggressiveFuser,
            ElasticFuser,
            ClusteredCorrelationFuser,
            ExpectationMaximizationFuser,
        )
        for name in inspect.signature(fuser).parameters
    )


def _build_session(
    observations: ObservationMatrix,
    labels: np.ndarray,
    config: Dict[str, Any],
    session_overrides: Dict[str, Any],
) -> ScoringSession:
    """Rebuild the session a snapshot's ``config`` describes.

    Only the session fields below and the fuser options that still exist
    are read.  Snapshots written while sharded execution existed also
    carry a worker count, a shard size and (among the options) a pool
    backend, and ones written while the threaded batcher could be
    switched off carry a ``micro_batch`` mode: they described the host,
    never the scores, so they are ignored.  A snapshot can only hold
    options its writer's fusers accepted, so an option no fuser accepts
    any more is one of those.
    ``session_overrides`` are passed on as given.
    """
    # Snapshots written before the engine switch was removed carry an
    # "engine" key.  The packed path they name ("vectorized") is the only
    # one left; a "legacy" snapshot cannot be rebuilt score-for-score
    # (PrecRec/aggressive legacy scores differ in the last ulp), so it is
    # refused rather than silently switched.
    engine = config.get("engine", "vectorized")
    if engine != "vectorized":
        raise RecoveryError(
            f"snapshot was written by the removed {engine!r} engine; its "
            "scores cannot be reproduced bit-for-bit"
        )
    kwargs = {
        key: config[key]
        for key in (
            "method",
            "prior",
            "smoothing",
            "threshold",
            "delta",
        )
        if key in config
    }
    kwargs.update(session_overrides)
    accepted = _fuser_options()
    options = {
        key: value
        for key, value in config.get("options", {}).items()
        if key in accepted
    }
    return ScoringSession(observations, labels, **kwargs, **options)


def _verify_statistics(session: ScoringSession, state: SnapshotState) -> bool:
    """Cross-check rebuilt integer counters against the snapshot's."""
    if state.statistics is None:
        return False
    rebuilt = session.persist_statistics()
    if rebuilt is None:
        return False
    for name, stored in state.statistics.items():
        if name not in rebuilt or not np.array_equal(rebuilt[name], stored):
            raise SnapshotIntegrityError(
                f"sufficient statistic {name!r} does not match the "
                "snapshot (rebuilt model disagrees with the writer)"
            )
    return True
