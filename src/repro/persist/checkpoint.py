"""Live-side durability driver: WAL appends + snapshot policy.

A :class:`Checkpointer` owns one checkpoint directory for one serving
session.  It keeps the *last durable state* (observation matrix, labels)
and turns the serving loop's events into durable records:

- :meth:`log_mutation` -- an admitted observation change, appended as a
  dirty-column WAL record before anything acts on it;
- :meth:`prepare_refit` / :meth:`commit_refit` -- invoked by
  :class:`~repro.core.api.ScoringSession` around every refit (under its
  refit lock): prepare makes the refit *input* durable (mutation record
  if the matrix moved, then ``refit_begin``), commit appends
  ``refit_publish`` and applies the snapshot cadence;
- :meth:`snapshot` -- an atomic full-state snapshot, pruned to a bounded
  history that always retains a fallback.

Failure policy: **availability over durability.**  A WAL append that
fails (torn-write fault, IO error) is retried once -- the log
self-repairs its tail, so a retry is safe -- and a second failure flips
the checkpointer into a degraded mode that counts skipped records
instead of raising into the serving path.  The chaos suite pins exactly
this: persist faults never break serving, and the degradation is visible
in :attr:`stats`.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Dict, Optional, Tuple

import numpy as np

from repro.core.faults import InjectedFault
from repro.core.locktrace import make_lock
from repro.core.observations import ObservationMatrix
from repro.persist import wal as wal_records
from repro.persist.snapshot import (
    SnapshotState,
    iter_snapshot_paths,
    prune_snapshots,
    write_snapshot,
)
from repro.persist.wal import WAL_FILENAME, WriteAheadLog


class Checkpointer:
    """Durable-state writer for one serving session (see module docs)."""

    def __init__(
        self,
        directory: Path,
        *,
        snapshot_every: int = 4,
        keep_snapshots: int = 3,
        fsync: bool = True,
    ) -> None:
        if snapshot_every < 1:
            raise ValueError(
                f"snapshot_every must be >= 1, got {snapshot_every}"
            )
        self._dir = Path(directory)
        self._dir.mkdir(parents=True, exist_ok=True)
        self._snapshot_every = int(snapshot_every)
        self._keep_snapshots = int(keep_snapshots)
        self._fsync = fsync
        self._lock = make_lock("Checkpointer._lock")
        # guarded-by: _lock
        self._wal: Optional[WriteAheadLog] = None
        # guarded-by: _lock
        self._seq = 0
        # guarded-by: _lock
        self._snapshot_index = 0
        # guarded-by: _lock
        self._generation = 0
        # guarded-by: _lock
        self._mutation_steps = 0
        # guarded-by: _lock
        self._refits_since_snapshot = 0
        # guarded-by: _lock
        self._state: Optional[Tuple[ObservationMatrix, np.ndarray]] = None
        # The last record's packed labels: reused while the labels object
        # in ``_state`` is logged again, ``None`` until a record is made.
        # guarded-by: _lock
        self._labels_words: Optional[np.ndarray] = None
        # guarded-by: _lock
        self._degraded = False
        # guarded-by: _lock
        self._counters: Dict[str, int] = {
            "records": 0,
            "mutations": 0,
            "refits": 0,
            "snapshots": 0,
            "torn_repairs": 0,
            "skipped_degraded": 0,
            "snapshot_failures": 0,
        }

    # -- lifecycle -----------------------------------------------------

    @classmethod
    def attach(
        cls,
        session: Any,
        observations: ObservationMatrix,
        labels: np.ndarray,
        directory: Path,
        **policy: Any,
    ) -> "Checkpointer":
        """Start durability for ``session`` from a fresh directory.

        Writes snapshot 0 (the initial generation, so a fallback chain
        exists from the first byte) and attaches the refit hooks.
        """
        checkpointer = cls(directory, **policy)
        checkpointer.begin(session, observations, labels)
        return checkpointer

    def begin(
        self,
        session: Any,
        observations: ObservationMatrix,
        labels: np.ndarray,
    ) -> None:
        """Record the session's initial generation and attach hooks."""
        config = session.persist_config()
        if str(config.get("method", "")).lower() == "em":
            raise ValueError(
                "checkpointing requires the count-based bit-identity "
                'contract; method="em" refits are not bitwise '
                "reproducible and cannot be recovered exactly"
            )
        if config.get("dropped_options"):
            raise ValueError(
                "session options are not JSON-serializable and would be "
                f"lost in a snapshot: {config['dropped_options']}"
            )
        with self._lock:
            self._ensure_wal()
            self._state = (observations, np.asarray(labels, dtype=bool))
            self._labels_words = None
            self._write_snapshot(session)
        session.attach_checkpointer(self)

    def resume_from(
        self,
        *,
        seq: int,
        generation: int,
        mutation_steps: int,
        snapshot_index: int,
        observations: ObservationMatrix,
        labels: np.ndarray,
    ) -> None:
        """Prime counters and state after recovery (RecoveryManager only)."""
        with self._lock:
            self._ensure_wal()
            self._seq = int(seq)
            self._generation = int(generation)
            self._mutation_steps = int(mutation_steps)
            self._snapshot_index = int(snapshot_index)
            self._state = (observations, np.asarray(labels, dtype=bool))
            self._labels_words = None
            self._refits_since_snapshot = 0

    def close(self) -> None:
        with self._lock:
            if self._wal is not None:
                self._wal.close()
                self._wal = None

    # guarded-by: _lock
    def _ensure_wal(self) -> WriteAheadLog:
        if self._wal is None:
            self._wal = WriteAheadLog(
                self._dir / WAL_FILENAME, fsync=self._fsync
            )
        return self._wal

    # -- event logging ---------------------------------------------------

    def log_mutation(
        self,
        observations: ObservationMatrix,
        labels: Optional[np.ndarray] = None,
        step: int = -1,
    ) -> None:
        """Durably log an observation change *before* it is applied."""
        with self._lock:
            self._log_mutation_locked(observations, labels, step)

    # guarded-by: _lock
    def _log_mutation_locked(
        self,
        observations: ObservationMatrix,
        labels: Optional[np.ndarray],
        step: int,
    ) -> None:
        if self._state is None:
            raise ValueError("Checkpointer.begin was never called")
        prev_matrix, prev_labels = self._state
        new_labels = (
            prev_labels if labels is None else np.asarray(labels, dtype=bool)
        )
        if step >= 0 and step < self._mutation_steps:
            # The crash child re-announces its current step on resume;
            # the WAL already covers it.
            return
        record = wal_records.mutation_record(
            prev_matrix,
            observations,
            new_labels,
            seq=self._seq + 1,
            step=step,
            previous_labels=prev_labels,
            labels_words=(
                self._labels_words if new_labels is prev_labels else None
            ),
        )
        if record is None:
            return
        if self._append(record[0], record[1]):
            self._counters["mutations"] += 1
            self._state = (observations, new_labels)
            self._labels_words = record[1]["labels_words"]
            if step >= 0:
                self._mutation_steps = max(self._mutation_steps, step + 1)

    def prepare_refit(
        self,
        observations: ObservationMatrix,
        labels: np.ndarray,
        mode: str,
        train_mask: Optional[np.ndarray] = None,
    ) -> None:
        """Session hook: make the refit input durable before the build."""
        if train_mask is not None:
            raise ValueError(
                "checkpointed sessions must refit on the full matrix; a "
                "train_mask cannot be reconstructed from the WAL"
            )
        with self._lock:
            self._log_mutation_locked(observations, labels, -1)
            self._append(
                *wal_records.refit_begin_record(seq=self._seq + 1, mode=mode)
            )

    def commit_refit(
        self,
        session: Any,
        observations: ObservationMatrix,
        labels: np.ndarray,
    ) -> None:
        """Session hook: the new generation published; log it, maybe snap."""
        with self._lock:
            self._generation += 1
            if self._append(
                *wal_records.refit_publish_record(
                    seq=self._seq + 1, generation=self._generation
                )
            ):
                self._counters["refits"] += 1
            self._refits_since_snapshot += 1
            if self._refits_since_snapshot >= self._snapshot_every:
                self._write_snapshot(session)

    def snapshot(self, session: Any) -> Optional[Path]:
        """Force a snapshot of the current durable state."""
        with self._lock:
            return self._write_snapshot(session)

    # -- internals -------------------------------------------------------

    # guarded-by: _lock
    def _append(
        self, meta: Dict[str, Any], arrays: Dict[str, np.ndarray]
    ) -> bool:
        """One WAL append with a single retry; degrades instead of raising."""
        if self._degraded:
            self._counters["skipped_degraded"] += 1
            return False
        wal = self._ensure_wal()
        meta = dict(meta)
        meta["seq"] = self._seq + 1
        try:
            wal.append(meta, arrays)
        except (InjectedFault, OSError):
            # fault-barrier: the append already repaired the WAL tail, so
            # one retry is safe; a second failure means the medium is
            # persistently refusing writes and serving must not die for
            # it -- flip to degraded and keep counters honest.
            self._counters["torn_repairs"] += 1
            try:
                wal.append(meta, arrays)
            except (InjectedFault, OSError):
                # fault-barrier: see above -- availability over
                # durability, visible via stats()["degraded"].
                self._degraded = True
                self._counters["skipped_degraded"] += 1
                return False
        self._seq += 1
        self._counters["records"] += 1
        return True

    # guarded-by: _lock
    def _write_snapshot(self, session: Any) -> Optional[Path]:
        if self._state is None:
            raise ValueError("Checkpointer.begin was never called")
        observations, labels = self._state
        state = SnapshotState(
            observations=observations,
            labels=labels,
            config=session.persist_config(),
            generation=self._generation,
            wal_seq=self._seq,
            mutation_steps=self._mutation_steps,
            statistics=session.persist_statistics(),
        )
        self._snapshot_index += 1
        try:
            path = write_snapshot(
                self._dir, state, self._snapshot_index, fsync=self._fsync
            )
        except (InjectedFault, OSError):
            # fault-barrier: a failed snapshot just means a longer WAL
            # replay from the previous one; serving continues.
            self._counters["snapshot_failures"] += 1
            return None
        self._counters["snapshots"] += 1
        self._refits_since_snapshot = 0
        prune_snapshots(self._dir, self._keep_snapshots)
        return path

    # -- observability ---------------------------------------------------

    @property
    def directory(self) -> Path:
        return self._dir

    @property
    def stats(self) -> Dict[str, Any]:
        """Counters snapshot (records, snapshots, degradation, sizes)."""
        with self._lock:
            wal_bytes = self._wal.offset if self._wal is not None else 0
            return {
                "directory": str(self._dir),
                "seq": self._seq,
                "generation": self._generation,
                "mutation_steps": self._mutation_steps,
                "wal_bytes": wal_bytes,
                "snapshots_on_disk": len(iter_snapshot_paths(self._dir)),
                "degraded": self._degraded,
                **dict(self._counters),
            }

    def __getstate__(self) -> None:
        raise TypeError(
            "Checkpointer is process-local (lock + open WAL handle) and "
            "cannot be pickled; recover from the checkpoint directory "
            "instead"
        )
