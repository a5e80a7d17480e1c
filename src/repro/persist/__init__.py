"""Durable serving state: snapshots, write-ahead log, crash-exact recovery.

The layer cake, bottom up:

- :mod:`repro.persist.format` -- checksummed frame/payload codec shared
  by every durable byte (packed matrices ride as uint64 words).
- :mod:`repro.persist.atomic` -- the only module that opens files for
  writing (REP007): fsync'd atomic replace, fault-aware durable writes
  (the ``persist``/``torn-write`` injection point), real SIGKILL crash
  points for the crash harness.
- :mod:`repro.persist.wal` -- append-before-apply mutation/refit records
  with torn-tail self-repair.
- :mod:`repro.persist.snapshot` -- atomic versioned generation snapshots
  with integer-statistics integrity cross-checks.
- :mod:`repro.persist.checkpoint` -- the live-side
  :class:`Checkpointer` driving WAL appends and snapshot cadence from
  :class:`~repro.core.api.ScoringSession` refit hooks.
- :mod:`repro.persist.recovery` -- :class:`RecoveryManager`: newest
  valid snapshot (older-snapshot fallback on corruption) + WAL-suffix
  replay through ``refit_delta``, reconstructing the exact pre-crash
  generation (bit-identical scores; see ``run_serving_crash``).
- :mod:`repro.persist.trace` -- the WAL record format as a public
  recorded-mutation-trace artifact (record + replay).
"""

from repro.persist.atomic import (
    CRASH_ENV_VAR,
    CRASH_POINT_SNAPSHOT,
    CRASH_POINT_WAL,
    atomic_write,
    crash_hook,
)
from repro.persist.checkpoint import Checkpointer
from repro.persist.format import FORMAT_VERSION, PersistFormatError
from repro.persist.recovery import (
    RecoveredState,
    RecoveryError,
    RecoveryManager,
    SnapshotIntegrityError,
)
from repro.persist.snapshot import SnapshotState, iter_snapshot_paths
from repro.persist.trace import record_mutation_trace, replay_mutation_trace
from repro.persist.wal import WAL_FILENAME, WriteAheadLog, scan_wal

__all__ = [
    "CRASH_ENV_VAR",
    "CRASH_POINT_SNAPSHOT",
    "CRASH_POINT_WAL",
    "Checkpointer",
    "FORMAT_VERSION",
    "PersistFormatError",
    "RecoveredState",
    "RecoveryError",
    "RecoveryManager",
    "SnapshotIntegrityError",
    "SnapshotState",
    "WAL_FILENAME",
    "WriteAheadLog",
    "atomic_write",
    "crash_hook",
    "iter_snapshot_paths",
    "record_mutation_trace",
    "replay_mutation_trace",
    "scan_wal",
]
