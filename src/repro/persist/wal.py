"""Write-ahead log: append-before-apply mutation and refit records.

The WAL is a flat file of checksummed frames (:mod:`repro.persist.format`).
Three record types cover everything the serving loop does to durable
state:

- ``mutation`` -- an observation-matrix change, stored as a dirty-column
  block (the column ids that may differ, with their full new ``provides``
  / ``coverage`` slices) plus the packed truth labels.  The diff comes
  from :func:`repro.core.deltas.dirty_columns`, the same word-granularity
  machinery the delta scorer trusts; it is memoised on the new matrix,
  so the scorer's diff of the same step reuses the record's.  Because
  the block stores absolute new values (not XOR deltas), applying a
  record to a matrix already in the post-state is a no-op -- duplicate
  replay is idempotent.
- ``refit_begin`` -- appended *before* a refit is applied.  A begin with
  no matching publish after it means the process died mid-refit; recovery
  drops it, rolling the session back to the last published generation.
- ``refit_publish`` -- appended after a new generation is published.

Durability discipline: every append is fsync'd before :meth:`append`
returns, and a failed append (torn write, injected fault, IO error)
truncates the file back to its pre-append offset before re-raising --
so mid-file corruption can never strand valid records behind it, and the
only invalid bytes a scan can meet are a torn *tail*.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import IO, Any, Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro.core.deltas import dirty_columns
from repro.core.observations import ObservationMatrix
from repro.persist.atomic import (
    CRASH_POINT_WAL,
    crash_hook,
    durable_write,
    open_for_append,
    truncate_file,
)
from repro.persist.format import (
    PersistFormatError,
    decode_payload,
    encode_frame,
    encode_payload,
    pack_bool_matrix,
    read_frame,
    unpack_bool_matrix,
)

#: Record-type tags.
RECORD_MUTATION = "mutation"
RECORD_REFIT_BEGIN = "refit_begin"
RECORD_REFIT_PUBLISH = "refit_publish"

#: Default WAL file name inside a checkpoint directory.
WAL_FILENAME = "wal.log"

#: One decoded record: (meta, arrays).
Record = Tuple[Dict[str, Any], Dict[str, np.ndarray]]


def mutation_record(
    previous: ObservationMatrix,
    current: ObservationMatrix,
    labels: np.ndarray,
    *,
    seq: int,
    step: int = -1,
    previous_labels: Optional[np.ndarray] = None,
    labels_words: Optional[np.ndarray] = None,
) -> Optional[Record]:
    """Encode ``previous -> current`` as a dirty-column block.

    Returns ``None`` when the matrices are bit-identical at equal width
    and ``labels`` equal ``previous_labels`` (if given): nothing to log.
    A label change alone is a zero-column block.  ``step`` is an optional
    trace-step tag (``-1`` = untagged) used by the crash harness to
    locate its resume point.  ``labels_words`` is the record's packed
    ``labels`` when the caller already holds them (the checkpointer
    reuses its last record's words while the labels object is the
    same); otherwise the labels are packed here.
    """
    if previous.n_sources != current.n_sources:
        raise ValueError(
            "mutation records require a fixed source set "
            f"({previous.n_sources} -> {current.n_sources} sources)"
        )
    if current.n_triples >= previous.n_triples:
        columns = dirty_columns(previous, current)
        assert columns is not None  # source counts checked above
    else:
        # Width shrink is rare enough that a full-width block is fine.
        columns = np.arange(current.n_triples, dtype=np.int64)
    labels = np.asarray(labels, dtype=bool)
    if (
        columns.size == 0
        and current.n_triples == previous.n_triples
        and step < 0
        and (
            previous_labels is None
            or np.array_equal(previous_labels, labels)
        )
    ):
        return None
    if labels.shape != (current.n_triples,):
        raise ValueError(
            f"labels shape {labels.shape} != ({current.n_triples},)"
        )
    if labels_words is None:
        labels_words = pack_bool_matrix(labels[np.newaxis, :])[0][0]
    meta = {
        "type": RECORD_MUTATION,
        "seq": int(seq),
        "step": int(step),
        "n_sources": int(current.n_sources),
        "prev_triples": int(previous.n_triples),
        "n_triples": int(current.n_triples),
        "labels_bits": int(labels.size),
    }
    arrays = {
        "columns": np.asarray(columns, dtype=np.int64),
        "provides": np.asarray(current.provides[:, columns], dtype=bool),
        "coverage": np.asarray(current.coverage[:, columns], dtype=bool),
        "labels_words": labels_words,
    }
    return meta, arrays


def apply_mutation(
    matrix: ObservationMatrix,
    meta: Mapping[str, Any],
    arrays: Mapping[str, np.ndarray],
) -> Tuple[ObservationMatrix, np.ndarray]:
    """Apply a mutation record; returns the new ``(matrix, labels)``.

    Idempotent: applying a record to a matrix already in the post-state
    reproduces that state exactly (the block stores absolute values).
    """
    if int(meta["n_sources"]) != matrix.n_sources:
        raise PersistFormatError(
            f"mutation record has {meta['n_sources']} sources, "
            f"state has {matrix.n_sources}"
        )
    n_new = int(meta["n_triples"])
    shared = min(matrix.n_triples, n_new)
    provides = np.zeros((matrix.n_sources, n_new), dtype=bool)
    coverage = np.zeros((matrix.n_sources, n_new), dtype=bool)
    provides[:, :shared] = matrix.provides[:, :shared]
    coverage[:, :shared] = matrix.coverage[:, :shared]
    columns = np.asarray(arrays["columns"], dtype=np.int64)
    provides[:, columns] = np.asarray(arrays["provides"], dtype=bool)
    coverage[:, columns] = np.asarray(arrays["coverage"], dtype=bool)
    labels = unpack_bool_matrix(
        arrays["labels_words"], int(meta["labels_bits"])
    )
    triple_index = (
        matrix.triple_index if n_new == matrix.n_triples else None
    )
    return (
        ObservationMatrix(
            provides,
            matrix.source_names,
            triple_index=triple_index,
            coverage=coverage,
        ),
        labels,
    )


def refit_begin_record(*, seq: int, mode: str) -> Record:
    """A refit is about to be applied (``mode`` is ``delta`` or ``cold``)."""
    return {"type": RECORD_REFIT_BEGIN, "seq": int(seq), "mode": mode}, {}


def refit_publish_record(*, seq: int, generation: int) -> Record:
    """A refitted generation was published."""
    return (
        {
            "type": RECORD_REFIT_PUBLISH,
            "seq": int(seq),
            "generation": int(generation),
        },
        {},
    )


@dataclass(frozen=True)
class WalScan:
    """Result of scanning a WAL file for its valid prefix."""

    records: Tuple[Record, ...]
    valid_bytes: int
    total_bytes: int

    @property
    def torn_bytes(self) -> int:
        """Bytes past the last valid record (a torn tail, or zero)."""
        return self.total_bytes - self.valid_bytes


def scan_wal(path: Path) -> WalScan:
    """Decode the valid record prefix of ``path`` (missing file = empty).

    The scan stops at the first frame that fails validation -- short
    header, bad magic, truncated payload, checksum mismatch, or a
    payload that frames correctly but does not decode.  Everything
    before it is trusted (each record carried its own checksum).
    """
    path = Path(path)
    if not path.exists():
        return WalScan((), 0, 0)
    data = path.read_bytes()
    records: List[Record] = []
    offset = 0
    while offset < len(data):
        try:
            payload, next_offset = read_frame(data, offset)
            meta, arrays = decode_payload(payload)
        except PersistFormatError:
            break
        records.append((meta, arrays))
        offset = next_offset
    return WalScan(tuple(records), offset, len(data))


class WriteAheadLog:
    """Append-only, fsync'd record log with torn-tail self-repair.

    Opening an existing log scans it and physically truncates any torn
    tail, so the append offset always sits at the end of the valid
    prefix.  Not thread-safe by itself -- the owning
    :class:`~repro.persist.checkpoint.Checkpointer` serializes access.
    """

    def __init__(self, path: Path, *, fsync: bool = True) -> None:
        self._path = Path(path)
        self._fsync = fsync
        scan = scan_wal(self._path)
        if scan.torn_bytes:
            truncate_file(self._path, scan.valid_bytes, fsync=fsync)
        self._offset = scan.valid_bytes
        self._handle: Optional[IO[bytes]] = open_for_append(self._path)

    @property
    def path(self) -> Path:
        return self._path

    @property
    def offset(self) -> int:
        """Current append offset (== byte length of the valid prefix)."""
        return self._offset

    def append(
        self,
        meta: Mapping[str, Any],
        arrays: Optional[Mapping[str, np.ndarray]] = None,
    ) -> None:
        """Durably append one record; repairs the tail on failure.

        If the write fails part-way (torn-write fault, IO error), the
        file is truncated back to the pre-append offset before the
        exception propagates -- a failed append leaves the log exactly
        as it was, so the caller may simply retry.
        """
        if self._handle is None:
            raise ValueError("write-ahead log is closed")
        frame = encode_frame(encode_payload(meta, arrays or {}))
        try:
            durable_write(self._handle, frame, fsync=self._fsync)
        except BaseException:
            self._repair_tail()
            raise
        self._offset += len(frame)
        crash_hook(CRASH_POINT_WAL)

    def _repair_tail(self) -> None:
        if self._handle is not None:
            self._handle.close()
        truncate_file(self._path, self._offset, fsync=self._fsync)
        self._handle = open_for_append(self._path)

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __getstate__(self) -> None:
        raise TypeError(
            "WriteAheadLog holds an open file handle and cannot be "
            "pickled; recover from the file on the other side instead"
        )
