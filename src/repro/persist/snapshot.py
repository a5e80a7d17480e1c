"""Atomic, versioned generation snapshots with corruption fallback.

A snapshot is one checksummed frame (:mod:`repro.persist.format`) holding
everything needed to rebuild a generation *exactly*:

- the packed observation matrices (``provides``/``coverage`` uint64
  words + bit counts) and packed truth labels -- the integer inputs;
- the session config (method, prior, smoothing, fuser options)
  -- the pure-function parameters;
- the generation number, the WAL sequence the snapshot is consistent
  with, and the trace-step watermark;
- the model's integer sufficient statistics, stored not to *restore*
  state but to *verify* it: recovery rebuilds the model cold from the
  matrices (bit-identical by the delta-refit contract) and cross-checks
  the rebuilt integers against the stored ones.

Files are written via :func:`repro.persist.atomic.atomic_write` (temp +
fsync + rename) and named ``snap-<index>-<walseq>.rsnp``; readers walk
them newest-first and fall back to an older snapshot (plus a longer WAL
replay) when the newest fails validation.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.core.observations import ObservationMatrix
from repro.persist.atomic import CRASH_POINT_SNAPSHOT, atomic_write
from repro.persist.format import (
    PersistFormatError,
    decode_payload,
    encode_frame,
    encode_payload,
    pack_bool_matrix,
    read_frame,
    unpack_bool_matrix,
)

#: Snapshot file suffix.
SNAPSHOT_SUFFIX = ".rsnp"

_SNAPSHOT_NAME = re.compile(r"^snap-(\d{6})-(\d{12})\.rsnp$")


@dataclass(frozen=True)
class SnapshotState:
    """The durable image of one published generation."""

    observations: ObservationMatrix
    labels: np.ndarray
    config: Dict[str, Any]
    generation: int
    wal_seq: int
    mutation_steps: int
    statistics: Optional[Dict[str, np.ndarray]] = None


def snapshot_path(directory: Path, index: int, wal_seq: int) -> Path:
    """Canonical file name for snapshot ``index`` at WAL seq ``wal_seq``."""
    return Path(directory) / f"snap-{index:06d}-{wal_seq:012d}{SNAPSHOT_SUFFIX}"


def parse_snapshot_name(path: Path) -> Optional[Tuple[int, int]]:
    """``(index, wal_seq)`` from a snapshot file name, or ``None``."""
    match = _SNAPSHOT_NAME.match(Path(path).name)
    if match is None:
        return None
    return int(match.group(1)), int(match.group(2))


def iter_snapshot_paths(directory: Path) -> List[Path]:
    """Snapshot files in ``directory``, newest (highest index) first."""
    directory = Path(directory)
    if not directory.is_dir():
        return []
    found = [
        path
        for path in directory.iterdir()
        if _SNAPSHOT_NAME.match(path.name)
    ]
    return sorted(found, key=lambda path: path.name, reverse=True)


def encode_snapshot(state: SnapshotState) -> bytes:
    """Serialize a :class:`SnapshotState` into one checksummed frame."""
    provides_words, n_triples = pack_bool_matrix(state.observations.provides)
    coverage_words, _ = pack_bool_matrix(state.observations.coverage)
    labels = np.asarray(state.labels, dtype=bool)
    if labels.shape != (n_triples,):
        raise ValueError(f"labels shape {labels.shape} != ({n_triples},)")
    labels_words, labels_bits = pack_bool_matrix(labels[np.newaxis, :])
    meta = {
        "kind": "snapshot",
        "generation": int(state.generation),
        "wal_seq": int(state.wal_seq),
        "mutation_steps": int(state.mutation_steps),
        "n_sources": int(state.observations.n_sources),
        "n_triples": int(n_triples),
        "labels_bits": int(labels_bits),
        "source_names": list(state.observations.source_names),
        "config": dict(state.config),
        "statistics": sorted(state.statistics) if state.statistics else [],
    }
    arrays = {
        "provides_words": provides_words,
        "coverage_words": coverage_words,
        "labels_words": labels_words[0],
    }
    if state.statistics:
        for name, values in state.statistics.items():
            arrays[f"stat_{name}"] = np.asarray(values, dtype=np.int64)
    return encode_frame(encode_payload(meta, arrays))


def decode_snapshot(data: bytes) -> SnapshotState:
    """Inverse of :func:`encode_snapshot`; raises on any defect."""
    payload, end = read_frame(data, 0)
    if end != len(data):
        raise PersistFormatError("trailing bytes after snapshot frame")
    meta, arrays = decode_payload(payload)
    if meta.get("kind") != "snapshot":
        raise PersistFormatError(f"not a snapshot payload: {meta.get('kind')!r}")
    n_triples = int(meta["n_triples"])
    provides = unpack_bool_matrix(arrays["provides_words"], n_triples)
    coverage = unpack_bool_matrix(arrays["coverage_words"], n_triples)
    labels = unpack_bool_matrix(arrays["labels_words"], int(meta["labels_bits"]))
    observations = ObservationMatrix(
        provides,
        [str(name) for name in meta["source_names"]],
        coverage=coverage,
    )
    statistics: Optional[Dict[str, np.ndarray]] = None
    if meta["statistics"]:
        statistics = {
            str(name): np.asarray(arrays[f"stat_{name}"], dtype=np.int64)
            for name in meta["statistics"]
        }
    return SnapshotState(
        observations=observations,
        labels=labels,
        config=dict(meta["config"]),
        generation=int(meta["generation"]),
        wal_seq=int(meta["wal_seq"]),
        mutation_steps=int(meta["mutation_steps"]),
        statistics=statistics,
    )


def write_snapshot(
    directory: Path, state: SnapshotState, index: int, *, fsync: bool = True
) -> Path:
    """Atomically write snapshot ``index`` into ``directory``."""
    path = snapshot_path(directory, index, state.wal_seq)
    atomic_write(
        path,
        encode_snapshot(state),
        fsync=fsync,
        crash_point=CRASH_POINT_SNAPSHOT,
    )
    return path


def load_snapshot(path: Path) -> SnapshotState:
    """Read and validate one snapshot file."""
    return decode_snapshot(Path(path).read_bytes())


def prune_snapshots(directory: Path, keep: int) -> int:
    """Delete all but the newest ``keep`` snapshots; returns the count.

    ``keep`` is floored at 2 so a corrupted newest snapshot always has a
    fallback -- the whole point of keeping history.
    """
    keep = max(2, int(keep))
    paths = iter_snapshot_paths(directory)
    removed = 0
    for path in paths[keep:]:
        try:
            path.unlink()
            removed += 1
        except OSError:
            # fault-barrier: a snapshot we failed to delete is still a
            # valid (just stale) fallback; pruning must never take the
            # serving loop down.
            continue
    return removed
