"""Durable file primitives: fsync'd atomic replace, fault-aware writes.

Every byte the persistence layer puts on disk goes through this module
-- enforced by reprolint REP007, which forbids bare ``open(..., "w")``
anywhere else under ``repro/persist``.  Centralising the writes buys
three things:

- **Atomicity.**  :func:`atomic_write` stages into a same-directory temp
  file, fsyncs it, ``os.replace``\\ s it over the target, then fsyncs the
  directory.  A crash at any instant leaves either the old file, the new
  file, or an ignorable ``*.tmp-*`` orphan -- never a half-written
  target.
- **Deterministic fault injection.**  :func:`durable_write` consults the
  ``persist`` fault site before touching the file.  The persist-only
  ``torn-write`` action writes a seeded prefix of the payload, makes it
  durable, and then fails -- the exact on-disk shape of a power cut
  mid-write, produced on demand for the torn-tail recovery tests.
- **Real crash points.**  :func:`crash_hook` consults
  ``$REPRO_CRASH_POINT`` (``"<name>:<nth>"``) and SIGKILLs the *current*
  process on the matching hit.  Unlike the in-process fault plan (whose
  ``kill`` deliberately degrades to ``raise`` in the minting process),
  this is an actual uncatchable death, used by ``run_serving_crash`` to
  kill a child serving process mid-WAL-append or mid-snapshot.
"""

from __future__ import annotations

import os
import signal
from pathlib import Path
from typing import IO, Optional, Tuple

from repro.core import faults

#: Environment variable arming a real SIGKILL crash point in this
#: process: ``"<name>:<nth>"`` dies on the nth hit of that named point.
CRASH_ENV_VAR = "REPRO_CRASH_POINT"

#: Crash point fired after a WAL frame is durably appended.
CRASH_POINT_WAL = "wal"
#: Crash point fired after a snapshot temp file is durable but *before*
#: it is renamed into place (the mid-snapshot crash shape).
CRASH_POINT_SNAPSHOT = "snapshot"

_crash_spec: Optional[Tuple[str, int]] = None
_crash_spec_loaded = False
_crash_hits: "dict[str, int]" = {}


def _active_crash_spec() -> Optional[Tuple[str, int]]:
    global _crash_spec, _crash_spec_loaded
    if not _crash_spec_loaded:
        raw = os.environ.get(CRASH_ENV_VAR, "").strip()
        if raw:
            name, _, nth_text = raw.partition(":")
            _crash_spec = (name.strip(), int(nth_text) if nth_text else 1)
        _crash_spec_loaded = True
    return _crash_spec


def crash_hook(name: str) -> None:
    """SIGKILL this process if the armed crash point matches this hit.

    Disarmed cost is one cached-spec check.  SIGKILL (not ``os._exit``)
    so the death is indistinguishable from ``kill -9``: no atexit, no
    buffered flushes, no interpreter teardown.
    """
    spec = _active_crash_spec()
    if spec is None:
        return
    hits = _crash_hits.get(name, 0) + 1
    _crash_hits[name] = hits
    if name == spec[0] and hits == spec[1]:
        os.kill(os.getpid(), signal.SIGKILL)


def durable_write(handle: "IO[bytes]", data: bytes, fsync: bool = True) -> None:
    """Write ``data`` and make it durable, honouring persist faults.

    A fired ``torn-write`` rule writes only the rule's fraction of the
    payload, flushes and fsyncs that prefix (a torn write that never
    reached the platters needs no recovery story -- durable garbage is
    the hard case), then raises :class:`~repro.core.faults.InjectedFault`.
    Other persist actions are forwarded to :func:`faults.perform`.
    """
    token = faults.trip_token(faults.SITE_PERSIST)
    if token is not None:
        action, fraction, site, hit = token
        if action == faults.ACTION_TORN_WRITE:
            torn_length = min(len(data), max(0, int(len(data) * fraction)))
            handle.write(data[:torn_length])
            handle.flush()
            if fsync:
                os.fsync(handle.fileno())
            raise faults.InjectedFault(site, hit)
        faults.perform(token)
    handle.write(data)
    handle.flush()
    if fsync:
        os.fsync(handle.fileno())


def _fsync_directory(directory: Path) -> None:
    fd = os.open(str(directory), os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def atomic_write(
    path: Path,
    data: bytes,
    *,
    fsync: bool = True,
    crash_point: Optional[str] = None,
) -> None:
    """Durably replace ``path`` with ``data`` (temp + fsync + rename).

    ``crash_point`` names an optional :func:`crash_hook` site fired after
    the temp file is durable but before the rename -- the window where a
    crash leaves a complete orphan next to an untouched (or absent)
    target.
    """
    path = Path(path)
    tmp_path = path.with_name(f"{path.name}.tmp-{os.getpid()}")
    renamed = False
    try:
        with open(tmp_path, "wb") as handle:
            durable_write(handle, data, fsync=fsync)
        if crash_point is not None:
            crash_hook(crash_point)
        os.replace(tmp_path, path)
        renamed = True
        if fsync:
            _fsync_directory(path.parent)
    finally:
        if not renamed:
            try:
                os.unlink(tmp_path)
            except OSError:
                pass


def open_for_append(path: Path) -> "IO[bytes]":
    """Open the WAL file for appending (the one non-atomic write path)."""
    return open(path, "ab")


def truncate_file(path: Path, size: int, fsync: bool = True) -> None:
    """Durably truncate ``path`` to ``size`` bytes (torn-tail repair)."""
    with open(path, "r+b") as handle:
        handle.truncate(size)
        if fsync:
            os.fsync(handle.fileno())
