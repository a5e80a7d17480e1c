"""Durable serving state: snapshots, WAL, and crash-exact recovery (PR 10).

Five layers of guarantees:

- **codec mechanics** -- payloads round-trip metadata and arrays exactly,
  frames reject every corruption class (bad magic, foreign version,
  truncated payload, flipped bits), and packed bool matrices reproduce
  the input bit-for-bit including zero tails;
- **write discipline** -- :func:`atomic_write` replaces files atomically
  and leaves no temp orphans; a :class:`WriteAheadLog` opened over a
  torn tail physically truncates it and appends from the valid prefix;
- **record semantics** -- mutation records survive width growth and
  shrink, replay idempotently (applying a record to the post-state is a
  no-op), and refuse source-set changes;
- **recovery** -- a session rebuilt from the newest snapshot plus WAL
  suffix scores **bit-identically** (exact float equality, not approx)
  to the live session that wrote them, across mutations, delta refits,
  width changes straddling a snapshot boundary, a corrupted newest
  snapshot (fallback to older + longer replay), a mutation logged but
  never refitted on, and a dangling ``refit_begin`` (mid-refit death
  rolls back to the last published generation);
- **trace artifacts** -- a recorded mutation trace replays to the exact
  matrices it was built from, and a serving WAL replays directly as a
  trace (the format identity the ROADMAP replayer item asks for).
"""

from __future__ import annotations

import dataclasses
import os
import zlib
from pathlib import Path

import numpy as np
import pytest

from repro.core import ObservationMatrix, ScoringSession
from repro.data import get_dataset
from repro.eval.harness import mutation_trace
from repro.persist import (
    Checkpointer,
    PersistFormatError,
    RecoveryError,
    RecoveryManager,
    WriteAheadLog,
    atomic_write,
    iter_snapshot_paths,
    record_mutation_trace,
    replay_mutation_trace,
    scan_wal,
)
from repro.persist.format import (
    FORMAT_VERSION,
    decode_payload,
    encode_frame,
    encode_payload,
    frame_header_size,
    pack_bool_matrix,
    read_frame,
    unpack_bool_matrix,
)
from repro.persist.snapshot import (
    SnapshotState,
    decode_snapshot,
    encode_snapshot,
    load_snapshot,
    parse_snapshot_name,
    prune_snapshots,
    snapshot_path,
    write_snapshot,
)
from repro.persist.wal import (
    WAL_FILENAME,
    apply_mutation,
    mutation_record,
    refit_begin_record,
    refit_publish_record,
)


def small_matrix(seed: int = 3, n_sources: int = 6, n_triples: int = 90):
    """A deterministic matrix + labels pair for persistence tests."""
    rng = np.random.default_rng(seed)
    provides = rng.random((n_sources, n_triples)) < 0.5
    coverage = provides | (rng.random((n_sources, n_triples)) < 0.3)
    labels = rng.random(n_triples) < 0.5
    names = [f"s{i}" for i in range(n_sources)]
    return ObservationMatrix(provides, names, coverage=coverage), labels


def mutate(matrix: ObservationMatrix, seed: int) -> ObservationMatrix:
    """One deterministic provider-bit mutation step."""
    from repro.eval.harness import mutate_observations

    return mutate_observations(matrix, 0.1, np.random.default_rng(seed))


class TestPayloadCodec:
    def test_round_trips_meta_and_arrays_exactly(self):
        meta = {"type": "x", "n": 7, "nested": {"a": [1, 2]}}
        arrays = {
            "ints": np.arange(12, dtype=np.int64).reshape(3, 4),
            "floats": np.linspace(0.0, 1.0, 5),
            "bools": np.array([True, False, True]),
        }
        decoded_meta, decoded = decode_payload(encode_payload(meta, arrays))
        assert decoded_meta == meta
        for name, array in arrays.items():
            assert decoded[name].dtype == array.dtype
            assert np.array_equal(decoded[name], array)

    def test_empty_arrays_round_trip(self):
        meta, arrays = decode_payload(encode_payload({"only": "meta"}, {}))
        assert meta == {"only": "meta"}
        assert arrays == {}

    def test_trailing_bytes_rejected(self):
        payload = encode_payload({"a": 1}, {})
        with pytest.raises(PersistFormatError):
            decode_payload(payload + b"x")

    def test_truncated_array_blob_rejected(self):
        payload = encode_payload({}, {"v": np.arange(100, dtype=np.int64)})
        with pytest.raises(PersistFormatError):
            decode_payload(payload[:-8])


class TestFrameCodec:
    def test_round_trip(self):
        payload = encode_payload({"k": 1}, {"a": np.arange(4)})
        frame = encode_frame(payload)
        decoded, next_offset = read_frame(frame, 0)
        assert decoded == payload
        assert next_offset == len(frame)

    def test_bad_magic_rejected(self):
        frame = bytearray(encode_frame(b"payload"))
        frame[0] = ord("X")
        with pytest.raises(PersistFormatError, match="magic"):
            read_frame(bytes(frame), 0)

    def test_foreign_version_rejected(self):
        frame = bytearray(encode_frame(b"payload"))
        frame[4] = FORMAT_VERSION + 1
        with pytest.raises(PersistFormatError, match="version"):
            read_frame(bytes(frame), 0)

    def test_short_header_rejected(self):
        with pytest.raises(PersistFormatError, match="torn frame header"):
            read_frame(b"RP", 0)

    def test_truncated_payload_rejected(self):
        frame = encode_frame(b"some payload bytes")
        with pytest.raises(PersistFormatError, match="torn frame payload"):
            read_frame(frame[:-3], 0)

    def test_flipped_payload_bit_rejected(self):
        frame = bytearray(encode_frame(b"some payload bytes"))
        frame[frame_header_size() + 2] ^= 0x40
        with pytest.raises(PersistFormatError, match="checksum"):
            read_frame(bytes(frame), 0)

    def test_crc_actually_covers_the_payload(self):
        payload = b"abcdef"
        frame = encode_frame(payload)
        import struct

        _, _, crc, _ = struct.Struct("<4sHIQ").unpack_from(frame, 0)
        assert crc == zlib.crc32(payload) & 0xFFFFFFFF


class TestPackedBoolMatrices:
    @pytest.mark.parametrize("n_bits", [1, 63, 64, 65, 128, 200])
    def test_round_trip_exact(self, n_bits):
        rng = np.random.default_rng(n_bits)
        matrix = rng.random((5, n_bits)) < 0.5
        words, bits = pack_bool_matrix(matrix)
        assert bits == n_bits
        assert np.array_equal(unpack_bool_matrix(words, bits), matrix)

    def test_one_dimensional_vector_round_trips(self):
        vector = np.array([True, False, True, True, False])
        words, bits = pack_bool_matrix(vector[np.newaxis, :])
        assert np.array_equal(unpack_bool_matrix(words[0], bits), vector)

    def test_too_few_words_rejected(self):
        words, _ = pack_bool_matrix(np.ones((2, 64), dtype=bool))
        with pytest.raises(PersistFormatError):
            unpack_bool_matrix(words, 65)


class TestAtomicWrite:
    def test_creates_and_replaces(self, tmp_path):
        target = tmp_path / "state.bin"
        atomic_write(target, b"first")
        assert target.read_bytes() == b"first"
        atomic_write(target, b"second")
        assert target.read_bytes() == b"second"

    def test_leaves_no_temp_orphans(self, tmp_path):
        atomic_write(tmp_path / "state.bin", b"data")
        names = {path.name for path in tmp_path.iterdir()}
        assert names == {"state.bin"}

    def test_failed_write_leaves_target_untouched(self, tmp_path):
        target = tmp_path / "state.bin"
        atomic_write(target, b"original")

        class Boom(RuntimeError):
            pass

        import repro.persist.atomic as atomic_mod

        original = atomic_mod.durable_write
        calls = {"n": 0}

        def failing(handle, data, fsync=True):
            calls["n"] += 1
            raise Boom()

        atomic_mod.durable_write = failing
        try:
            with pytest.raises(Boom):
                atomic_write(target, b"replacement")
        finally:
            atomic_mod.durable_write = original
        assert calls["n"] == 1
        assert target.read_bytes() == b"original"
        assert {path.name for path in tmp_path.iterdir()} == {"state.bin"}


class TestWriteAheadLog:
    def test_appends_scan_back_in_order(self, tmp_path):
        path = tmp_path / WAL_FILENAME
        wal = WriteAheadLog(path)
        for seq in range(1, 4):
            wal.append(*refit_publish_record(seq=seq, generation=seq))
        wal.close()
        scan = scan_wal(path)
        assert [meta["seq"] for meta, _ in scan.records] == [1, 2, 3]
        assert scan.torn_bytes == 0
        assert scan.valid_bytes == path.stat().st_size

    def test_scan_of_missing_file_is_empty(self, tmp_path):
        scan = scan_wal(tmp_path / "absent.log")
        assert scan.records == ()
        assert scan.total_bytes == 0

    def test_torn_tail_is_ignored_by_scan_and_truncated_on_open(self, tmp_path):
        path = tmp_path / WAL_FILENAME
        wal = WriteAheadLog(path)
        wal.append(*refit_publish_record(seq=1, generation=1))
        wal.append(*refit_publish_record(seq=2, generation=2))
        wal.close()
        intact = path.stat().st_size
        # Simulate a power cut mid-append: half of a third record.
        frame = encode_frame(
            encode_payload(*refit_publish_record(seq=3, generation=3))
        )
        with open(path, "ab") as handle:
            handle.write(frame[: len(frame) // 2])
        scan = scan_wal(path)
        assert len(scan.records) == 2
        assert scan.valid_bytes == intact
        assert scan.torn_bytes == len(frame) // 2
        reopened = WriteAheadLog(path)
        assert reopened.offset == intact
        reopened.append(*refit_publish_record(seq=3, generation=3))
        reopened.close()
        healed = scan_wal(path)
        assert [meta["seq"] for meta, _ in healed.records] == [1, 2, 3]
        assert healed.torn_bytes == 0

    def test_mid_file_corruption_stops_the_scan_there(self, tmp_path):
        path = tmp_path / WAL_FILENAME
        wal = WriteAheadLog(path)
        wal.append(*refit_publish_record(seq=1, generation=1))
        first = wal.offset
        wal.append(*refit_publish_record(seq=2, generation=2))
        wal.close()
        data = bytearray(path.read_bytes())
        data[first + frame_header_size()] ^= 0xFF
        path.write_bytes(bytes(data))
        scan = scan_wal(path)
        assert len(scan.records) == 1
        assert scan.valid_bytes == first

    def test_closed_log_refuses_appends(self, tmp_path):
        wal = WriteAheadLog(tmp_path / WAL_FILENAME)
        wal.close()
        with pytest.raises(ValueError, match="closed"):
            wal.append(*refit_publish_record(seq=1, generation=1))

    def test_cannot_be_pickled(self, tmp_path):
        import pickle

        wal = WriteAheadLog(tmp_path / WAL_FILENAME)
        try:
            with pytest.raises(TypeError, match="recover from the file"):
                pickle.dumps(wal)
        finally:
            wal.close()


class TestMutationRecords:
    def test_no_change_yields_no_record(self):
        matrix, labels = small_matrix()
        assert mutation_record(matrix, matrix, labels, seq=1) is None

    def test_step_tag_forces_a_record_even_without_change(self):
        matrix, labels = small_matrix()
        record = mutation_record(matrix, matrix, labels, seq=1, step=0)
        assert record is not None
        assert record[0]["step"] == 0

    def test_round_trip_restores_the_exact_matrix(self):
        matrix, labels = small_matrix()
        mutated = mutate(matrix, seed=11)
        meta, arrays = mutation_record(matrix, mutated, labels, seq=1)
        rebuilt, rebuilt_labels = apply_mutation(matrix, meta, arrays)
        assert np.array_equal(rebuilt.provides, mutated.provides)
        assert np.array_equal(rebuilt.coverage, mutated.coverage)
        assert np.array_equal(rebuilt_labels, labels)

    def test_duplicate_replay_is_idempotent(self):
        matrix, labels = small_matrix()
        mutated = mutate(matrix, seed=11)
        meta, arrays = mutation_record(matrix, mutated, labels, seq=1)
        once, _ = apply_mutation(matrix, meta, arrays)
        twice, _ = apply_mutation(once, meta, arrays)
        assert np.array_equal(once.provides, twice.provides)
        assert np.array_equal(once.coverage, twice.coverage)

    def test_width_growth_round_trips(self):
        matrix, labels = small_matrix(n_triples=80)
        rng = np.random.default_rng(5)
        extra_p = rng.random((matrix.n_sources, 30)) < 0.5
        extra_c = extra_p | (rng.random((matrix.n_sources, 30)) < 0.3)
        grown = ObservationMatrix(
            np.hstack([matrix.provides, extra_p]),
            matrix.source_names,
            coverage=np.hstack([matrix.coverage, extra_c]),
        )
        grown_labels = np.concatenate([labels, rng.random(30) < 0.5])
        meta, arrays = mutation_record(matrix, grown, grown_labels, seq=1)
        rebuilt, rebuilt_labels = apply_mutation(matrix, meta, arrays)
        assert rebuilt.n_triples == 110
        assert np.array_equal(rebuilt.provides, grown.provides)
        assert np.array_equal(rebuilt.coverage, grown.coverage)
        assert np.array_equal(rebuilt_labels, grown_labels)

    def test_width_shrink_round_trips(self):
        matrix, labels = small_matrix(n_triples=80)
        shrunk = ObservationMatrix(
            matrix.provides[:, :50],
            matrix.source_names,
            coverage=matrix.coverage[:, :50],
        )
        meta, arrays = mutation_record(matrix, shrunk, labels[:50], seq=1)
        rebuilt, rebuilt_labels = apply_mutation(matrix, meta, arrays)
        assert rebuilt.n_triples == 50
        assert np.array_equal(rebuilt.provides, shrunk.provides)
        assert np.array_equal(rebuilt_labels, labels[:50])

    def test_source_set_changes_are_rejected(self):
        matrix, labels = small_matrix(n_sources=6)
        fewer = ObservationMatrix(
            matrix.provides[:4],
            matrix.source_names[:4],
            coverage=matrix.coverage[:4],
        )
        with pytest.raises(ValueError, match="fixed source set"):
            mutation_record(matrix, fewer, labels, seq=1)
        meta, arrays = mutation_record(matrix, mutate(matrix, 1), labels, seq=1)
        with pytest.raises(PersistFormatError, match="sources"):
            apply_mutation(fewer, meta, arrays)

    def test_wrong_labels_shape_rejected(self):
        matrix, labels = small_matrix()
        with pytest.raises(ValueError, match="labels shape"):
            mutation_record(matrix, mutate(matrix, 1), labels[:-1], seq=1)


class TestSnapshots:
    def _state(self, generation=2, wal_seq=7, statistics=None):
        matrix, labels = small_matrix()
        return SnapshotState(
            observations=matrix,
            labels=labels,
            config={"method": "precreccorr", "threshold": 0.5},
            generation=generation,
            wal_seq=wal_seq,
            mutation_steps=3,
            statistics=statistics,
        )

    def test_round_trip_exact(self):
        stats = {"counts": np.arange(10, dtype=np.int64)}
        state = self._state(statistics=stats)
        decoded = decode_snapshot(encode_snapshot(state))
        assert np.array_equal(
            decoded.observations.provides, state.observations.provides
        )
        assert np.array_equal(
            decoded.observations.coverage, state.observations.coverage
        )
        assert decoded.observations.source_names == state.observations.source_names
        assert np.array_equal(decoded.labels, state.labels)
        assert decoded.config == state.config
        assert decoded.generation == 2
        assert decoded.wal_seq == 7
        assert decoded.mutation_steps == 3
        assert np.array_equal(decoded.statistics["counts"], stats["counts"])

    def test_file_names_sort_newest_first(self, tmp_path):
        for index, seq in [(1, 3), (3, 20), (2, 9)]:
            write_snapshot(tmp_path, self._state(wal_seq=seq), index)
        paths = iter_snapshot_paths(tmp_path)
        assert [parse_snapshot_name(p)[0] for p in paths] == [3, 2, 1]
        assert parse_snapshot_name(snapshot_path(tmp_path, 4, 33)) == (4, 33)
        assert parse_snapshot_name(tmp_path / "other.rsnp") is None

    def test_corrupt_file_rejected_on_load(self, tmp_path):
        path = write_snapshot(tmp_path, self._state(), 1)
        data = bytearray(path.read_bytes())
        data[-1] ^= 0x01
        path.write_bytes(bytes(data))
        with pytest.raises(PersistFormatError):
            load_snapshot(path)

    def test_prune_keeps_at_least_two(self, tmp_path):
        for index in range(1, 6):
            write_snapshot(tmp_path, self._state(wal_seq=index), index)
        removed = prune_snapshots(tmp_path, keep=1)
        assert removed == 3
        assert [parse_snapshot_name(p)[0] for p in iter_snapshot_paths(tmp_path)] == [
            5,
            4,
        ]


def _assert_recovered_scores_match(
    recovered, live_session: ScoringSession, probe: ObservationMatrix
) -> None:
    """The recovery contract: exact equality, not approximate."""
    expected = live_session.score(probe)
    actual = recovered.session.score(probe)
    assert np.array_equal(actual, expected)
    diff = np.abs(actual - expected)
    assert float(diff.max() if diff.size else 0.0) == 0.0


class TestCheckpointRecovery:
    def test_cold_rebuild_matches_live_session(self, tmp_path):
        matrix, labels = small_matrix()
        session = ScoringSession(matrix, labels, method="precreccorr")
        checkpointer = Checkpointer.attach(session, matrix, labels, tmp_path)
        current = matrix
        for seed in (21, 22, 23):
            current = mutate(current, seed)
            checkpointer.log_mutation(current)
            if seed != 23:
                session.refit_delta(current, labels)
        stats = checkpointer.stats
        assert stats["mutations"] == 3
        assert stats["refits"] == 2
        assert not stats["degraded"]
        checkpointer.close()
        session.attach_checkpointer(None)

        recovered = RecoveryManager(tmp_path).recover()
        assert recovered.generation == 2
        assert recovered.refits_replayed == 2
        assert recovered.statistics_verified
        # The durable observation state includes the mutation that was
        # logged but never refitted on -- exactly what was admitted.
        assert np.array_equal(recovered.observations.provides, current.provides)
        _assert_recovered_scores_match(recovered, session, current)
        session.close()
        recovered.session.close()

    def test_long_wal_suffix_replays_to_a_cold_oracle(self, tmp_path):
        # Snapshot cadence suppressed: everything after snapshot 0 --
        # 16 mutation records and 4 refits' begin/publish pairs -- must
        # replay from the WAL.
        dataset = get_dataset("synthetic-independent", seed=17)
        labels = dataset.labels
        trace = mutation_trace(dataset.observations, 16, 0.05, seed=2)
        session = ScoringSession(dataset.observations, labels)
        checkpointer = Checkpointer.attach(
            session, dataset.observations, labels, tmp_path,
            snapshot_every=10 ** 6,
        )
        for step, matrix in enumerate(trace):
            checkpointer.log_mutation(matrix, step=step)
            if (step + 1) % 4 == 0:
                session.refit_delta(matrix, labels)
        assert checkpointer.stats["snapshots"] == 1
        checkpointer.close()
        session.attach_checkpointer(None)
        session.close()

        recovered = RecoveryManager(tmp_path).recover()
        assert recovered.records_replayed == 16 + 2 * 4
        assert recovered.refits_replayed == 4
        assert recovered.statistics_verified
        final = trace[-1]
        oracle = ScoringSession(final, labels)
        assert np.array_equal(
            recovered.session.score(final), oracle.score(final)
        )
        oracle.close()
        recovered.session.close()

    def test_recovery_without_any_snapshot_raises(self, tmp_path):
        assert not RecoveryManager.has_state(tmp_path)
        with pytest.raises(RecoveryError, match="no valid snapshot"):
            RecoveryManager(tmp_path).recover()

    def test_corrupted_newest_snapshot_falls_back_to_older(self, tmp_path):
        matrix, labels = small_matrix()
        session = ScoringSession(matrix, labels)
        checkpointer = Checkpointer.attach(
            session, matrix, labels, tmp_path, snapshot_every=1
        )
        current = matrix
        for seed in (31, 32):
            current = mutate(current, seed)
            checkpointer.log_mutation(current)
            session.refit_delta(current, labels)
        assert checkpointer.stats["snapshots"] == 3  # begin + 2 refits
        checkpointer.close()
        session.attach_checkpointer(None)

        newest = iter_snapshot_paths(tmp_path)[0]
        newest.write_bytes(b"garbage that is not a frame")
        recovered = RecoveryManager(tmp_path).recover()
        assert len(recovered.snapshots_skipped) == 1
        assert newest.name in recovered.snapshots_skipped[0]
        assert recovered.snapshot_path.name != newest.name
        # Older snapshot means a longer replay, same exact end state.
        assert recovered.records_replayed >= 3
        assert recovered.generation == 2
        _assert_recovered_scores_match(recovered, session, current)
        session.close()
        recovered.session.close()

    def test_mutation_logged_but_never_applied_is_recovered(self, tmp_path):
        # The kill-between-append-and-apply shape: the WAL has the
        # mutation, the dead process never acted on it.
        matrix, labels = small_matrix()
        session = ScoringSession(matrix, labels)
        checkpointer = Checkpointer.attach(session, matrix, labels, tmp_path)
        mutated = mutate(matrix, seed=41)
        checkpointer.log_mutation(mutated)
        checkpointer.close()
        session.attach_checkpointer(None)

        recovered = RecoveryManager(tmp_path).recover()
        assert recovered.generation == 0
        assert np.array_equal(recovered.observations.provides, mutated.provides)
        # The session itself still serves the published generation 0.
        _assert_recovered_scores_match(recovered, session, mutated)
        session.close()
        recovered.session.close()

    def test_dangling_refit_begin_rolls_back(self, tmp_path):
        matrix, labels = small_matrix()
        session = ScoringSession(matrix, labels)
        checkpointer = Checkpointer.attach(session, matrix, labels, tmp_path)
        mutated = mutate(matrix, seed=51)
        checkpointer.log_mutation(mutated)
        session.refit_delta(mutated, labels)
        # Simulate dying between refit_begin and refit_publish by
        # appending a bare begin record to the same WAL.
        checkpointer.close()
        session.attach_checkpointer(None)
        wal = WriteAheadLog(tmp_path / WAL_FILENAME)
        wal.append(*refit_begin_record(seq=99, mode="delta"))
        wal.close()

        recovered = RecoveryManager(tmp_path).recover()
        assert recovered.rolled_back_refits == 1
        assert recovered.generation == 1
        assert recovered.refits_replayed == 1
        _assert_recovered_scores_match(recovered, session, mutated)
        session.close()
        recovered.session.close()

    def test_width_change_across_snapshot_boundary(self, tmp_path):
        matrix, labels = small_matrix(n_triples=70)
        session = ScoringSession(matrix, labels)
        checkpointer = Checkpointer.attach(
            session, matrix, labels, tmp_path, snapshot_every=1
        )
        # Refit once at the old width -- triggers a snapshot.
        step1 = mutate(matrix, seed=61)
        checkpointer.log_mutation(step1)
        session.refit_delta(step1, labels)
        # Then grow the matrix past that snapshot boundary.
        rng = np.random.default_rng(62)
        extra_p = rng.random((matrix.n_sources, 25)) < 0.5
        extra_c = extra_p | (rng.random((matrix.n_sources, 25)) < 0.3)
        grown = ObservationMatrix(
            np.hstack([step1.provides, extra_p]),
            matrix.source_names,
            coverage=np.hstack([step1.coverage, extra_c]),
        )
        grown_labels = np.concatenate([labels, rng.random(25) < 0.5])
        checkpointer.log_mutation(grown, grown_labels)
        session.refit_delta(grown, grown_labels)
        checkpointer.close()
        session.attach_checkpointer(None)

        # Force the replay to cross the width change: drop every
        # snapshot except the oldest (written at the original width).
        paths = iter_snapshot_paths(tmp_path)
        for path in paths[:-1]:
            path.unlink()
        recovered = RecoveryManager(tmp_path).recover()
        assert recovered.observations.n_triples == 95
        assert recovered.generation == 2
        _assert_recovered_scores_match(recovered, session, grown)
        session.close()
        recovered.session.close()

    def test_resume_continues_the_same_wal_and_numbering(self, tmp_path):
        matrix, labels = small_matrix()
        session = ScoringSession(matrix, labels)
        checkpointer = Checkpointer.attach(session, matrix, labels, tmp_path)
        mutated = mutate(matrix, seed=71)
        checkpointer.log_mutation(mutated)
        session.refit_delta(mutated, labels)
        pre_seq = checkpointer.stats["seq"]
        checkpointer.close()
        session.attach_checkpointer(None)
        session.close()

        manager = RecoveryManager(tmp_path)
        recovered = manager.recover()
        resumed = manager.resume(recovered)
        assert resumed.stats["seq"] == pre_seq
        assert resumed.stats["generation"] == 1
        again = mutate(mutated, seed=72)
        resumed.log_mutation(again)
        recovered.session.refit_delta(again, recovered.labels)
        assert resumed.stats["seq"] == pre_seq + 3  # mutation + begin + publish
        assert resumed.stats["generation"] == 2
        resumed.close()
        recovered.session.attach_checkpointer(None)
        recovered.session.close()

        # And the twice-recovered lineage still matches a cold build.
        final = RecoveryManager(tmp_path).recover()
        oracle = ScoringSession(again, labels)
        assert np.array_equal(final.session.score(again), oracle.score(again))
        oracle.close()
        final.session.close()

    @pytest.mark.parametrize("refit", ["refit", "refit_delta"])
    def test_label_only_refit_is_recovered(self, tmp_path, refit):
        # A refit on the same matrix with new labels dirties no column:
        # only the labels say the refit input changed, and recovery must
        # replay the refit with them.
        dataset = get_dataset("synthetic-correlated", seed=0)
        matrix, labels = dataset.observations, dataset.labels
        session = ScoringSession(matrix, labels)
        checkpointer = Checkpointer.attach(session, matrix, labels, tmp_path)
        flipped = labels.copy()
        flipped[::3] = ~flipped[::3]
        getattr(session, refit)(matrix, flipped)
        assert checkpointer.stats["mutations"] == 1
        checkpointer.close()
        session.attach_checkpointer(None)

        recovered = RecoveryManager(tmp_path).recover()
        assert recovered.generation == 1
        assert np.array_equal(recovered.labels, flipped)
        _assert_recovered_scores_match(recovered, session, matrix)
        session.close()
        recovered.session.close()

    def test_em_sessions_are_rejected(self, tmp_path):
        matrix, labels = small_matrix()
        session = ScoringSession(matrix, labels, method="em")
        with pytest.raises(ValueError, match="bit-identity"):
            Checkpointer.attach(session, matrix, labels, tmp_path)
        session.close()

    def test_persist_config_round_trips_options(self, tmp_path):
        matrix, labels = small_matrix()
        session = ScoringSession(
            matrix, labels, method="precreccorr", threshold=0.6, smoothing=0.01
        )
        checkpointer = Checkpointer.attach(session, matrix, labels, tmp_path)
        checkpointer.close()
        session.attach_checkpointer(None)
        recovered = RecoveryManager(tmp_path).recover()
        assert recovered.config["method"] == "precreccorr"
        assert recovered.config["threshold"] == 0.6
        assert recovered.config["smoothing"] == 0.01
        _assert_recovered_scores_match(recovered, session, matrix)
        session.close()
        recovered.session.close()

    def _checkpoint_written_with(self, tmp_path, edit, **options):
        """A checkpoint whose snapshot configs ``edit`` rewrites.

        Snapshots written while a since-removed switch existed recorded
        it; each snapshot is re-written the way such a writer would have.
        """
        matrix, labels = small_matrix()
        session = ScoringSession(
            matrix, labels, method="precreccorr", **options
        )
        checkpointer = Checkpointer.attach(session, matrix, labels, tmp_path)
        checkpointer.close()
        session.attach_checkpointer(None)
        for path in iter_snapshot_paths(tmp_path):
            state = load_snapshot(path)
            config = edit(dict(state.config))
            index, _ = parse_snapshot_name(path)
            write_snapshot(
                tmp_path, dataclasses.replace(state, config=config), index,
                fsync=False,
            )
            assert load_snapshot(path).config == config
        return session, matrix

    def _checkpoint_with_engine_key(self, tmp_path, engine):
        session, matrix = self._checkpoint_written_with(
            tmp_path, lambda config: dict(config, engine=engine)
        )
        assert "engine" not in session.persist_config()
        return session, matrix

    def test_snapshot_naming_the_vectorized_engine_recovers(self, tmp_path):
        session, matrix = self._checkpoint_with_engine_key(
            tmp_path, "vectorized"
        )
        recovered = RecoveryManager(tmp_path).recover()
        assert recovered.statistics_verified
        _assert_recovered_scores_match(recovered, session, matrix)
        session.close()
        recovered.session.close()

    def test_snapshot_naming_the_legacy_engine_is_refused(self, tmp_path):
        # Legacy PrecRec/aggressive scores differ from the packed path in
        # the last ulp, so a silent switch would break recovered-vs-live
        # bit-identity.
        session, _ = self._checkpoint_with_engine_key(tmp_path, "legacy")
        with pytest.raises(RecoveryError, match="legacy"):
            RecoveryManager(tmp_path).recover()
        session.close()

    def test_snapshot_with_sharding_settings_recovers(self, tmp_path):
        # Written while sharded execution existed and the threaded batcher
        # could be switched off: the worker count, shard size and
        # micro-batch mode at the top level, the pool backend among the
        # options.  All described the host, never the scores.
        def sharding_era(config):
            options = dict(config["options"], parallel_backend="process")
            return dict(
                config, workers=2, shard_size=64, micro_batch="off",
                options=options,
            )

        session, matrix = self._checkpoint_written_with(
            tmp_path, sharding_era, max_plan_cache_entries=64
        )
        written = session.persist_config()
        assert not {"workers", "shard_size", "micro_batch"} & set(written)
        assert written["options"] == {"max_plan_cache_entries": 64}
        recovered = RecoveryManager(tmp_path).recover()
        assert recovered.statistics_verified
        # The options that still exist survive the rebuild.
        assert recovered.session.fuser.plan_cache.stats["max_entries"] == 64
        _assert_recovered_scores_match(recovered, session, matrix)
        recovered.session.close()
        # workers=1 stays a valid override; any other count is refused.
        serial = RecoveryManager(tmp_path).recover(workers=1)
        _assert_recovered_scores_match(serial, session, matrix)
        serial.session.close()
        with pytest.raises(ValueError, match="sharded execution was removed"):
            RecoveryManager(tmp_path).recover(workers=2)
        session.close()


class TestMutationTraces:
    def test_record_then_replay_reproduces_the_matrices(self, tmp_path):
        matrix, labels = small_matrix()
        trace = mutation_trace(matrix, steps=5, frac=0.1, seed=9)
        path = tmp_path / "trace.wal"
        written = record_mutation_trace(path, matrix, trace, labels)
        assert written == 5
        replayed, replayed_labels = replay_mutation_trace(path, matrix)
        assert len(replayed) == 5
        for original, rebuilt in zip(trace, replayed):
            assert np.array_equal(rebuilt.provides, original.provides)
            assert np.array_equal(rebuilt.coverage, original.coverage)
        assert np.array_equal(replayed_labels, labels)

    def test_limit_caps_the_replay(self, tmp_path):
        matrix, labels = small_matrix()
        trace = mutation_trace(matrix, steps=4, frac=0.1, seed=9)
        path = tmp_path / "trace.wal"
        record_mutation_trace(path, matrix, trace, labels)
        replayed, _ = replay_mutation_trace(path, matrix, limit=2)
        assert len(replayed) == 2

    def test_existing_file_is_refused(self, tmp_path):
        matrix, labels = small_matrix()
        path = tmp_path / "trace.wal"
        path.write_bytes(b"")
        with pytest.raises(FileExistsError):
            record_mutation_trace(path, matrix, [], labels)

    def test_trace_without_mutations_is_an_error(self, tmp_path):
        matrix, _ = small_matrix()
        path = tmp_path / "markers.wal"
        wal = WriteAheadLog(path)
        wal.append(*refit_publish_record(seq=1, generation=1))
        wal.close()
        with pytest.raises(ValueError, match="no mutation records"):
            replay_mutation_trace(path, matrix)

    def test_a_serving_wal_replays_directly_as_a_trace(self, tmp_path):
        # The format-identity claim: a checkpoint directory's wal.log is
        # itself a mutation trace (refit markers skipped).
        matrix, labels = small_matrix()
        session = ScoringSession(matrix, labels)
        checkpointer = Checkpointer.attach(session, matrix, labels, tmp_path)
        states = []
        current = matrix
        for step, seed in enumerate((81, 82, 83)):
            current = mutate(current, seed)
            checkpointer.log_mutation(current, step=step)
            states.append(current)
            if step == 1:
                session.refit_delta(current, labels)
        checkpointer.close()
        session.attach_checkpointer(None)
        session.close()

        replayed, _ = replay_mutation_trace(tmp_path / WAL_FILENAME, matrix)
        assert len(replayed) == len(states)
        for original, rebuilt in zip(states, replayed):
            assert np.array_equal(rebuilt.provides, original.provides)
