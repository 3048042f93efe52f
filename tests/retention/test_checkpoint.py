"""Checkpoint durability: bit-exact round-trips, clean rejections.

``restore(checkpoint(S))`` must reproduce ``store_digest(S)`` exactly
for all five stores, epoch state included — and a damaged checkpoint
(truncated, bit-flipped, version-bumped, missing files) must be
rejected *before the first mutation*: a failed restore leaves the
target collector byte-identical to how it found it, never partially
overwritten.
"""

from __future__ import annotations

import json
import os
import threading

import numpy as np
import pytest

from repro.core import primitives
from repro.core.batch import ReportBatch
from repro.core.collector import Collector
from repro.core.reporter import Reporter
from repro.core.translator import Translator
from repro.retention import checkpoint
from repro.retention.checkpoint import (CHECKPOINT_SCHEMA, MANIFEST_NAME,
                                        CheckpointError, read_manifest,
                                        restore_checkpoint,
                                        write_checkpoint)
from repro.retention.epochs import EpochManager, RetentionPolicy
from repro.runtime.engine import store_digest


def _twin() -> Collector:
    """Same geometry as the shared ``collector`` fixture."""
    col = Collector()
    col.serve_keywrite(slots=4096, data_bytes=4)
    col.serve_postcarding(chunks=1024, value_set=range(256),
                          cache_slots=256)
    col.serve_append(lists=8, capacity=128, data_bytes=4, batch_size=4)
    col.serve_keyincrement(slots_per_row=512, rows=4)
    col.serve_sketch(width=32, depth=4, expected_reporters=2,
                     batch_columns=8)
    return col


def _drive_all_five(collector: Collector) -> Translator:
    """Land nonzero bytes in every one of the five stores."""
    tr = Translator()
    collector.connect_translator(tr)
    r1 = Reporter("ck1", 1, transmit=tr.handle_report)
    r2 = Reporter("ck2", 2, transmit=tr.handle_report)

    keys = [f"flow{i}".encode() for i in range(32)]
    r1.send_batch(ReportBatch.key_writes(
        keys, [bytes([i, i, i, i]) for i in range(32)], redundancy=2))
    r1.send_batch(ReportBatch.key_increments(
        keys, [i + 1 for i in range(32)], redundancy=2))
    r1.send_batch(ReportBatch.appends(
        [i % 8 for i in range(24)],
        [bytes([i, 0, 0, i]) for i in range(24)]))
    tr.flush_appends()
    r1.send_batch(ReportBatch.postcards(
        keys[:8], [0] * 8, list(range(8)), path_lengths=[1] * 8))
    width, depth = 32, 4
    columns = list(range(width))
    rows = [tuple((c + r) % 97 for r in range(depth)) for c in columns]
    for rep in (r1, r2):                    # expected_reporters=2
        rep.send_batch(ReportBatch.sketch_columns(0, columns, rows))
    return tr


def test_roundtrip_is_bit_exact_for_all_five_stores(collector, tmp_path):
    _drive_all_five(collector)
    digest = store_digest(collector)
    path = str(tmp_path / "ckpt")
    write_checkpoint(collector, path)

    manifest = read_manifest(path)
    assert manifest["schema"] == CHECKPOINT_SCHEMA
    assert sorted(region["attr"] for region in manifest["regions"]) == \
        ["append", "keyincrement", "keywrite", "postcarding", "sketch"]
    assert manifest["store_digest"] == digest

    twin = _twin()
    report = restore_checkpoint(twin, path)
    assert report.store_digest == digest
    assert store_digest(twin) == digest
    # Restored stores answer queries, not just hash right.
    assert twin.keywrite.query(b"flow3", redundancy=2).value == \
        bytes([3, 3, 3, 3])
    assert twin.keyincrement.query(b"flow3", redundancy=2) >= 4


def test_roundtrip_carries_epoch_state(collector, tmp_path):
    tr = _drive_all_five(collector)
    em = EpochManager(collector, policy=RetentionPolicy(window=4))
    em.rotate()
    tr.flush_appends()
    em.rotate()
    path = str(tmp_path / "ckpt")
    write_checkpoint(collector, path, manager=em, batch_seq=17)

    twin = _twin()
    em2 = EpochManager(twin, policy=RetentionPolicy(window=4))
    report = restore_checkpoint(twin, path, manager=em2)
    assert report.batch_seq == 17
    assert em2.current_epoch == em.current_epoch
    assert em2.retained_epochs() == em.retained_epochs()
    kw = em.trackers["keywrite"]
    assert np.array_equal(em2.trackers["keywrite"].gens, kw.gens)
    assert em2.trackers["append"].segments == \
        em.trackers["append"].segments
    deltas, deltas2 = em.trackers["sketch"].deltas, \
        em2.trackers["sketch"].deltas
    assert [epoch for epoch, _ in deltas2] == [epoch for epoch, _ in deltas]
    assert all(np.array_equal(a, b)
               for (_, a), (_, b) in zip(deltas2, deltas))
    # The restored manager keeps rotating correctly from here.
    before = em2.current_epoch
    em2.rotate()
    assert em2.current_epoch == before + 1


def test_checkpoint_refuses_to_clobber_without_overwrite(collector,
                                                         tmp_path):
    path = str(tmp_path / "ckpt")
    write_checkpoint(collector, path)
    with pytest.raises(CheckpointError):
        write_checkpoint(collector, path)
    write_checkpoint(collector, path, overwrite=True)     # explicit ok


def _corrupt_truncate_region(path: str) -> None:
    target = os.path.join(path, "keywrite.bin")
    size = os.path.getsize(target)
    with open(target, "r+b") as handle:
        handle.truncate(size // 2)


def _flip(target: str, offset: int) -> None:
    with open(target, "r+b") as handle:
        handle.seek(offset)
        byte = handle.read(1)
        handle.seek(offset)
        handle.write(bytes([byte[0] ^ 0x40]))


def _corrupt_bit_flip(path: str) -> None:
    _flip(os.path.join(path, "append.bin"), 5)


def _flip_file(attr: str):
    """Flip one bit in the middle of ``attr``'s region file."""
    def corrupt(path: str) -> None:
        target = os.path.join(path, f"{attr}.bin")
        _flip(target, os.path.getsize(target) // 2)
    return corrupt


def _corrupt_retention_blob(path: str) -> None:
    blob = read_manifest(path)["retention"]["blobs"][0]
    _flip(os.path.join(path, blob["file"]), blob["length"] // 2)


def _corrupt_version_bump(path: str) -> None:
    target = os.path.join(path, MANIFEST_NAME)
    with open(target, encoding="utf-8") as handle:
        manifest = json.load(handle)
    manifest["schema"] = "repro-ckpt/2"
    with open(target, "w", encoding="utf-8") as handle:
        json.dump(manifest, handle)


def _corrupt_missing_region(path: str) -> None:
    os.unlink(os.path.join(path, "sketch.bin"))


def _corrupt_manifest_json(path: str) -> None:
    target = os.path.join(path, MANIFEST_NAME)
    size = os.path.getsize(target)
    with open(target, "r+b") as handle:
        handle.truncate(size - 7)


def _corrupt_crc_record(path: str) -> None:
    target = os.path.join(path, MANIFEST_NAME)
    with open(target, encoding="utf-8") as handle:
        manifest = json.load(handle)
    manifest["regions"][0]["crc32"] ^= 0x1
    with open(target, "w", encoding="utf-8") as handle:
        json.dump(manifest, handle)


def _corrupt_retention_meta(path: str) -> None:
    # The manifest carries no CRC of its own: only importing the
    # tracker state can tell this geometry is off by one.
    target = os.path.join(path, MANIFEST_NAME)
    with open(target, encoding="utf-8") as handle:
        manifest = json.load(handle)
    manifest["retention"]["meta"]["trackers"]["keywrite"]["cells"] += 1
    with open(target, "w", encoding="utf-8") as handle:
        json.dump(manifest, handle)


def _corrupt_store_digest(path: str) -> None:
    # Every region still matches its CRC; only the digest lies.
    target = os.path.join(path, MANIFEST_NAME)
    with open(target, encoding="utf-8") as handle:
        manifest = json.load(handle)
    manifest["store_digest"] = "sha256:" + "0" * 64
    with open(target, "w", encoding="utf-8") as handle:
        json.dump(manifest, handle)


def _corrupt_crc_and_truncate(path: str) -> None:
    # Two faults: the first region's CRC record and the second region's
    # length.  Every length is checked before any CRC, so the truncation
    # is what the error names.
    _corrupt_crc_record(path)
    target = os.path.join(path, read_manifest(path)["regions"][1]["file"])
    with open(target, "r+b") as handle:
        handle.truncate(os.path.getsize(target) // 2)


_DAMAGE = [("truncated-region", _corrupt_truncate_region),
           ("bit-flip", _corrupt_bit_flip),
           ("version-bump", _corrupt_version_bump),
           ("missing-region", _corrupt_missing_region),
           ("manifest-truncated", _corrupt_manifest_json),
           ("crc-mismatch", _corrupt_crc_record),
           ("store-digest", _corrupt_store_digest),
           *((f"bit-flip-{attr}", _flip_file(attr)) for attr in
             ("keywrite", "keyincrement", "postcarding", "append",
              "sketch")),
           ("crc-and-truncated", _corrupt_crc_and_truncate)]


@pytest.mark.parametrize("corrupt, manager_class", [
    *(pytest.param(corrupt, None, id=name) for name, corrupt in _DAMAGE),
    *(pytest.param(corrupt, EpochManager, id=f"{name}-with-manager")
      for name, corrupt in _DAMAGE),
    # Only a manager restore reads the tracker state.
    pytest.param(_corrupt_retention_meta, EpochManager,
                 id="retention-meta-with-manager"),
    pytest.param(_corrupt_retention_blob, EpochManager,
                 id="bit-flip-retention-blob-with-manager"),
])
def test_damaged_checkpoints_reject_cleanly(collector, tmp_path,
                                            corrupt, manager_class):
    _drive_all_five(collector)
    manager = EpochManager(collector)
    manager.rotate()
    path = str(tmp_path / "ckpt")
    write_checkpoint(collector, path, manager=manager)
    corrupt(path)

    # The target already holds unrelated data: rejection must leave
    # every byte of it — and of its epoch state — alone (no partial
    # restore, ever).
    twin = _twin()
    tr = Translator()
    twin.connect_translator(tr)
    rep = Reporter("pre", 1, transmit=tr.handle_report)
    rep.key_write(b"preexisting", b"\xaa\xbb\xcc\xdd", redundancy=2)
    twin_manager = None
    if manager_class is not None:
        twin_manager = manager_class(twin)
        twin_manager.rotate()

    def state():
        return (store_digest(twin),
                twin_manager and twin_manager.export_state())

    before = state()
    with pytest.raises(CheckpointError):
        restore_checkpoint(twin, path, manager=twin_manager)
    assert state() == before
    assert twin.keywrite.query(b"preexisting", redundancy=2).value == \
        b"\xaa\xbb\xcc\xdd"


def test_a_write_landing_mid_checkpoint_still_restores(collector, tmp_path,
                                                       monkeypatch):
    """The files, their CRCs and the manifest digest come from one copy
    of each region: a write landing after the first file is on disk
    cannot make the checkpoint refuse its own restore."""
    _drive_all_five(collector)
    first, store = primitives.served(collector)[0]
    copied = bytes(store.region.buf)
    real_write_blob = checkpoint._write_blob
    written = []

    def write_then_flip(target, data):
        real_write_blob(target, data)
        if not written:
            store.region.buf[0] ^= 0xFF        # the live region moves on
        written.append(os.path.basename(target))

    monkeypatch.setattr(checkpoint, "_write_blob", write_then_flip)
    path = str(tmp_path / "ckpt")
    write_checkpoint(collector, path)
    assert written[0] == f"{first.store}.bin"

    twin = _twin()
    report = restore_checkpoint(twin, path)
    for primitive, restored in primitives.served(twin):
        with open(os.path.join(path, f"{primitive.store}.bin"), "rb") as f:
            assert bytes(restored.region.buf) == f.read()
    assert bytes(getattr(twin, first.store).region.buf) == copied
    assert report.store_digest == store_digest(twin)


def test_a_failed_write_leaves_no_thread_and_no_temp_directory(
        collector, tmp_path, monkeypatch):
    _drive_all_five(collector)
    path = str(tmp_path / "ckpt")
    write_checkpoint(collector, path)
    kept = store_digest(collector)
    real_write_blob = checkpoint._write_blob
    calls = []

    def fail_second(target, data):
        calls.append(target)
        if len(calls) == 2:
            raise OSError(28, "No space left on device")
        real_write_blob(target, data)

    monkeypatch.setattr(checkpoint, "_write_blob", fail_second)
    _drive_all_five(collector)                  # the stores move on
    with pytest.raises(CheckpointError, match="No space left"):
        write_checkpoint(collector, path, overwrite=True)
    assert not [thread.name for thread in threading.enumerate()
                if thread.name.startswith("checkpoint-hash")]
    # The temp directory is gone and the old checkpoint still stands.
    assert os.listdir(tmp_path) == ["ckpt"]
    assert restore_checkpoint(_twin(), path).store_digest == kept


def test_restore_rejects_geometry_and_store_set_mismatch(collector,
                                                         tmp_path):
    _drive_all_five(collector)
    path = str(tmp_path / "ckpt")
    write_checkpoint(collector, path)

    partial = Collector()
    partial.serve_keywrite(slots=4096, data_bytes=4)
    with pytest.raises(CheckpointError):
        restore_checkpoint(partial, path)

    resized_full = Collector()
    resized_full.serve_keywrite(slots=2048, data_bytes=4)   # wrong size
    resized_full.serve_postcarding(chunks=1024, value_set=range(256),
                                   cache_slots=256)
    resized_full.serve_append(lists=8, capacity=128, data_bytes=4,
                              batch_size=4)
    resized_full.serve_keyincrement(slots_per_row=512, rows=4)
    resized_full.serve_sketch(width=32, depth=4, expected_reporters=2,
                              batch_columns=8)
    with pytest.raises(CheckpointError):
        restore_checkpoint(resized_full, path)


#: A ``repro-ckpt/1`` checkpoint written by an earlier build, whose
#: manifest ``params`` came from a hand-declared table: the
#: :func:`_tiny` stores with a few reports each, sealed by two rotations
#: of a window-2 :class:`EpochManager`, at ``batch_seq`` 2.
FIXTURE = os.path.join(os.path.dirname(__file__), "data", "ckpt-v1")


def _tiny() -> Collector:
    """The fixture's geometry: all five stores, a few cells each."""
    col = Collector("fixture")
    col.serve_keywrite(slots=32, data_bytes=4)
    col.serve_keyincrement(slots_per_row=16, rows=2)
    col.serve_postcarding(chunks=16, value_set=range(16), hops=3,
                          cache_slots=8)
    col.serve_append(lists=2, capacity=8, data_bytes=4, batch_size=2)
    col.serve_sketch(width=8, depth=2, expected_reporters=1,
                     batch_columns=4)
    return col


def test_an_earlier_builds_checkpoint_restores_and_rewrites_alike(
        tmp_path):
    twin = _tiny()
    manager = EpochManager(twin, policy=RetentionPolicy(window=2))
    report = restore_checkpoint(twin, FIXTURE, manager=manager)
    assert report.store_digest == (
        "sha256:c78eaedf31c592890f97e8fb831463ad69c60fafb6dd00d0e6b4d58b9716fe45")
    assert (report.batch_seq, manager.current_epoch) == (2, 3)
    # Written again, it records the same layout params and tracker state.
    path = str(tmp_path / "again")
    write_checkpoint(twin, path, manager=manager, batch_seq=2)
    again, recorded = read_manifest(path), read_manifest(FIXTURE)
    assert again["regions"] == recorded["regions"]
    assert again["retention"] == recorded["retention"]
