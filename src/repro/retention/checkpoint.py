"""Crash-consistent collector checkpoints (``repro-ckpt/1``).

A checkpoint is a *directory*: one binary file per served store region
(plus the epoch manager's baseline/delta blobs) and a ``MANIFEST.json``
naming every file with its length and CRC-32.  Crash consistency comes
from the classic write-temp/fsync/rename dance:

1. every blob is written and fsynced into ``<path>.tmp.<pid>.<n>``,
2. the manifest is written and fsynced last,
3. the temp directory is atomically renamed onto ``<path>``,
4. the parent directory is fsynced.

A crash at any point leaves either the old checkpoint or the new one —
never a torn mix — and a temp directory that a later overwrite simply
ignores.

Step 1 copies each served region once, just before its file is
written: the file, its CRC-32 and that region's share of the
manifest's ``store_digest`` all come from that one snapshot, so a
write landing mid-checkpoint cannot make the digest disagree with the
files.  The SHA-256 runs on a single worker thread, handed each copy
in served order, while the calling thread CRCs, writes and fsyncs the
files (both hashes release the GIL).

Restore is validate-then-apply: *every* byte of *every* region is read
and length-checked, then CRC-checked on the worker while the calling
thread hashes the staged regions against the manifest's digest — all
before the first store mutation, so a corrupt checkpoint is rejected
with :class:`CheckpointError` and the collector is left untouched —
never a partial restore.

The worker thread lives for one call: it is created inside
:func:`write_checkpoint` / :func:`restore_checkpoint`, reads only the
call's private copies, and is joined before the call returns or raises.
"""

from __future__ import annotations

import itertools
import json
import os
import queue
import shutil
import zlib
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

from repro.core import primitives
from repro.runtime.engine import regions_digest, store_digest

#: The one manifest schema this build reads and writes.
CHECKPOINT_SCHEMA = "repro-ckpt/1"
MANIFEST_NAME = "MANIFEST.json"

#: Monotonic suffix for temp directories (unique within a process).
_TMP_SEQ = itertools.count()


class CheckpointError(RuntimeError):
    """A checkpoint could not be written or failed validation."""


@dataclass(frozen=True)
class RestoreReport:
    """What a successful restore brought back."""

    path: str
    batch_seq: int | None
    attrs: tuple
    store_digest: str
    extra: dict | None


def reset_state() -> None:
    """Reset module-global state (the temp-directory counter).

    The test suite's autouse fixture calls this so checkpoint temp
    names are deterministic per test regardless of execution order.
    """
    global _TMP_SEQ
    _TMP_SEQ = itertools.count()


def _write_blob(path: str, data: bytes) -> None:
    with open(path, "wb") as handle:
        handle.write(data)
        handle.flush()
        os.fsync(handle.fileno())


def _worker() -> ThreadPoolExecutor:
    """The one hashing thread of a call (a ``with`` block joins it)."""
    return ThreadPoolExecutor(max_workers=1,
                              thread_name_prefix="checkpoint-hash")


def _fsync_dir(path: str) -> None:
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def write_checkpoint(collector, path: str, *, manager=None,
                     batch_seq: int | None = None, extra: dict | None = None,
                     overwrite: bool = False) -> str:
    """Write a ``repro-ckpt/1`` checkpoint directory; returns its manifest.

    Args:
        collector: The provisioned collector whose regions to persist.
        path: Checkpoint directory (created atomically).
        manager: Optional :class:`~repro.retention.epochs.EpochManager`
            whose epoch state rides along (baselines, generations,
            deltas, sealed segments).
        batch_seq: The engine batch boundary this checkpoint reflects.
        extra: JSON-able sidecar (e.g. exported ``LossDetector`` state)
            for the restore-and-replay path.
        overwrite: Replace an existing checkpoint at ``path``; without
            it an existing path is an error.
    """
    path = os.path.abspath(path)
    if os.path.exists(path) and not overwrite:
        raise CheckpointError(f"checkpoint exists: {path}")
    parent = os.path.dirname(path) or "."
    tmp = f"{path}.tmp.{os.getpid()}.{next(_TMP_SEQ)}"
    os.makedirs(tmp)
    try:
        served = primitives.served(collector)
        if not served:
            raise CheckpointError("collector serves no stores")
        with _worker() as worker:
            # The worker hashes each copy as it is handed over, so about
            # two copies are alive at once.
            handoff = queue.SimpleQueue()
            hashed = worker.submit(regions_digest, iter(handoff.get, None))
            regions = []
            try:
                for primitive, store in served:
                    attr = primitive.store
                    # The one copy of this region: its file, its CRC and
                    # its share of the store digest all read it.
                    data = bytes(store.region.buf)
                    handoff.put((attr, data))
                    file_name = f"{attr}.bin"
                    _write_blob(os.path.join(tmp, file_name), data)
                    # The layout geometry: restore refuses a mismatch
                    # before touching any region.
                    params = primitives.geometry(store.layout)
                    regions.append({"attr": attr, "file": file_name,
                                    "length": len(data),
                                    "crc32": zlib.crc32(data),
                                    "params": params})
            finally:
                handoff.put(None)
            digest = hashed.result()
        retention = None
        if manager is not None:
            meta, blobs = manager.export_state()
            blob_entries = []
            for name in sorted(blobs):
                blob = blobs[name]
                file_name = "ret_" + name.replace(".", "_") + ".bin"
                _write_blob(os.path.join(tmp, file_name), blob)
                blob_entries.append({"name": name, "file": file_name,
                                     "length": len(blob),
                                     "crc32": zlib.crc32(blob)})
            retention = {"meta": meta, "blobs": blob_entries}
        manifest = {"schema": CHECKPOINT_SCHEMA,
                    "batch_seq": batch_seq,
                    "store_digest": digest,
                    "regions": regions,
                    "retention": retention,
                    "extra": extra}
        _write_blob(os.path.join(tmp, MANIFEST_NAME),
                    json.dumps(manifest, sort_keys=True,
                               indent=1).encode("utf-8"))
        _fsync_dir(tmp)
    except CheckpointError:
        shutil.rmtree(tmp, ignore_errors=True)
        raise
    except OSError as exc:
        shutil.rmtree(tmp, ignore_errors=True)
        raise CheckpointError(f"checkpoint write failed: {exc}") from exc
    if os.path.exists(path):
        displaced = f"{tmp}.old"
        os.rename(path, displaced)
        os.rename(tmp, path)
        shutil.rmtree(displaced, ignore_errors=True)
    else:
        os.rename(tmp, path)
    _fsync_dir(parent)
    return os.path.join(path, MANIFEST_NAME)


def read_manifest(path: str) -> dict:
    """Load and schema-check a checkpoint manifest (no region reads)."""
    manifest_path = os.path.join(path, MANIFEST_NAME)
    try:
        with open(manifest_path, "rb") as handle:
            manifest = json.loads(handle.read().decode("utf-8"))
    except FileNotFoundError as exc:
        raise CheckpointError(f"no manifest at {manifest_path}") from exc
    except (OSError, ValueError, UnicodeDecodeError) as exc:
        raise CheckpointError(f"unreadable manifest: {exc}") from exc
    schema = manifest.get("schema")
    if schema != CHECKPOINT_SCHEMA:
        raise CheckpointError(
            f"unsupported checkpoint schema {schema!r} "
            f"(this build reads {CHECKPOINT_SCHEMA!r})")
    if not isinstance(manifest.get("regions"), list):
        raise CheckpointError("manifest has no region table")
    return manifest


def _read_blob(path: str, entry: dict, what: str) -> bytes:
    """One checkpoint file, whole and length-checked (its CRC-32 is
    checked by :func:`_check_crc`)."""
    try:
        with open(path, "rb") as handle:
            data = handle.read()
    except OSError as exc:
        raise CheckpointError(f"{what}: unreadable ({exc})") from exc
    if len(data) != entry["length"]:
        raise CheckpointError(
            f"{what}: truncated ({len(data)}B, manifest says "
            f"{entry['length']}B)")
    return data


def _check_crc(what: str, entry: dict, crc: int) -> None:
    if crc != entry["crc32"]:
        raise CheckpointError(
            f"{what}: CRC mismatch ({crc:#010x} != "
            f"{entry['crc32']:#010x})")


def restore_checkpoint(collector, path: str, *,
                       manager=None) -> RestoreReport:
    """Validate-then-apply restore of a ``repro-ckpt/1`` checkpoint.

    The target collector must already be provisioned with the *same*
    store set and layouts the checkpoint recorded (restore re-populates
    registered regions; it does not provision).  Every byte is staged
    and CRC-verified, the staged regions checked against the manifest's
    store digest, and with a ``manager`` the epoch state imported,
    before the first region mutation — on any :class:`CheckpointError`
    the collector and the manager are bit-for-bit unchanged.  A
    ``manager`` needs a checkpoint written with one: restoring regions
    under the manager's own baselines would misread them as new writes.
    """
    path = os.path.abspath(path)
    manifest = read_manifest(path)
    retention = manifest.get("retention")
    if manager is not None and retention is None:
        raise CheckpointError(
            "checkpoint carries no retention state to restore the "
            "manager from")
    served = {primitive.store: store
              for primitive, store in primitives.served(collector)}
    recorded = {entry["attr"] for entry in manifest["regions"]}
    if set(served) != recorded:
        raise CheckpointError(
            f"store set mismatch: checkpoint has {sorted(recorded)}, "
            f"collector serves {sorted(served)}")
    with _worker() as worker:
        # Every file is read and length-checked first; its CRC-32 runs
        # on the worker while this thread reads on and then hashes the
        # staged regions.
        staged, crcs = {}, []
        for entry in manifest["regions"]:
            attr = entry["attr"]
            store = served[attr]
            params = primitives.geometry(store.layout)
            if params != entry["params"]:
                raise CheckpointError(
                    f"{attr}: layout mismatch (checkpoint "
                    f"{entry['params']}, collector {params})")
            what = f"region '{attr}'"
            data = _read_blob(os.path.join(path, entry["file"]), entry, what)
            if len(data) != store.region.length:
                raise CheckpointError(
                    f"{attr}: region is {store.region.length}B, checkpoint "
                    f"holds {len(data)}B")
            staged[attr] = data
            crcs.append((what, entry, worker.submit(zlib.crc32, data)))
        blobs = {}
        if manager is not None:
            for entry in retention["blobs"]:
                what = f"retention blob '{entry['name']}'"
                blob = _read_blob(os.path.join(path, entry["file"]), entry,
                                  what)
                blobs[entry["name"]] = blob
                crcs.append((what, entry, worker.submit(zlib.crc32, blob)))
        digest = store_digest(collector, staged)
        for what, entry, crc in crcs:
            _check_crc(what, entry, crc.result())
    # The manifest carries no CRC of its own: its digest is checked
    # against what the regions are about to hold, not after.
    if digest != manifest["store_digest"]:
        raise CheckpointError(
            "store digest mismatch (manifest lied about its own regions)")
    if manager is not None:
        # All or nothing (``EpochManager.import_state``): a rejection
        # leaves the manager as it was.
        try:
            manager.import_state(retention["meta"], blobs)
        except (KeyError, TypeError, ValueError) as exc:
            raise CheckpointError(
                f"retention state rejected: {exc}") from exc
    # Every byte validated; mutation starts here and cannot fail short
    # of the process dying (plain memcpy into registered regions).
    for attr, data in staged.items():
        served[attr].region.buf[:] = data
    return RestoreReport(path=path, batch_seq=manifest.get("batch_seq"),
                         attrs=tuple(sorted(recorded)),
                         store_digest=digest,
                         extra=manifest.get("extra"))
