"""The ``repro retain`` smoke lane: bounded memory, demonstrated.

Drives a seeded multi-epoch stream through the staged engine with
rotation enabled and records, per rotation, how many cells each epoch
sealed and how many stayed live — the bounded-memory gate then checks
that steady-state live state never exceeds two epochs' worth (the
retention window plus the epoch currently accumulating).  A checkpoint
round-trip gate writes a ``repro-ckpt/1`` directory at the end and
restores it into a freshly provisioned collector, asserting bit-exact
store digests.  ``repro retain`` prints the store digest and the gates
(:func:`repro.bench.verdict`).

The stream is this lane's own, not :mod:`repro.workloads.reports`:
every epoch writes a disjoint, epoch-tagged keyspace so that expiry is
observable, and the stores are sized to the epoch, not to the shared
workload geometry.
"""

from __future__ import annotations

import random
import struct

from repro import bench
from repro.core.batch import ReportBatch
from repro.core.collector import Collector
from repro.core.reporter import Reporter
from repro.core.translator import Translator
from repro.retention.checkpoint import restore_checkpoint
from repro.retention.epochs import RetentionPolicy
from repro.retention.manager import RetentionManager
from repro.runtime.engine import StreamEngine, store_digest

#: Rotations skipped before the bounded-memory gate samples live state
#: (the window has to fill before steady state means anything), on top
#: of the policy window itself.
WARMUP_ROTATIONS = 1


def _serve(slots: int, lists: int, capacity: int) -> Collector:
    collector = Collector()
    collector.serve_keywrite(slots=slots, data_bytes=8)
    collector.serve_keyincrement(slots_per_row=max(256, slots // 8), rows=4)
    collector.serve_append(lists=lists, capacity=capacity, data_bytes=8,
                           batch_size=4)
    return collector


def run_retain(*, epochs: int = 8, reports_per_epoch: int = 256,
               batch_size: int = 32, window: int = 1, seed: int = 11,
               workers: int = 0, ckpt_dir: str | None = None) -> dict:
    """Run the retention smoke; returns its store digest, rotation
    count, per-store bounds and gates.

    Args:
        epochs: Sealed epochs to stream through.
        reports_per_epoch: Key-Write reports per epoch (each epoch uses
            a disjoint, epoch-tagged keyspace so expiry is observable).
        batch_size: Reports per submitted batch.
        window: Retention window in sealed epochs.
        seed: Workload seed (keys/values/list routing).
        workers: Engine stage threads (0 = inline deterministic lane).
        ckpt_dir: Where to write the end-of-run checkpoint; a
            ``<ckpt_dir>-restored`` digest check runs either way (a
            temp directory is used when unset).
    """
    rng = random.Random(seed)
    kw_batches = max(1, reports_per_epoch // batch_size)
    ki_keys_per_epoch = max(4, reports_per_epoch // 8)
    appends_per_epoch = max(4, reports_per_epoch // 8)
    lists = 4
    capacity = max(64, 2 * appends_per_epoch)
    slots = max(4096, 8 * reports_per_epoch)
    batches_per_epoch = kw_batches + 2     # + one KI batch + one Append

    collector = _serve(slots, lists, capacity)
    translator = Translator()
    collector.connect_translator(translator)
    reporter = Reporter("retain-r1", 1, transmit=translator.handle_report)
    policy = RetentionPolicy(window=window, rotate_every=batches_per_epoch)
    manager = RetentionManager(collector, policy=policy,
                               translator=translator)
    engine = StreamEngine(collector, translator, reporter,
                          workers=workers, retention=manager,
                          name="retain")

    with engine:
        for epoch in range(1, epochs + 1):
            keys = [f"e{epoch}k{i}".encode()
                    for i in range(reports_per_epoch)]
            datas = [struct.pack("<Q", rng.getrandbits(64)) for _ in keys]
            for start in range(0, len(keys), batch_size):
                chunk = slice(start, start + batch_size)
                engine.submit(ReportBatch.key_writes(
                    keys[chunk], datas[chunk], redundancy=2))
            ki_keys = [f"e{epoch}c{i}".encode()
                       for i in range(ki_keys_per_epoch)]
            ki_values = [rng.randrange(1, 16) for _ in ki_keys]
            engine.submit(ReportBatch.key_increments(ki_keys, ki_values,
                                                     redundancy=2))
            list_ids = [rng.randrange(lists)
                        for _ in range(appends_per_epoch)]
            entries = [struct.pack("<Q", (epoch << 32) | i)
                       for i in range(appends_per_epoch)]
            engine.submit(ReportBatch.appends(list_ids, entries))
        engine.drain()
        # Seal the final epoch so its cells are stamped like the rest.
        with engine.store_lock:
            manager.rotate(age_cache=False)

    rotations = list(manager.epochs.reports)
    steady = rotations[window + WARMUP_ROTATIONS:]
    per_store: dict = {}
    bounded = bool(steady)
    for attr in manager.epochs.trackers:
        changed_max = max((r.changed.get(attr, 0) for r in rotations),
                          default=0)
        live_max = max((r.live.get(attr, 0) for r in steady), default=0)
        ok = changed_max == 0 or live_max <= 2 * changed_max
        bounded = bounded and ok
        per_store[attr] = {"epoch_cells_max": changed_max,
                           "live_cells_max": live_max,
                           "bound_ratio": (live_max / changed_max
                                           if changed_max else 0.0),
                           "bounded": ok}

    # Checkpoint round-trip gate: restore into a twin and compare.
    import tempfile

    digest_before = store_digest(collector)
    if ckpt_dir is not None:
        manager.checkpoint(ckpt_dir, overwrite=True)
        ckpt_path = ckpt_dir
        cleanup = None
    else:
        cleanup = tempfile.TemporaryDirectory(prefix="repro-retain-")
        ckpt_path = cleanup.name + "/ckpt"
        manager.checkpoint(ckpt_path)
    twin = _serve(slots, lists, capacity)
    report = restore_checkpoint(twin, ckpt_path)
    roundtrip = (report.store_digest == digest_before
                 == store_digest(twin))
    if cleanup is not None:
        cleanup.cleanup()

    gates = [
        bench.gate("bounded memory (live <= 2 epochs' cells)", bounded),
        bench.gate("checkpoint round-trip bit-exact", roundtrip),
        bench.gate(f"rotation cadence ({epochs} epochs sealed)",
                   manager.epochs.rotations == epochs),
    ]
    return {"store_digest": digest_before,
            "rotations": manager.epochs.rotations,
            "stores": per_store, "gates": gates}
