"""The retention tier's front door: rotation, aging, checkpointing.

:class:`RetentionManager` composes the region-level
:class:`~repro.retention.epochs.EpochManager` with the pieces that
need more than collector memory:

* **Engine-driven rotation** — :meth:`on_batch` is called by the
  :class:`~repro.runtime.engine.StreamEngine` execute stage *before*
  applying the first burst of each ``rotate_every``-th batch, while it
  already holds ``store_lock``.  Every earlier batch has fully
  applied and nothing of the triggering batch has, so rotation lands
  exactly on a batch boundary — the PR 6 snapshot rule — and a
  concurrent :meth:`~repro.runtime.engine.StreamEngine.snapshot`
  can never observe a half-rotated epoch.
* **Postcard-cache aging** — a cache row resident across two
  consecutive rotations is flushed as an early emission through the
  translator's chunk-write path.  This touches translator state, so
  it only runs from *quiesced* rotations (explicit :meth:`rotate`
  calls); the engine hook always skips it, keeping the stream's
  single-writer-per-stage contract and the cross-worker digest
  identity intact.
* **Checkpoints** — :meth:`checkpoint`/:meth:`restore` wrap the
  ``repro-ckpt/1`` codec with retention counters and obs events.

All counters here are input-deterministic (rotation points are batch
sequence numbers, never wall clock), so ``retention.*`` series stay
*inside* :func:`~repro.runtime.engine.pipeline_digest` — the
differential suite checks rotation itself for worker-count
independence.
"""

from __future__ import annotations

from repro import obs
from repro.core import primitives
from repro.retention.checkpoint import (CheckpointError, restore_checkpoint,
                                        write_checkpoint)
from repro.retention.epochs import (EpochManager, RetentionPolicy,
                                    RotationReport)


class RetentionStats(obs.InstrumentedStats):
    """What the retention tier did, counted."""

    component = "retention"

    rotations = obs.counter_field()
    cells_sealed = obs.counter_field()       # slot/counter cells stamped
    cells_expired = obs.counter_field()      # cells scrubbed or decayed
    segments_sealed = obs.counter_field()    # append head ranges sealed
    entries_expired = obs.counter_field()    # append entries scrubbed
    cache_rows_aged = obs.counter_field()
    checkpoints_written = obs.counter_field()
    restores = obs.counter_field()
    restores_rejected = obs.counter_field()


class RetentionManager:
    """Rotation + aging + checkpoints for one deployment.

    Args:
        collector: The provisioned collector to manage.
        policy: Retention window / engine cadence (defaults applied).
        translator: Optional; enables postcard-cache aging on quiesced
            rotations.
        name: Label for this manager's obs series.
    """

    def __init__(self, collector, *, policy: RetentionPolicy | None = None,
                 translator=None, name: str = "retention") -> None:
        self.collector = collector
        self.translator = translator
        self.name = name
        self.epochs = EpochManager(collector, policy=policy)
        self.stats = RetentionStats(labels={"name": name})
        self._cache_resident_prev: set = set()
        every = self.epochs.policy.rotate_every
        self._next_rotate_seq = every if every is not None else None

    @property
    def policy(self) -> RetentionPolicy:
        return self.epochs.policy

    @property
    def current_epoch(self) -> int:
        return self.epochs.current_epoch

    # ------------------------------------------------------------------
    # Rotation
    # ------------------------------------------------------------------

    def on_batch(self, seq: int) -> RotationReport | None:
        """Engine hook: maybe rotate before batch ``seq`` applies.

        Called under ``store_lock`` with every batch below ``seq``
        fully applied.  Rotates at most once per ``rotate_every``
        boundary even though several bursts can carry the same batch
        sequence.  Never ages the postcard cache (see module docs).
        """
        if self._next_rotate_seq is None or seq < self._next_rotate_seq:
            return None
        every = self.epochs.policy.rotate_every
        report = self.rotate(age_cache=False)
        self._next_rotate_seq = (seq // every + 1) * every
        return report

    def rotates_between(self, first: int, seq: int) -> bool:
        """Whether :meth:`on_batch` may rotate after batch ``first``
        and by batch ``seq`` — a ``rotate_every`` boundary lies in
        ``(first, seq]`` — so the two cannot land as one burst."""
        every = self.epochs.policy.rotate_every
        return every is not None and first // every != seq // every

    def rotate(self, *, age_cache: bool | None = None) -> RotationReport:
        """Seal the current epoch and expire out-of-window state.

        ``age_cache`` defaults to True when a translator is attached
        and this is a quiesced (non-engine) rotation; aged rows flush
        *before* sealing so their chunks land in the sealing epoch.
        Quiesced rotations also reset the translator's sketch merge
        cursors afterwards (Section 3.2: a fresh column sweep per
        epoch) — the engine hook skips both, touching collector memory
        only.
        """
        if age_cache is None:
            age_cache = self.translator is not None
        aged = self._age_cache() if age_cache else 0
        report = self.epochs.rotate()
        if age_cache and self._lane(primitives.SKETCH_MERGE) is not None:
            self.translator.reset_sketch_epoch()
        stats = self.stats
        stats.rotations += 1
        stats.cache_rows_aged += aged
        for attr, tracker in self.epochs.trackers.items():
            changed, expired = report.changed[attr], report.expired[attr]
            if tracker.kind == "segments":
                stats.segments_sealed += 1 if changed else 0
                stats.entries_expired += expired
            else:
                stats.cells_sealed += changed
                stats.cells_expired += expired
        obs.emit("retention", "rotate", name=self.name,
                 epoch=report.epoch, cutoff=report.cutoff,
                 expired=sum(report.expired.values()))
        return report

    def _lane(self, primitive):
        """The attached translator's lane for ``primitive``, if any."""
        return getattr(self.translator, "_lanes", {}).get(primitive.code)

    def _age_cache(self) -> int:
        """Flush postcard-cache rows resident across two rotations.

        A row still sitting in the aggregation cache a whole epoch
        after it appeared is a flow that stopped reporting mid-path;
        holding it longer only blocks the slot.  Flushing goes through
        the translator's chunk-write path, so the partial chunk lands
        in collector memory exactly like a collision eviction would.
        """
        translator = self.translator
        lane = self._lane(primitives.POSTCARDING)
        if lane is None:
            return 0
        cache = lane.cache
        resident = set(cache.resident())
        stale = sorted(resident & self._cache_resident_prev)
        aged = 0
        wrs: list = []
        for index, key in stale:
            emission = cache.evict(index, reason="aged")
            if emission is None or emission.key != key:
                continue
            lane.emit_chunk(emission, 1, wrs)
            aged += 1
        translator._post_burst(wrs)
        self._cache_resident_prev = set(cache.resident())
        return aged

    # ------------------------------------------------------------------
    # Checkpoint / restore
    # ------------------------------------------------------------------

    def checkpoint(self, path: str, *, batch_seq: int | None = None,
                   extra: dict | None = None,
                   overwrite: bool = False) -> str:
        """Write a ``repro-ckpt/1`` checkpoint including epoch state."""
        manifest = write_checkpoint(self.collector, path,
                                    manager=self.epochs,
                                    batch_seq=batch_seq, extra=extra,
                                    overwrite=overwrite)
        self.stats.checkpoints_written += 1
        obs.emit("retention", "checkpoint", name=self.name, path=path,
                 batch_seq=batch_seq, epoch=self.epochs.current_epoch)
        return manifest

    def restore(self, path: str):
        """Validate-then-apply restore; counts rejections separately."""
        try:
            report = restore_checkpoint(self.collector, path,
                                        manager=self.epochs)
        except CheckpointError:
            self.stats.restores_rejected += 1
            obs.emit("retention", "restore_rejected", name=self.name,
                     path=path)
            raise
        self.stats.restores += 1
        obs.emit("retention", "restore", name=self.name, path=path,
                 batch_seq=report.batch_seq,
                 epoch=self.epochs.current_epoch)
        return report
