"""Retention tier: epochs and checkpoints.

The collector-side answer to "stores grow forever": time-windowed
epoch rotation over all five DTA primitive stores
(:mod:`repro.retention.epochs`), crash-consistent ``repro-ckpt/1``
checkpoint/restore (:mod:`repro.retention.checkpoint`), and the
:class:`~repro.retention.manager.RetentionManager` that the streaming
engine drives at batch boundaries under ``store_lock``.
"""

from repro.retention.checkpoint import (CHECKPOINT_SCHEMA, CheckpointError,
                                        RestoreReport, read_manifest,
                                        restore_checkpoint, write_checkpoint)
from repro.retention.epochs import (EpochManager, RetentionPolicy,
                                    RotationReport)
from repro.retention.manager import RetentionManager, RetentionStats

__all__ = [
    "CHECKPOINT_SCHEMA",
    "CheckpointError",
    "EpochManager",
    "RestoreReport",
    "RetentionManager",
    "RetentionPolicy",
    "RetentionStats",
    "RotationReport",
    "read_manifest",
    "reset_state",
    "restore_checkpoint",
    "write_checkpoint",
]


def reset_state() -> None:
    """Clear module-global retention state (test-suite hygiene)."""
    from repro.retention import checkpoint as _checkpoint

    _checkpoint.reset_state()
