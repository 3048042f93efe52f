"""Kill-restore-replay chaos gate (ISSUE acceptance criterion).

Composes the retention tier with the PR 3 fault machinery: a
translator fail-stop plus collector kill mid-stream, a standby
provisioned from the last ``repro-ckpt/1`` checkpoint, the
translator's ``LossDetector`` state replayed from the manifest, and
the recovery sweep re-driving everything since the checkpoint from
reporter backups.  Gates: zero essential-report loss (relative to the
fault-free reference), a converged recovery fixpoint, and — single
reporter — a bit-exact store digest against the fault-free run.
"""

from __future__ import annotations

import pytest

from tests.faults.retention import run_crash_restore


def test_single_reporter_restore_is_bit_exact(tmp_path):
    result = run_crash_restore(n_reporters=1,
                               ckpt_dir=str(tmp_path))
    assert result.total_essential == 96
    assert result.missing == []             # zero essential loss
    assert result.replayed > 0              # the sweep did real work
    # Replay order == emission order: byte-identical stores.
    assert result.digest_restored == result.digest_reference
    assert result.converged
    # The standby resumed the checkpoint's epoch numbering.
    assert result.epoch_restored == result.epoch_at_checkpoint


@pytest.mark.parametrize("n_reporters", (2, 3))
def test_multi_reporter_restore_loses_nothing_and_converges(
        n_reporters):
    result = run_crash_restore(n_reporters=n_reporters)
    assert result.zero_loss
    assert result.converged
    # Interleaved emission vs per-reporter replay happens to commute
    # for Key-Write (distinct keys, slot votes) — assert the digest
    # gate the scenario records either way.
    assert result.digest_match
    assert result.second_sweep == 0


def test_crash_after_checkpoint_boundary_cases(tmp_path):
    """Crash immediately at the checkpoint: the whole tail replays."""
    result = run_crash_restore(n_reporters=1, rounds=64,
                               checkpoint_at=16, crash_at=16,
                               rotate_every=16,
                               ckpt_dir=str(tmp_path))
    assert result.missing == []
    assert result.replayed >= 48            # everything past seq 16
    assert result.digest_match and result.converged


def test_schedule_validation():
    with pytest.raises(ValueError):
        run_crash_restore(checkpoint_at=50, crash_at=40)
    with pytest.raises(ValueError):
        run_crash_restore(checkpoint_at=0)
