"""The ``repro retain`` command: the retention tier's gates.

``repro retain`` runs the seeded bounded-memory +
checkpoint-round-trip lane (:mod:`repro.retention.smoke`), prints its
store digest and gates (:func:`repro.bench.verdict`), and keeps the
checkpoint directory when asked (``--ckpt-dir``).  Exit status is the
gate verdict.
"""

from __future__ import annotations


def _cmd_retain(args) -> int:
    from repro import bench
    from repro.retention.smoke import run_retain

    result = run_retain(epochs=args.epochs,
                        reports_per_epoch=args.reports_per_epoch,
                        batch_size=args.batch_size,
                        window=args.window, seed=args.seed,
                        workers=args.workers, ckpt_dir=args.ckpt_dir)
    return bench.verdict({"store_digest": result["store_digest"]},
                         result["gates"])


def add_retain_parser(sub) -> None:
    """Install ``repro retain`` on the main CLI's subparsers."""
    retain = sub.add_parser(
        "retain",
        help="retention tier: rotation + checkpoint gates")
    retain.add_argument("--epochs", type=int, default=8,
                        help="sealed epochs to stream (default 8)")
    retain.add_argument("--reports-per-epoch", type=int, default=256,
                        help="Key-Write reports per epoch (default 256)")
    retain.add_argument("--batch-size", type=int, default=32,
                        help="reports per submitted batch (default 32)")
    retain.add_argument("--window", type=int, default=1,
                        help="retention window in sealed epochs")
    retain.add_argument("--seed", type=int, default=11,
                        help="workload seed")
    retain.add_argument("--workers", type=int, default=0,
                        help="engine stage threads (default 0: inline)")
    retain.add_argument("--ckpt-dir", default=None,
                        help="keep the end-of-run checkpoint here")
    retain.set_defaults(fn=_cmd_retain)
