"""The ``repro serve`` verb: the deployment lane's differential gate.

Runs the socket lane against the in-process reference, prints the
store digests, the daemons' obs digest and the gates
(:func:`repro.bench.verdict`) and exits non-zero unless every gate
holds.
"""

from __future__ import annotations

from repro import bench
from repro.transport.loss import LossSpec
from repro.transport.serve import ServeSpec, run_serve
from repro.workloads.reports import PRIMITIVES


def add_transport_parsers(sub) -> None:
    """Register ``serve`` on the main subparser set."""
    parser = sub.add_parser(
        "serve",
        help="run the socket deployment lane against the in-process "
             "reference and gate on digest equality")
    parser.set_defaults(fn=_cmd_serve)
    parser.add_argument("--primitive", choices=PRIMITIVES,
                        default="key_write",
                        help="workload primitive (default key_write)")
    parser.add_argument("--reports", type=int, default=20000,
                        help="reports to stream")
    parser.add_argument("--collectors", type=int, default=2,
                        help="collector daemons (default 2)")
    parser.add_argument("--batch-size", type=int, default=256,
                        help="assembler list-lane coalescing limit; planned "
                             "segments are burst-wide (default 256)")
    parser.add_argument("--seed", type=int, default=1,
                        help="workload seed (default 1)")
    parser.add_argument("--drop", type=float, default=0.0,
                        help="seeded shim drop rate (default 0)")
    parser.add_argument("--reorder", type=float, default=0.0,
                        help="seeded shim reorder rate (default 0)")
    parser.add_argument("--reorder-span", type=int, default=3,
                        help="max positions a datagram slips (default 3)")
    parser.add_argument("--loss-seed", type=int, default=7,
                        help="shim RNG seed (default 7)")
    parser.add_argument("--translators", type=int, default=1,
                        help="translator daemons; collector shard s "
                             "rides lane s %% N (default 1)")
    parser.add_argument("--frame-bytes", type=int, default=1400,
                        help="datagram budget frames are packed "
                             "against (default 1400)")
    parser.add_argument("--scalar-translate", action="store_true",
                        help="disable the vectorized translator plan "
                             "halves (vectorized is the default)")


def _spec(args) -> ServeSpec:
    return ServeSpec(
        primitive=args.primitive,
        reports=args.reports,
        collectors=args.collectors,
        batch_size=args.batch_size,
        seed=args.seed,
        loss=LossSpec(seed=args.loss_seed, drop_rate=args.drop,
                      reorder_rate=args.reorder,
                      reorder_span=args.reorder_span),
        vectorized=not args.scalar_translate,
        translators=args.translators,
        frame_bytes=args.frame_bytes,
    )


def _cmd_serve(args) -> int:
    result = run_serve(_spec(args))
    return bench.verdict(
        {"store_digest": result["socket"]["store_digests"],
         "obs_digest": result["socket"]["obs_digest"]},
        result["gates"])
