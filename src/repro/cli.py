"""Command-line interface: explore the models without writing code.

    python -m repro info                     # system inventory
    python -m repro demo                     # run the mini pipeline
    python -m repro capacity --payload 8     # NIC model explorer
    python -m repro bounds --alpha 0.1 --n 2 # Key-Write error bounds
    python -m repro longevity --gib 30       # Fig. 20 curve
    python -m repro redundancy --load 0.5    # optimal N at a load
    python -m repro footprint                # Table 3 / Fig. 7 tables
    python -m repro rates                    # Table 1 report rates
    python -m repro stats --loss 0.05        # obs registry after a sim
    python -m repro faults --seed 7          # chaos run + recovery audit
    python -m repro query                    # query catalog + costs
    python -m repro serve                    # UDP daemons vs in-process
    python -m repro retain                   # rotation + checkpoint
"""

from __future__ import annotations

import argparse
import struct
import sys

from repro import __version__
from repro.core import analysis


def _cmd_info(args) -> int:
    print(f"Direct Telemetry Access reproduction v{__version__}")
    print(__doc__)
    print("Primitives: Key-Write, Postcarding, Append, Sketch-Merge, "
          "Key-Increment (+ Section 6 cuckoo extension)")
    print("Substrates: RoCEv2 NIC model, Tofino-class switch model, "
          "event-driven fabric")
    print("Baselines: Confluo-, BTrDB-, INTCollector-like collectors")
    return 0


def _cmd_demo(args) -> int:
    from repro import Collector, Reporter, Translator

    collector = Collector()
    collector.serve_keywrite(slots=1 << 14, data_bytes=4)
    collector.serve_append(lists=2, capacity=1 << 10, data_bytes=4,
                           batch_size=8)
    translator = Translator()
    collector.connect_translator(translator)
    reporter = Reporter("demo-switch", 1,
                        transmit=translator.handle_report)

    for i in range(args.reports):
        reporter.key_write(struct.pack(">I", i), struct.pack(">I", i * 2),
                           redundancy=2)
        reporter.append(0, struct.pack(">I", i))
    translator.flush_appends()

    hits = sum(
        collector.query_value(struct.pack(">I", i), redundancy=2).value
        == struct.pack(">I", i * 2) for i in range(args.reports))
    drained = len(collector.list_poller(0).poll())
    print(f"{args.reports} reports through reporter->translator->RDMA")
    print(f"Key-Write queryable: {hits}/{args.reports}")
    print(f"Append drained:      {drained}/{args.reports}")
    print(f"RDMA messages:       {translator.stats.rdma_messages} "
          f"(batching saved "
          f"{args.reports - translator.stats.append_batches} "
          "append writes)")
    return 0


def _cmd_capacity(args) -> int:
    from repro.rdma.nic import modelled_collection_rate

    rate = modelled_collection_rate(
        args.payload, args.batch, writes_per_report=args.redundancy,
        atomic=args.atomic, active_qps=args.qps)
    print(f"payload={args.payload}B batch={args.batch} "
          f"N={args.redundancy} qps={args.qps} atomic={args.atomic}")
    print(f"-> {rate / 1e6:,.1f}M reports/s "
          f"({rate * args.payload / args.batch * 8 / 1e9:.1f} Gbps "
          "payload)")
    return 0


def _cmd_bounds(args) -> int:
    empty = analysis.keywrite_empty_return(args.alpha, args.n, args.bits)
    wrong = analysis.keywrite_wrong_output(args.alpha, args.n, args.bits)
    print(f"Key-Write  (alpha={args.alpha}, N={args.n}, b={args.bits}):")
    print(f"  empty return <= {empty:.4f}")
    print(f"  wrong output <= {wrong:.3e}")
    pc_empty = analysis.postcarding_empty_return(
        args.alpha, args.n, args.values, args.bits, args.hops)
    pc_wrong = analysis.postcarding_wrong_output(
        args.alpha, args.n, args.values, args.bits, args.hops)
    print(f"Postcarding (|V|={args.values}, B={args.hops}):")
    print(f"  empty return <= {pc_empty:.4f}")
    print(f"  wrong output <= {pc_wrong:.3e}")
    return 0


def _cmd_longevity(args) -> int:
    storage = args.gib * 2 ** 30
    print(f"Key-Write longevity at {args.gib} GiB "
          f"(N={args.n}, {args.data}B values):")
    for age in (1e6, 1e7, 1e8, 1e9):
        success = analysis.longevity_success(
            storage, age, data_bytes=args.data, redundancy=args.n)
        print(f"  after {age:>12,.0f} newer reports: "
              f"{success * 100:6.2f}% queryable")
    return 0


def _cmd_redundancy(args) -> int:
    best = analysis.optimal_redundancy(args.load)
    print(f"load factor {args.load}:")
    for n in (1, 2, 4):
        rate = analysis.average_success_at_load(args.load, n)
        marker = "  <- optimal" if n == best else ""
        print(f"  N={n}: {rate * 100:6.2f}% average success{marker}")
    return 0


def _cmd_footprint(args) -> int:
    from repro.switch.programs import (
        dta_reporter,
        rdma_reporter,
        translator_program,
        udp_reporter,
    )

    print("Translator (Key-Write + Postcarding + Append, batch 16, "
          "65K-reporter retransmission):")
    print(translator_program(batching=16,
                             retransmission_reporters=65536).table())
    print("\nReporters (Fig. 7):")
    for label, program in (("UDP", udp_reporter()),
                           ("DTA", dta_reporter()),
                           ("RDMA", rdma_reporter())):
        print(f"\n[{label}]")
        print(program.table())
    return 0


def _cmd_stats(args) -> int:
    """Run a fabric-mode deployment, then dump the obs registry."""
    import struct

    from repro import obs
    from repro.core.collector import Collector
    from repro.core.reporter import Reporter
    from repro.core.translator import Translator
    from repro.fabric.topology import Topology

    if args.reporters < 1:
        print("error: --reporters must be >= 1", file=sys.stderr)
        return 2
    if not 0.0 <= args.loss < 1.0:
        print("error: --loss must be a probability in [0, 1)",
              file=sys.stderr)
        return 2
    # A fresh registry so the dump shows exactly this run.
    registry = obs.Registry()
    previous = obs.set_registry(registry)
    try:
        collector = Collector()
        collector.serve_keywrite(slots=1 << 14, data_bytes=4)
        collector.serve_append(lists=2, capacity=1 << 12, data_bytes=4,
                               batch_size=8)
        collector.serve_keyincrement(slots_per_row=1 << 10, rows=4)
        translator = Translator()
        reporters = [Reporter(f"r{i}", i, translator="translator")
                     for i in range(args.reporters)]
        topo = Topology.dta_star(reporters, translator, collector,
                                 reporter_loss=args.loss, seed=args.seed)
        collector.connect_translator(translator, fabric=True)

        for i in range(args.reports):
            reporter = reporters[i % len(reporters)]
            key = struct.pack(">I", i)
            reporter.key_write(key, struct.pack(">I", i * 2), redundancy=2)
            reporter.key_increment(key[2:], 1, redundancy=2)
            reporter.append(i % 2, key, essential=True)
            if i % 64 == 63:
                topo.sim.run()   # interleave NACK traffic with reports
        topo.sim.run()
        translator.flush_appends()
        topo.sim.run()

        snapshot = registry.snapshot()
        if args.json:
            print(obs.to_jsonl(snapshot, events=registry.events))
        else:
            print(f"{args.reports} reports x {args.reporters} reporters, "
                  f"link loss {args.loss:.1%}, seed {args.seed}\n")
            print(obs.render_table(snapshot, skip_zero=not args.all))
            if args.events:
                print(f"\nlast {args.events} trace events:")
                print(obs.render_events(registry, last=args.events))
    finally:
        obs.set_registry(previous)
    return 0


def _cmd_faults(args) -> int:
    """Run the chaos scenario and audit recovery; exit 1 unless every
    essential report is queryable."""
    from repro import bench
    from repro.faults import default_plan, run_chaos

    plan = default_plan(seed=args.seed)
    if not args.quiet:
        print(plan.describe())
        print()
    result = run_chaos(seed=args.seed, n_reports=args.reports,
                       reporter_loss=args.loss,
                       redundancy=args.redundancy,
                       failover=not args.no_failover)
    print(result.summary())
    if result.missing and not args.quiet:
        print(f"missing: {', '.join(result.missing[:16])}"
              + (" ..." if len(result.missing) > 16 else ""))
    return bench.verdict({"obs_digest": result.digest}, [
        bench.gate("every essential report queryable",
                   result.all_recovered)])


def _cmd_rates(args) -> int:
    from repro.workloads.report_rates import network_report_rate, table1_rows

    print(f"{'System':<16}{'Scenario':<40}{'Per switch':>12}")
    for row in table1_rows():
        print(f"{row.system:<16}{row.scenario:<40}"
              f"{row.mpps:>9.2f} Mpps")
    netseer = table1_rows()[-1]
    total = network_report_rate(args.switches, netseer)
    print(f"\n{args.switches:,} NetSeer switches -> "
          f"{total / 1e9:.2f}B reports/s network-wide")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="Direct Telemetry Access reproduction")
    parser.add_argument("--version", action="version",
                        version=f"repro {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("info", help="package overview").set_defaults(
        fn=_cmd_info)

    demo = sub.add_parser("demo", help="run a miniature deployment")
    demo.add_argument("--reports", type=int, default=100)
    demo.set_defaults(fn=_cmd_demo)

    cap = sub.add_parser("capacity", help="NIC collection-rate model")
    cap.add_argument("--payload", type=int, default=8,
                     help="RDMA payload bytes per message")
    cap.add_argument("--batch", type=int, default=1,
                     help="reports per message (Append batching)")
    cap.add_argument("--redundancy", type=int, default=1,
                     help="writes per report (Key-Write N)")
    cap.add_argument("--qps", type=int, default=1,
                     help="active queue pairs at the NIC")
    cap.add_argument("--atomic", action="store_true",
                     help="use Fetch-and-Add costing")
    cap.set_defaults(fn=_cmd_capacity)

    bounds = sub.add_parser("bounds", help="error-probability bounds")
    bounds.add_argument("--alpha", type=float, default=0.1)
    bounds.add_argument("--n", type=int, default=2)
    bounds.add_argument("--bits", type=int, default=32)
    bounds.add_argument("--values", type=int, default=2 ** 18,
                        help="|V| for Postcarding")
    bounds.add_argument("--hops", type=int, default=5)
    bounds.set_defaults(fn=_cmd_bounds)

    lon = sub.add_parser("longevity", help="Fig. 20 queryability curve")
    lon.add_argument("--gib", type=float, default=30.0)
    lon.add_argument("--n", type=int, default=2)
    lon.add_argument("--data", type=int, default=20)
    lon.set_defaults(fn=_cmd_longevity)

    red = sub.add_parser("redundancy", help="optimal N at a load factor")
    red.add_argument("--load", type=float, required=True)
    red.set_defaults(fn=_cmd_redundancy)

    sub.add_parser("footprint",
                   help="ASIC resource tables (Fig. 7 / Table 3)"
                   ).set_defaults(fn=_cmd_footprint)

    rates = sub.add_parser("rates", help="Table 1 report rates")
    rates.add_argument("--switches", type=int, default=200_000)
    rates.set_defaults(fn=_cmd_rates)

    stats = sub.add_parser(
        "stats", help="run a simulation, dump the metrics registry")
    stats.add_argument("--reports", type=int, default=512,
                       help="reports per primitive to drive")
    stats.add_argument("--reporters", type=int, default=2,
                       help="reporter switches in the star")
    stats.add_argument("--loss", type=float, default=0.0,
                       help="reporter-link loss probability")
    stats.add_argument("--seed", type=int, default=0)
    stats.add_argument("--json", action="store_true",
                       help="JSON-lines instead of the table")
    stats.add_argument("--all", action="store_true",
                       help="include zero-valued series in the table")
    stats.add_argument("--events", type=int, default=0, metavar="N",
                       help="also print the last N trace events")
    stats.set_defaults(fn=_cmd_stats)

    faults = sub.add_parser(
        "faults", help="seeded chaos run with recovery audit")
    faults.add_argument("--seed", type=int, default=7,
                        help="plan + topology RNG seed")
    faults.add_argument("--reports", type=int, default=240,
                        help="essential Key-Write reports per reporter")
    faults.add_argument("--loss", type=float, default=0.01,
                        help="baseline reporter-link loss probability")
    faults.add_argument("--redundancy", type=int, default=2,
                        help="Key-Write redundancy N")
    faults.add_argument("--no-failover", action="store_true",
                        help="leave the crashed primary unserved "
                             "(shows what the standby is for)")
    faults.add_argument("--quiet", action="store_true",
                        help="summary line only")
    faults.set_defaults(fn=_cmd_faults)

    from repro.queries.cli import add_query_parser

    add_query_parser(sub)

    from repro.transport.cli import add_transport_parsers

    add_transport_parsers(sub)

    from repro.retention.cli import add_retain_parser

    add_retain_parser(sub)
    return parser


def main(argv: list | None = None) -> int:
    """Entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
