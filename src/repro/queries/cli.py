"""The ``repro query`` command: one-shot plans, a serve loop, CI smoke.

Three modes over one seeded mixed-primitive deployment:

* **one-shot** (default): stream the workload, evaluate the shipped
  catalog once against the drained stores, print result summaries and
  per-query costs.
* **--serve N**: evaluate the registered catalog every epoch *while*
  the stream is still ingesting — each tick snapshots the stores at a
  batch boundary, so the printed results are torn-free mid-stream
  reads (the long-running query daemon, compressed into N epochs).
* **--smoke**: the CI differential gate — run the streamed lane and
  the ``workers=0`` serial reference on the same workload and exit
  non-zero unless every catalog plan returns identical rows, the store
  digests match, and no report was lost.

``--cost-out`` writes the per-query cost-accounting artifact
(``repro-query-costs/1``) that CI uploads as a build artifact.
"""

from __future__ import annotations

import json

from repro import bench
from repro.queries import catalog
from repro.queries.serving import QueryServer


def _summarize(name: str, rows: list, width: int = 68) -> str:
    head = f"  {name:<14} {len(rows):>5} rows"
    if not rows:
        return head
    sample = rows[0]
    text = ", ".join(f"{k}={v!r}" for k, v in list(sample.items())[:3])
    if len(text) > width:
        text = text[:width - 3] + "..."
    return f"{head}   first: {text}"


def _print_costs(report: dict) -> None:
    print(f"  {'query':<14}{'execs':>6}{'rows_scanned':>14}"
          f"{'bytes':>12}{'rows_out':>10}{'wall_ms':>9}")
    for name, entry in report["queries"].items():
        print(f"  {name:<14}{entry['executions']:>6}"
              f"{entry['rows_scanned']:>14,}"
              f"{entry['bytes_touched']:>12,}"
              f"{entry['rows_out']:>10,}"
              f"{entry['wall_ns'] / 1e6:>9.2f}")


def _write_cost_artifact(path: str, report: dict, extra: dict) -> None:
    document = dict(report)
    document.update(extra)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(document, fh, indent=2, sort_keys=True)
    print(f"wrote {path}")


def run_query_command(args) -> int:
    """Entry point behind ``repro query``; returns the exit code."""
    reports = min(args.reports, 1500) if args.smoke else args.reports
    works = catalog.demo_workloads(reports, args.seed)

    if args.list:
        for name, plan in sorted(catalog.shipped_plans(works).items()):
            print(f"{name:<16} {plan.describe()}")
        return 0

    if args.smoke:
        return _run_smoke(args, works)

    if args.serve:
        return _run_serve(args, works)

    # One-shot: stream, drain, evaluate the catalog once.
    _registry, collector, _engine, zero_loss = catalog.stream_mixed(
        works, workers=args.workers, batch_size=args.batch_size)
    results, cost = catalog.run_catalog(collector, works)
    print(f"query: {reports} reports x {len(catalog.MIXED)} primitives, "
          f"workers={args.workers}, seed={args.seed}, "
          f"zero_loss={zero_loss}")
    for name in sorted(results):
        print(_summarize(name, results[name]))
    print("costs:")
    _print_costs(cost)
    if args.cost_out:
        _write_cost_artifact(args.cost_out, cost,
                             {"mode": "oneshot", "seed": args.seed,
                              "reports": reports})
    return 0


def _run_serve(args, works) -> int:
    """The serve loop: tick the catalog each ingest epoch, live."""
    epochs = args.serve
    ticks: list = []
    servers: list = []

    def on_epoch(engine, epoch: int) -> None:
        if not servers:
            server = QueryServer(engine)
            for name, plan in catalog.shipped_plans(works).items():
                server.register(name, plan)
            servers.append(server)
        tick = servers[0].tick()
        ticks.append(tick)
        sizes = ", ".join(f"{name}={len(result)}"
                          for name, result in sorted(
                              tick.results.items()))
        print(f"epoch {tick.epoch:>3} @ batch_seq {tick.batch_seq}: "
              f"{sizes}")

    _registry, _collector, _engine, zero_loss = catalog.stream_mixed(
        works, workers=args.workers, batch_size=args.batch_size,
        epochs=epochs, on_epoch=on_epoch)
    server = servers[0]
    print(f"served {server.epoch} epochs over a live stream "
          f"(zero_loss={zero_loss})")
    _print_costs(server.cost_report())
    if args.cost_out:
        _write_cost_artifact(args.cost_out, server.cost_report(),
                             {"mode": "serve", "seed": args.seed,
                              "epochs": server.epoch})
    return 0


def _run_smoke(args, works) -> int:
    """CI gate: streamed catalog == serial catalog, digests equal."""
    _sreg, s_collector, _seng, s_zero = catalog.stream_mixed(
        works, workers=max(args.workers, 1), batch_size=args.batch_size)
    streamed_results, streamed_cost = catalog.run_catalog(
        s_collector, works)
    streamed_digest = catalog.lane_digest(s_collector)

    _rreg, r_collector, _reng, r_zero = catalog.stream_mixed(
        works, workers=0, batch_size=args.batch_size)
    serial_results, _serial_cost = catalog.run_catalog(
        r_collector, works)
    serial_digest = catalog.lane_digest(r_collector)

    gates = [
        bench.gate("store digests match",
                   streamed_digest == serial_digest),
        bench.gate("zero report loss", s_zero and r_zero),
    ]
    for name in sorted(serial_results):
        gates.append(bench.gate(
            f"plan '{name}' matches serial",
            streamed_results[name] == serial_results[name]))
    if args.cost_out:
        _write_cost_artifact(
            args.cost_out, streamed_cost,
            {"mode": "smoke", "seed": args.seed,
             "store_digest": streamed_digest, "gates": gates,
             "pass": all(gate["pass"] for gate in gates)})
    return bench.verdict({"store_digest": streamed_digest}, gates)


def add_query_parser(sub) -> None:
    """Register the ``query`` subcommand on the main CLI parser."""
    query = sub.add_parser(
        "query", help="serving tier: catalog plans over snapshots")
    query.add_argument("--reports", type=int, default=2000,
                       help="reports per primitive in the mixed stream")
    query.add_argument("--batch-size", type=int, default=32,
                       help="reports per submitted ReportBatch")
    query.add_argument("--workers", type=int, default=2,
                       help="stage threads of the ingest stream")
    query.add_argument("--seed", type=int, default=1,
                       help="workload RNG seed")
    query.add_argument("--serve", type=int, default=0, metavar="EPOCHS",
                       help="re-evaluate the catalog each of EPOCHS "
                            "ingest epochs, live (the query daemon)")
    query.add_argument("--smoke", action="store_true",
                       help="CI gate: streamed catalog results + store "
                            "digest must equal the workers=0 serial "
                            "reference")
    query.add_argument("--list", action="store_true",
                       help="print the shipped catalog and exit")
    query.add_argument("--cost-out", default=None, metavar="PATH",
                       help="write the per-query cost artifact to PATH")
    query.set_defaults(fn=run_query_command)
