#!/usr/bin/env python3
"""The repo benchmark: ``python3 perf/run.py [--workload NAME] [--seed N]
[--seconds S] [--trace [0|1]]``.

With ``--workload`` it runs that workload in this interpreter and
prints every metric by name with its unit, then — as the last line of
standard output — one JSON object ``{"correct", "attempted", "failed",
"metrics"}``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.  Without ``--workload`` it runs every
workload, each in a fresh interpreter, and writes one result file
(``--out``, default ``perf/out/result.json``) that ``compare.py``
reads.  Exit status is non-zero on any correctness failure, leak or
missed deadline.

A run is: generate inputs from the seed; one small differential rep
against the scalar reference; one discarded warm-up rep; then timed
reps of fixed work on fresh deployments until ``--seconds`` have
passed.  Every timing reported is the fast decile over the timed reps'
samples (the medians ride along in the notes).
See ``perf/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import signal
import subprocess
import sys

import harness

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

RUN_SECONDS = 28
WORKLOAD_DEADLINE_S = 150.0
MIN_REPS = 3
#: After the timed reps, this long is spent on set-ups alone: a rep has
#: one set-up, and an in-process one takes milliseconds.
SETUP_SECONDS = 0.4

MIXED = {"key_write": 4, "key_increment": 4, "postcarding": 4, "append": 4,
         "sketch_merge": 1}


def _mixed(each: int) -> dict:
    return {p: each * share // 4 for p, share in MIXED.items()}


def _plan_workers() -> int:
    return max(1, min(2, (os.cpu_count() or 2) - 1))


INLINE_VECTOR = {"workers": 0, "vectorized": True}
SCALAR_REFERENCE = {"workers": 0, "vectorized": False}

#: Rep sizes give timed reps of roughly 0.5-1 s on a 2-core host, so a
#: 28 s run holds thirty or more; ``diff`` is the differential rep's size.
#:
#: Four workloads, not more: the driver's time limit covers 4 + 22 runs
#: per workload, and this host has slow episodes of up to ~30 s (every
#: timing +20-30 %).  A run shorter than an episode can fall wholly
#: inside one, and no estimator recovers it; three such runs in ten
#: push a spread past its bound.  Four workloads leave 28 s a run.
CONFIGS = {
    "udp_kw_lossy": {
        "kind": "socket", "primitive": "key_write", "reports": 250_000,
        "diff": 20_000, "drop": 0.02, "reorder": 0.02},
    "serve_mixed_queries": {
        "kind": "inproc", "sizes": _mixed(30_000), "diff": _mixed(5_000),
        "batch": 64, "ticks": 10, "engine": INLINE_VECTOR},
    # queue_depth=1, not the engine's default 64: with two or more slots
    # in flight a plan-worker ring tears its own counters
    # (ShmCreditQueue.put zero-fills then writes ``enq`` while get()
    # reads it: ~1 rep in 400 died with "__len__() should return >= 0"
    # -> RingPeerDead; 4 of 10 at batch 8).  One slot in flight cannot
    # race, and the benchmark runs only workloads on which no operation
    # fails.  Batch 4096, not 1024: with one slot in flight every batch
    # is a synchronous ping-pong, and at 1024 the result mostly measures
    # wake-up latency (run-to-run spread 11 % against 6 %); 8192 would
    # overflow the result slot.  See "Baseline findings" in README.md.
    "inproc_ki_b4096_proc": {
        "kind": "inproc", "sizes": {"key_increment": 1_500_000},
        "diff": {"key_increment": 40_000}, "batch": 4096,
        "engine": {"workers": _plan_workers(), "vectorized": True,
                   "executor": "process", "queue_depth": 1}},
    "ref_mixed_scalar": {
        "kind": "inproc", "sizes": _mixed(50_000), "diff": _mixed(10_000),
        "prefix": 0.25, "batch": 64, "engine": SCALAR_REFERENCE},
}

#: Not a workload of its own (see above): one traced rep of it in
#: ``serve_mixed_queries``'s traced pass gives the ``retention.*``
#: layer metrics — rotation runs under ``store_lock``, so its cost is
#: lost ingest rate.
RETAIN_DIAG = {
    "kind": "inproc",
    "sizes": {"key_write": 75_000, "key_increment": 75_000,
              "append": 75_000},
    "batch": 64, "engine": INLINE_VECTOR,
    "retention": {"window": 2, "rotate_every": 200}}

LOSS_SEED = 7
CATALOG_KEYS = 4096


diag = gen = lanes = metrics = spans = None


def _load() -> None:
    """Bind the benchmark's modules (they import ``repro``).

    Deferred to ``main`` so that a checkout without the program under
    test ends in one line and exit status 3, and refuses a ``repro``
    that would come from anywhere but this checkout.
    """
    global diag, gen, lanes, metrics, spans
    import repro

    where = os.path.realpath(os.path.dirname(repro.__file__))
    if not where.startswith(os.path.realpath(ROOT) + os.sep):
        raise ImportError(f"repro imported from {where}, not this checkout")
    import diag
    import gen
    import lanes
    import metrics
    import spans


# ---------------------------------------------------------------------------
# Input preparation
# ---------------------------------------------------------------------------


def prepare(cfg: dict, seed: int, scale: float, *, diff: bool = False) -> dict:
    """Everything a rep under ``cfg`` consumes, generated from ``seed``."""
    from repro.queries.catalog import shipped_plans

    inp = {"batch": cfg.get("batch", 256)}
    if cfg["kind"] == "socket":
        from repro.core.cluster import ClusterMap
        from repro.transport.loss import LossSpec
        from repro.transport.serve import ServeSpec, route_report

        n = max(1000, int((cfg["diff"] if diff else cfg["reports"]) * scale))
        cols = gen.columns(cfg["primitive"], n, seed)
        works = {cfg["primitive"]: cols}
        spec = ServeSpec(
            primitive=cfg["primitive"], reports=n, collectors=2,
            batch_size=256, seed=seed, translators=1, frame_bytes=1400,
            loss=LossSpec(seed=LOSS_SEED, drop_rate=cfg["drop"],
                          reorder_rate=cfg["reorder"]))
        raws = gen.wire_reports(cfg["primitive"], cols)
        cmap = ClusterMap(collectors=spec.collectors)
        inp.update(works=works, spec=spec, raws=raws, sketch_width=0,
                   shards=[route_report(cmap, raw) for raw in raws])
    else:
        sizes = {p: max(inp["batch"], int(n * scale))
                 for p, n in cfg["diff" if diff else "sizes"].items()}
        works = gen.mixed_works(sizes, seed)
        sched = gen.schedule(sizes, inp["batch"])
        if "prefix" in cfg:
            sched = sched[:max(1, int(len(sched) * cfg["prefix"]))]
        inp.update(works=works, schedule=sched,
                   sketch_width=sizes.get("sketch_merge", 0))
        ticks = cfg.get("ticks")
        if ticks:
            inp["tick_at"] = frozenset(
                len(sched) * (k + 1) // ticks - 1 for k in range(ticks))
    head = {p: {col: values[:CATALOG_KEYS] for col, values in cols.items()}
            for p, cols in works.items()}
    inp["plans"] = shipped_plans(gen.catalog_works(head, seed))
    if cfg["kind"] == "socket":
        # The daemons' geometry serves no sketch store.
        del inp["plans"]["heavy_keys"]
    return inp


# ---------------------------------------------------------------------------
# One workload
# ---------------------------------------------------------------------------


class Run:
    """State of one workload run: inputs, reps, failures."""

    def __init__(self, name: str, seed: int, scale: float) -> None:
        self.name = name
        self.seed = seed
        self.scale = scale
        self.cfg = CONFIGS[name]
        self.rss = harness.TreeRss()
        self.ledger = harness.ShmLedger()
        self.ckpt_dir = os.path.join(HERE, "out",
                                     f"ckpt-{name}-{os.getpid()}")
        self.failures: list = []
        self.attempted = 0
        self.failed = 0
        start = harness.clock()
        self.inp = prepare(self.cfg, seed, scale)
        self.small = prepare(self.cfg, seed, scale, diff=True)
        self.gen_s = harness.clock() - start

    def rep(self, tracer=None, inp=None, **kwargs) -> dict:
        fn = (lanes.socket_rep if self.cfg["kind"] == "socket"
              else lanes.inproc_rep)
        return fn(self.cfg, inp or self.inp, tracer or spans.NULL,
                  self.rss, self.ckpt_dir, **kwargs)

    def extra_setups(self, seconds: float) -> list:
        """More ``setup_s`` samples: set-ups alone, for ``seconds``."""
        fn = (lanes.socket_setup if self.cfg["kind"] == "socket"
              else lanes.inproc_setup)
        samples = []
        start = harness.clock()
        while harness.clock() - start < seconds:
            samples.append(fn(self.cfg, self.inp))
        return samples

    def fail(self, reports: int, why: str) -> None:
        self.failed += reports
        self.failures.append(why)

    def differential(self) -> None:
        """A small rep must land the scalar reference's exact bytes."""
        rep = self.rep(inp=self.small, read_phase=False)
        if self.cfg["kind"] == "socket":
            from repro.transport.serve import run_reference

            reference = tuple(run_reference(self.small["spec"],
                                            self.small["raws"]))
        elif self.cfg["engine"] == SCALAR_REFERENCE:
            reference = lanes.per_report_digest(self.small)
        else:
            reference = self.rep(inp=self.small, read_phase=False,
                                 engine_kw=SCALAR_REFERENCE)["digest"]
        self.attempted += rep["expected"]
        if rep["failures"]:
            self.fail(rep["expected"], "differential rep: "
                      + "; ".join(rep["failures"]))
        elif rep["digest"] != reference:
            self.fail(rep["expected"],
                      "differential rep: store digest differs from the "
                      "scalar reference")

    def account(self, reps: list) -> None:
        """Gate the timed reps: conservation, digests, catalog rows."""
        first = reps[0]
        for index, rep in enumerate(reps):
            self.attempted += rep["expected"]
            why = list(rep["failures"])
            if rep["digest"] != first["digest"]:
                why.append("store digest differs from rep 0")
            for seq, rows in rep["tick_rows"].items():
                if first["tick_rows"].get(seq, rows) != rows:
                    why.append(f"catalog rows differ at batch_seq {seq}")
            if why:
                self.fail(rep["expected"], f"rep {index}: " + "; ".join(why))


def _pooled(reps: list, key: str) -> list:
    return [value for rep in reps for value in rep[key]]


def _samples(reps: list) -> dict:
    """Per-metric sample lists of the timed reps (rates and times)."""
    ticks = list(zip(*(r["tick_ms"] for r in reps)))   # per tick point
    return {
        "ingest_rps": [r["landed"] / r["wall_s"] for r in reps],
        "cpu_us_per_report": [
            (r["cpu_parent"] + r["cpu_children"]) / max(r["landed"], 1) * 1e6
            for r in reps],
        "setup_s": [r["setup_s"] for r in reps],
        "query_tick_ms": ticks,
        "checkpoint_ms": _pooled(reps, "ckpt_ms"),
        "restore_ms": _pooled(reps, "restore_ms"),
    }


def end_to_end(run: Run, reps: list, setups: list, estimate) -> dict:
    """Every end-to-end metric under ``estimate`` (fast decile, or the
    median for the notes).  A tick is estimated per tick point of the
    stream — the store fills between points, so their costs differ —
    and the metric is the median over the points."""
    samples = _samples(reps)
    samples["setup_s"] += setups
    out = {"peak_rss_mb": run.rss.peak_mb()}
    for metric, values in samples.items():
        if metric == "query_tick_ms":
            out[metric] = harness.median(
                [estimate(point) for point in values])
        elif metric == "ingest_rps":
            out[metric] = estimate(values, rate=True)
        else:
            out[metric] = estimate(values)
    return out


def _prologue(run: Run) -> tuple:
    """Calibrate, gate the differential rep, warm up; arm the leak guard."""
    calib = [harness.calib_kops()]
    run.differential()
    run.rep()                                  # warm-up, discarded
    return calib, harness.LeakGuard(run.ledger)


def run_untraced(run: Run, seconds: float) -> tuple:
    calib, guard = _prologue(run)
    reps = []
    start = harness.clock()
    while len(reps) < MIN_REPS or harness.clock() - start < seconds:
        reps.append(run.rep())
    setups = run.extra_setups(SETUP_SECONDS)
    guard.check(run.name)
    calib.append(harness.calib_kops())
    run.account(reps)
    medians = end_to_end(run, reps, setups,
                         lambda values, rate=False: harness.median(values))
    notes = {
        "reps": len(reps),
        "setup_samples": len(reps) + len(setups),
        "tick_samples": len(_pooled(reps, "tick_ms")),
        "ckpt_samples": len(_pooled(reps, "ckpt_ms")),
        "calib_kops": [round(c, 1) for c in calib],
        "plan_workers": run.cfg["engine"].get("workers")
        if run.cfg["kind"] == "inproc" else None,
        "medians": {k: float(f"{v:.5g}") for k, v in medians.items()},
    }
    return end_to_end(run, reps, setups, harness.fast), notes


# ---------------------------------------------------------------------------
# The traced pass
# ---------------------------------------------------------------------------


def _submit_burst_ratio(tracer) -> float:
    """Batches whose submit reached ``post_burst`` / batches submitted."""
    rows = tracer.spans
    submits = [i for i, s in enumerate(rows) if s[0] == "runtime.submit"]
    if not submits:
        return 0.0
    hit = set()
    for name, _start, _end, parent, _thread, _seq in rows:
        if name != "rdma.post_burst":
            continue
        while parent > 0 and rows[parent][0] != "runtime.submit":
            parent = rows[parent][3]
        if parent > 0:
            hit.add(parent)
    return len(hit) / len(submits)


def layer_metrics(run: Run, rep: dict, tracer) -> dict:
    """Per-layer values of one traced rep (zeros where a layer idles)."""
    median = harness.median
    out = dict.fromkeys((m[0] for m in metrics.PER_LAYER), 0.0)
    times = tracer.self_times()
    for span_name, metric in metrics.SPAN_METRIC.items():
        out[metric] = (times["own"].get(span_name, (0.0, 0))[0]
                       + times["foreign"].get(span_name, 0.0))
    out["harness.self_s"] = times["own"].get("harness.rep", (0.0, 0))[0]
    unknown = rep["layer"].keys() - out.keys()
    if unknown:
        raise harness.BenchError(f"not in metrics.py: {sorted(unknown)}")
    out.update(rep["layer"])
    out["core.translator.scalar_burst_ratio"] = _submit_burst_ratio(tracer)
    snapshots = tracer.durations("queries.snapshot")
    if snapshots:
        out["queries.snapshot_ms_p50"] = median(snapshots) * 1e3
    for plan, values in rep["plan_ms"].items():
        out[f"queries.plan_ms_p50.{plan}"] = median(values)
    out["queries.rows_scanned_per_tick"] = median(rep["rows_scanned"])
    out["queries.bytes_touched_per_tick"] = median(rep["bytes_touched"])
    return out


def retention_layer(run: Run) -> dict:
    """The ``retention.*`` metrics: a traced rep of ``RETAIN_DIAG``
    (after one discarded) beside ``serve_mixed_queries``'s own."""
    inp = prepare(RETAIN_DIAG, run.seed, run.scale)
    for _ in range(2):
        tracer = spans.Tracer()
        rep = lanes.inproc_rep(RETAIN_DIAG, inp, tracer, run.rss,
                               run.ckpt_dir)
        if rep["failures"]:
            raise AssertionError("retention rep: "
                                 + "; ".join(rep["failures"]))
    rotations = tracer.durations("retention.rotate")
    out = {name: value for name, value in rep["layer"].items()
           if name.startswith("retention.")}
    if rotations:                       # none at the selftest's scale
        out["retention.rotate_ms_p50"] = harness.median(rotations) * 1e3
        out["retention.rotate_share"] = sum(rotations) / rep["wall_s"]
    return out


def diagnostics(run: Run, landed: int) -> dict:
    """Standalone measurements next to the traced reps (see diag.py)."""
    out = {"core.translator.perreport_rps":
           diag.per_report_rps(run.seed, run.scale)}
    if run.cfg["kind"] == "socket":
        out["kernels.wire.decode_s"] = diag.wire_decode_s(run.inp)
        out.update(diag.replay(run.inp, landed))
    out.update(diag.kernel_times(run.inp, run.scale))
    ladder = None
    if run.name == "inproc_ki_b4096_proc":
        ladder = (750_000, {
            "runtime.lane.inline_rps": INLINE_VECTOR,
            "runtime.lane.thread2_rps": {"workers": 2, "vectorized": True},
            "runtime.lane.process_rps": run.cfg["engine"]})
    elif run.name == "serve_mixed_queries":
        ladder = (200_000, {
            "runtime.lane.thread2_b64_rps": {"workers": 2,
                                             "vectorized": True}})
        out.update(retention_layer(run))
    if ladder is not None:
        prefix, lanes_kw = ladder
        out.update(diag.lane_ladder(
            run.cfg, run.inp, run.rss, run.ckpt_dir,
            prefix=max(run.inp["batch"], int(prefix * run.scale)),
            lanes=lanes_kw))
    return out


def run_traced(run: Run, seconds: float) -> tuple:
    """Alternate untraced and traced reps; then the standalone layers."""
    steal = harness.steal_ticks()
    calib, guard = _prologue(run)
    plain, traced, layers = [], [], []
    tracer = None
    start = harness.clock()
    while not traced or harness.clock() - start < seconds / 2:
        plain.append(run.rep())
        tracer = spans.Tracer()
        rep = run.rep(tracer)
        traced.append(rep)
        layers.append(layer_metrics(run, rep, tracer))
    run.account(plain + traced)
    out = {name: harness.median([layer[name] for layer in layers])
           for name in layers[0]}
    try:
        out.update(diagnostics(run, traced[-1]["landed"]))
    except AssertionError as exc:
        run.fail(traced[-1]["expected"], f"diagnostics: {exc}")
    guard.check(run.name)
    calib.append(harness.calib_kops())

    walls = [r["wall_s"] for r in plain]
    percentile, tail = harness.tail(_pooled(plain + traced, "tick_ms"))
    out["queries.tick_ms_tail"] = tail
    out["harness.gen_s"] = run.gen_s
    out["harness.trace_overhead_ratio"] = \
        harness.median([r["wall_s"] for r in traced]) / harness.median(walls)
    out["harness.rep_spread"] = (max(walls) - min(walls)) / harness.median(walls)
    out["harness.calib_kops"] = sum(calib) / len(calib)
    out["harness.host_steal_ticks"] = harness.steal_ticks() - steal

    root = tracer.spans[0]
    traced_wall = root[2] - root[1]
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    tracer.dump(os.path.join(HERE, "out", f"{run.name}.trace.json"),
                {"workload": run.name, "seed": run.seed,
                 "traced_wall_s": traced_wall})
    notes = {
        "reps": len(traced), "tick_tail_percentile": percentile,
        "tick_samples": len(_pooled(plain + traced, "tick_ms")),
        "traced_wall_s": traced_wall,
        "layer_share": 1.0 - layers[-1]["harness.self_s"] / traced_wall,
        "calib_kops": [round(c, 1) for c in calib],
    }
    return out, notes


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 scale: float) -> int:
    """Run one workload here; print metrics and the result line."""
    run = None
    try:
        with harness.deadline(WORKLOAD_DEADLINE_S, f"workload {name}"):
            run = Run(name, seed, scale)
            gc.collect()
            gc.freeze()
            values, notes = (run_traced if trace else run_untraced)(
                run, seconds)
    except harness.BenchError as exc:
        print(f"perf: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    table = metrics.PER_LAYER if trace else metrics.END_TO_END
    units = {m[0]: m[1] for m in table}
    fail_ratio = run.failed / max(run.attempted, 1)
    print(f"# {name} seed={seed} trace={int(trace)} scale={scale} "
          f"seconds={seconds} notes={json.dumps(notes)}")
    for metric, unit in units.items():
        print(f"{metric:<42}{values[metric]:>18.6f} {unit}")
    print(f"{'fail_ratio':<42}{fail_ratio:>18.6f} ratio "
          f"({run.failed}/{run.attempted} reports)")
    for why in run.failures:
        print(f"FAIL {why}")
    print(json.dumps({
        "correct": not run.failures, "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {metric: {"value": values[metric], "unit": unit}
                    for metric, unit in units.items()}}))
    return 1 if run.failures else 0


# ---------------------------------------------------------------------------
# Every workload, each in a fresh interpreter
# ---------------------------------------------------------------------------


def run_all(args) -> int:
    runs = []
    status = 0
    for index in range(args.runs):
        seed = args.seed + index
        for name in CONFIGS:
            command = [sys.executable, os.path.abspath(__file__),
                       "--workload", name, "--seed", str(seed),
                       "--seconds", str(args.seconds),
                       "--trace", str(args.trace),
                       "--scale", str(args.scale)]
            try:
                done = subprocess.run(command, capture_output=True,
                                      text=True,
                                      timeout=WORKLOAD_DEADLINE_S + 30)
            except subprocess.TimeoutExpired:
                print(f"perf: {name} outlived its deadline", file=sys.stderr)
                status = 2
                continue
            sys.stdout.write(done.stdout)
            sys.stderr.write(done.stderr)
            lines = done.stdout.strip().splitlines()
            if done.returncode or not lines:
                status = status or done.returncode or 2
            if lines and lines[-1].startswith("{"):
                notes = lines[0].partition("notes=")[2]
                runs.append({"workload": name, "seed": seed,
                             "trace": args.trace, "host": harness.host_facts(),
                             "notes": json.loads(notes) if notes else {},
                             **json.loads(lines[-1])})
    out = args.out or os.path.join(HERE, "out", "result.json")
    os.makedirs(os.path.dirname(os.path.abspath(out)), exist_ok=True)
    with open(out, "w", encoding="utf-8") as handle:
        json.dump({"schema": "perf-result/1", "seconds": args.seconds,
                   "scale": args.scale, "host": harness.host_facts(),
                   "runs": runs}, handle, indent=1)
        handle.write("\n")
    print(json.dumps({"result_file": os.path.relpath(out), "runs": len(runs),
                      "correct": status == 0}))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(CONFIGS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1))
    parser.add_argument("--scale", type=float, default=1.0,
                        help="shrink every rep (selftest uses 0.05)")
    parser.add_argument("--runs", type=int, default=1,
                        help="without --workload: seeds seed..seed+runs-1")
    parser.add_argument("--out", help="result file of an all-workload run")
    args = parser.parse_args(argv)
    me = os.getpid()

    def on_term(signum, frame):
        # Forked daemons inherit this handler; they must just die.
        if os.getpid() != me:
            signal.signal(signum, signal.SIG_DFL)
            os.kill(os.getpid(), signum)
            return
        raise SystemExit(128 + signum)

    signal.signal(signal.SIGTERM, on_term)
    harness.contain_processes()
    try:
        _load()
        if args.workload:
            return run_workload(args.workload, args.seed, args.seconds,
                                bool(args.trace), args.scale)
        return run_all(args)
    except ImportError as exc:
        print(f"perf: cannot import the program under test: {exc}",
              file=sys.stderr)
        return 3
    finally:
        # Every way out — result, failed gate, deadline, traceback,
        # SIGTERM — stops and waits for everything this run started.
        harness.stop_all_processes()


if __name__ == "__main__":
    sys.exit(main())
