"""The gated-lane record, and the ``repro bench`` lane that fills it.

``repro bench``, ``run``, ``serve`` and ``retain`` each drive the
seeded report workload (:mod:`repro.workloads.reports`) through one
lane of the system and hold the result to correctness gates — digest
equality with the scalar reference, conservation, zero loss.  They all
produce, print and store the same record, built here:

* :func:`cell` — one measured run: ``reports``, ``elapsed_s``,
  ``reports_per_sec``, ``obs_digest``, ``store_digest`` (``None``
  where a lane has no such digest) plus whatever the lane adds;
* :func:`gate` — ``{gate, value, threshold, pass}``: a boolean must
  equal its threshold, a number must reach it;
* :func:`record` — ``{schema, lane, config, cells, gates, pass}``;
* :func:`render` — the one human-readable view;
* :func:`finish` — stamp date and commit, print, append the JSONL
  history line, dump ``--out``, return the exit code;
* :func:`deployment` — the fresh-registry direct-mode deployment every
  in-process lane runs on.

The drive loops stay with their lanes (:mod:`repro.runtime.soak`,
:mod:`repro.transport.serve`, :mod:`repro.retention.smoke`).  The
throughput trajectory and the regression gate are ``perf/``'s job
(``perf/compare.py``); the ``reports_per_sec`` recorded here is
context for the gates, see ``docs/BENCHMARKS.md``.

The bench lane itself runs every primitive per-report, batched and
(``--vectorized``) through the numpy kernels, one fresh deployment per
cell.  All modes of a primitive must produce the same ``obs_digest``:
batching and vectorization change speed and nothing else.  Its speed
gates — batched Key-Write >= ``SPEEDUP_GATE`` x per-report; each
vectorized cell in ``VECTOR_GATES`` >= its factor x its pre-kernel
baseline — compare cells of one run on one host.  The vector gates
are also what notices a plan silently not being taken: the digests
would still match, the cell would just read ~1x.
"""

from __future__ import annotations

import contextlib
import datetime
import hashlib
import json
import subprocess
import time

from repro import calibration, obs
from repro.core.reporter import Reporter
from repro.core.translator import Translator
from repro.workloads import reports as workload

SCHEMA = "repro-lane/1"

SPEEDUP_GATE = 2.0
VECTOR_GATE = 3.0
#: Vectorized cell -> (baseline lane, required factor).  Key-Increment
#: had a scalar batched fast lane before the kernels (so that is the
#: baseline); batched Sketch-Merge used to fall through to the
#: per-report handler.  The Postcarding and Append scalar lanes already
#: aggregate (one chunk per path, one write per 16 entries), so their
#: plans have less left to win: measured 1.8-2.0x and 1.55-1.7x at
#: batch 64.  A plan that is not taken reads 1.0-1.15x, so each factor
#: sits midway between that and the measured ratio.
VECTOR_GATES = {"key_increment": ("batched", VECTOR_GATE),
                "sketch_merge": ("unbatched", VECTOR_GATE),
                "postcarding": ("batched", 1.5),
                "append": ("batched", 1.3)}
#: The batched and vectorized cells take milliseconds at ``--quick``
#: size, where one scheduler hiccup is a 1.5x: each is the fastest of
#: this many runs on fresh deployments (interference only ever slows a
#: run down; the digests of every run must agree).
FAST_CELL_RUNS = 3


# ---------------------------------------------------------------------------
# The record
# ---------------------------------------------------------------------------


def cell(reports: int, elapsed: float, *, obs_digest=None,
         store_digest=None, **extras) -> dict:
    """One measured run of a lane."""
    return {
        "reports": reports,
        "elapsed_s": round(elapsed, 6),
        "reports_per_sec": round(reports / elapsed, 1) if elapsed else None,
        "obs_digest": obs_digest,
        "store_digest": store_digest,
        **extras,
    }


def set_speedup(fast: dict, baseline_name: str, baseline: dict):
    """Stamp ``fast`` with its throughput ratio over ``baseline``."""
    ratio = None
    if fast["reports_per_sec"] and baseline["reports_per_sec"]:
        ratio = round(fast["reports_per_sec"]
                      / baseline["reports_per_sec"], 2)
    fast["speedup"] = ratio
    fast["baseline"] = baseline_name
    return ratio


def gate(name: str, value, threshold=True) -> dict:
    """One enforced condition, with the value that decided it."""
    if isinstance(threshold, bool):
        ok = value is threshold
    else:
        ok = value is not None and value >= threshold
    return {"gate": name, "value": value, "threshold": threshold,
            "pass": ok}


def record(lane: str, config: dict, cells: dict, gates: list) -> dict:
    """The document a lane returns; :func:`finish` stamps and stores it."""
    return {"schema": SCHEMA, "lane": lane, "config": config,
            "cells": cells, "gates": gates,
            "pass": all(g["pass"] for g in gates)}


def gate_lines(gates: list) -> list:
    return [f"  gate: {g['gate']} (value {g['value']}, "
            f"need {g['threshold']}) -> {'pass' if g['pass'] else 'FAIL'}"
            for g in gates]


def render(document: dict) -> str:
    """Human-readable summary of a lane record."""
    lines = [f"lane {document['lane']}: "
             + json.dumps(document["config"], sort_keys=True)]
    header = (f"  {'cell':<26}{'reports':>10}{'elapsed_s':>11}"
              f"{'reports/s':>14}  speedup")
    lines += [header, "  " + "-" * (len(header) - 2)]
    for name, c in document["cells"].items():
        line = (f"  {name:<26}{c['reports']:>10}{c['elapsed_s']:>11.3f}"
                f"{c['reports_per_sec'] or 0:>14,.0f}")
        if c.get("speedup") is not None:
            line += f"  {c['speedup']:.2f}x vs {c['baseline']}"
        lines.append(line)
        for key, value in c.items():
            if key.endswith(("_digest", "_digests")) and value:
                digests = value if isinstance(value, list) else [value]
                lines += [f"    {key} {digest}" for digest in digests]
    lines += gate_lines(document["gates"])
    lines.append(f"overall: {'PASS' if document['pass'] else 'FAIL'}")
    return "\n".join(lines)


def git_commit() -> str:
    """Short commit hash of the working tree, or "unknown"."""
    try:
        out = subprocess.run(["git", "rev-parse", "--short", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except OSError:
        return "unknown"
    return out.stdout.strip() or "unknown"


def finish(document: dict, history: str | None = None,
           out: str | None = None) -> int:
    """Stamp, print and store a lane record; returns the exit code.

    History records accumulate — a run never overwrites past runs, so
    ``tools/bench_trend.py`` can lay them side by side.
    """
    document["date"] = datetime.date.today().strftime("%Y%m%d")
    document["commit"] = git_commit()
    print(render(document))
    if history:
        with open(history, "a", encoding="utf-8") as handle:
            json.dump(document, handle, sort_keys=True)
            handle.write("\n")
        print(f"appended {document['lane']} record {document['commit']} "
              f"to {history}")
    if out:
        with open(out, "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {out}")
    return 0 if document["pass"] else 1


@contextlib.contextmanager
def deployment(*, vectorized: bool = False, sketch_width: int = 0):
    """A fresh direct-mode deployment on a fresh obs registry.

    Yields ``(registry, collector, translator, reporter)``; the previous
    registry is restored on exit.
    """
    registry = obs.Registry()
    previous = obs.set_registry(registry)
    try:
        collector = workload.provision_collector(
            "collector", sketch_width=sketch_width)
        translator = Translator(vectorized=vectorized)
        collector.connect_translator(translator)
        reporter = Reporter("bench", 1, transmit=translator.handle_report,
                            transmit_batch=translator.process_batch)
        yield registry, collector, translator, reporter
    finally:
        obs.set_registry(previous)


# ---------------------------------------------------------------------------
# The bench lane
# ---------------------------------------------------------------------------


def _latency_percentiles(snapshot, model: calibration.NicModel,
                         atomic: bool) -> dict:
    """p50/p99 modelled per-message latency from the payload histogram.

    Model output, not wall-clock measurement: what the workload would
    cost on the paper's hardware (:mod:`repro.calibration`).
    """
    sample = snapshot.value("translator.rdma_payload_hist",
                            node="translator")
    if not getattr(sample, "count", 0):
        return {"p50": None, "p99": None}
    out = {}
    for label, q in (("p50", 0.50), ("p99", 0.99)):
        target = q * sample.count
        cumulative = 0
        payload = 0
        for index, count in enumerate(sample.buckets):
            cumulative += count
            if count and cumulative >= target:
                payload = obs.Histogram.bucket_bounds(index)[0]
                break
        t = model.t_msg_ns + payload * model.t_byte_ns
        if atomic:
            t *= model.fetch_add_penalty
        out[label] = round(t, 3)
    return out


def _run_cell(primitive: str, mode: str, work: dict,
              batch_size: int) -> dict:
    """One (primitive, mode) cell: the fastest of its runs."""
    runs = [_run_once(primitive, mode, work, batch_size)
            for _ in range(1 if mode == "unbatched" else FAST_CELL_RUNS)]
    if len({run["obs_digest"] for run in runs}) != 1:
        raise RuntimeError(f"{primitive}/{mode}: runs of one cell "
                           "disagree on the obs digest")
    return min(runs, key=lambda run: run["elapsed_s"])


def _run_once(primitive: str, mode: str, work: dict,
              batch_size: int) -> dict:
    """One run of a (primitive, mode) cell on a fresh deployment."""
    n = workload.size(work)
    with deployment(vectorized=(mode == "vectorized"),
                    sketch_width=workload.sketch_width(primitive, n)) as (
            registry, _collector, translator, reporter):
        start = time.perf_counter()
        if mode == "unbatched":
            workload.emit(reporter, primitive, work)
        else:
            for s in range(0, n, batch_size):
                reporter.send_batch(
                    workload.batch(primitive, work, s, s + batch_size))
        if primitive == "append":
            translator.flush_appends()
        elapsed = time.perf_counter() - start
        snapshot = registry.snapshot()
    verbs = translator.stats.rdma_messages
    return cell(
        n, elapsed,
        obs_digest="sha256:" + hashlib.sha256(
            obs.to_jsonl(snapshot).encode()).hexdigest(),
        rdma_messages=verbs,
        verbs_per_sec=round(verbs / elapsed, 1) if elapsed else None,
        modelled_latency_ns=_latency_percentiles(
            snapshot, calibration.DEFAULT_NIC_MODEL,
            atomic=primitive == "key_increment"))


def run_bench(*, reports: int = 20000, batch_size: int = 64,
              seed: int = 1, vectorized: bool = False) -> dict:
    """Run the (primitive, mode) matrix; returns the lane record."""
    modes = ("unbatched", "batched") + (("vectorized",) if vectorized
                                        else ())
    cells = {}
    gates = []
    for primitive in workload.PRIMITIVES:
        work = workload.columns(primitive, reports, seed)
        by_mode = {mode: _run_cell(primitive, mode, work, batch_size)
                   for mode in modes}
        cells.update({f"{primitive}/{mode}": c
                      for mode, c in by_mode.items()})
        digests = {c["obs_digest"] for c in by_mode.values()}
        gates.append(gate(f"{primitive} digests match", len(digests) == 1))
        speedup = set_speedup(by_mode["batched"], f"{primitive}/unbatched",
                              by_mode["unbatched"])
        if primitive == "key_write":
            gates.append(gate("key_write batched speedup", speedup,
                              SPEEDUP_GATE))
        if vectorized:
            baseline, factor = VECTOR_GATES.get(primitive, ("batched", None))
            speedup = set_speedup(by_mode["vectorized"],
                                  f"{primitive}/{baseline}",
                                  by_mode[baseline])
            if factor is not None:
                gates.append(gate(f"{primitive} vectorized speedup",
                                  speedup, factor))
    config = {"reports": reports, "batch_size": batch_size, "seed": seed,
              "speedup_gate": SPEEDUP_GATE, "vector_gate": VECTOR_GATE,
              "vectorized": vectorized}
    return record("bench", config, cells, gates)
