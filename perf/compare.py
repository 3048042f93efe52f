#!/usr/bin/env python3
"""Compare two result sets: ``python3 perf/compare.py A.json B.json``.

``A`` is the parent, ``B`` the change; both are result files written by
``run.py`` (run each with ``--runs 10`` or more).  One row per
(metric, workload): each side's median and quartiles, the bound from
``BENCHMARK.json``, and a verdict —

* ``better`` / ``worse``: the medians differ by more than the bound in
  that direction (per-layer metrics have no bound and never get these);
* ``within-bound``: they do not;
* ``unresolved``: either side's own quartile spread is wider than the
  bound, so the comparison cannot tell — unless every run of one side
  beats every run of the other, which is reported as better/worse.

Each side's ``harness.calib_kops`` (the spin every run takes before and
after its reps) and load average are printed first: when the calibration spin
moved the same way as the metrics, the host moved, not the code.
Exit status is 1 if any end-to-end row is ``worse``.
"""

from __future__ import annotations

import json
import os
import sys

from harness import quartiles

HERE = os.path.dirname(os.path.abspath(__file__))


def load(path: str) -> dict:
    with open(path, encoding="utf-8") as handle:
        doc = json.load(handle)
    if doc.get("schema") != "perf-result/1":
        raise SystemExit(f"{path}: not a perf-result/1 file")
    return doc


def samples(doc: dict) -> dict:
    """``(metric, workload) -> [values]`` over the correct runs."""
    out: dict = {}
    for run in doc["runs"]:
        if not run["correct"]:
            continue
        for metric, cell in run["metrics"].items():
            out.setdefault((metric, run["workload"]), []).append(
                cell["value"])
    return out


def _dominates(x: list, y: list, better: str) -> bool:
    """Every run of ``x`` reads better than every run of ``y``."""
    return min(x) > max(y) if better == "higher" else max(x) < min(y)


def verdict(a: list, b: list, better: str, bound: float | None) -> str:
    qa, qb = quartiles(a), quartiles(b)
    if qa[1] == 0 or qb[1] == 0:
        return "n/a"
    sign = 1.0 if better == "higher" else -1.0
    gain = sign * (qb[1] - qa[1]) / abs(qa[1])
    if bound is None:
        return f"{gain:+.1%}"
    spread = max((qa[2] - qa[0]) / abs(qa[1]), (qb[2] - qb[0]) / abs(qb[1]))
    if spread > bound:
        if _dominates(b, a, better):
            return "better"
        if _dominates(a, b, better):
            return "worse"
        return "unresolved"
    if gain > bound:
        return "better"
    if gain < -bound:
        return "worse"
    return "within-bound"


def _host_line(label: str, doc: dict) -> str:
    calib = [kops for run in doc["runs"]
             for kops in run.get("notes", {}).get("calib_kops", ())]
    spin = (f"calib_kops q1/med/q3 "
            + "/".join(f"{q:,.0f}" for q in quartiles(calib))
            if calib else "calib_kops n/a")
    host = doc.get("host", {})
    return (f"{label}: {len(doc['runs'])} runs, {spin}, nproc "
            f"{host.get('nproc')}, loadavg {host.get('loadavg')}, python "
            f"{host.get('python')}, numpy {host.get('numpy')}")


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"),
              encoding="utf-8") as handle:
        bench = json.load(handle)
    table = {m["name"]: (m["better"], m.get("bound"))
             for m in bench["end_to_end"] + bench["per_layer"]}
    doc_a, doc_b = load(argv[0]), load(argv[1])
    a, b = samples(doc_a), samples(doc_b)
    print(_host_line("A", doc_a))
    print(_host_line("B", doc_b))
    failed = [f"{side} {run['workload']} seed {run['seed']}"
              for side, doc in (("A", doc_a), ("B", doc_b))
              for run in doc["runs"] if not run["correct"]]
    if failed:
        print("incorrect runs (left out): " + ", ".join(failed))
    header = (f"{'metric':<36}{'workload':<22}{'A q1/med/q3':>34}"
              f"{'B q1/med/q3':>34}{'bound':>7}  verdict")
    print(header)
    print("-" * len(header))
    worse = 0
    for (metric, workload) in sorted(a.keys() & b.keys()):
        better, bound = table.get(metric, ("lower", None))
        qa, qb = quartiles(a[(metric, workload)]), \
            quartiles(b[(metric, workload)])
        if qa[1] == 0 and qb[1] == 0:
            continue                         # layer idle on this workload
        word = verdict(a[(metric, workload)], b[(metric, workload)],
                       better, bound)
        worse += word == "worse"
        fmt = "{:.4g}/{:.4g}/{:.4g}"
        print(f"{metric:<36}{workload:<22}{fmt.format(*qa):>34}"
              f"{fmt.format(*qb):>34}"
              f"{'' if bound is None else format(bound, '.0%'):>7}  {word}")
    return 1 if worse or failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
