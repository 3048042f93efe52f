#!/usr/bin/env python3
"""Checks on the benchmark itself: ``python3 perf/selftest.py --smoke``.

Runs every workload at 1/20 scale, untraced and traced, and checks
what a later change to ``perf/`` could silently break:

* ``BENCHMARK.json`` equals the table in ``metrics.py``, and the metric
  and workload names the runs print equal those in ``BENCHMARK.json``
  exactly;
* in every span file the self times of all layers plus
  ``harness.self_s`` add up to the traced wall within 5 %;
* ``perf/`` reaches ``repro`` only through public names: no
  ``_``-prefixed import, no ``_``-prefixed attribute of a ``repro``
  module;
* no run leaves a process behind: the selftest adopts orphans, so a
  child that outlives its ``run.py`` (multiprocessing's resource
  tracker did, until ``harness.stop_all_processes``) shows up here.

Exit status 0 when every check passes.
"""

from __future__ import annotations

import argparse
import ast
import concurrent.futures
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SMOKE_SCALE = 0.05
SMOKE_SECONDS = 0.2
RUN_TIMEOUT_S = 60


def check_imports() -> list:
    """No private name of ``repro`` anywhere under ``perf/``."""
    problems = []
    for file_name in sorted(os.listdir(HERE)):
        if not file_name.endswith(".py"):
            continue
        with open(os.path.join(HERE, file_name), encoding="utf-8") as handle:
            tree = ast.parse(handle.read(), file_name)
        modules = set()             # local names bound to repro modules
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module \
                    and node.module.split(".")[0] == "repro":
                for alias in node.names:
                    if alias.name.startswith("_"):
                        problems.append(
                            f"{file_name}:{node.lineno} imports "
                            f"{node.module}.{alias.name}")
                    modules.add(alias.asname or alias.name)
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.split(".")[0] == "repro":
                        modules.add((alias.asname or alias.name)
                                    .split(".")[0])
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) \
                    and isinstance(node.value, ast.Name) \
                    and node.value.id in modules \
                    and node.attr.startswith("_") \
                    and not node.attr.startswith("__"):
                problems.append(f"{file_name}:{node.lineno} touches "
                                f"{node.value.id}.{node.attr}")
    return problems


def check_benchmark_json() -> tuple:
    import metrics

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    problems = []
    if bench != metrics.benchmark_json(bench.get("run_seconds")):
        problems.append("BENCHMARK.json differs from perf/metrics.py")
    return bench, problems


def _run(workload: str, trace: int) -> tuple:
    command = [sys.executable, os.path.join(HERE, "run.py"),
               "--workload", workload, "--seed", "1",
               "--seconds", str(SMOKE_SECONDS), "--trace", str(trace),
               "--scale", str(SMOKE_SCALE)]
    done = subprocess.run(command, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    return workload, trace, done


def check_span_file(workload: str) -> list:
    """Self times of every span add up to the root's wall."""
    from spans import Tracer

    path = os.path.join(HERE, "out", f"{workload}.trace.json")
    with open(path, encoding="utf-8") as handle:
        doc = json.load(handle)
    tracer = Tracer()
    tracer.spans = [list(span) for span in doc["spans"]]
    times = tracer.self_times()["own"]
    wall = doc["traced_wall_s"]
    total = sum(self_s for self_s, _calls in times.values())
    layers = total - times["harness.rep"][0]
    problems = []
    if abs(total - wall) > 0.05 * wall:
        problems.append(f"{workload}: self times sum to {total:.4f}s, "
                        f"traced wall is {wall:.4f}s")
    if layers < 0.5 * wall:
        problems.append(f"{workload}: layers cover only "
                        f"{layers / wall:.0%} of the traced wall")
    return problems


def smoke() -> list:
    import harness

    harness.contain_processes()
    bench, problems = check_benchmark_json()
    problems += check_imports()
    names = [w["name"] for w in bench["workloads"]]
    expected = {0: [m["name"] for m in bench["end_to_end"]],
                1: [m["name"] for m in bench["per_layer"]]}
    units = {m["name"]: m["unit"]
             for m in bench["end_to_end"] + bench["per_layer"]}
    jobs = [(name, trace) for trace in (1, 0) for name in names]
    with concurrent.futures.ThreadPoolExecutor(os.cpu_count() or 2) as pool:
        for workload, trace, done in pool.map(lambda j: _run(*j), jobs):
            label = f"{workload} --trace {trace}"
            lines = done.stdout.strip().splitlines()
            if done.returncode or not lines:
                problems.append(f"{label}: exit {done.returncode}: "
                                + done.stderr.strip()[-300:])
                continue
            result = json.loads(lines[-1])
            if sorted(result) != ["attempted", "correct", "failed",
                                  "metrics"]:
                problems.append(f"{label}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"]:
                problems.append(f"{label}: incorrect")
            if list(result["metrics"]) != expected[trace]:
                problems.append(f"{label}: metric names differ from "
                                "BENCHMARK.json")
            for metric, cell in result["metrics"].items():
                if cell["unit"] != units.get(metric):
                    problems.append(f"{label}: unit of {metric}")
            printed = [line.split()[0] for line in lines[1:-1]
                       if not line.startswith("FAIL")]
            if printed != expected[trace] + ["fail_ratio"]:
                problems.append(f"{label}: printed names differ from "
                                "BENCHMARK.json")
            if f"# {workload} " not in lines[0]:
                problems.append(f"{label}: header names another workload")
            if trace:
                problems += check_span_file(workload)
    left = harness.child_pids()             # orphans, zombies included
    if left:
        problems.append(f"runs left {len(left)} process(es) behind")
    harness.stop_all_processes()
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--smoke", action="store_true",
                        help="all workloads at 1/20 scale plus the static "
                             "checks (the only mode)")
    parser.parse_args(argv)
    start = time.perf_counter()
    problems = smoke()
    for problem in problems:
        print(f"FAIL {problem}")
    print(f"selftest: {'FAIL' if problems else 'ok'} "
          f"({time.perf_counter() - start:.1f}s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
