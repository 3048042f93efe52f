"""Benchmark harness support: result recording for every table/figure.

Each benchmark regenerates one table or figure of the paper's
evaluation, asserts its *shape* (who wins, by what factor, where
crossovers fall), and writes the reproduced rows/series into
``benchmarks/results/<experiment>.txt`` so EXPERIMENTS.md can be checked
against concrete artifacts.
"""

from __future__ import annotations

import pathlib

import pytest

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


@pytest.fixture(scope="session")
def results_dir() -> pathlib.Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


@pytest.fixture
def record(results_dir):
    """Write one experiment's reproduced output to results/<name>.txt."""

    def _record(name: str, text: str) -> None:
        path = results_dir / f"{name}.txt"
        path.write_text(text if text.endswith("\n") else text + "\n")

    return _record


def format_table(headers: list, rows: list) -> str:
    """Monospace table for the results files."""
    widths = [max(len(str(h)), *(len(str(r[i])) for r in rows))
              for i, h in enumerate(headers)]
    line = "  ".join(str(h).ljust(w) for h, w in zip(headers, widths))
    out = [line, "-" * len(line)]
    for row in rows:
        out.append("  ".join(str(c).ljust(w)
                             for c, w in zip(row, widths)))
    return "\n".join(out)


def fmt_rate(rate: float) -> str:
    """Human rate: 1.05B/s, 90.5M/s, 950K/s."""
    if rate >= 1e9:
        return f"{rate / 1e9:.2f}B/s"
    if rate >= 1e6:
        return f"{rate / 1e6:.1f}M/s"
    return f"{rate / 1e3:.0f}K/s"


def measured_lane_rates(primitive: str, reports: int = 20_000,
                        batch: int = 64) -> dict:
    """Reports/s this host sustains through the translator, per lane:
    per report, the scalar batched lane, and the plan (best of 3, one
    core, fresh deployment each; the three must agree on store bytes).
    """
    import time

    from repro import bench
    from repro.runtime import store_digest
    from repro.workloads import reports as workload

    work = workload.columns(primitive, reports, seed=1)
    rates, digests = {}, set()
    for lane in ("per report", "scalar batched", "plan"):
        best = float("inf")
        for _ in range(3):
            with bench.deployment(vectorized=lane == "plan") as (
                    _registry, collector, translator, reporter):
                start = time.perf_counter()
                if lane == "per report":
                    workload.emit(reporter, primitive, work)
                else:
                    for s in range(0, reports, batch):
                        reporter.send_batch(workload.batch(
                            primitive, work, s, s + batch))
                translator.flush_appends()
                best = min(best, time.perf_counter() - start)
                digests.add(store_digest(collector))
        rates[lane] = reports / best
    assert len(digests) == 1, "lanes disagree on store bytes"
    return rates
