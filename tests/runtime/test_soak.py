"""Streamed lanes against the serial reference, gated like a run.

Each streamed lane (the thread pair, plan worker processes, the inline
vectorized lane) must leave the same store bytes and non-``runtime.*``
obs digest as the ``workers=0`` scalar reference replaying exactly
what it submitted, and lose no report — the two gates a streamed run
is held to.  Throughput is ``perf/``'s business, not these tests'.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro import bench
from repro.cli import main
from repro.workloads import reports
from tests import conformance

REPORTS = 1500


def _gates(primitive: str, work: dict, lane: str, **stream_kw) -> tuple:
    """Streamed lane, then the serial replay of what it submitted."""
    stream = conformance.Stream(
        primitive, work,
        sketch_width=reports.sketch_width(primitive, reports.size(work)),
        **stream_kw)
    streamed = conformance.run(lane, stream)
    prefix = {key: column[:streamed["reports"]]
              for key, column in work.items()}
    serial = conformance.run("reference",
                             replace(stream, work=prefix, duration=None))
    gates = [
        bench.gate("streamed digests match serial",
                   (streamed["obs"], streamed["store"])
                   == (serial["obs"], serial["store"])),
        bench.gate("zero report loss", streamed["zero_loss"]),
    ]
    return streamed, serial, gates


def test_run_soak_smoke_document_shape_and_gates(capsys):
    """The thread pair (``workers=2``) passes both gates."""
    work = reports.columns("key_write", REPORTS, 9)
    streamed, serial, gates = _gates("key_write", work, "thread")
    assert streamed["reports"] == serial["reports"] == REPORTS
    assert streamed["queue_high_watermarks"], "no stage queues: not threaded"
    assert bench.verdict({"store_digest": streamed["store"]}, gates) == 0
    assert capsys.readouterr().out.endswith("overall: PASS\n")


def test_run_soak_full_mode_includes_throughput_gate():
    """Plan worker processes pass both gates."""
    work = reports.columns("key_write", REPORTS, 9)
    streamed, _serial, gates = _gates("key_write", work, "process1")
    assert streamed["kernels"] > 0
    assert all(gate["pass"] for gate in gates), gates


def test_run_soak_duration_truncates_and_serial_replays_prefix():
    """A tiny duration cap stops the streamed lane early; the serial
    lane must replay exactly the submitted prefix (same digests)."""
    work = reports.columns("key_increment", 200_000, 9)
    streamed, serial, gates = _gates("key_increment", work, "thread",
                                     duration=0.05)
    assert 0 < streamed["reports"] < 200_000
    assert serial["reports"] == streamed["reports"]
    assert all(gate["pass"] for gate in gates), gates


def test_cli_run_smoke_appends_history(tmp_path, monkeypatch, capsys):
    """``repro query`` streams with stage threads, loses no report and
    writes nothing it was not asked to (streamed == serial is
    ``tests/queries/test_differential.py``'s)."""
    monkeypatch.chdir(tmp_path)
    assert main(["query", "--reports", "160"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("query: 160 reports")
    assert "workers=2" in out and "zero_loss=True" in out
    assert list(tmp_path.iterdir()) == []


def test_workers_zero_runs_the_inline_vectorized_lane():
    """``workers=0`` with vectorization on is the inline vectorized
    lane (not silently bumped to one stage thread), gated against the
    scalar serial reference like any other."""
    work = reports.columns("key_increment", REPORTS, 9)
    streamed, serial, gates = _gates("key_increment", work, "inline")
    assert streamed["queue_high_watermarks"] == {}
    assert streamed["kernels"] > 0 and serial["kernels"] == 0
    assert all(gate["pass"] for gate in gates), gates


def test_cli_run_rejects_unknown_primitive():
    with pytest.raises(SystemExit) as exit_info:
        main(["serve", "--primitive", "nope"])
    assert exit_info.value.code == 2
