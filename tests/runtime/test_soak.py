"""The soak harness and its ``repro run`` CLI surface.

Correctness-shaped checks only: gates fire on digest or loss
violations, the document schema is stable, the history file accretes.
Throughput numbers are machine-dependent, so the speedup gate is only
asserted to *exist* outside smoke mode, never to pass here.
"""

from __future__ import annotations

import json

from repro import bench
from repro.cli import main
from repro.runtime import run_soak

REPORTS = 1500


def test_run_soak_smoke_document_shape_and_gates():
    document = run_soak(primitive="key_write", reports=REPORTS,
                        smoke=True, seed=9)
    assert (document["schema"], document["lane"]) == (bench.SCHEMA, "run")
    streamed = document["cells"]["streamed"]
    serial = document["cells"]["serial"]
    assert streamed["reports"] == REPORTS
    assert serial["reports"] == REPORTS
    assert streamed["obs_digest"] == serial["obs_digest"]
    assert streamed["store_digest"] == serial["store_digest"]
    gate_names = {gate["gate"] for gate in document["gates"]}
    assert gate_names == {"streamed digests match serial",
                          "zero report loss"}
    assert document["pass"] is True
    assert "overall: PASS" in bench.render(document)


def test_run_soak_full_mode_includes_throughput_gate():
    document = run_soak(primitive="key_write", reports=REPORTS,
                        smoke=False, seed=9)
    gate_names = {gate["gate"] for gate in document["gates"]}
    assert "streamed vs serial speedup" in gate_names
    assert document["config"]["throughput_gate"] == 1.5


def test_run_soak_duration_truncates_and_serial_replays_prefix():
    """A tiny duration cap stops the streamed lane early; the serial
    lane must replay exactly the submitted prefix (same digests)."""
    document = run_soak(primitive="key_increment", reports=200_000,
                        duration=0.05, smoke=True, seed=9)
    submitted = document["cells"]["streamed"]["reports"]
    assert 0 < submitted < 200_000
    assert document["cells"]["serial"]["reports"] == submitted
    assert document["pass"] is True


def test_cli_run_smoke_appends_history(tmp_path, capsys):
    history = tmp_path / "hist.jsonl"
    out = tmp_path / "soak.json"
    code = main(["run", "--reports", str(REPORTS), "--smoke",
                 "--history", str(history), "--out", str(out)])
    assert code == 0
    lines = history.read_text().splitlines()
    assert len(lines) == 1
    record = json.loads(lines[0])
    assert (record["schema"], record["lane"]) == (bench.SCHEMA, "run")
    assert "commit" in record
    document = json.loads(out.read_text())
    assert document["pass"] is True
    assert "overall: PASS" in capsys.readouterr().out


def test_workers_zero_runs_the_inline_vectorized_lane():
    """``--workers 0`` is honoured: the streamed cell is the inline
    vectorized lane (not silently bumped to one stage thread), gated
    against the scalar serial reference like any other."""
    document = run_soak(primitive="key_increment", reports=REPORTS,
                        workers=0, smoke=True, seed=9)
    streamed = document["cells"]["streamed"]
    assert document["config"]["workers"] == 0
    assert (streamed["workers"], streamed["vectorized"]) == (0, True)
    assert streamed["queue_high_watermarks"] == {}
    assert document["cells"]["serial"]["vectorized"] is False
    assert all(gate["pass"] for gate in document["gates"])
    assert document["pass"] is True


def test_cli_run_rejects_unknown_primitive(tmp_path):
    assert main(["run", "--primitive", "nope", "--smoke",
                 "--history", str(tmp_path / "h.jsonl")]) == 2
