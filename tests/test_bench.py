"""The lane record and the ``repro bench`` / ``repro retain`` CLI lanes.

Correctness-shaped checks only, at small scale: exit code, record
schema, cell and gate shape, every digest gate true, the history line
appended.  Speed gates are asserted to *exist*, never to pass —
throughput ratios are the host's business (and ``perf/``'s).
"""

from __future__ import annotations

import json

from repro import bench
from repro.cli import main
from repro.workloads import reports

CELL_KEYS = {"reports", "elapsed_s", "reports_per_sec", "obs_digest",
             "store_digest"}
GATE_KEYS = {"gate", "value", "threshold", "pass"}


def _check_record(document: dict, lane: str) -> None:
    assert (document["schema"], document["lane"]) == (bench.SCHEMA, lane)
    assert {"config", "cells", "gates", "pass"} <= set(document)
    for cell in document["cells"].values():
        assert CELL_KEYS <= set(cell)
        assert cell["reports"] > 0 and cell["elapsed_s"] > 0
    for gate in document["gates"]:
        assert set(gate) == GATE_KEYS
    assert document["pass"] is all(g["pass"] for g in document["gates"])


def _history(path) -> list:
    return [json.loads(line) for line in path.read_text().splitlines()]


def test_gate_shapes():
    assert bench.gate("flag", True)["pass"] is True
    assert bench.gate("flag", False)["pass"] is False
    assert bench.gate("ratio", 2.5, 2.0)["pass"] is True
    assert bench.gate("ratio", 1.9, 2.0)["pass"] is False
    assert bench.gate("ratio", None, 2.0) == {
        "gate": "ratio", "value": None, "threshold": 2.0, "pass": False}


def test_cell_and_speedup():
    slow = bench.cell(100, 2.0, obs_digest="sha256:a")
    fast = bench.cell(100, 0.5, store_digest="sha256:b", extra=1)
    assert slow["reports_per_sec"] == 50.0 and fast["extra"] == 1
    assert bench.set_speedup(fast, "slow", slow) == 4.0
    assert (fast["speedup"], fast["baseline"]) == (4.0, "slow")
    assert bench.cell(0, 0.0)["reports_per_sec"] is None
    assert bench.set_speedup(fast, "none", bench.cell(0, 0.0)) is None


def test_finish_fails_on_a_failed_gate(tmp_path, capsys):
    document = bench.record("demo", {"n": 1}, {"only": bench.cell(4, 0.1)},
                            [bench.gate("broken", False)])
    history = tmp_path / "h.jsonl"
    assert bench.finish(document, str(history), None) == 1
    out = capsys.readouterr().out
    assert "-> FAIL" in out and "overall: FAIL" in out
    (line,) = _history(history)
    assert line["pass"] is False and line["date"] and line["commit"]


def test_cli_bench_record_gates_and_history(tmp_path, capsys):
    history = tmp_path / "hist.jsonl"
    out = tmp_path / "bench.json"
    code = main(["bench", "--reports", "400", "--batch-size", "32",
                 "--vectorized", "--history", str(history),
                 "--out", str(out)])
    document = json.loads(out.read_text())
    _check_record(document, "bench")
    assert set(document["cells"]) == {
        f"{primitive}/{mode}" for primitive in reports.PRIMITIVES
        for mode in ("unbatched", "batched", "vectorized")}
    for cell in document["cells"].values():
        assert cell["reports"] == 400
        assert cell["obs_digest"].startswith("sha256:")
        assert cell["rdma_messages"] > 0
    gates = {gate["gate"]: gate for gate in document["gates"]}
    for primitive in reports.PRIMITIVES:
        assert gates[f"{primitive} digests match"]["pass"] is True
        modes = {document["cells"][f"{primitive}/{mode}"]["obs_digest"]
                 for mode in ("unbatched", "batched", "vectorized")}
        assert len(modes) == 1
    # Speed gates exist with their thresholds; whether they pass is
    # the host's business, and so is the exit code that follows them.
    assert gates["key_write batched speedup"]["threshold"] == 2.0
    assert gates["key_increment vectorized speedup"]["threshold"] == 3.0
    assert gates["sketch_merge vectorized speedup"]["threshold"] == 3.0
    assert gates["postcarding vectorized speedup"]["threshold"] == 1.5
    assert gates["append vectorized speedup"]["threshold"] == 1.3
    assert (document["cells"]["sketch_merge/vectorized"]["baseline"]
            == "sketch_merge/unbatched")
    assert code == (0 if document["pass"] else 1)
    (line,) = _history(history)
    assert line == document
    printed = capsys.readouterr().out
    assert "lane bench" in printed and "key_write/batched" in printed
    assert f"appended bench record {document['commit']}" in printed


def test_cli_bench_without_vectorized_has_no_vector_cells(tmp_path):
    history = tmp_path / "hist.jsonl"
    main(["bench", "--reports", "200", "--history", str(history)])
    (line,) = _history(history)
    _check_record(line, "bench")
    assert len(line["cells"]) == 2 * len(reports.PRIMITIVES)
    assert not any("vectorized" in gate["gate"] for gate in line["gates"])


def test_cli_retain_record_gates_and_history(tmp_path, capsys):
    history = tmp_path / "hist.jsonl"
    out = tmp_path / "retain.json"
    ckpt = tmp_path / "ckpt"
    code = main(["retain", "--epochs", "3", "--reports-per-epoch", "128",
                 "--ckpt-dir", str(ckpt), "--history", str(history),
                 "--out", str(out)])
    assert code == 0
    document = json.loads(out.read_text())
    _check_record(document, "retain")
    assert document["config"]["epochs"] == 3
    (cell,) = document["cells"].values()
    assert cell["rotations"] == 3
    assert cell["store_digest"].startswith("sha256:")
    assert set(cell["stores"]) == {"keywrite", "keyincrement", "append"}
    assert all(store["bounded"] for store in cell["stores"].values())
    assert cell["checkpoint"] == str(ckpt / "MANIFEST.json")
    assert (ckpt / "MANIFEST.json").exists()
    assert [gate["pass"] for gate in document["gates"]] == [True] * 3
    (line,) = _history(history)
    assert line == document
    assert "overall: PASS" in capsys.readouterr().out
