"""``repro serve`` end to end through the real CLI."""

from __future__ import annotations

import json

from repro import bench
from repro.cli import main


def test_serve_smoke_writes_history_and_document(tmp_path, capsys):
    history = tmp_path / "history.jsonl"
    out = tmp_path / "serve.json"
    assert main(["serve", "--smoke", "--reports", "200",
                 "--drop", "0.02", "--reorder", "0.02",
                 "--history", str(history), "--out", str(out)]) == 0
    rendered = capsys.readouterr().out
    assert "PASS" in rendered
    document = json.loads(out.read_text())
    assert (document["schema"], document["lane"]) == (bench.SCHEMA, "serve")
    assert document["pass"] is True
    assert document["config"]["smoke"] is True
    assert document["config"]["reports"] == 200
    assert document["config"]["vectorized"] is True
    assert document["cells"]["socket"]["frames_sent"] >= 1
    records = [json.loads(line) for line in
               history.read_text().splitlines()]
    assert [r["lane"] for r in records] == ["serve"]
    assert records[0]["commit"] == document["commit"]


def test_serve_smoke_multi_translator_scalar_fallbacks(tmp_path):
    out = tmp_path / "serve-mt.json"
    assert main(["serve", "--smoke", "--reports", "300",
                 "--collectors", "3", "--translators", "2",
                 "--scalar-translate", "--no-mmsg",
                 "--drop", "0.02", "--reorder", "0.02",
                 "--out", str(out)]) == 0
    document = json.loads(out.read_text())
    assert document["pass"] is True
    assert document["config"]["translators"] == 2
    assert document["config"]["use_mmsg"] is False
    sock = document["cells"]["socket"]
    assert len(sock["lane_seqs"]) == 2
    assert len(sock["translator"]["per_lane"]) == 2


def test_smoke_caps_reports():
    from repro.transport.cli import _SMOKE_REPORTS, _spec
    from repro.cli import build_parser

    args = build_parser().parse_args(["serve", "--smoke"])
    assert _spec(args).reports == _SMOKE_REPORTS
