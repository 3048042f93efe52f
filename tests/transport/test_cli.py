"""``repro serve`` end to end through the real CLI."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main
from repro.transport import cli as serve_cli
from repro.transport import mmsg
from repro.transport.cli import _spec
from repro.transport.serve import run_serve


def test_serve_smoke_writes_history_and_document(tmp_path, monkeypatch,
                                                 capsys):
    """``repro serve`` prints one store digest per collector
    shard and the daemons' obs digest, its five gates and ``overall:
    PASS``, exits 0 and leaves no file behind in the working
    directory."""
    monkeypatch.chdir(tmp_path)
    assert main(["serve", "--reports", "200",
                 "--drop", "0.02", "--reorder", "0.02"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines[:3]] == [
        "store_digest", "store_digest", "obs_digest"]
    assert all(line.split()[1].startswith("sha256:") for line in lines[:3])
    gates = [line for line in lines if line.startswith("  gate: ")]
    assert len(gates) == 5 and all(g.endswith("-> pass") for g in gates)
    assert lines[-1] == "overall: PASS"
    assert list(tmp_path.iterdir()) == []


def test_serve_smoke_multi_translator_scalar_fallbacks(capsys, monkeypatch):
    # The daemons are forked: they inherit the cleared flag.
    monkeypatch.setattr(mmsg, "USE_MMSG", False)
    runs = []       # (spec, result) of the run ``main`` makes

    def recorded(spec):
        runs.append((spec, run_serve(spec)))
        return runs[-1][1]

    monkeypatch.setattr(serve_cli, "run_serve", recorded)
    argv = ["serve", "--reports", "300",
            "--collectors", "3", "--translators", "2",
            "--scalar-translate",
            "--drop", "0.02", "--reorder", "0.02"]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert out.count("store_digest sha256:") == 3
    assert out.endswith("overall: PASS\n")
    (spec, result), = runs
    assert (spec.translators, spec.vectorized) == (2, False)
    sock = result["socket"]
    assert len(sock["lane_seqs"]) == 2
    # The labelled view: every daemon under its role and lane / shard.
    daemons = set()
    for _name, labels in sock["view"].samples:
        labels = dict(labels)
        daemons.add((labels["role"], labels.get("lane", labels.get("shard"))))
    assert daemons == {("translator", "0"), ("translator", "1"),
                       ("collector", "0"), ("collector", "1"),
                       ("collector", "2")}


def test_smoke_caps_reports(capsys):
    """No command has a capped ``--smoke`` run: the switch is a usage
    error, and ``serve --reports`` reaches the spec as given."""
    for command in ("serve", "retain", "query", "faults"):
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args([command, "--smoke"])
        assert exit_info.value.code == 2
    assert "unrecognized arguments: --smoke" in capsys.readouterr().err
    args = build_parser().parse_args(["serve", "--reports", "12345"])
    assert _spec(args).reports == 12345
