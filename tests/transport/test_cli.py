"""``repro serve`` end to end through the real CLI."""

from __future__ import annotations

from repro.cli import build_parser, main
from repro.transport import mmsg
from repro.transport.cli import _spec
from repro.transport.serve import run_serve


def test_serve_smoke_writes_history_and_document(tmp_path, monkeypatch,
                                                 capsys):
    """``repro serve --smoke`` prints one digest per collector shard,
    its four gates and ``overall: PASS``, exits 0 and leaves no file
    behind in the working directory."""
    monkeypatch.chdir(tmp_path)
    assert main(["serve", "--smoke", "--reports", "200",
                 "--drop", "0.02", "--reorder", "0.02"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines[:2]] == ["store_digest"] * 2
    assert all(line.split()[1].startswith("sha256:") for line in lines[:2])
    gates = [line for line in lines if line.startswith("  gate: ")]
    assert len(gates) == 4 and all(g.endswith("-> pass") for g in gates)
    assert lines[-1] == "overall: PASS"
    assert list(tmp_path.iterdir()) == []


def test_serve_smoke_multi_translator_scalar_fallbacks(capsys, monkeypatch):
    # The daemons are forked: they inherit the cleared flag.
    monkeypatch.setattr(mmsg, "USE_MMSG", False)
    argv = ["serve", "--smoke", "--reports", "300",
            "--collectors", "3", "--translators", "2",
            "--scalar-translate",
            "--drop", "0.02", "--reorder", "0.02"]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert out.count("store_digest sha256:") == 3
    assert out.endswith("overall: PASS\n")
    spec = _spec(build_parser().parse_args(argv))
    assert (spec.translators, spec.vectorized) == (2, False)
    sock = run_serve(spec)["socket"]
    assert len(sock["lane_seqs"]) == 2
    assert len(sock["translator"]["per_lane"]) == 2


def test_smoke_caps_reports():
    from repro.transport.cli import _SMOKE_REPORTS

    args = build_parser().parse_args(["serve", "--smoke"])
    assert _spec(args).reports == _SMOKE_REPORTS
