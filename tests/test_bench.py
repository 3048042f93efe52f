"""The gate/verdict helper the ``repro`` run commands share, and the
per-mode digest agreement on the seeded report workload.

Every command that gates (``serve``, ``retain``, ``faults``) prints
its digests, one line per gate and ``overall: PASS|FAIL`` through
:func:`repro.bench.verdict`, and exits with its code.  Speed is
``perf/``'s business, not these tests'.
"""

from __future__ import annotations

from repro import bench
from repro.cli import main
from repro.workloads import reports
from tests import conformance


def test_gate_shapes():
    assert bench.gate("flag", True)["pass"] is True
    assert bench.gate("flag", False)["pass"] is False
    assert bench.gate("ratio", 2.5, 2.0)["pass"] is True
    assert bench.gate("ratio", 1.9, 2.0)["pass"] is False
    assert bench.gate("ratio", None, 2.0) == {
        "gate": "ratio", "value": None, "threshold": 2.0, "pass": False}


def test_cell_and_speedup(capsys):
    """A digest list prints one line per entry, a single digest one."""
    code = bench.verdict({"store_digest": ["sha256:a", "sha256:b"],
                          "obs_digest": "sha256:c"},
                         [bench.gate("holds", True)])
    assert code == 0
    assert capsys.readouterr().out.splitlines() == [
        "store_digest sha256:a", "store_digest sha256:b",
        "obs_digest sha256:c",
        "  gate: holds (value True, need True) -> pass",
        "overall: PASS"]


def test_finish_fails_on_a_failed_gate(capsys):
    code = bench.verdict({}, [bench.gate("holds", True),
                              bench.gate("broken", False),
                              bench.gate("ratio", 1.2, 1.5)])
    assert code == 1
    out = capsys.readouterr().out
    assert out.count("-> FAIL") == 2 and out.endswith("overall: FAIL\n")


def test_cli_bench_record_gates_and_history():
    """Per primitive, per-report (``Reporter.key_write`` and friends),
    batched and vectorized leave the same whole obs registry: batching
    and vectorization change speed and nothing else."""
    for primitive in reports.PRIMITIVES:
        stream = conformance.stream(primitive, reports=400, batch=32)
        digests = {conformance.run(lane, stream)["obs"]
                   for lane in ("reporter", "batched", "vectorized")}
        assert len(digests) == 1, (primitive, digests)


def test_cli_bench_without_vectorized_has_no_vector_cells(monkeypatch,
                                                          capsys):
    """A failing gate makes ``repro serve`` exit 1."""
    from repro.transport import cli as transport_cli

    def failing(spec):
        return {"socket": {"store_digests": ["sha256:x"],
                           "obs_digest": "sha256:y"},
                "gates": [bench.gate("socket-lane store digests match "
                                     "in-process lane", False)]}

    monkeypatch.setattr(transport_cli, "run_serve", failing)
    assert main(["serve"]) == 1
    out = capsys.readouterr().out
    assert "store_digest sha256:x" in out and "-> FAIL" in out
    assert out.endswith("overall: FAIL\n")


def test_cli_retain_record_gates_and_history(tmp_path, capsys):
    from repro.retention.smoke import run_retain

    ckpt = tmp_path / "ckpt"
    code = main(["retain", "--epochs", "3", "--reports-per-epoch", "128",
                 "--ckpt-dir", str(ckpt)])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("store_digest sha256:")
    assert [line.endswith("-> pass") for line in lines[1:-1]] == [True] * 3
    assert lines[-1] == "overall: PASS"
    assert (ckpt / "MANIFEST.json").exists()

    result = run_retain(epochs=3, reports_per_epoch=128)
    assert result["store_digest"] == lines[0].split()[1]
    assert result["rotations"] == 3
    assert set(result["stores"]) == {"keywrite", "keyincrement", "append"}
    assert all(store["bounded"] for store in result["stores"].values())
