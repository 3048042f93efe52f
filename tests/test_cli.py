"""CLI: every subcommand runs and prints what it promises."""

import pytest

from repro.cli import main


class TestSubcommands:
    def test_info(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "Direct Telemetry Access" in out
        assert "Key-Write" in out

    def test_demo_roundtrips_all_reports(self, capsys):
        assert main(["demo", "--reports", "50"]) == 0
        out = capsys.readouterr().out
        assert "Key-Write queryable: 50/50" in out
        assert "Append drained:      50/50" in out

    def test_capacity_keywrite_headline(self, capsys):
        assert main(["capacity", "--payload", "8"]) == 0
        out = capsys.readouterr().out
        assert "M reports/s" in out
        rate = float(out.split("-> ")[1].split("M")[0].replace(",", ""))
        assert 90 < rate < 110

    def test_capacity_append_headline(self, capsys):
        assert main(["capacity", "--payload", "64", "--batch", "16"]) == 0
        out = capsys.readouterr().out
        rate = float(out.split("-> ")[1].split("M")[0].replace(",", ""))
        assert rate > 1000  # >1B/s

    def test_capacity_qp_degradation(self, capsys):
        main(["capacity", "--payload", "8", "--qps", "512"])
        degraded = capsys.readouterr().out
        main(["capacity", "--payload", "8", "--qps", "1"])
        healthy = capsys.readouterr().out
        get = lambda s: float(s.split("-> ")[1].split("M")[0]
                              .replace(",", ""))
        assert get(healthy) / get(degraded) == pytest.approx(5.0,
                                                             rel=0.01)

    def test_bounds_paper_example(self, capsys):
        assert main(["bounds", "--alpha", "0.1", "--n", "2"]) == 0
        out = capsys.readouterr().out
        assert "0.0329" in out or "0.033" in out

    def test_longevity(self, capsys):
        assert main(["longevity", "--gib", "30"]) == 0
        out = capsys.readouterr().out
        assert "queryable" in out
        assert "98." in out  # the 100M-age point

    def test_redundancy_crossover(self, capsys):
        main(["redundancy", "--load", "0.05"])
        assert "N=4:" in capsys.readouterr().out
        main(["redundancy", "--load", "4.0"])
        out = capsys.readouterr().out
        # N=1 optimal at high load.
        line = next(l for l in out.splitlines() if "N=1" in l)
        assert "optimal" in line

    def test_footprint(self, capsys):
        assert main(["footprint"]) == 0
        out = capsys.readouterr().out
        assert "Stateful ALU" in out
        assert "[RDMA]" in out

    def test_rates(self, capsys):
        assert main(["rates", "--switches", "200000"]) == 0
        out = capsys.readouterr().out
        assert "NetSeer" in out
        assert "B reports/s" in out

    def test_stats_renders_component_rows(self, capsys):
        assert main(["stats", "--reports", "64", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        # Every hot-path component publishes through repro.obs.
        for component in ("reporter", "translator", "link", "nic",
                          "backup", "loss_detector"):
            assert component in out, f"{component} missing from table"
        assert "reports_sent" in out

    def test_stats_lossy_run_shows_recovery_counters(self, capsys):
        assert main(["stats", "--reports", "256", "--loss", "0.05",
                     "--seed", "7", "--events", "4"]) == 0
        out = capsys.readouterr().out
        assert "random_drops" in out
        assert "nacks_sent" in out
        assert "trace events" in out
        assert "translator.nack_sent" in out

    def test_stats_json_lines_parse(self, capsys):
        import json

        assert main(["stats", "--reports", "32", "--json"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        records = [json.loads(line) for line in lines]
        names = {r["name"] for r in records if "name" in r}
        assert "translator.reports_in" in names
        assert "link.sent" in names

    def test_stats_does_not_pollute_default_registry(self):
        from repro import obs

        before = len(obs.get_registry())
        main(["stats", "--reports", "16"])
        assert len(obs.get_registry()) == before

    def test_faults_prints_plan_and_audit(self, capsys):
        assert main(["faults", "--seed", "7"]) == 0
        out = capsys.readouterr().out
        assert "fault plan 'default-chaos'" in out
        assert "translator_crash" in out
        assert "480/480 essential reports queryable" in out
        assert "failover=yes" in out

    def test_faults_smoke_gate_passes_on_default_seed(self, capsys):
        assert main(["faults", "--quiet"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("[OK]")
        assert "fault plan" not in out   # --quiet
        assert "gate: every essential report queryable" in out
        assert out.endswith("overall: PASS\n")

    def test_faults_exits_1_on_a_missing_essential_report(self,
                                                          monkeypatch,
                                                          capsys):
        from repro.faults import ChaosResult

        monkeypatch.setattr("repro.faults.run_chaos", lambda **_kw:
                            ChaosResult(seed=7, total_essential=2,
                                        queryable=1, missing=["k1"],
                                        digest="sha256:x"))
        assert main(["faults", "--quiet"]) == 1
        out = capsys.readouterr().out
        assert out.startswith("[FAIL]")
        assert out.endswith("overall: FAIL\n")

    def test_faults_does_not_pollute_default_registry(self):
        from repro import obs

        before = len(obs.get_registry())
        main(["faults", "--quiet", "--reports", "60"])
        assert len(obs.get_registry()) == before

    def test_unknown_command_exits(self):
        with pytest.raises(SystemExit):
            main(["bogus"])

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
