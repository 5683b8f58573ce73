"""CLI smoke tests (fast commands only)."""

import json

import pytest

from repro.cli import main


class TestCLI:
    def test_info(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "1074" in out and "333" in out

    def test_table2(self, capsys):
        assert main(["table2"]) == 0
        assert "944" in capsys.readouterr().out

    def test_fig4_custom_sizes(self, capsys):
        assert main(["fig4", "--sizes", "1000,5000"]) == 0
        out = capsys.readouterr().out
        assert "1000" in out and "5000" in out

    def test_native_run(self, capsys):
        assert main(["native", "--n", "3000"]) == 0
        assert "GFLOPS" in capsys.readouterr().out

    def test_native_numeric_passes(self, capsys):
        assert main(["native", "--n", "200", "--nb", "50", "--numeric"]) == 0
        assert "PASSED" in capsys.readouterr().out

    def test_hybrid_run(self, capsys):
        assert main(["hybrid", "--n", "30000"]) == 0
        assert "TFLOPS" in capsys.readouterr().out

    def test_distributed_run(self, capsys):
        assert main(["distributed", "--n", "48", "--nb", "8"]) == 0
        assert "PASSED" in capsys.readouterr().out

    def test_distributed_lookahead_flags(self, capsys):
        assert (
            main(
                ["distributed", "--n", "48", "--nb", "8", "--lookahead",
                 "--bcast-algo", "ring-mod", "--chunk-kb", "64"]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "PASSED" in out and "lookahead/ring-mod" in out

    def test_distributed_lookahead_json_reports_overlap(self, capsys):
        assert (
            main(["distributed", "--n", "48", "--nb", "8", "--lookahead", "--json"])
            == 0
        )
        d = json.loads(capsys.readouterr().out)
        assert d["lookahead"] is True
        assert "hidden_comm_s" in d and "exposed_comm_s" in d
        assert "comm.overlap.hidden_s" in d["metrics"]["gauges"]

    def test_gantt(self, capsys):
        assert main(["gantt", "--n", "3000", "--width", "60"]) == 0
        assert "legend" in capsys.readouterr().out

    def test_native_json(self, capsys):
        assert main(["native", "--n", "2000", "--json"]) == 0
        d = json.loads(capsys.readouterr().out)
        assert d["kind"] == "native"
        assert d["gflops"] > 0 and 0 < d["efficiency"] <= 1
        assert set(d["metrics"]) == {"counters", "gauges", "timers", "distributions"}

    def test_native_json_deterministic(self, capsys):
        main(["native", "--n", "2000", "--json"])
        first = capsys.readouterr().out
        main(["native", "--n", "2000", "--json"])
        assert capsys.readouterr().out == first

    def test_native_trace_out(self, tmp_path, capsys):
        path = tmp_path / "trace.json"
        assert main(["native", "--n", "2000", "--trace-out", str(path)]) == 0
        doc = json.loads(path.read_text())
        assert doc["traceEvents"], "trace file should contain events"
        assert all(ev["ph"] == "X" for ev in doc["traceEvents"])

    def test_native_metrics_table(self, capsys):
        assert main(["native", "--n", "2000", "--metrics"]) == 0
        out = capsys.readouterr().out
        assert "sim.events_processed" in out and "sched.tasks" in out

    def test_hybrid_json(self, capsys):
        assert main(["hybrid", "--n", "24000", "--json"]) == 0
        d = json.loads(capsys.readouterr().out)
        assert d["kind"] == "hybrid" and d["gflops"] > 0

    def test_distributed_json(self, capsys):
        assert main(["distributed", "--n", "48", "--nb", "8", "--json"]) == 0
        d = json.loads(capsys.readouterr().out)
        assert d["kind"] == "distributed" and d["passed"] is True

    def test_distributed_trace_out_warns_without_trace(self, tmp_path, capsys):
        # DistributedResult records no trace; the flag must warn, not crash.
        path = tmp_path / "none.json"
        assert main(["distributed", "--n", "48", "--nb", "8",
                     "--trace-out", str(path)]) == 0
        assert "no trace recorded" in capsys.readouterr().err
        assert not path.exists()

    def test_trace_out_unwritable_path_clean_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["native", "--n", "2000",
                  "--trace-out", "/nonexistent-dir/t.json"])
        assert exc.value.code == 2
        assert "cannot write trace" in capsys.readouterr().err

    def test_gantt_trace_out(self, tmp_path, capsys):
        path = tmp_path / "gantt.json"
        assert main(["gantt", "--n", "3000", "--trace-out", str(path)]) == 0
        assert json.loads(path.read_text())["traceEvents"]

    def test_unknown_command_exits(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])

    def test_removed_buffer_pool_flag_is_rejected(self):
        with pytest.raises(SystemExit) as exc:
            main(["native", "--n", "64", "--nb", "16", "--numeric",
                  "--no-buffer-pool"])
        assert exc.value.code == 2


class TestCLIResilience:
    DIST = ["distributed", "--n", "48", "--nb", "8"]

    def test_distributed_resilience_flags(self, capsys):
        assert main(self.DIST + [
            "--fault-plan", "seed=5;crash:rank=3,stage=2",
            "--checkpoint-every", "2",
            "--retry-max", "2", "--comm-timeout", "0.5"]) == 0
        out = capsys.readouterr().out
        assert "PASSED" in out
        assert "resilience: attempts=2 recoveries=1" in out

    def test_distributed_retry_only_prints_summary(self, capsys):
        assert main(self.DIST + ["--retry-max", "1"]) == 0
        assert "resilience: attempts=1 recoveries=0" in capsys.readouterr().out

    def test_distributed_plain_run_prints_no_summary(self, capsys):
        assert main(self.DIST) == 0
        assert "resilience:" not in capsys.readouterr().out

    def test_distributed_json_carries_resilience(self, capsys):
        assert main(self.DIST + [
            "--fault-plan", "seed=5;crash:rank=3,stage=2",
            "--checkpoint-every", "2", "--retry-max", "2",
            "--comm-timeout", "0.5", "--json"]) == 0
        d = json.loads(capsys.readouterr().out)
        assert d["passed"] is True
        assert d["resilience"]["recoveries"] == 1

    def test_distributed_failed_residual_exits_nonzero(self, capsys,
                                                       monkeypatch):
        monkeypatch.setattr("repro.hpl.driver.residual_passes",
                            lambda *a, **k: False)
        assert main(self.DIST) == 1
        captured = capsys.readouterr()
        assert "FAILED" in captured.out
        assert "residual check FAILED" in captured.err

    def test_failed_residual_under_json_keeps_stdout_valid(self, capsys,
                                                           monkeypatch):
        monkeypatch.setattr("repro.hpl.driver.residual_passes",
                            lambda *a, **k: False)
        assert main(self.DIST + ["--json"]) == 1
        captured = capsys.readouterr()
        assert json.loads(captured.out)["passed"] is False
        assert "residual check FAILED" in captured.err

    def test_native_numeric_failed_residual_exits_nonzero(self, capsys,
                                                          monkeypatch):
        monkeypatch.setattr("repro.hpl.driver.residual_passes",
                            lambda *a, **k: False)
        assert main(["native", "--n", "200", "--nb", "50", "--numeric"]) == 1
        assert "residual check FAILED" in capsys.readouterr().err


class TestCLIElastic:
    def test_elastic_plan_prints_transfer_matrix(self, capsys):
        assert main(["elastic", "plan", "--n", "96", "--nb", "16",
                     "--grid", "2x2", "--regrid", "panel=3:2x4"]) == 0
        out = capsys.readouterr().out
        assert "Transfer matrix 2x2 -> 2x4" in out
        assert "Per-rank volume" in out
        assert "predicted redistribution time" in out

    def test_elastic_plan_multi_point_schedule(self, capsys):
        assert main(["elastic", "plan", "--n", "96", "--nb", "16",
                     "--grid", "2x2", "--regrid", "panel=2:2x4",
                     "--regrid", "panel=4:1x2"]) == 0
        out = capsys.readouterr().out
        assert "2x2 -> 2x4" in out and "2x4 -> 1x2" in out

    def test_elastic_plan_bad_regrid_exits_2(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["elastic", "plan", "--regrid", "panel=bogus"])
        assert err.value.code == 2
        stderr = capsys.readouterr().err
        assert "regrid" in stderr

    def test_elastic_plan_out_of_range_panel_exits_2(self, capsys):
        assert main(["elastic", "plan", "--n", "96", "--nb", "16",
                     "--grid", "2x2", "--regrid", "panel=99:2x4"]) == 2
        assert "out of range" in capsys.readouterr().err

    def test_distributed_regrid_runs_on_final_grid(self, capsys):
        assert main(["distributed", "--n", "48", "--nb", "8",
                     "--regrid", "panel=3:2x4", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["passed"] is True
        assert (doc["p"], doc["q"]) == (2, 4)
        assert doc["regrids"] == 1

    def test_distributed_bad_regrid_exits_2(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["distributed", "--n", "48", "--nb", "8",
                  "--regrid", "panel=3:2y4"])
        assert err.value.code == 2
