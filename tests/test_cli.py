"""Tests for the command-line interface and activity-trace round trips."""

import json
import os
import pstats

import pytest

from repro.cli import build_parser, main
from repro.sim.activity import ActivityReport
from repro.sim import gt240, simulate
from tests.conftest import build_vecadd_launch


class TestActivityJSON:
    def test_roundtrip(self):
        launch, _, _ = build_vecadd_launch()
        act = simulate(gt240(), launch).activity
        restored = ActivityReport.from_json(act.to_json())
        assert restored.to_dict() == act.to_dict()

    def test_rejects_unknown_counters(self):
        payload = json.dumps({"warp_drive_engagements": 9000})
        with pytest.raises(ValueError, match="unknown activity counters"):
            ActivityReport.from_json(payload)

    def test_partial_trace_fills_defaults(self):
        act = ActivityReport.from_json(json.dumps({"fp_ops": 42.0}))
        assert act.fp_ops == 42.0
        assert act.int_ops == 0.0


class TestParser:
    def test_subcommands_exist(self):
        parser = build_parser()
        for cmd in ("list", "arch", "run", "power", "validate"):
            args = parser.parse_args(
                [cmd] + (["x"] if cmd == "run" else [])
                + (["--trace", "t"] if cmd == "power" else []))
            assert args.command == cmd

    def test_run_flags(self):
        args = build_parser().parse_args(
            ["run", "vectorAdd", "--gpu", "GTX580", "--profile"])
        assert args.kernel == "vectorAdd"
        assert args.gpu == "GTX580"
        assert args.profile

    def test_run_trace_flags(self):
        args = build_parser().parse_args(
            ["run", "vectorAdd", "--trace-interval", "500",
             "--trace-out", "t.json", "--trace-format", "chrome"])
        assert args.trace_interval == 500.0
        assert args.trace_out == "t.json"
        assert args.trace_format == "chrome"

    def test_backend_flag_defaults_to_cycle(self):
        assert build_parser().parse_args(
            ["run", "vectorAdd"]).backend == "cycle"
        assert build_parser().parse_args(
            ["validate", "--backend", "analytical"]).backend == "analytical"

    def test_cache_subcommand_flags(self):
        args = build_parser().parse_args(["cache", "clear", "--yes"])
        assert args.action == "clear" and args.yes
        assert build_parser().parse_args(["cache", "stats"]).dir is None

    def test_version_flag(self, capsys):
        from repro import SIM_VERSION, __version__
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert __version__ in out and SIM_VERSION in out


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "blackscholes" in out and "Rodinia" in out

    def test_arch(self, capsys):
        assert main(["arch", "--gpu", "GT240"]) == 0
        out = capsys.readouterr().out
        assert "mm^2" in out and "static" in out

    def test_run_and_power_roundtrip(self, tmp_path, capsys):
        trace = tmp_path / "trace.json"
        assert main(["run", "vectorAdd", "--save-trace", str(trace)]) == 0
        run_out = capsys.readouterr().out
        assert "chip power" in run_out
        assert trace.exists()

        assert main(["power", "--trace", str(trace)]) == 0
        power_out = capsys.readouterr().out
        assert "chip total" in power_out
        # The trace-driven power matches the inline run's number.
        inline = next(l for l in run_out.splitlines() if "chip power" in l)
        offline = next(l for l in power_out.splitlines()
                       if "chip total" in l)
        inline_w = float(inline.split()[2])
        offline_w = float(offline.split()[2])
        assert inline_w == pytest.approx(offline_w, abs=0.05)

    def test_run_unknown_kernel(self, capsys):
        assert main(["run", "notAKernel"]) == 2

    def test_run_profile_prints_tree(self, capsys):
        assert main(["run", "vectorAdd", "--profile"]) == 0
        out = capsys.readouterr().out
        assert "Undiff. Core" in out and "GDDR5 DRAM" in out

    def test_run_profile_file_holds_simulator_stats(self, tmp_path, capsys):
        out_file = tmp_path / "out.prof"
        assert main(["run", "vectorAdd", "--profile", str(out_file)]) == 0
        assert "cProfile stats written to" in capsys.readouterr().out
        stats = pstats.Stats(str(out_file))
        core_py = os.path.join("sim", "core.py")
        assert any(func[0].endswith(core_py) and func[2] == "step"
                   for func in stats.stats)

    def test_validate_subset(self, capsys):
        assert main(["validate", "--kernels", "vectorAdd,bfs2"]) == 0
        out = capsys.readouterr().out
        assert "avg relative error" in out
        assert "vectorAdd" in out

    def test_xml_config_flow(self, tmp_path, capsys):
        xml = tmp_path / "gpu.xml"
        xml.write_text(gt240().scaled(n_clusters=2).to_xml())
        assert main(["arch", "--config", str(xml)]) == 0
        out = capsys.readouterr().out
        assert "GT240" in out

    def test_list_shows_backends(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "backends:" in out
        assert "analytical" in out and "cycle" in out

    def test_run_with_analytical_backend(self, capsys):
        assert main(["run", "vectorAdd", "--backend", "analytical"]) == 0
        out = capsys.readouterr().out
        assert "(analytical backend)" in out
        assert "chip power" in out

    def test_run_unknown_backend(self, capsys):
        assert main(["run", "vectorAdd", "--backend", "quantum"]) == 2
        assert "unknown backend" in capsys.readouterr().err

    def test_run_trace_rejected_for_analytical(self, capsys):
        assert main(["run", "vectorAdd", "--backend", "analytical",
                     "--trace-interval", "200"]) == 2
        assert "does not support" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", [["--trace-interval", "200"],
                                      ["--sanitize"]])
    def test_submit_capability_rejected_locally(self, capsys, flag):
        # Checked before any connection: the URL is never contacted.
        assert main(["submit", "vectorAdd", "--backend", "analytical",
                     "--url", "http://127.0.0.1:9", *flag]) == 2
        err = capsys.readouterr().err
        assert f"does not support {flag[0]}" in err

    def test_submit_unknown_kernel(self, capsys):
        assert main(["submit", "ghost", "--url",
                     "http://127.0.0.1:9"]) == 2
        assert "unknown kernel" in capsys.readouterr().err

    def test_submit_unreachable_daemon(self, capsys):
        import socket
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            url = f"http://127.0.0.1:{probe.getsockname()[1]}"
        assert main(["submit", "vectorAdd", "--url", url]) == 1
        assert f"cannot reach service at {url}" in capsys.readouterr().err

    def test_validate_with_backend(self, capsys):
        assert main(["validate", "--kernels", "vectorAdd",
                     "--backend", "analytical"]) == 0
        assert "avg relative error" in capsys.readouterr().out

    def test_cache_stats_and_clear(self, capsys):
        # Populate the (test-isolated) cache with one entry.
        assert main(["run", "vectorAdd"]) == 0
        capsys.readouterr()
        assert main(["cache", "stats"]) == 0
        out = capsys.readouterr().out
        assert "entries:  1" in out and "location:" in out
        assert main(["cache", "clear", "--yes"]) == 0
        assert "removed 1 entries" in capsys.readouterr().out
        assert main(["cache", "stats"]) == 0
        assert "entries:  0" in capsys.readouterr().out

    def test_cache_clear_empty_is_noop(self, capsys):
        assert main(["cache", "clear", "--yes"]) == 0
        assert "already empty" in capsys.readouterr().out

    def test_cache_clear_aborts_without_confirmation(self, capsys,
                                                     monkeypatch):
        assert main(["run", "vectorAdd"]) == 0
        capsys.readouterr()
        monkeypatch.setattr("builtins.input", lambda prompt: "n")
        assert main(["cache", "clear"]) == 1
        assert "aborted" in capsys.readouterr().out
        assert main(["cache", "stats"]) == 0
        assert "entries:  1" in capsys.readouterr().out


class TestTraceCommands:
    def test_run_with_trace_renders_and_writes(self, tmp_path, capsys):
        chrome = tmp_path / "trace.chrome.json"
        assert main(["run", "vectorAdd", "--trace-interval", "200",
                     "--trace-out", str(chrome),
                     "--trace-format", "chrome"]) == 0
        out = capsys.readouterr().out
        assert "power trace:" in out and "card power" in out
        data = json.loads(chrome.read_text())
        assert any(e.get("ph") == "C" for e in data["traceEvents"])

    def test_trace_json_round_trips(self, tmp_path, capsys):
        path = tmp_path / "trace.json"
        assert main(["run", "vectorAdd", "--trace-interval", "200",
                     "--trace-out", str(path)]) == 0
        capsys.readouterr()
        from repro.telemetry import PowerTrace
        trace = PowerTrace.from_json(path.read_text())
        assert trace.kernel == "vectorAdd"
        assert trace.n_windows >= 1

    def test_trace_out_requires_interval(self, tmp_path, capsys):
        assert main(["run", "vectorAdd",
                     "--trace-out", str(tmp_path / "t.json")]) == 2

    def test_experiments_list(self, capsys):
        assert main(["experiments", "--list"]) == 0
        out = capsys.readouterr().out
        assert "powertrace" in out and "table4" in out

    def test_experiments_dispatch(self, capsys):
        assert main(["experiments", "table2"]) == 0
        out = capsys.readouterr().out
        assert "===== table2 =====" in out and "GT240" in out

    def test_experiments_unknown(self, capsys):
        assert main(["experiments", "ghost"]) == 2


class TestDisasm:
    def test_disasm_lists_instructions(self, capsys):
        assert main(["disasm", "vectorAdd"]) == 0
        out = capsys.readouterr().out
        assert "LDG" in out and "FADD" in out and "EXIT" in out

    def test_disasm_unknown_kernel(self, capsys):
        assert main(["disasm", "ghost"]) == 2

    def test_disasm_annotates_reconvergence(self, capsys):
        assert main(["disasm", "bfs1"]) == 0
        out = capsys.readouterr().out
        assert "reconverge @" in out
        assert "\nL" in out  # at least one branch-target label marker


class TestLint:
    def test_parser_flags(self):
        args = build_parser().parse_args(
            ["lint", "--strict", "--format", "json",
             "--kernels", "vectorAdd", "--min-severity", "warning"])
        assert args.command == "lint"
        assert args.strict and args.format == "json"
        assert args.kernels == "vectorAdd"
        assert args.min_severity == "warning"
        assert build_parser().parse_args(["lint"]).min_severity == "info"

    def test_lint_single_kernel_strict_ok(self, capsys):
        assert main(["lint", "--kernels", "vectorAdd", "--strict"]) == 0
        out = capsys.readouterr().out
        assert "vectorAdd" in out and "ok" in out

    def test_lint_all_workloads_strict_passes(self, capsys):
        assert main(["lint", "--strict"]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out

    def test_lint_json_output(self, capsys):
        assert main(["lint", "--kernels", "matrixMul",
                     "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert isinstance(payload, list)
        assert all({"rule", "severity", "kernel"} <= set(d)
                   for d in payload)

    def test_lint_unknown_kernel(self, capsys):
        assert main(["lint", "--kernels", "warpdrive"]) == 2
        assert "unknown kernel" in capsys.readouterr().err


class TestErrorBudgetValidation:
    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "-0.1", "1.5"])
    def test_non_finite_and_out_of_range_budgets_exit_2(self, bad,
                                                        capsys):
        rc = main(["run", "vectorAdd", "--gpu", "GT240",
                   "--backend", "auto", "--error-budget=" + bad,
                   "--no-cache"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "finite fraction in [0, 1]" in err

    def test_budget_requires_auto_backend(self, capsys):
        rc = main(["run", "vectorAdd", "--gpu", "GT240",
                   "--backend", "cycle", "--error-budget", "0.1",
                   "--no-cache"])
        assert rc == 2
        assert "requires --backend auto" in capsys.readouterr().err

    def test_validate_checks_budget_too(self, capsys):
        rc = main(["validate", "--gpu", "GT240", "--backend", "auto",
                   "--error-budget", "nan", "--no-cache"])
        assert rc == 2
        assert "finite fraction" in capsys.readouterr().err

    def test_boundary_budgets_parse(self):
        # 0.0 and 1.0 are legal; the parser path must not reject them.
        args = build_parser().parse_args(
            ["run", "vectorAdd", "--backend", "auto",
             "--error-budget", "0.0"])
        from repro.cli import _check_error_budget
        assert _check_error_budget(args) == 0
        args.error_budget = 1.0
        assert _check_error_budget(args) == 0


class TestFleetCLI:
    def test_fleet_json_smoke(self, capsys, tmp_path):
        out = tmp_path / "fleet.json"
        rc = main(["fleet", "--gpus", "GTX580", "--requests", "20",
                   "--duration", "3600", "--no-cache", "--json",
                   "--out", str(out)])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ledger"]["requests"] == 20
        assert payload["kwh"] > 0
        assert json.loads(out.read_text()) == payload

    def test_fleet_table_smoke(self, capsys):
        rc = main(["fleet", "--gpus", "2xGT240", "--requests", "10",
                   "--duration", "600", "--no-cache"])
        assert rc == 0
        text = capsys.readouterr().out
        assert "bill:" in text and "kWh" in text

    def test_fleet_scenario_file(self, capsys, tmp_path):
        from repro.fleet import FleetScenario
        path = tmp_path / "scenario.json"
        scenario = FleetScenario(gpus=["GT240"], duration_s=600.0,
                                 n_requests=5, error_budget=0.10)
        path.write_text(scenario.to_json())
        rc = main(["fleet", "--scenario", str(path), "--no-cache",
                   "--json"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ledger"]["requests"] == 5

    def test_fleet_bad_gpu_spec_exits_2(self, capsys):
        rc = main(["fleet", "--gpus", "2x-GT240", "--no-cache"])
        assert rc == 2
        assert "bad fleet scenario" in capsys.readouterr().err

    def test_fleet_bad_budget_exits_2(self, capsys):
        rc = main(["fleet", "--error-budget", "nan", "--no-cache"])
        assert rc == 2
        assert "finite fraction" in capsys.readouterr().err

    def test_fleet_bad_scenario_file_exits_2(self, capsys, tmp_path):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps({"gpus": ["GT240"], "warp": 9}))
        rc = main(["fleet", "--scenario", str(path), "--no-cache"])
        assert rc == 2
        assert "bad fleet scenario" in capsys.readouterr().err
