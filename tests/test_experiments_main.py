"""Tests for the experiment runner module (__main__ dispatch)."""

import os
import subprocess
import sys
from pathlib import Path

from repro.experiments import ALL_EXPERIMENTS
from repro.experiments.__main__ import main

SRC = Path(__file__).resolve().parent.parent / "src"


class TestDispatch:
    def test_unknown_experiment_exits(self, monkeypatch, capsys):
        # Same contract as `gpusimpow experiments`: usage error, exit 2.
        monkeypatch.setattr("sys.argv", ["experiments", "nosuch"])
        assert main() == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_module_exit_code(self, tmp_path):
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(SRC), os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run(
            [sys.executable, "-m", "repro.experiments", "nosuch"],
            cwd=tmp_path, env=env, capture_output=True, text=True,
            timeout=120)
        assert proc.returncode == 2
        assert "unknown experiment" in proc.stderr
        assert proc.stdout == ""

    def test_list(self, monkeypatch, capsys):
        monkeypatch.setattr("sys.argv", ["experiments", "--list"])
        assert main() == 0
        assert "table2" in capsys.readouterr().out

    def test_single_experiment_runs(self, monkeypatch, capsys):
        monkeypatch.setattr("sys.argv", ["experiments", "table2"])
        main()
        out = capsys.readouterr().out
        assert "===== table2 =====" in out
        assert "GT240" in out

    def test_multiple_experiments_in_order(self, monkeypatch, capsys):
        monkeypatch.setattr("sys.argv", ["experiments", "table2", "table5"])
        main()
        out = capsys.readouterr().out
        assert out.index("table2") < out.index("table5")

    def test_every_registered_module_has_format(self):
        for name, module in ALL_EXPERIMENTS.items():
            assert hasattr(module, "format_table"), name
