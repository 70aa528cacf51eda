"""The ``gpusimpow`` command-line surface is pinned exactly.

``tests/data/cli_surface.json`` records every option of the top-level
parser and of every subcommand: option strings, ``dest``, ``default``,
``type``, action class, ``nargs``, ``const``, ``choices`` and
``required``.  How the parser is assembled (helper functions, argparse
parent parsers) may change; what a user can type, and what it parses
to, may not.  Help wording is not pinned.

Regenerate (only when a change is *meant* to alter the CLI)::

    PYTHONPATH=src python -m tests.test_cli_surface --regen
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import build_parser

DATA = Path(__file__).parent / "data" / "cli_surface.json"
SRC = Path(__file__).resolve().parent.parent / "src"


def _json_value(value):
    """``value`` as JSON data (callables and sentinels by name)."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (list, tuple)):
        return [_json_value(v) for v in value]
    return getattr(value, "__name__", repr(value))


def _actions(parser: argparse.ArgumentParser) -> dict:
    """dest -> the parse-relevant attributes of that action."""
    return {action.dest: {
        "option_strings": list(action.option_strings),
        "action": type(action).__name__,
        "type": _json_value(action.type),
        "default": _json_value(action.default),
        "nargs": _json_value(action.nargs),
        "const": _json_value(action.const),
        "choices": _json_value(action.choices),
        "required": action.required,
    } for action in parser._actions
        if not isinstance(action, argparse._SubParsersAction)}


def collect() -> dict:
    """The whole surface: ``""`` is the top-level parser, every other
    key a subcommand."""
    parser = build_parser()
    surface = {"": _actions(parser)}
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                surface[name] = _actions(sub)
    return surface


def _normalise(data: dict) -> dict:
    return json.loads(json.dumps(data))


@pytest.fixture(scope="module")
def recorded():
    return json.loads(DATA.read_text())


@pytest.fixture(scope="module")
def current():
    return _normalise(collect())


def test_same_subcommands(recorded, current):
    assert sorted(current) == sorted(recorded)


@pytest.mark.parametrize("command", sorted(collect()))
def test_subcommand_surface(recorded, current, command):
    assert current[command] == recorded[command]


def _run_module(args, cwd, env):
    return subprocess.run([sys.executable, "-m", *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=300)


def test_module_entry_points_agree(tmp_path):
    """``python -m repro.experiments`` and ``python -m repro.cli
    experiments`` print the same text and write the same artifacts."""
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(
                   [str(SRC), os.environ.get("PYTHONPATH", "")]),
               REPRO_CACHE_DIR=str(tmp_path / "cache"))
    outputs = {}
    for name, args in {
            "experiments": ["repro.experiments", "table2"],
            "cli": ["repro.cli", "experiments", "table2"]}.items():
        cwd = tmp_path / name
        cwd.mkdir()
        proc = _run_module([*args, "--out-dir", "out"], cwd, env)
        assert proc.returncode == 0, proc.stderr
        artifacts = {p.name: p.read_bytes()
                     for p in sorted((cwd / "out").iterdir())}
        outputs[name] = (proc.stdout, artifacts)
    assert outputs["experiments"][1], "no artifact was written"
    assert outputs["experiments"] == outputs["cli"]


if __name__ == "__main__":
    if "--regen" not in sys.argv[1:]:
        raise SystemExit("usage: python -m tests.test_cli_surface --regen")
    DATA.write_text(json.dumps(_normalise(collect()), indent=1,
                               sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {DATA}")
