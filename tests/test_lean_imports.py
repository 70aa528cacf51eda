"""Entry points load only what they run; the public names stay put.

* Building the facade and fetching a backend must not load the
  cross-checker, the fuzzer, the statistical model, backend validation,
  the fleet, the hardware testbed, the service or the job engine; the
  service daemon must not load the first three, the fleet or ``hw``.
* Every name of every package's ``__all__`` is listed by ``dir()`` and
  resolves to the object its defining module holds, and
  ``from <package> import *`` binds the same names as before the
  exports went lazy (``tests/data/public_names.json``,
  ``name -> "module:attribute"``, or the module itself for an exported
  submodule).  The check loads every
  submodule first: a submodule import binds its name on the package,
  so an export sharing that name (``repro.fleet.dispatch``, module and
  function) would come back as the module.
* Modules inside ``repro`` import from concrete submodules, never a
  lazily exported name through a package ``__init__``.
"""

from __future__ import annotations

import ast
import importlib
import json
import pkgutil
from pathlib import Path
from typing import Any, Dict

import repro
from tests.conftest import fresh_python

PUBLIC_NAMES = Path(__file__).parent / "data" / "public_names.json"
PACKAGE_DIR = Path(repro.__file__).resolve().parent


def loaded_after(code: str) -> set:
    """The ``repro`` modules a new interpreter holds after ``code``."""
    out = fresh_python(code + "\nimport sys\n"
                              "print('\\n'.join(sorted(sys.modules)))\n")
    return {m for m in out.split() if m.split(".")[0] == "repro"}


def _within(loaded: set, forbidden) -> list:
    return sorted(m for m in loaded for f in forbidden
                  if m == f or m.startswith(f + "."))


def test_facade_and_backend_load_no_heavy_module():
    loaded = loaded_after("from repro import GPUSimPow, get_backend\n"
                          "get_backend('parallel_cycle')")
    assert {"repro.core.gpusimpow", "repro.backends.parallel_cycle"} \
        <= loaded
    assert not _within(loaded, (
        "repro.analysis.crosscheck", "repro.analysis.fuzz",
        "repro.core.statmodel", "repro.backends.validation",
        "repro.fleet", "repro.hw", "repro.service", "repro.runner.engine"))


def test_daemon_loads_no_heavy_module():
    loaded = loaded_after("import repro.service.daemon")
    assert not _within(loaded, (
        "repro.analysis.crosscheck", "repro.analysis.fuzz",
        "repro.core.statmodel", "repro.fleet", "repro.hw"))


def check_public_surface() -> None:
    """Load every module, then check each package's exports against the
    pin (run in a new interpreter by the test below)."""
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if not info.name.endswith(".__main__"):
            importlib.import_module(info.name)
    for package, exports in json.loads(PUBLIC_NAMES.read_text()).items():
        module = importlib.import_module(package)
        assert sorted(module.__all__) == sorted(exports), package
        assert set(exports) <= set(dir(module)), package
        star: Dict[str, Any] = {}
        exec(f"from {package} import *", star)
        del star["__builtins__"]
        assert sorted(star) == sorted(exports), package
        for name, where in exports.items():
            home, _, attr = where.partition(":")
            want = importlib.import_module(home)
            if attr:
                want = getattr(want, attr)
            assert getattr(module, name) is want, f"{package}.{name}"
            assert star[name] is want, f"{package}.{name}"


def test_public_surface():
    fresh_python("from tests.test_lean_imports import check_public_surface\n"
                 "check_public_surface()")


def _lazy_tables() -> Dict[str, Dict[str, str]]:
    """Package -> {lazily exported name -> submodule}, read from the
    ``lazy_exports`` call of each ``__init__``."""
    tables = {}
    for init in PACKAGE_DIR.rglob("__init__.py"):
        package = ".".join(
            ("repro",) + init.parent.relative_to(PACKAGE_DIR).parts)
        for node in ast.walk(ast.parse(init.read_text())):
            if isinstance(node, ast.Call) \
                    and getattr(node.func, "id", "") == "lazy_exports":
                table = ast.literal_eval(node.args[1])
                tables[package] = {name: sub for sub, names in table.items()
                                   for name in names}
    return tables


def test_tables_found():
    assert set(_lazy_tables()) >= {
        "repro", "repro.analysis", "repro.backends", "repro.core",
        "repro.hw", "repro.isa", "repro.power", "repro.runner",
        "repro.sim", "repro.telemetry"}


def test_imports_name_concrete_submodules():
    tables = _lazy_tables()
    bad = []
    for path in sorted(PACKAGE_DIR.rglob("*.py")):
        package = ("repro",) + path.parent.relative_to(PACKAGE_DIR).parts
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.ImportFrom):
                continue
            target = node.module or ""
            if node.level:
                base = package[:len(package) - node.level + 1]
                target = ".".join(base + ((target,) if target else ()))
            bad += [f"{path.name}:{node.lineno} from {target} import "
                    f"{alias.name}" for alias in node.names
                    if alias.name in tables.get(target, ())]
    assert not bad, "import these from their defining submodule: " \
        + "; ".join(bad)
