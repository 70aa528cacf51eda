"""Every package and entry module imports on its own, in a new process.

The package ``__init__`` files export lazily (:mod:`repro._lazy`), so
nothing fixes the order in which modules load any more: each module's
own imports must form no cycle.  An eager top-level ``__init__`` used to
hide one -- ``power.chip -> sim (package) -> sim.sanitizer -> analysis
(package) -> analysis.crosscheck -> backends (package) ->
backends.validation -> power.chip`` -- which surfaced as ``cannot import
name 'Chip' from partially initialized module`` as soon as
``repro.core.gpusimpow`` was imported first.  Each case below starts
from an empty ``sys.modules`` and also resolves every name of the
module's ``__all__``, so a cycle reached only through a lazy export
shows too.
"""

from __future__ import annotations

import pkgutil

import pytest

import repro
from tests.conftest import fresh_python

PACKAGES = ["repro"] + sorted(
    info.name for info in pkgutil.walk_packages(repro.__path__, "repro.")
    if info.ispkg)

ENTRY_MODULES = ["repro.cli", "repro.request", "repro.core.gpusimpow",
                 "repro.power.chip", "repro.sim.sanitizer",
                 "repro.service.daemon"]


@pytest.mark.parametrize("module", PACKAGES + ENTRY_MODULES)
def test_imports_alone(module):
    fresh_python(
        "import importlib\n"
        f"module = importlib.import_module({module!r})\n"
        "for name in getattr(module, '__all__', ()):\n"
        "    getattr(module, name)\n")
