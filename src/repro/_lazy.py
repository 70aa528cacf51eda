"""Lazy package exports (PEP 562): a name's submodule loads on first use.

A package ``__init__`` lists what it re-exports, grouped by the
submodule that defines each name, and imports none of it::

    __getattr__, __dir__, __all__ = lazy_exports(__name__, {
        ".config": ("GPUConfig", "gt240"),
        ".gpu": ("GPU", "simulate"),
    })

``from repro.sim import GPU`` then imports :mod:`repro.sim.gpu` (and
what it needs), never the rest of the package, and returns the very
object ``repro.sim.gpu.GPU``.  A resolved name is stored on the package,
so later reads are plain attribute lookups.

An exported name must not also name a submodule of its package:
importing that submodule by any route binds the name on the package to
the module, and the hook never runs for it.  A submodule that is itself
exported goes in ``submodules``.
"""

from __future__ import annotations

import sys
from importlib import import_module
from typing import Any, Callable, Dict, List, Mapping, Sequence, Tuple


def lazy_exports(package: str, table: Mapping[str, Sequence[str]],
                 submodules: Sequence[str] = ()
                 ) -> Tuple[Callable[[str], Any], Callable[[], List[str]],
                            List[str]]:
    """The ``__getattr__``, ``__dir__`` and ``__all__`` of a package.

    ``table`` maps each (relative) submodule to the names ``package``
    exports from it; each of ``submodules`` is exported as the module.
    """
    origin: Dict[str, str] = {name: module
                              for module, names in table.items()
                              for name in names}
    origin.update((name, "." + name) for name in submodules)

    def __getattr__(name: str) -> Any:
        try:
            module = origin[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}") from None
        value = import_module(module, package)
        if name not in submodules:
            value = getattr(value, name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> List[str]:
        return sorted(set(vars(sys.modules[package])) | set(origin))

    return __getattr__, __dir__, list(origin)
