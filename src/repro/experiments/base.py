"""The Experiment protocol and registry.

Every paper artifact (table, figure, ablation) is an
:class:`Experiment`: a named, described driver with one uniform entry
point --

    ``run(jobs=..., cache=..., out_dir=...) -> list of artifact paths``

-- so the CLI (``gpusimpow experiments``), the module runner
(``python -m repro.experiments``) and tests all dispatch the same way
instead of each knowing every driver module's shape.  Driver modules
keep their ``run()``/``format_table()`` functions (those remain the
programmatic API for structured results); the :class:`Experiment`
wraps them and owns rendering and artifact writing.

Modules register an ``EXPERIMENT`` instance at import time via
:func:`register`; look one up with :func:`get_experiment` and enumerate
with :func:`experiment_names` / :func:`all_experiments`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

from ..runner.engine import AUTO

RenderFn = Callable[[Any], str]
ArtifactsFn = Callable[[Any, Path], List[Path]]


@dataclass
class Experiment:
    """One regenerable artifact of the reproduction.

    Attributes:
        name: Registry key (``table4``, ``fig6``, ``powertrace``, ...).
        description: One line of what the artifact shows.
        compute: Produces the structured result.  Every driver accepts
            the uniform ``(jobs, cache, progress)`` keyword trio --
            drivers that do not simulate through :mod:`repro.runner`
            simply ignore it -- so the registry dispatches without
            per-driver special cases.
        render: Structured result -> human-readable text.
        artifacts: Optional extra artifact writer ``(result, out_dir)
            -> paths`` for experiments that emit more than their text
            rendering (e.g. trace files).
    """

    name: str
    description: str
    compute: Callable[..., Any]
    render: RenderFn
    artifacts: Optional[ArtifactsFn] = field(default=None, repr=False)

    def run(self, jobs: Optional[int] = None, cache=AUTO,
            progress: Optional[Callable] = None,
            out_dir=None, echo: bool = False) -> List[str]:
        """Compute, render, and (optionally) write this artifact.

        Args:
            jobs: Worker processes for runner-backed drivers.
            cache: Result cache (:data:`repro.runner.AUTO` resolves the
                configured/environment default).
            progress: Runner progress callback ``(done, total, result)``
                forwarded to drivers that fan out through
                :func:`repro.runner.run_jobs`.
            out_dir: When given, the rendering is written to
                ``<out_dir>/<name>.txt`` and any extra artifacts next to
                it.
            echo: Print the rendering to stdout (what the old per-module
                ``main()`` entry points did).

        Returns:
            Paths of every artifact written (empty without ``out_dir``).
        """
        result = self.compute(jobs=jobs, cache=cache, progress=progress)
        text = self.render(result)
        if echo:
            print(text)
        written: List[str] = []
        if out_dir is not None:
            out = Path(out_dir)
            out.mkdir(parents=True, exist_ok=True)
            path = out / f"{self.name}.txt"
            path.write_text(text + "\n", encoding="utf-8")
            written.append(str(path))
            if self.artifacts is not None:
                written.extend(str(p) for p in self.artifacts(result, out))
        return written


_REGISTRY: Dict[str, Experiment] = {}


def register(experiment: Experiment) -> Experiment:
    """Add an experiment to the registry (idempotent per name)."""
    _REGISTRY[experiment.name] = experiment
    return experiment


def get_experiment(name: str) -> Experiment:
    """Look up a registered experiment by name."""
    if name not in _REGISTRY:
        raise KeyError(f"unknown experiment {name!r}; "
                       f"have {sorted(_REGISTRY)}")
    return _REGISTRY[name]


def experiment_names() -> List[str]:
    """All registered experiment names, in registration order."""
    return list(_REGISTRY)


def all_experiments() -> Dict[str, Experiment]:
    """Name -> :class:`Experiment` for every registered experiment."""
    return dict(_REGISTRY)
