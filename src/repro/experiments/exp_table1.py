"""Table I: overview of the GPGPU benchmarks used for evaluation.

Regenerated from the workload registry so the table always reflects
what the repository actually ships: name, kernel count, description,
and origin suite for each of the 12 benchmarks (19 kernels).
"""

from __future__ import annotations

from typing import Dict, List

from ..workloads import benchmark_info, benchmark_names, build_benchmark

from . import base

#: The paper's Table I, for comparison in tests.
PAPER_TABLE1 = {
    "backprop": (2, "Rodinia"),
    "heartwall": (1, "Rodinia"),
    "kmeans": (2, "Rodinia"),
    "pathfinder": (1, "Rodinia"),
    "bfs": (2, "Rodinia"),
    "hotspot": (1, "Rodinia"),
    "matmul": (1, "CUDA SDK"),
    "blackscholes": (1, "CUDA SDK"),
    "mergesort": (4, "CUDA SDK"),
    "scalarprod": (1, "CUDA SDK"),
    "vectoradd": (1, "CUDA SDK"),
    "needle": (2, "Rodinia"),
}


def run(jobs=None, cache=None,
        progress=None) -> List[Dict[str, object]]:
    """One row per benchmark, with its kernels enumerated."""
    rows = []
    for name in benchmark_names():
        info = benchmark_info(name)
        kernels = [l.kernel.name for l in build_benchmark(name)]
        rows.append({
            "name": info.name,
            "n_kernels": info.n_kernels,
            "description": info.description,
            "origin": info.origin,
            "kernels": kernels,
        })
    return rows


def format_table(rows: List[Dict[str, object]]) -> str:
    """Render the result as an aligned text table."""
    lines = ["Table I: GPGPU benchmarks used for experimental evaluation",
             f"{'Name':<14s}{'#Kernels':>9s}  {'Description':<38s}"
             f"{'Origin':<10s}"]
    for row in rows:
        lines.append(f"{row['name']:<14s}{row['n_kernels']:>9d}  "
                     f"{row['description']:<38s}{row['origin']:<10s}")
    total = sum(row["n_kernels"] for row in rows)
    lines.append(f"({len(rows)} benchmarks, {total} kernels)")
    return "\n".join(lines)


EXPERIMENT = base.register(base.Experiment(
    name="table1",
    description="Table I: overview of the GPGPU evaluation benchmarks",
    compute=run,
    render=format_table,
))


if __name__ == "__main__":
    EXPERIMENT.run(echo=True)
