"""Regenerate the paper's artifacts: ``python -m repro.experiments``.

The same command as ``gpusimpow experiments`` -- same options
(``--list``, ``--jobs``, ``--no-cache``, ``--timeout``, ``--out-dir``),
same output, same exit codes; see :func:`repro.cli.main`.
"""

import sys

from ..cli import main as cli_main


def main() -> int:
    """Run ``gpusimpow experiments`` with this process's arguments."""
    return cli_main(["experiments", *sys.argv[1:]])


if __name__ == "__main__":
    raise SystemExit(main())
