"""``python -m benchmarks.pogobench`` and ``python3
benchmarks/pogobench/__main__.py`` (the form ``BENCHMARK.json`` names,
which needs no ``PYTHONPATH`` and no package above this directory)."""

import pathlib
import sys

if not __package__:
    # Run as a file: this directory is sys.path[0].  Swap it for the
    # repo root so the package imports as it does under ``-m``.
    sys.path[0] = str(pathlib.Path(__file__).resolve().parents[2])

from benchmarks.pogobench.cli import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main())
