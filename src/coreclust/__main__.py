"""Entry point for ``python -m coreclust`` and the ``coreclust`` command."""

import os
import sys


def run() -> int:
    """Run the CLI on sys.argv with one BLAS thread unless the caller set
    OPENBLAS_NUM_THREADS.  No coreclust path calls BLAS, and OpenBLAS starts
    its threads when numpy loads, so the variable must be set before the
    first numpy import: ``import coreclust`` loads none, ``.cli`` does."""
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    from .cli import main
    return main()


if __name__ == "__main__":
    sys.exit(run())
