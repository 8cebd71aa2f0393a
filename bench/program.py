"""Locate the program under test and the straight-loop oracle in the checkout.

The benchmark lives in ``bench/`` at the root of a source checkout and always
measures the ``src/spectrumspace`` package of that checkout, never an
installed copy. ``load()`` puts ``src`` first on ``sys.path`` and fails loudly
when the checkout does not hold the program or the oracle.
"""

from __future__ import annotations

import functools
import importlib.util
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "spectrumspace"
ORACLE = ROOT / "tests" / "helpers.py"
CAMPUS = ROOT / "demos" / "scenarios" / "campus.json"
WORK = ROOT / ".bench_work"


class ProgramMissing(RuntimeError):
    """The checkout does not contain the program or the files the benchmark reads."""


def child_env() -> dict:
    """Environment for program subprocesses: this checkout's src, one BLAS thread.

    The program makes no BLAS calls, but numpy's import starts an OpenBLAS
    pool with a thread per CPU whose start-up spin competes with the main
    thread; on a small shared machine that made every process's wall time
    depend on whether another tenant held the second CPU.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["OPENBLAS_NUM_THREADS"] = "1"
    return env


def load():
    """Import spectrumspace from this checkout and return the package module."""
    for needed in (PACKAGE / "__init__.py", PACKAGE / "cli.py", ORACLE, CAMPUS):
        if not needed.is_file():
            raise ProgramMissing(f"missing {os.path.relpath(needed, ROOT)} in checkout {ROOT}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import spectrumspace

    origin = Path(spectrumspace.__file__).resolve()
    if PACKAGE.resolve() not in origin.parents:
        raise ProgramMissing(f"spectrumspace imported from {origin}, not from {PACKAGE}")
    return spectrumspace


@functools.cache
def oracle():
    """tests/helpers.py, loaded read-only: the straight-loop reference implementations."""
    load()
    spec = importlib.util.spec_from_file_location("bench_oracle_helpers", ORACLE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
