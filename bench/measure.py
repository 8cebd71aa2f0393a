"""Timing primitives shared by the end-to-end and the traced runs."""

from __future__ import annotations

import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import program

# ``python -m spectrumspace <argv[2:]>``, run through runpy as ``-m`` does,
# that at exit writes the process's own peak RSS (VmHWM, in kB) to argv[1].
PROGRAM_LAUNCHER = """\
import atexit, runpy, sys

def _write_peak_rss(path=sys.argv[1]):
    with open("/proc/self/status") as fh:
        kb = next(line.split()[1] for line in fh if line.startswith("VmHWM:"))
    with open(path, "w") as fh:
        fh.write(kb)

atexit.register(_write_peak_rss)
sys.argv = ["spectrumspace", *sys.argv[2:]]
runpy.run_module("spectrumspace", run_name="__main__", alter_sys=True)
"""


@dataclass(frozen=True)
class Metric:
    name: str
    value: float
    unit: str
    samples: int


def median_metric(name: str, values, unit: str) -> Metric:
    values = list(values)
    return Metric(name, float(statistics.median(values)), unit, len(values))


@dataclass(frozen=True)
class Child:
    returncode: int
    wall_s: float
    output: str


def run_child(args) -> Child:
    """Run ``python3 <args>`` on this checkout's src, timed from spawn to exit."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, *args], env=program.child_env(),
                            stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                            stderr=subprocess.STDOUT)
    try:
        output, _ = proc.communicate()
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    wall = time.perf_counter() - start
    return Child(proc.returncode, wall, output.decode(errors="replace"))


def run_program(argv, peak_rss_file: Path) -> tuple[Child, float | None]:
    """Run ``python -m spectrumspace <argv>``; return it and its own peak RSS in MB.

    The peak is the VmHWM the child reads from its own /proc status at exit,
    None when it wrote none. ``ru_maxrss`` from ``wait4`` would not do: a
    child that subprocess starts with vfork carries the benchmark's own
    high-water RSS across exec.
    """
    peak_rss_file.unlink(missing_ok=True)
    child = run_child(["-c", PROGRAM_LAUNCHER, str(peak_rss_file), *argv])
    try:
        peak_kb = float(peak_rss_file.read_text())
    except (OSError, ValueError):
        return child, None
    return child, peak_kb / 1024.0
