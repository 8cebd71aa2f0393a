"""End-to-end run: every subcommand in a fresh process, as a user runs it.

One pass is one set-up probe (a fresh interpreter that imports spectrumspace
and loads the scenario) followed by each subcommand once, one process at a
time: ``python -m spectrumspace <cmd> --scenario F --out D``, started through
a small launcher that also records the process's own peak RSS
(``measure.run_program``). Passes repeat until the run's time is spent, at
least MIN_PASSES times. Nothing here is traced.

Every timed process is bracketed by runs of a reference probe, a fixed
script of the benchmark's own that does what a subcommand does without the
program: start an interpreter, import numpy, loop in Python, do array work
and format numbers. The shared machine this was written on speeds up and
slows down by up to a third, in spells from seconds to minutes, and a
subcommand and the probes run just before and after it move together. So
each time is divided by the mean of the two probe times around it and
multiplied by REFERENCE_S: a time metric is the median over passes of that
scaled time, the seconds it would take on a machine where the probe takes
REFERENCE_S. The program never runs in the probe, so a change to the program
moves only the numerator.
"""

from __future__ import annotations

import shutil
import statistics
import time
from pathlib import Path

import checks
from measure import Metric, median_metric, run_child, run_program

MIN_PASSES = 3
SETUP_CODE = ("import sys, spectrumspace; from spectrumspace.scenario_io import load_document; "
              "load_document(sys.argv[1])")
REFERENCE_CODE = """\
import numpy as np

total, table = 0.0, {}
for i in range(200_000):
    total += (i * 7 % 13) * 0.5
    table[i % 97] = total
field = np.arange(250_000, dtype=float).reshape(500, 500)
for _ in range(20):
    field = np.sqrt(field * field + 1.0)
",".join(f"{v:.4f}" for v in field[:40].ravel())
"""
# Median wall time of the reference probe on the 2-vCPU Xeon virtual
# machine (Python 3.11, numpy 2.4) where the benchmark was written.
REFERENCE_S = 0.235
RASTER_COMMANDS = ("occupancy", "opportunity")


def metric_name(command: str) -> str:
    return command.replace("-", "_") + "_s"


def _failure(what: str, child) -> str:
    return f"{what}: exit {child.returncode}: {child.output.strip()[-300:]}"


def _reference(checker: checks.Checker) -> float:
    child = run_child(["-c", REFERENCE_CODE])
    checker.check(child.returncode == 0, _failure("reference probe", child))
    return child.wall_s


def scale(timed: list[tuple[str, float]], references: list[float]) -> dict[str, list[float]]:
    """Each time in seconds at REFERENCE_S per probe, grouped by metric name.

    ``references`` holds one more probe time than ``timed`` holds times:
    ``timed[i]`` ran between probes i and i + 1.
    """
    scaled: dict[str, list[float]] = {}
    for (name, wall), before, after in zip(timed, references, references[1:]):
        scaled.setdefault(name, []).append(wall * 2.0 * REFERENCE_S / (before + after))
    return scaled


def run(scenario_path: Path, scenario, seed: int, seconds: float,
        checker: checks.Checker, work: Path) -> tuple[list[Metric], dict]:
    """Returns the metrics and the per-pass samples behind them."""
    warm = run_child(["-c", "import spectrumspace.cli"])
    checker.check(warm.returncode == 0, _failure("import spectrumspace.cli", warm))

    timed: list[tuple[str, float]] = []
    references = [_reference(checker)]

    def record(name: str, child) -> None:
        timed.append((name, child.wall_s))
        references.append(_reference(checker))

    peak_rss_mb = 0.0
    first_digests: dict[str, dict] = {}
    start = time.perf_counter()
    longest = 0.0
    passes = 0
    while passes < MIN_PASSES or time.perf_counter() - start + longest <= seconds:
        pass_start = time.perf_counter()
        child = run_child(["-c", SETUP_CODE, str(scenario_path)])
        record("setup_s", child)
        checker.check(child.returncode == 0, _failure("set-up", child))
        reports, rasters = {}, {}
        for command in checks.COMMANDS:
            out = work / f"pass{passes}" / command
            child, rss_mb = run_program([command, "--scenario", str(scenario_path),
                                         "--out", str(out)], work / "peak_rss_kb")
            record(metric_name(command), child)
            if checker.check(child.returncode == 0, _failure(command, child)):
                if checker.check(rss_mb is not None, f"{command}: no peak RSS recorded"):
                    peak_rss_mb = max(peak_rss_mb, rss_mb)
                names = checks.expected_artifacts(command, scenario)
                if passes == 0:
                    parsed = checks.check_artifacts(checker, command, out, scenario)
                    (rasters if command in RASTER_COMMANDS else reports).update(parsed)
                    first_digests[command] = checks.digests(out, names)
                else:
                    checker.check(checks.digests(out, names) == first_digests.get(command),
                                  f"{command}: artifacts differ from the first pass")
            shutil.rmtree(out, ignore_errors=True)
        longest = max(longest, time.perf_counter() - pass_start)
        if passes == 0:
            checks.check_invariants(checker, reports)
            checks.check_oracle(checker, scenario, rasters, seed)
        passes += 1

    scaled = scale(timed, references)
    metrics = [median_metric(name, values, "s") for name, values in scaled.items()]
    metrics.append(Metric("peak_rss_mb", peak_rss_mb, "MB", passes * len(checks.COMMANDS)))
    samples = {"reference_s": references, "reference_median_s": statistics.median(references),
               "timed_s": timed, "scaled_s": scaled}
    return metrics, samples
