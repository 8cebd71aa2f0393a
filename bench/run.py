"""spectrumspace benchmark: end-to-end CLI timings and traced per-layer timings.

    python3 bench/run.py --workload admission-dense --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --all --seed 1 --seconds 20

With ``--trace 0`` every subcommand runs in its own process, untraced, and
the end-to-end metrics are reported; with ``--trace 1`` the benchmark calls
each module's entry points in-process under spans and reports the per-layer
metrics. ``--all`` does both for every workload. Each metric is printed with
its unit and sample count; with ``--workload`` the last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``. ``failed / attempted`` is the benchmark's ``failed_ops``.

Run from anywhere; the program measured is always ``src/spectrumspace`` of
the checkout that holds this file. Scratch output goes to ``.bench_work/``
there; an untraced run leaves its per-pass samples (wall and scaled times and
the reference probe's times) in ``.bench_work/samples/``
and a traced run its spans in ``.bench_work/traces/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

import checks
import e2e
import generate
import layers
import program

WORKLOADS = ("admission-dense", "raster-wide", "campus")


def _run_seconds() -> float:
    return float(json.loads((program.ROOT / "BENCHMARK.json").read_text())["run_seconds"])


def _scenario_file(workload: str, seed: int, run_dir: Path) -> Path:
    if workload == "campus":
        return program.CAMPUS
    path = run_dir / f"{workload}.json"
    path.write_text(generate.document_text(workload, seed), encoding="utf-8")
    return path


def run_workload(workload: str, seed: int, seconds: float, trace: bool):
    """Returns (metrics, checker) of one run."""
    from spectrumspace.scenario_io import load_document

    run_dir = program.WORK / f"{workload}-seed{seed}-trace{int(trace)}-{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    try:
        path = _scenario_file(workload, seed, run_dir)
        checker = checks.Checker()
        if trace:
            tracer = layers.Tracer(workload, seed)
            try:
                metrics = layers.run(path, seed, seconds, tracer, checker, run_dir)
            finally:
                tracer.write(program.WORK / "traces" / f"{workload}-seed{seed}.jsonl")
        else:
            scenario = load_document(path).scenario
            metrics, samples = e2e.run(path, scenario, seed, seconds, checker, run_dir)
            samples_path = program.WORK / "samples" / f"{workload}-seed{seed}.json"
            samples_path.parent.mkdir(parents=True, exist_ok=True)
            samples_path.write_text(json.dumps(samples, indent=1) + "\n", encoding="utf-8")
            print(f"reference probe: median {samples['reference_median_s']:.4f} s over "
                  f"{len(samples['reference_s'])} runs; times below are scaled to "
                  f"{e2e.REFERENCE_S} s per probe (wall times in {samples_path.name})")
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    return metrics, checker


def print_table(workload: str, trace: bool, metrics, checker) -> None:
    print(f"== {workload} ({'traced per-layer' if trace else 'end-to-end'}) ==")
    for m in metrics:
        print(f"{m.name:<44} {m.value:>14.6g} {m.unit:<6} n={m.samples}")
    print(f"{'failed_ops':<44} {checker.failed:>7d} / {checker.attempted:<6d}")
    for message in checker.messages:
        print(f"check failed: {message}", file=sys.stderr)


def result(metrics, checker) -> dict:
    return {
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {m.name: {"value": m.value, "unit": m.unit} for m in metrics},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    target = parser.add_mutually_exclusive_group(required=True)
    target.add_argument("--workload", choices=WORKLOADS)
    target.add_argument("--all", action="store_true", help="every workload, untraced and traced")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=_run_seconds(),
                        help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        program.load()
    except program.ProgramMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.all:
        combined = {}
        for workload in WORKLOADS:
            for trace in (False, True):
                metrics, checker = run_workload(workload, args.seed, args.seconds, trace)
                print_table(workload, trace, metrics, checker)
                combined[f"{workload}/{'trace' if trace else 'e2e'}"] = result(metrics, checker)
        print(json.dumps(combined, sort_keys=True))
        return 0

    metrics, checker = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print_table(args.workload, bool(args.trace), metrics, checker)
    print(json.dumps(result(metrics, checker), sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
