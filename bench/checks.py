"""Correctness checks on the artifacts the subcommands write.

Every check is one operation in ``failed_ops``: a subcommand that exits
non-zero, a missing or malformed artifact, an artifact that differs between
repeats of the same invocation, a broken invariant, and each oracle-sampled
cell that disagrees with the straight-loop reference.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

import program

COMMANDS = ("occupancy", "opportunity", "quantify", "report", "admit", "enforce", "compare-osa")
ORACLE_CELLS = 20
# CSV rasters carry 4 decimals: half a unit of the last place, plus room for
# the last-ulp difference between the vectorized and the loop arithmetic.
ORACLE_TOLERANCE_DB = 0.5e-4 + 1e-9
# Report numbers are rounded to 12 significant digits.
REPORT_REL_TOLERANCE = 1e-11


class Checker:
    """Counts attempted and failed checks and keeps the first failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.tally(1, [] if ok else [what])
        return ok

    def tally(self, attempted: int, failures: list[str]) -> None:
        self.attempted += attempted
        self.failed += len(failures)
        self.messages.extend(failures[: max(0, 20 - len(self.messages))])


def expected_artifacts(command: str, scenario) -> list[str]:
    slices = [(b, q) for b in range(scenario.dims.b_hat) for q in range(scenario.dims.t_hat)]
    if command in ("occupancy", "opportunity"):
        return [f"{command}_b{b}_q{q}.csv" for b, q in slices]
    return [f"{command}.json"]


def read_raster(path: Path, grid) -> np.ndarray | None:
    """The n_y x n_x values of a CSV raster, or None when it is malformed."""
    try:
        lines = path.read_text(encoding="utf-8").splitlines()
        if len(lines) != grid.n_y + 1 or not lines[0].startswith("# band="):
            return None
        rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
    except (OSError, ValueError):
        return None
    if any(len(row) != grid.n_x for row in rows):
        return None
    values = np.array(rows)
    return values if np.isfinite(values).all() else None


def read_report(path: Path) -> dict | None:
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return None
    return data if isinstance(data, dict) else None


def digests(out_dir: Path, names) -> dict[str, str]:
    return {name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
            for name in names if (out_dir / name).is_file()}


def check_artifacts(checker: Checker, command: str, out_dir: Path, scenario) -> dict:
    """Check that every expected artifact exists and parses; return the parsed ones."""
    parsed = {}
    for name in expected_artifacts(command, scenario):
        path = out_dir / name
        value = read_raster(path, scenario.grid) if name.endswith(".csv") else read_report(path)
        if checker.check(value is not None, f"{command}: {name} missing or malformed"):
            parsed[name] = value
    return parsed


def _report_value(report: dict | None, *keys) -> float | None:
    try:
        for key in keys:
            report = report[key]
        return float(report)
    except (KeyError, TypeError, ValueError):
        return None


def check_invariants(checker: Checker, reports: dict) -> None:
    """Cross-command invariants on the JSON reports of one pass."""
    quantify = reports.get("quantify.json")
    total = _report_value(quantify, "total_spectrum", "value")
    available = _report_value(quantify, "available_spectrum", "value")
    checker.check(total is not None and available is not None
                  and 0.0 <= available <= total * (1 + REPORT_REL_TOLERANCE),
                  f"quantify: available {available} not within [0, total {total}]")
    post = _report_value(reports.get("admit.json"), "admission", "post_available", "value")
    checker.check(post is not None and available is not None
                  and post <= available * (1 + REPORT_REL_TOLERANCE),
                  f"admit: post_available {post} exceeds available {available}")
    violations = _report_value(reports.get("compare-osa.json"),
                               "comparison", "quantified", "violation_count")
    checker.check(violations == 0,
                  f"compare-osa: quantified admission pushed {violations} receiver-quanta below beta")


def sample_cells(seed: int, grid, k: int = ORACLE_CELLS) -> list[tuple[int, int]]:
    rng = np.random.default_rng(seed)
    flat = rng.choice(grid.n_x * grid.n_y, size=min(k, grid.n_x * grid.n_y), replace=False)
    return [(int(i) % grid.n_x, int(i) // grid.n_x) for i in flat]


def oracle_mismatches(scenario, kind: str, band: int, quantum: int, values: np.ndarray,
                      cells) -> list[tuple[tuple[int, int], float, float]]:
    """Sampled cells whose raster value disagrees with the straight-loop oracle.

    ``kind`` is "occupancy" or "opportunity" (every receiver protected, as the
    CLI's default ``--protect all``).
    """
    oracle = program.oracle()
    bad = []
    for ix, iy in cells:
        if kind == "occupancy":
            expected = oracle.o_occupancy_cell(scenario, band, quantum, ix, iy)
        else:
            expected = oracle.o_opportunity_cell(scenario, band, quantum, None, ix, iy)
        got = float(values[iy, ix])
        if not abs(got - expected) <= ORACLE_TOLERANCE_DB:
            bad.append(((ix, iy), got, expected))
    return bad


def check_oracle(checker: Checker, scenario, rasters: dict, seed: int) -> None:
    """Spot-check sampled cells of every occupancy and opportunity raster."""
    cells = sample_cells(seed, scenario.grid)
    for name, values in sorted(rasters.items()):
        kind, band, quantum = _raster_slice(name)
        bad = oracle_mismatches(scenario, kind, band, quantum, values, cells)
        checker.tally(len(cells), [f"{name} cell {cell}: raster {got} vs oracle {want}"
                                   for cell, got, want in bad])


def _raster_slice(name: str) -> tuple[str, int, int]:
    kind, band, quantum = Path(name).stem.split("_")
    return kind, int(band[1:]), int(quantum[1:])
