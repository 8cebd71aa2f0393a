"""Traced run: per-layer timings and work counts, measured in-process.

The benchmark calls the public entry points of each module itself, on the
workload's inputs, and records a span around every timed call. Each layer
gets one warm-up call, then timed calls until it has MAX_REPEATS samples or
has used its share of the run; the metric is the median. Spans stay in
memory and are written as JSON lines when the run ends.

Counts derived from array sizes rather than counted calls carry the suffix
``_computed``.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path

import checks
from measure import Metric, median_metric, run_child

MAX_REPEATS = 200
# Share of the run's seconds that one layer may spend on repeats.
LAYER_SHARE = 0.015
IMPORT_REPEATS = 5
IMPORT_CODE = ("import time; t = time.perf_counter(); import spectrumspace.cli; "
               "print(time.perf_counter() - t)")


class Tracer:
    """In-memory spans: name, start, end, parent, workload, seed and counts."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, **counts):
        record = {"id": len(self.spans), "name": name,
                  "parent": self._open[-1] if self._open else None,
                  "workload": self.workload, "seed": self.seed, "counts": counts}
        self.spans.append(record)
        self._open.append(record["id"])
        record["start"] = time.perf_counter()
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for record in self.spans:
                fh.write(json.dumps(record, sort_keys=True) + "\n")


class LayerRun:
    def __init__(self, tracer: Tracer, seconds: float):
        self.tracer = tracer
        self.budget_s = LAYER_SHARE * seconds
        self.metrics: list[Metric] = []

    def durations(self, name: str, fn, counts: dict) -> tuple[list[float], object]:
        result = fn()
        durations: list[float] = []
        while not durations or (len(durations) < MAX_REPEATS and sum(durations) < self.budget_s):
            with self.tracer.span(name, **counts) as span:
                result = fn()
            durations.append(span["end"] - span["start"])
        return durations, result

    def time(self, name: str, fn, **counts):
        """Time fn as layer ``name``, reporting ``counts`` as ``name.<key>``; returns its last result."""
        durations, result = self.durations(name, fn, counts)
        self.metrics.append(median_metric(name + "_s", durations, "s"))
        for key, value in counts.items():
            self.count(f"{name}.{key}", value)
        return result

    def count(self, name: str, value: float, unit: str = "count") -> None:
        self.metrics.append(Metric(name, float(value), unit, 1))


def _request_slices(scenario, requests):
    """(cell, band, quantum) for every request x acceptable band x quantum."""
    return [(scenario.grid.cell_of(req.position), band, q)
            for req in requests for band in sorted(req.acceptable_bands) for q in sorted(req.quanta)]


def run(scenario_path: Path, seed: int, seconds: float, tracer: Tracer,
        checker: checks.Checker, work: Path) -> list[Metric]:
    import spectrumspace as sp
    from spectrumspace import cli
    from spectrumspace.admission import ENTRANT_NETWORK_ID
    from spectrumspace.propagation import entrant_gain_field_linear, tx_gain_db_field
    from spectrumspace.scenario_io import (export_field, load_document, scenario_to_dict,
                                           write_report)

    lr = LayerRun(tracer, seconds)
    doc = lr.time("scenario_io.load_document", lambda: load_document(scenario_path))
    scenario, requests, policy = doc.scenario, doc.requests, doc.policy
    grid, cfg = scenario.grid, scenario.propagation
    txs, rxs = list(scenario.transmitters()), list(scenario.receivers())
    slices = [(b, q) for b in range(scenario.dims.b_hat) for q in range(scenario.dims.t_hat)]

    # model
    lr.time("model.validate_scenario", lambda: sp.validate_scenario(scenario))
    ids = ([(scenario.transmitter, tx.id) for tx in txs] + [(scenario.receiver, rx.id) for rx in rxs]
           + [(scenario.network, net.id) for net in scenario.networks])
    lr.time("model.id_lookup", lambda: [lookup(i) for lookup, i in ids], calls=len(ids))

    # propagation
    pairs = [(tx, rx) for tx in txs for rx in rxs]
    lr.time("propagation.link_gain_db",
            lambda: [sp.link_gain_db(tx, rx.position, cfg, rx.pattern) for tx, rx in pairs],
            calls=len(pairs))
    lr.time("propagation.tx_gain_field", lambda: [tx_gain_db_field(tx, grid, cfg) for tx in txs],
            cell_tx_computed=grid.a_hat * len(txs))
    lr.time("propagation.entrant_gain_field",
            lambda: [entrant_gain_field_linear(rx.position, rx.pattern, grid, cfg) for rx in rxs],
            cell_rx_computed=grid.a_hat * len(rxs))

    # quantify: grid layers over every slice
    occupancy = lr.time("quantify.occupancy_map",
                        lambda: [sp.occupancy_map(scenario, b, q) for b, q in slices])
    opportunity = lr.time("quantify.opportunity_map",
                          lambda: [sp.opportunity_map(scenario, b, q) for b, q in slices])
    lr.time("quantify.available_spectrum", lambda: sp.available_spectrum(scenario))
    lr.time("quantify.tx_consumption", lambda: [sp.tx_consumption(tx, scenario) for tx in txs],
            calls=len(txs))
    lr.time("quantify.rx_consumption", lambda: [sp.rx_consumption(rx, scenario) for rx in rxs],
            calls=len(rxs))

    # quantify: the scalar paths admission and sensing take
    margins = [(rx, q) for rx in rxs for q in sorted(rx.quanta)]
    lr.time("quantify.receiver_margin",
            lambda: [sp.receiver_margin_linear(scenario, rx, q) for rx, q in margins],
            calls=len(margins))
    points = _request_slices(scenario, requests)
    lr.time("quantify.opportunity_at_cell",
            lambda: [sp.opportunity_at_cell(scenario, b, q, cell) for cell, b, q in points],
            calls=len(points))
    lr.time("quantify.occupancy_at_cell",
            lambda: [sp.occupancy_at_cell(scenario, b, q, cell) for cell, b, q in points],
            calls=len(points))

    # policy: every request x acceptable band against the fixed scenario
    rights = [sp.RightsRequest(tx_id=req.request_id, position=req.position,
                               desired_dbm=req.desired_dbm, min_useful_dbm=req.min_useful_dbm,
                               band=band, quanta=req.quanta)
              for req in requests for band in sorted(req.acceptable_bands)]
    results = lr.time("policy.define_rights",
                      lambda: [sp.define_rights(scenario, r, policy.margin_db) for r in rights],
                      calls=len(rights))
    grants = sum(isinstance(r, sp.Grant) for r in results)
    lr.count("policy.define_rights.grants", grants)
    lr.count("policy.define_rights.refusals", len(results) - grants)

    # admission
    outcome, augmented = lr.time(
        "admission.admit_quantified",
        lambda: sp.admit_quantified(scenario, requests, policy.margin_db))
    lr.time("admission.admit_osa",
            lambda: sp.admit_osa(scenario, requests, policy.sensitivity_dbm))
    cmp = lr.time("admission.compare_policies",
                  lambda: sp.compare_policies(scenario, requests, policy.margin_db,
                                              policy.sensitivity_dbm))
    n_requests = max(1, len(requests))
    lr.count("admission.admitted_ratio", cmp.quantified.admitted_count / n_requests, "ratio")
    lr.count("admission.osa_admitted_ratio", cmp.osa.admitted_count / n_requests, "ratio")
    lr.count("admission.quantified_violations", cmp.quantified.violation_count)
    lr.count("admission.osa_violations", cmp.osa.violation_count)
    checker.check(cmp.quantified.violation_count == 0,
                  f"compare_policies: quantified admission pushed "
                  f"{cmp.quantified.violation_count} receiver-quanta below beta")

    # quantify: union of the admitted entrants' consumption, as compare_policies builds it
    entrants = augmented.network(ENTRANT_NETWORK_ID)
    spaces = [sp.tx_consumption(tx, augmented) for tx in (entrants.transmitters if entrants else ())]

    def union():
        combined = spaces[0] if spaces else None
        for space in spaces[1:]:
            combined = sp.combine_consumption(combined, space, augmented.bounds)
        return combined

    lr.time("quantify.combine_consumption", union, calls=max(0, len(spaces) - 1))

    granted = [grant for o in outcome.outcomes for grant in o.grants]
    violations = lr.time("policy.enforce",
                         lambda: sp.enforce(granted, augmented, policy.tolerance_db))
    lr.count("policy.enforce.violations", len(violations))

    # scenario_io
    fields_dir = work / "fields"
    fields_dir.mkdir(parents=True, exist_ok=True)
    paths = [(f, fields_dir / f"{kind}_b{f.band}_q{f.quantum}.csv")
             for kind, fs in (("occupancy", occupancy), ("opportunity", opportunity)) for f in fs]
    lr.time("scenario_io.export_field", lambda: [export_field(f, p) for f, p in paths])
    lr.count("scenario_io.export_field.bytes", sum(p.stat().st_size for _, p in paths), "B")
    report_path = work / "report.json"
    lr.time("scenario_io.write_report",
            lambda: write_report({"scenario": scenario_to_dict(scenario),
                                  "augmented_scenario": scenario_to_dict(augmented)}, report_path))
    lr.count("scenario_io.write_report.bytes", report_path.stat().st_size, "B")

    # cli: fresh-interpreter import, then each subcommand in-process, traced and not
    imports = []
    for _ in range(IMPORT_REPEATS):
        with tracer.span("cli.import") as span:
            child = run_child(["-c", IMPORT_CODE])
        if checker.check(child.returncode == 0, f"import spectrumspace.cli: {child.output[-300:]}"):
            imports.append(float(child.output.split()[-1]))
            span["counts"]["import_s"] = imports[-1]
    lr.metrics.append(median_metric("cli.import_s", imports or [0.0], "s"))

    for command in checks.COMMANDS:
        out = work / "cli" / command
        argv = [command, "--scenario", str(scenario_path), "--out", str(out)]
        traced, status = lr.durations(f"cli.run.{command}", lambda: cli.run(argv), {})
        untraced = []
        for _ in traced:
            start = time.perf_counter()
            cli.run(argv)
            untraced.append(time.perf_counter() - start)
        lr.metrics.append(median_metric(f"cli.run.{command}_s", traced, "s"))
        lr.metrics.append(median_metric(f"cli.run.{command}.untraced_s", untraced, "s"))
        checker.check(status == 0, f"cli.run {command}: exit {status}")
    return lr.metrics
