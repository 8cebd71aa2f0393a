"""Batch front end: scenario file in, rasters and JSON reports out.

Exit codes: 0 success, 1 validation or parse problem, 2 I/O problem.
Diagnostics go to stderr; artifacts are plain files under --out.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

from .model import Scenario
from .quantify import (
    PriceSheet,
    available_spectrum,
    occupancy_maps,
    opportunity_map,
    price,
    quantify,
    receiver_accounting,
    total_spectrum,
    tx_consumption,
)
from .scenario_io import (
    ScenarioDocument,
    export_field,
    load_document,
    report_to_dict,
    write_report,
)

__all__ = ["main", "run"]


def _finite_float(text: str) -> float:
    """An option's number, refused unless finite, as the document parser refuses one."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be a finite number (got {text!r})")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spectrumspace",
        description="Quantified spectrum-space accounting over scenario files.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, *, slice_flags=False, protect=False, margin=False, sensitivity=False):
        p.add_argument("--scenario", required=True, help="scenario JSON file")
        p.add_argument("--out", default=".", help="output directory (created if missing)")
        if slice_flags:
            p.add_argument("--band", type=int, default=None, help="restrict to one band")
            p.add_argument("--quantum", type=int, default=None, help="restrict to one time quantum")
        if protect:
            p.add_argument("--protect", default="all",
                           help="'all' or comma-separated network ids whose receivers are protected")
        if margin:
            p.add_argument("--margin-db", type=_finite_float, default=None,
                           help="guard margin override (else the document's policy value)")
        if sensitivity:
            p.add_argument("--sensitivity-dbm", type=_finite_float, default=None,
                           help="sensing threshold override (else the document's policy value)")

    common(sub.add_parser("occupancy", help="export occupancy rasters"), slice_flags=True)
    common(sub.add_parser("opportunity", help="export opportunity rasters"),
           slice_flags=True, protect=True)
    common(sub.add_parser("quantify", help="total and available spectrum"), protect=True)
    common(sub.add_parser("admit", help="run quantified admission on the request batch"),
           protect=True, margin=True)
    common(sub.add_parser("enforce", help="audit observed transmitters against granted rights"),
           protect=True, margin=True)
    common(sub.add_parser("compare-osa", help="quantified admission vs sensing baseline"),
           protect=True, margin=True, sensitivity=True)
    common(sub.add_parser("report", help="full accounting report"), protect=True)
    return parser


def run(argv) -> int:
    """Execute one subcommand; returns the process exit status."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else 1
    try:
        doc = load_document(args.scenario)
        os.makedirs(args.out, exist_ok=True)
        return _dispatch(args, doc)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


def _protected_ids(scenario: Scenario, protect: str):
    """Resolve --protect into receiver ids; None means every receiver."""
    if protect == "all":
        return None
    ids: list[str] = []
    for net_id in protect.split(","):
        net = scenario.network(net_id.strip())
        if net is None:
            raise ValueError(f"--protect: unknown network {net_id.strip()!r}")
        ids.extend(rx.id for rx in net.receivers)
    return ids


def _slices(scenario: Scenario, band, quantum):
    bands = range(scenario.dims.b_hat) if band is None else [band]
    quanta = range(scenario.dims.t_hat) if quantum is None else [quantum]
    return [(b, q) for b in bands for q in quanta]


def _price_sheet(doc: ScenarioDocument) -> PriceSheet | None:
    pol = doc.policy
    if pol.price_rate == 0.0 and not pol.price_rates:
        return None
    return PriceSheet(
        rate=pol.price_rate,
        slice_rates={(b, q): r for b, q, r in pol.price_rates} or None,
    )


def _dispatch(args, doc: ScenarioDocument) -> int:
    scenario = doc.scenario
    command = args.command
    protected = None if command == "occupancy" else _protected_ids(scenario, args.protect)

    if command in ("occupancy", "opportunity"):
        keys = _slices(scenario, args.band, args.quantum)
        fields = (occupancy_maps(scenario, keys) if command == "occupancy"
                  else (opportunity_map(scenario, b, q, protected) for b, q in keys))
        for field in fields:
            export_field(field, os.path.join(args.out, f"{command}_b{field.band}_q{field.quantum}.csv"))
            field = None  # drop the written field before the next one is built
        return 0

    report = {"command": command, "scenario": scenario}
    if command in ("quantify", "report"):
        grid, dims = scenario.grid, scenario.dims
        report["total_spectrum"] = total_spectrum(grid, dims, scenario.bounds)
        if command == "quantify":
            report["available_spectrum"] = available_spectrum(scenario, protected)
        else:
            # report charges every receiver from the walk that gives available spectrum
            report["available_spectrum"], rx_charges = receiver_accounting(scenario, protected)
            report["consumed"] = consumed = {
                "transmitters": {tx.id: quantify(tx_consumption(tx, scenario), grid, dims)
                                 for tx in scenario.transmitters()},
                "receivers": rx_charges,
            }
            sheet = _price_sheet(doc)
            if sheet is not None:
                report["prices"] = {kind: {entity_id: price(q, sheet) for entity_id, q in charges.items()}
                                    for kind, charges in consumed.items()}
    else:
        # Only the admission commands load admission and policy: a process that
        # never admits does not compile them.
        from .admission import admit_quantified, compare_policies, rights_register
        from .policy import enforce

        policy = doc.policy
        report["margin_db"] = margin = policy.margin_db if args.margin_db is None else args.margin_db
        if command == "admit":
            report["admission"], report["augmented_scenario"] = admit_quantified(
                scenario, doc.requests, margin, protected)
        elif command == "enforce":
            report["grants"], report["refusals"] = rights_register(scenario, doc.requests, margin, protected)
            report["violations"] = enforce(report["grants"], scenario, policy.tolerance_db)
            report["tolerance_db"] = policy.tolerance_db
        else:
            report["sensitivity_dbm"] = sensitivity = (
                policy.sensitivity_dbm if args.sensitivity_dbm is None else args.sensitivity_dbm)
            report["comparison"] = compare_policies(scenario, doc.requests, margin, sensitivity, protected)
    write_report(report_to_dict(report), os.path.join(args.out, f"{command}.json"))
    return 0
