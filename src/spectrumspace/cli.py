"""Batch front end: scenario file in, rasters and JSON reports out.

Exit codes: 0 success, 1 validation or parse problem, 2 I/O problem.
Diagnostics go to stderr; artifacts are plain files under --out.
"""

from __future__ import annotations

import argparse
import os
import sys

from .admission import admit_quantified, compare_policies, rights_register
from .model import Scenario, ScenarioValidationError
from .policy import Grant, PriceSheet, Refusal, Violation, enforce, price
from .quantify import (
    available_spectrum,
    occupancy_map,
    opportunity_map,
    quantify,
    rx_consumption,
    total_spectrum,
    tx_consumption,
)
from .scenario_io import (
    ScenarioDocument,
    ScenarioFormatError,
    export_field,
    format_number,
    load_document,
    quantity_to_dict,
    scenario_to_dict,
    write_report,
)

__all__ = ["main", "run"]


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
            p.add_argument("--margin-db", type=float, default=None,
                           help="guard margin override (else the document's policy value)")
        if sensitivity:
            p.add_argument("--sensitivity-dbm", type=float, default=None,
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
    except (ScenarioFormatError, ScenarioValidationError, ValueError) as exc:
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


def _grant_dict(grant: Grant) -> dict:
    return {
        "grant_id": grant.grant_id,
        "grantee_tx_id": grant.grantee_tx_id,
        "margin_db": format_number(grant.margin_db),
        "issued_at": grant.issued_at,
        "caps": [
            {"band": b, "quantum": q, "cell": list(cell), "cap_dbm": format_number(cap)}
            for (b, q), cells in sorted(grant.caps_dbm.items())
            for cell, cap in sorted(cells.items())
        ],
    }


def _refusal_dict(refusal: Refusal) -> dict:
    return {
        "tx_id": refusal.tx_id,
        "band": refusal.band,
        "reason": refusal.reason,
        "limiting_rx_id": refusal.limiting_rx_id,
        "guarded_opportunity_dbm": (
            None if refusal.guarded_opportunity_dbm is None
            else format_number(refusal.guarded_opportunity_dbm)
        ),
    }


def _violation_dict(v: Violation) -> dict:
    return {
        "grant_id": v.grant_id,
        "tx_id": v.tx_id,
        "cell": None if v.cell is None else list(v.cell),
        "band": v.band,
        "quantum": v.quantum,
        "granted_dbm": format_number(v.granted_dbm),
        "observed_dbm": format_number(v.observed_dbm),
        "excess_db": format_number(v.excess_db),
    }


def _outcome_dicts(outcomes) -> list[dict]:
    return [
        {
            "request_id": o.request_id,
            "admitted": o.admitted,
            "bands": list(o.bands),
            "powers_dbm": [format_number(p) for p in o.powers_dbm],
            "grants": [_grant_dict(g) for g in o.grants],
            "refusals": [_refusal_dict(r) for r in o.refusals],
        }
        for o in outcomes
    ]


def _consumed_sections(scenario: Scenario, sheet: PriceSheet | None):
    consumed: dict = {"transmitters": {}, "receivers": {}}
    prices: dict = {"transmitters": {}, "receivers": {}}
    for kind, entities, consumption in (
        ("transmitters", scenario.transmitters(), tx_consumption),
        ("receivers", scenario.receivers(), rx_consumption),
    ):
        for entity in entities:
            q = quantify(consumption(entity, scenario), scenario.grid, scenario.dims)
            consumed[kind][entity.id] = quantity_to_dict(q)
            if sheet is not None:
                prices[kind][entity.id] = format_number(price(q, sheet))
    return consumed, (prices if sheet is not None else None)


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

    if command == "occupancy":
        for b, q in _slices(scenario, args.band, args.quantum):
            export_field(occupancy_map(scenario, b, q),
                         os.path.join(args.out, f"occupancy_b{b}_q{q}.csv"))
        return 0

    if command == "opportunity":
        protected = _protected_ids(scenario, args.protect)
        for b, q in _slices(scenario, args.band, args.quantum):
            export_field(opportunity_map(scenario, b, q, protected),
                         os.path.join(args.out, f"opportunity_b{b}_q{q}.csv"))
        return 0

    protected = _protected_ids(scenario, args.protect)

    if command in ("quantify", "report"):
        report = {
            "command": command,
            "scenario": scenario_to_dict(scenario),
            "total_spectrum": quantity_to_dict(
                total_spectrum(scenario.grid, scenario.dims, scenario.bounds)
            ),
            "available_spectrum": quantity_to_dict(available_spectrum(scenario, protected)),
        }
        if command == "report":
            report["consumed"], prices = _consumed_sections(scenario, _price_sheet(doc))
            if prices is not None:
                report["prices"] = prices
        write_report(report, os.path.join(args.out, f"{command}.json"))
        return 0

    if command == "admit":
        margin = doc.policy.margin_db if args.margin_db is None else args.margin_db
        outcome, augmented = admit_quantified(scenario, doc.requests, margin, protected)
        report = {
            "command": command,
            "margin_db": format_number(margin),
            "scenario": scenario_to_dict(scenario),
            "admission": {
                "admitted_count": outcome.admitted_count,
                "post_available": quantity_to_dict(outcome.post_available),
                "outcomes": _outcome_dicts(outcome.outcomes),
            },
            "augmented_scenario": scenario_to_dict(augmented),
        }
        write_report(report, os.path.join(args.out, "admit.json"))
        return 0

    if command == "enforce":
        # The request batch is the register of authorized rights. It is rebuilt
        # by replaying quantified admission on the observed scenario without
        # the requests' own entrant transmitters: each request holds the grants
        # of the bands admission chose for it, priced in admission order as
        # `admit` priced them, and its entrants carry the ids admission gives
        # them. Then every observed transmitter is audited.
        margin = doc.policy.margin_db if args.margin_db is None else args.margin_db
        grants, refusals = rights_register(scenario, doc.requests, margin, protected)
        violations = enforce(grants, scenario, doc.policy.tolerance_db)
        report = {
            "command": command,
            "margin_db": format_number(margin),
            "tolerance_db": format_number(doc.policy.tolerance_db),
            "scenario": scenario_to_dict(scenario),
            "grants": [_grant_dict(g) for g in grants],
            "refusals": [_refusal_dict(r) for r in refusals],
            "violations": [_violation_dict(v) for v in violations],
        }
        write_report(report, os.path.join(args.out, "enforce.json"))
        return 0

    if command == "compare-osa":
        margin = doc.policy.margin_db if args.margin_db is None else args.margin_db
        sensitivity = (doc.policy.sensitivity_dbm if args.sensitivity_dbm is None
                       else args.sensitivity_dbm)
        cmp = compare_policies(scenario, doc.requests, margin, sensitivity, protected)

        def side(summary) -> dict:
            return {
                "policy": summary.policy,
                "admitted_count": summary.admitted_count,
                "exploited": quantity_to_dict(summary.exploited),
                "violation_count": summary.violation_count,
                "violation_total_db": format_number(summary.violation_total_db),
                "outcomes": _outcome_dicts(summary.outcomes),
            }

        report = {
            "command": command,
            "margin_db": format_number(margin),
            "sensitivity_dbm": format_number(sensitivity),
            "scenario": scenario_to_dict(scenario),
            "comparison": {"quantified": side(cmp.quantified), "osa": side(cmp.osa)},
        }
        write_report(report, os.path.join(args.out, "compare-osa.json"))
        return 0

    raise ValueError(f"unknown command {command!r}")
