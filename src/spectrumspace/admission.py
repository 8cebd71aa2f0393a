"""Sequential spectrum-access admission and the legacy sensing baseline.

The quantified path walks requests in priority order, prices each one against
the live opportunity (including everyone admitted before it), and realizes
winners as omni transmitters capped at their grant. The baseline is plain
listen-before-talk: admit at full power wherever the locally sensed occupancy
looks quiet, which is exactly how hidden receivers get hurt.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .model import RFNetwork, Scenario, Transmitter, db_to_linear
from .policy import Grant, Refusal, RightsRequest, define_rights
from .quantify import (
    ConsumptionSpace,
    LinkBudget,
    SpectrumQuantity,
    available_spectrum,
    combine_consumption,
    occupancy_at_cell,
    quantify,
    sinr_db,
    tx_consumption,
)

__all__ = [
    "AccessRequest",
    "AdmissionOutcome",
    "PolicyComparison",
    "PolicySummary",
    "RequestOutcome",
    "admit_osa",
    "admit_quantified",
    "aggregate_opportunity",
    "compare_policies",
    "rights_register",
]

ENTRANT_NETWORK_ID = "entrants"


@dataclass(frozen=True)
class AccessRequest:
    """An entrant asking for some number of bands at a location.

    ``required_bands`` of the ``acceptable_bands`` must be granted or the
    request fails whole; there are no partial admissions. Lower ``priority``
    values are served first, ties broken by request id.
    """

    request_id: str
    position: tuple[float, float]
    desired_dbm: float
    min_useful_dbm: float
    required_bands: int
    acceptable_bands: frozenset[int]
    quanta: frozenset[int]
    priority: int = 0


@dataclass(frozen=True)
class RequestOutcome:
    request_id: str
    admitted: bool
    bands: tuple[int, ...] = ()
    powers_dbm: tuple[float, ...] = ()
    grants: tuple[Grant, ...] = ()
    refusals: tuple[Refusal, ...] = ()


@dataclass(frozen=True)
class AdmissionOutcome:
    outcomes: tuple[RequestOutcome, ...]
    admitted_count: int
    post_available: SpectrumQuantity


@dataclass(frozen=True)
class PolicySummary:
    policy: str
    admitted_count: int
    exploited: SpectrumQuantity
    violation_count: int
    violation_total_db: float
    outcome: AdmissionOutcome


@dataclass(frozen=True)
class PolicyComparison:
    quantified: PolicySummary
    osa: PolicySummary


def _order(requests) -> list[AccessRequest]:
    return sorted(requests, key=lambda r: (r.priority, r.request_id))


def _check_requests(scenario: Scenario, requests) -> None:
    taken = scenario.all_ids()
    seen = set()
    for req in requests:
        if req.min_useful_dbm > req.desired_dbm:
            raise ValueError(f"request {req.request_id!r}: min useful power exceeds desired power")
        if req.required_bands < 1 or req.required_bands > len(req.acceptable_bands):
            raise ValueError(f"request {req.request_id!r}: required band count out of range")
        if not req.quanta:
            raise ValueError(f"request {req.request_id!r}: no time quanta requested")
        if req.request_id in taken or req.request_id in seen:
            raise ValueError(f"request {req.request_id!r}: id collides with an existing one")
        seen.add(req.request_id)


def _entrant_id(req: AccessRequest, band: int) -> str:
    return req.request_id if req.required_bands == 1 else f"{req.request_id}:b{band}"


def _realize(scenario: Scenario, req: AccessRequest, band: int,
             power_dbm: float) -> tuple[Scenario, Transmitter]:
    """Append an admitted entrant as an omni transmitter at its cell center.

    Grants cap cells, so the realized transmitter sits exactly at the center
    the cap was computed for.

    Returns:
      (scenario with the entrant, the entrant).
    """
    cell = scenario.grid.cell_of(req.position)
    tx = Transmitter(
        id=_entrant_id(req, band),
        network_id=ENTRANT_NETWORK_ID,
        position=scenario.grid.cell_center(*cell),
        tx_power_dbm=power_dbm,
        band=band,
        quanta=req.quanta,
    )
    for i, net in enumerate(scenario.networks):
        if net.id == ENTRANT_NETWORK_ID:
            nets = list(scenario.networks)
            nets[i] = replace(net, transmitters=net.transmitters + (tx,))
            return replace(scenario, networks=tuple(nets)), tx
    return scenario.with_network(RFNetwork(id=ENTRANT_NETWORK_ID, transmitters=(tx,))), tx


def _admit_in_order(scenario: Scenario, requests, margin_db: float,
                    protected) -> tuple[list[RequestOutcome], LinkBudget]:
    """Quantified admission of already checked requests, highest priority first.

    One link budget follows the working scenario: every realized entrant is
    added to it before the next request is priced.

    Returns:
      (outcomes in admission order, the budget of the augmented scenario).
    """
    budget = LinkBudget(scenario, protected)
    outcomes: list[RequestOutcome] = []
    issued = 0
    for req in _order(requests):
        candidates: list[tuple[float, int, Grant]] = []
        refusals: list[Refusal] = []
        for band in sorted(req.acceptable_bands):
            rights = RightsRequest(
                tx_id=_entrant_id(req, band),
                position=req.position,
                desired_dbm=req.desired_dbm,
                min_useful_dbm=req.min_useful_dbm,
                band=band,
                quanta=req.quanta,
            )
            result = define_rights(budget.scenario, rights, margin_db, issued_at=issued, budget=budget)
            if isinstance(result, Grant):
                candidates.append((result.cap_dbm(), band, result))
            else:
                refusals.append(result)
        if len(candidates) >= req.required_bands:
            candidates.sort(key=lambda item: (-item[0], item[1]))
            chosen = candidates[: req.required_bands]
            for cap, band, _ in chosen:
                budget.add(*_realize(budget.scenario, req, band, cap))
            issued += 1
            outcomes.append(RequestOutcome(
                request_id=req.request_id,
                admitted=True,
                bands=tuple(band for _, band, _ in chosen),
                powers_dbm=tuple(cap for cap, _, _ in chosen),
                grants=tuple(grant for _, _, grant in chosen),
            ))
        else:
            outcomes.append(RequestOutcome(
                request_id=req.request_id,
                admitted=False,
                refusals=tuple(refusals),
            ))
    return outcomes, budget


def admit_quantified(scenario: Scenario, requests, margin_db: float,
                     protected=None) -> tuple[AdmissionOutcome, Scenario]:
    """Admit requests against the quantified opportunity, highest priority first.

    Each admitted entrant joins the scenario before the next request is
    evaluated, so later entrants see the residual opportunity. When more
    bands qualify than required, the ones with the highest caps win (ties to
    the lower band index).

    Returns:
      (outcome, scenario augmented with the admitted entrants).
    """
    _check_requests(scenario, requests)
    outcomes, budget = _admit_in_order(scenario, requests, margin_db, protected)
    outcome = AdmissionOutcome(
        outcomes=tuple(outcomes),
        admitted_count=sum(1 for o in outcomes if o.admitted),
        post_available=budget.available_spectrum(),
    )
    return outcome, budget.scenario


def rights_register(observed: Scenario, requests, margin_db: float,
                    protected=None) -> tuple[list[Grant], list[Refusal]]:
    """The rights a request batch holds, for auditing an observed scenario.

    Quantified admission is replayed on the observed scenario without the
    requests' own entrant transmitters (named as admission names them), so
    every grant is priced in admission order against the entrants admitted
    before it, exactly as admit_quantified priced it. Admitted requests hold
    the grants of their chosen bands; refused requests contribute their
    refusals.

    Returns:
      (grants, refusals), both in admission order.
    """
    entrant_ids = {_entrant_id(req, band) for req in requests for band in req.acceptable_bands}
    baseline = replace(observed, networks=tuple(
        replace(net, transmitters=tuple(tx for tx in net.transmitters if tx.id not in entrant_ids))
        for net in observed.networks
    ))
    _check_requests(baseline, requests)
    outcomes, _ = _admit_in_order(baseline, requests, margin_db, protected)
    grants = [grant for o in outcomes for grant in o.grants]
    refusals = [refusal for o in outcomes for refusal in o.refusals]
    return grants, refusals


def admit_osa(scenario: Scenario, requests, sensitivity_dbm: float) -> tuple[AdmissionOutcome, Scenario]:
    """Binary listen-before-talk baseline.

    A band qualifies when the sensed occupancy at the requester's own cell
    stays below the sensitivity threshold in every requested quantum; winners
    transmit at full desired power with no shaping. Quieter bands are chosen
    first. Admitted entrants join the scenario for subsequent decisions.
    """
    _check_requests(scenario, requests)
    working = scenario
    outcomes: list[RequestOutcome] = []
    for req in _order(requests):
        cell = working.grid.cell_of(req.position)
        candidates: list[tuple[float, int]] = []
        refusals: list[Refusal] = []
        for band in sorted(req.acceptable_bands):
            sensed = max(
                occupancy_at_cell(working, band, q, cell) for q in sorted(req.quanta)
            )
            if sensed < sensitivity_dbm:
                candidates.append((sensed, band))
            else:
                refusals.append(Refusal(
                    tx_id=_entrant_id(req, band),
                    band=band,
                    reason=f"sensed occupancy {sensed:.4f} dBm is not below {sensitivity_dbm:.4f} dBm",
                ))
        if len(candidates) >= req.required_bands:
            candidates.sort()
            chosen = candidates[: req.required_bands]
            for _, band in chosen:
                working, _ = _realize(working, req, band, req.desired_dbm)
            outcomes.append(RequestOutcome(
                request_id=req.request_id,
                admitted=True,
                bands=tuple(band for _, band in chosen),
                powers_dbm=tuple(req.desired_dbm for _ in chosen),
            ))
        else:
            outcomes.append(RequestOutcome(
                request_id=req.request_id,
                admitted=False,
                refusals=tuple(refusals),
            ))
    outcome = AdmissionOutcome(
        outcomes=tuple(outcomes),
        admitted_count=sum(1 for o in outcomes if o.admitted),
        post_available=available_spectrum(working),
    )
    return outcome, working


def aggregate_opportunity(scenario: Scenario, position: tuple[float, float],
                          quanta=None, protected=None):
    """Opportunity at one location across every band, best slices first.

    Returns:
      (entries, quantity): entries are (band, quantum, dBm) tuples sorted by
      value descending, and the quantity integrates their linear power above
      the floor over the cell area.
    """
    grid, bounds, dims = scenario.grid, scenario.bounds, scenario.dims
    cell = grid.cell_of(position)
    quantum_list = list(range(dims.t_hat)) if quanta is None else sorted(quanta)
    budget = LinkBudget(scenario, protected)
    entries: list[tuple[int, int, float]] = []
    breakdown: dict[tuple[int, int], float] = {}
    for band in range(dims.b_hat):
        for q in quantum_list:
            value, _ = budget.opportunity_at_cell(band, q, cell)
            entries.append((band, q, value))
            breakdown[(band, q)] = (
                (db_to_linear(value) - bounds.p_min_linear) * grid.cell_area / 1000.0
            )
    entries.sort(key=lambda e: (-e[2], e[0], e[1]))
    quantity = SpectrumQuantity(sum(breakdown[k] for k in sorted(breakdown)), breakdown)
    return entries, quantity


def _entrant_exploitation(scenario: Scenario) -> SpectrumQuantity:
    """Spectrum consumed by the entrant transmitters, union per cell."""
    net = scenario.network(ENTRANT_NETWORK_ID)
    if net is None or not net.transmitters:
        return SpectrumQuantity(0.0, {})
    combined: ConsumptionSpace | None = None
    for tx in net.transmitters:
        space = tx_consumption(tx, scenario)
        combined = space if combined is None else combine_consumption(combined, space, scenario.bounds)
    return quantify(combined, scenario.grid, scenario.dims)


def _sinr_violations(original: Scenario, final: Scenario, tolerance_db: float = 1e-6) -> tuple[int, float]:
    """Brute-force recheck of every original receiver in the final scenario.

    Counts (receiver, quantum) slices below beta by more than the tolerance in
    the final scenario but not in the original one (computed only for slices
    that fail), and totals their dB shortfall.
    """
    count = 0
    total_short = 0.0
    for rx in original.receivers():
        for quantum in sorted(rx.quanta):
            shortfall = rx.beta_db - sinr_db(final, rx, quantum)
            if shortfall > tolerance_db and rx.beta_db - sinr_db(original, rx, quantum) <= tolerance_db:
                count += 1
                total_short += shortfall
    return count, total_short


def compare_policies(scenario: Scenario, requests, margin_db: float,
                     sensitivity_dbm: float, protected=None) -> PolicyComparison:
    """Run quantified admission and the sensing baseline on identical inputs.

    Each side reports how many requests it admitted, how much spectrum the
    entrants exploit, and which incumbent receivers it pushed below their
    SINR threshold (checked by brute force, not by the admission math);
    receivers already below it before admission are not counted.
    """
    q_outcome, q_final = admit_quantified(scenario, requests, margin_db, protected)
    o_outcome, o_final = admit_osa(scenario, requests, sensitivity_dbm)

    def summary(name: str, outcome: AdmissionOutcome, final: Scenario) -> PolicySummary:
        violations, total_db = _sinr_violations(scenario, final)
        return PolicySummary(
            policy=name,
            admitted_count=outcome.admitted_count,
            exploited=_entrant_exploitation(final),
            violation_count=violations,
            violation_total_db=total_db,
            outcome=outcome,
        )

    return PolicyComparison(
        quantified=summary("quantified", q_outcome, q_final),
        osa=summary("osa", o_outcome, o_final),
    )
