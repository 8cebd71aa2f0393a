"""Sequential spectrum-access admission and the legacy sensing baseline.

The quantified path walks requests in priority order, prices each one against
the live opportunity (including everyone admitted before it), and realizes
winners as omni transmitters capped at their grant. The baseline is plain
listen-before-talk: admit at full power wherever the locally sensed occupancy
looks quiet, which is exactly how hidden receivers get hurt. Both policies
share one request walk and differ only in how they price a band. A request
is a model.AccessRequest, re-exported here.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import replace
from functools import partial

from .model import (
    AccessRequest,
    Record,
    RFNetwork,
    Scenario,
    ScenarioValidationError,
    Transmitter,
    check_non_negative,
    request_errors,
)
from .policy import Grant, Refusal, RightsRequest, define_rights
from .quantify import (
    ConsumptionSpace,
    LinkBudget,
    SpectrumQuantity,
    quantify,
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
    "compare_policies",
    "rights_register",
]

ENTRANT_NETWORK_ID = "entrants"
SINR_TOLERANCE_DB = 1e-6


class RequestOutcome(Record):
    """What one request got: its bands, powers and grants when admitted, its refusals when not."""

    request_id: str
    admitted: bool
    bands: tuple[int, ...] = ()
    powers_dbm: tuple[float, ...] = ()
    grants: tuple[Grant, ...] = ()
    refusals: tuple[Refusal, ...] = ()


class AdmissionOutcome(Record):
    """An admission run: each request's outcome in admission order, how many were admitted, and
    the spectrum still available once they transmit."""

    outcomes: tuple[RequestOutcome, ...]
    admitted_count: int
    post_available: SpectrumQuantity


class PolicySummary(Record):
    """One policy's side of a comparison: admissions, the spectrum its entrants exploit, and the
    SINR violations it induced."""

    policy: str
    admitted_count: int
    exploited: SpectrumQuantity
    violation_count: int
    violation_total_db: float
    outcomes: tuple[RequestOutcome, ...]


class PolicyComparison(Record):
    """Quantified admission and the sensing baseline, run on identical inputs."""

    quantified: PolicySummary
    osa: PolicySummary


def _order(requests) -> list[AccessRequest]:
    return sorted(requests, key=lambda r: (r.priority, r.request_id))


def _check_inputs(scenario: Scenario, requests, margin_db: float | None = None,
                  sensitivity_dbm: float | None = None) -> None:
    """The entry points' prologue, run before any request is walked.

    Raises ValueError when a given guard margin is not a finite, non-negative
    number or a given threshold not a finite one; then ScenarioValidationError
    listing every request_errors entry, and every request id or entrant id
    that collides with a scenario id or an earlier request's ids. A request
    that needs more than one band can take one entrant id per acceptable
    band (``<id>:b<band>``); a one-band request's entrant takes its own id.
    """
    if margin_db is not None:
        check_non_negative("guard margin", margin_db)
    if sensitivity_dbm is not None and not (isinstance(sensitivity_dbm, numbers.Real)
                                            and math.isfinite(sensitivity_dbm)):
        raise ValueError(f"sensing threshold must be finite (got {sensitivity_dbm})")
    errors = request_errors(scenario, requests)
    taken = scenario.all_ids()
    for req in requests:
        who = f"request {req.request_id!r}"
        if req.request_id in taken:
            errors.append(f"{who}: id collides with an existing one")
        taken.add(req.request_id)
        if req.required_bands > 1:
            for band in sorted(req.acceptable_bands):
                entrant = _entrant_id(req, band)
                if entrant in taken:
                    errors.append(f"{who}: entrant id {entrant!r} collides with an existing one")
                taken.add(entrant)
    if errors:
        raise ScenarioValidationError(errors)


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


def _admit_in_order(budget: LinkBudget, requests, offer) -> tuple[tuple[RequestOutcome, ...], int]:
    """Admission of already checked requests, highest priority first.

    ``offer(budget, req, band, issued)`` prices one acceptable band against
    the budget's scenario: a Refusal, or (rank, power, grant or None). When at
    least ``required_bands`` bands are offered, the lowest ranks win (ties to
    the lower band), each winner is realized at its power and added to the
    budget before the next request is priced, and ``issued`` counts the
    requests admitted so far.

    Returns:
      (outcomes in admission order, admitted count); ``budget`` ends on the
      augmented scenario.
    """
    outcomes: list[RequestOutcome] = []
    issued = 0
    for req in _order(requests):
        offers: list[tuple[float, int, float, Grant | None]] = []
        refusals: list[Refusal] = []
        for band in sorted(req.acceptable_bands):
            result = offer(budget, req, band, issued)
            if isinstance(result, Refusal):
                refusals.append(result)
            else:
                rank, power, grant = result
                offers.append((rank, band, power, grant))
        if len(offers) >= req.required_bands:
            offers.sort(key=lambda item: item[:2])
            chosen = offers[: req.required_bands]
            for _, band, power, _ in chosen:
                budget.add(*_realize(budget.scenario, req, band, power))
            issued += 1
            outcomes.append(RequestOutcome(
                request_id=req.request_id,
                admitted=True,
                bands=tuple(band for _, band, _, _ in chosen),
                powers_dbm=tuple(power for _, _, power, _ in chosen),
                grants=tuple(grant for _, _, _, grant in chosen if grant is not None),
            ))
        else:
            outcomes.append(RequestOutcome(
                request_id=req.request_id,
                admitted=False,
                refusals=tuple(refusals),
            ))
    return tuple(outcomes), issued


def _rights_offer(margin_db: float, budget: LinkBudget, req: AccessRequest, band: int,
                  issued: int):
    """Quantified pricing: the band's grant, ranked by highest cap and realized at it."""
    rights = RightsRequest(
        tx_id=_entrant_id(req, band),
        position=req.position,
        desired_dbm=req.desired_dbm,
        min_useful_dbm=req.min_useful_dbm,
        band=band,
        quanta=req.quanta,
    )
    result = define_rights(budget.scenario, rights, margin_db, issued_at=issued, budget=budget)
    if isinstance(result, Refusal):
        return result
    cap = result.cap_dbm()
    return -cap, cap, result


def _sensing_offer(sensitivity_dbm: float, budget: LinkBudget, req: AccessRequest, band: int,
                   issued: int):
    """Listen-before-talk pricing: quietest band first, at full desired power, no grant."""
    cell = budget.scenario.grid.cell_of(req.position)
    sensed = max(budget.occupancy_at_cell(band, q, cell) for q in sorted(req.quanta))
    if sensed < sensitivity_dbm:
        return sensed, req.desired_dbm, None
    return Refusal(
        tx_id=_entrant_id(req, band),
        band=band,
        reason=f"sensed occupancy {sensed:.4f} dBm is not below {sensitivity_dbm:.4f} dBm",
    )


def admit_quantified(scenario: Scenario, requests, margin_db: float,
                     protected=None) -> tuple[AdmissionOutcome, Scenario]:
    """Admit requests against the quantified opportunity, highest priority first.

    Each admitted entrant joins the scenario before the next request is
    evaluated, so later entrants see the residual opportunity. When more
    bands qualify than required, the ones with the highest caps win (ties to
    the lower band index).

    Returns:
      (outcome, scenario augmented with the admitted entrants).

    Raises:
      ValueError: the margin is not a finite, non-negative number.
    """
    _check_inputs(scenario, requests, margin_db)
    budget = LinkBudget(scenario, protected)
    outcomes, admitted = _admit_in_order(budget, requests, partial(_rights_offer, margin_db))
    return AdmissionOutcome(outcomes, admitted, budget.available_spectrum()), budget.scenario


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

    Raises:
      ValueError: the margin is not a finite, non-negative number.
    """
    entrant_ids = {_entrant_id(req, band) for req in requests for band in req.acceptable_bands}
    baseline = replace(observed, networks=tuple(
        replace(net, transmitters=tuple(tx for tx in net.transmitters if tx.id not in entrant_ids))
        for net in observed.networks
    ))
    _check_inputs(baseline, requests, margin_db)
    outcomes, _ = _admit_in_order(LinkBudget(baseline, protected), requests,
                                  partial(_rights_offer, margin_db))
    grants = [grant for o in outcomes for grant in o.grants]
    refusals = [refusal for o in outcomes for refusal in o.refusals]
    return grants, refusals


def admit_osa(scenario: Scenario, requests, sensitivity_dbm: float) -> tuple[AdmissionOutcome, Scenario]:
    """Binary listen-before-talk baseline.

    A band qualifies when the sensed occupancy at the requester's own cell
    stays below the sensitivity threshold in every requested quantum; winners
    transmit at full desired power with no shaping. Quieter bands are chosen
    first. Admitted entrants join the scenario for subsequent decisions.

    Raises:
      ValueError: the threshold is not a finite number.
    """
    _check_inputs(scenario, requests, sensitivity_dbm=sensitivity_dbm)
    # Sensing reads only the slices' active transmitters, so this budget
    # computes no margin before available_spectrum.
    budget = LinkBudget(scenario)
    outcomes, admitted = _admit_in_order(budget, requests, partial(_sensing_offer, sensitivity_dbm))
    return AdmissionOutcome(outcomes, admitted, budget.available_spectrum()), budget.scenario


def _entrant_exploitation(scenario: Scenario, original: Scenario) -> SpectrumQuantity:
    """Spectrum consumed by the entrants admitted into ``scenario``, union per cell.

    The entrants are the transmitters of the entrant network that
    ``original``, the scenario before admission, does not hold; an incumbent
    network that happens to carry the entrant network's id is not counted.
    Each slice sums the consumption of the entrants active in it, starting
    from a copy of the first one's, and clips once; for non-negative terms
    that is bit for bit combine_consumption applied pairwise, since idle
    entrants add 0.0. A slice no entrant is active in keeps their idle view.
    """
    net = scenario.network(ENTRANT_NETWORK_ID)
    incumbents = original.all_ids()
    entrants = [tx for tx in net.transmitters if tx.id not in incumbents] if net is not None else []
    if not entrants:
        return SpectrumQuantity(0.0, {})
    idle, summed = {}, {}
    for tx in entrants:
        for key, cells in tx_consumption(tx, scenario).slices.items():
            if not tx.active_in(*key):
                idle.setdefault(key, cells)
            elif key in summed:
                summed[key] += cells
            else:
                summed[key] = cells.copy()
        cells = None  # release this entrant's field before the next one's is built
    for cells in summed.values():
        cells.clip(0.0, scenario.bounds.p_cmax_linear, out=cells)
    ids = frozenset(tx.id for tx in entrants)
    return quantify(ConsumptionSpace(ids, {**idle, **summed}), scenario.grid, scenario.dims)


def _sinr_violations(original: Scenario, final: Scenario) -> tuple[int, float]:
    """Brute-force recheck of every original receiver in the final scenario.

    Counts (receiver, quantum) slices below beta by more than
    SINR_TOLERANCE_DB in the final scenario but not in the original one
    (computed only for slices that fail), and totals their dB shortfall.
    The SINRs come from fresh budgets of the two scenarios, never from the
    admission walk's incremental one, so the recheck stays independent.
    """
    before, after = LinkBudget(original), LinkBudget(final)
    count = 0
    total_short = 0.0
    for rx in original.receivers():
        for quantum in sorted(rx.quanta):
            shortfall = rx.beta_db - after.sinr_db(rx, quantum)
            if (shortfall > SINR_TOLERANCE_DB
                    and rx.beta_db - before.sinr_db(rx, quantum) <= SINR_TOLERANCE_DB):
                count += 1
                total_short += shortfall
    return count, total_short


def compare_policies(scenario: Scenario, requests, margin_db: float,
                     sensitivity_dbm: float, protected=None) -> PolicyComparison:
    """Run quantified admission and the sensing baseline on identical inputs.

    Each side reports how many requests it admitted, how much spectrum the
    entrants exploit, and which incumbent receivers it pushed below their
    SINR threshold (checked by brute force, not by the admission math);
    receivers already below it before admission are not counted. Neither
    side computes the spectrum left available after admission.

    Raises:
      ValueError: the margin is not a finite, non-negative number, or the threshold not a finite one.
    """
    _check_inputs(scenario, requests, margin_db, sensitivity_dbm)

    def summary(name: str, budget: LinkBudget, offer) -> PolicySummary:
        outcomes, admitted = _admit_in_order(budget, requests, offer)
        violations, total_db = _sinr_violations(scenario, budget.scenario)
        return PolicySummary(
            policy=name,
            admitted_count=admitted,
            exploited=_entrant_exploitation(budget.scenario, scenario),
            violation_count=violations,
            violation_total_db=total_db,
            outcomes=outcomes,
        )

    return PolicyComparison(
        quantified=summary("quantified", LinkBudget(scenario, protected),
                           partial(_rights_offer, margin_db)),
        osa=summary("osa", LinkBudget(scenario), partial(_sensing_offer, sensitivity_dbm)),
    )
