"""Rights definition, guard margins, and enforcement.

A grant caps what a cell may radiate in each (band, quantum) slice; the cap
comes from the guarded opportunity at that cell. Refusals are ordinary return
values, not exceptions, so a manager can log and move on. The tariff,
``PriceSheet`` and ``price``, lives in quantify and is re-exported here.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from .model import (
    AccessRequest,
    PowerBounds,
    Record,
    Scenario,
    ScenarioValidationError,
    check_non_negative,
    db_to_linear,
    request_errors,
    resolve,
)
from .quantify import Cell, LinkBudget, PowerField, PriceSheet, Slice, link_powers, price

__all__ = [
    "Grant",
    "PriceSheet",
    "Refusal",
    "RightsRequest",
    "Violation",
    "apply_guard_margin",
    "attribute_harmful_interference",
    "define_rights",
    "enforce",
    "price",
]


class RightsRequest(Record):
    """What an entrant asks for in one band."""

    tx_id: str
    position: tuple[float, float]
    desired_dbm: float
    min_useful_dbm: float
    band: int
    quanta: frozenset[int]


class Grant(Record):
    """Permission to transmit up to a per-cell cap in specific slices."""

    grant_id: str
    grantee_tx_id: str
    caps_dbm: Mapping[Slice, Mapping[Cell, float]]
    margin_db: float
    issued_at: int = 0

    def cap_at(self, band: int, quantum: int, cell: Cell | None) -> float | None:
        return None if cell is None else self.caps_dbm.get((band, quantum), {}).get(tuple(cell))

    def cap_dbm(self) -> float:
        """The grant's one cap; ValueError unless all its caps are one value, as define_rights issues."""
        caps = {cap for cells in self.caps_dbm.values() for cap in cells.values()}
        if len(caps) != 1:
            raise ValueError(f"grant {self.grant_id!r} has {len(caps)} distinct caps, not one")
        return caps.pop()


class Refusal(Record):
    """Why a rights request was not granted. Data, not an error."""

    tx_id: str
    band: int
    reason: str
    limiting_rx_id: str | None = None
    guarded_opportunity_dbm: float | None = None


class Violation(Record):
    """A transmitter over what it may radiate in one slice, by more than the tolerance.

    ``granted_dbm`` is the best cap of its grants at its cell, or the power
    floor when none covers the slice (``grant_id`` None).
    """

    grant_id: str | None
    tx_id: str
    cell: Cell | None
    band: int
    quantum: int
    granted_dbm: float
    observed_dbm: float
    excess_db: float


def apply_guard_margin(opportunity: PowerField, margin_db: float, bounds: PowerBounds) -> PowerField:
    """Back every cell off by a safety margin, never dropping below the floor.

    Raises ValueError for a margin that is not a finite, non-negative number.
    """
    check_non_negative("guard margin", margin_db)
    values = np.maximum(bounds.p_min_dbm, opportunity.values_dbm - margin_db)
    return PowerField(opportunity.band, opportunity.quantum, values, opportunity.zero_margin_rx_ids)


def define_rights(scenario: Scenario, request: RightsRequest, margin_db: float,
                  issued_at: int = 0, budget: LinkBudget | None = None):
    """Issue a Grant for one band, or a Refusal explaining why not.

    The cap at the request's cell is min(desired power, guarded opportunity),
    where the guarded opportunity is the worst over the requested quanta. A
    cap below the requester's minimum useful power yields a Refusal naming
    the limiting receiver.

    Args:
      budget: a LinkBudget of ``scenario`` whose margins the opportunity is
        read from, and whose protected set it guards; when None, a fresh one
        protecting every receiver.

    Returns:
      Grant or Refusal.

    Raises:
      ValueError: the margin is not a finite, non-negative number.
      ScenarioValidationError: the request breaks a rule of model.request_errors
        as the one-band AccessRequest it describes: a position off the grid,
        a power that is not finite, a minimum useful power above the desired
        one, no quanta, or a band or quantum out of range.
    """
    check_non_negative("guard margin", margin_db)
    errors = request_errors(scenario, [AccessRequest(
        request.tx_id, tuple(request.position), request.desired_dbm, request.min_useful_dbm,
        1, frozenset({request.band}), request.quanta)])
    if errors:
        raise ScenarioValidationError(errors)
    if budget is None:
        budget = LinkBudget(scenario)
    bounds = scenario.bounds
    cell = scenario.grid.cell_of(request.position)

    guarded = np.inf
    limiting: str | None = None
    for quantum in sorted(request.quanta):
        opp, rx_id = budget.opportunity_at_cell(request.band, quantum, cell)
        value = max(bounds.p_min_dbm, opp - margin_db)
        if value < guarded:
            guarded, limiting = value, rx_id
    cap = min(request.desired_dbm, guarded)

    if cap < request.min_useful_dbm:
        return Refusal(
            tx_id=request.tx_id,
            band=request.band,
            reason=(
                f"guarded opportunity {guarded:.4f} dBm caps the grant below the "
                f"minimum useful power {request.min_useful_dbm:.4f} dBm"
            ),
            limiting_rx_id=limiting,
            guarded_opportunity_dbm=guarded,
        )
    caps = {(request.band, q): {cell: cap} for q in sorted(request.quanta)}
    return Grant(
        grant_id=f"grant:{request.tx_id}:b{request.band}",
        grantee_tx_id=request.tx_id,
        caps_dbm=caps,
        margin_db=margin_db,
        issued_at=issued_at,
    )


def enforce(grants, observed: Scenario, tolerance_db: float = 0.5) -> list[Violation]:
    """Audit every observed transmitter against the grant register.

    A grantee over its cap by more than the tolerance is a violation; a
    transmitter occupying a slice no grant covers is unauthorized access and
    is reported against the power floor. A grantee that is absent from the
    observed scenario is simply compliant.

    Raises ValueError for a tolerance that is not a finite, non-negative number.
    """
    check_non_negative("tolerance", tolerance_db)
    by_tx: dict[str, list[Grant]] = {}
    for grant in grants:
        by_tx.setdefault(grant.grantee_tx_id, []).append(grant)

    p_min = observed.bounds.p_min_dbm
    violations: list[Violation] = []
    for tx in observed.transmitters():
        cell = observed.grid.cell_of(tx.position) if observed.grid.contains(tx.position) else None
        for quantum in sorted(tx.quanta):
            best_cap: float | None = None
            best_grant: str | None = None
            for grant in by_tx.get(tx.id, []):
                cap = grant.cap_at(tx.band, quantum, cell)
                if cap is not None and (best_cap is None or cap > best_cap):
                    best_cap, best_grant = cap, grant.grant_id
            granted = p_min if best_cap is None else best_cap
            excess = tx.tx_power_dbm - granted
            if excess > tolerance_db:
                violations.append(Violation(
                    grant_id=best_grant, tx_id=tx.id, cell=cell, band=tx.band,
                    quantum=quantum, granted_dbm=granted,
                    observed_dbm=tx.tx_power_dbm, excess_db=excess,
                ))
    return violations


def attribute_harmful_interference(rx, scenario: Scenario, quantum: int) -> dict[str, float]:
    """Split a receiver's excess interference among the transmitters causing it.

    When the receiver's SINR in the quantum is at or above its threshold all
    shares are zero. Otherwise the linear excess beyond what the link could
    tolerate is divided proportionally to each interferer's contribution, so
    the shares sum to the excess.

    Returns:
      dict mapping interferer tx id to its share in linear mW.
    """
    rx = resolve(rx, scenario.receiver, "receiver")
    active = LinkBudget(scenario).active(rx.band, quantum)
    signal, interference, contributions = link_powers(rx, active, scenario.propagation)
    noise = db_to_linear(rx.noise_floor_dbm)
    if interference <= 0.0 or signal >= db_to_linear(rx.beta_db) * (noise + interference):
        return {tx_id: 0.0 for tx_id in contributions}

    allowed = max(0.0, signal / db_to_linear(rx.beta_db) - noise)
    excess = interference - allowed
    if excess <= 0.0:
        return {tx_id: 0.0 for tx_id in contributions}
    scale = excess / interference
    return {tx_id: c * scale for tx_id, c in contributions.items()}
