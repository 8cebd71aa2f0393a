"""Occupancy and opportunity fields, consumption spaces, spectrum quantities.

Everything here reduces to one accounting rule: a point consumes the linear
power interval it denies to others, and the grid integrates that over area,
bands, and time quanta into watt square meters. Maps carry dBm for human
consumption; all sums happen in linear milliwatts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .model import (
    OMNI,
    Grid,
    PowerBounds,
    Receiver,
    Scenario,
    SpectrumSpaceDims,
    Transmitter,
    db_to_linear,
    linear_to_db,
    resolve,
)
from .propagation import (
    PropagationConfig,
    entrant_gain_field_linear,
    gain_db,
    link_gain_linear,
    tx_gain_db_field,
)

__all__ = [
    "ConsumptionSpace",
    "HarvestMetrics",
    "LinkBudget",
    "PowerField",
    "SliceBudget",
    "SpectrumQuantity",
    "available_spectrum",
    "combine_consumption",
    "denied_consumption",
    "harvest_metrics",
    "link_powers",
    "occupancy_at_cell",
    "occupancy_linear",
    "occupancy_map",
    "opportunity_at_cell",
    "opportunity_map",
    "quantify",
    "receiver_margin_linear",
    "received_linear",
    "rx_consumption",
    "sinr_db",
    "total_spectrum",
    "tx_consumption",
]

Slice = tuple[int, int]
Cell = tuple[int, int]


@dataclass(frozen=True, eq=False)
class PowerField:
    """Per-cell dBm values for one (band, quantum) slice.

    ``values_dbm`` has shape (n_y, n_x); row 0 is the minimum-y edge of the
    grid. ``zero_margin_rx_ids`` lists protected receivers whose own link was
    already below its SINR threshold when an opportunity field was computed.
    """

    band: int
    quantum: int
    values_dbm: np.ndarray
    zero_margin_rx_ids: tuple[str, ...] = ()


@dataclass(frozen=True, eq=False)
class ConsumptionSpace:
    """Linear mW consumed per cell, per (band, quantum) slice, for an entity set."""

    entity_ids: frozenset[str]
    slices: dict[Slice, np.ndarray]


@dataclass(frozen=True)
class SpectrumQuantity:
    """A spectrum amount in watt square meters, optionally broken down by slice."""

    value: float
    breakdown: dict[Slice, float] | None = None


@dataclass(frozen=True)
class HarvestMetrics:
    """How well an estimated opportunity field tracked the ground truth."""

    recovered: SpectrumQuantity
    lost_available: SpectrumQuantity
    potentially_incursed: SpectrumQuantity


def _check_slice(dims: SpectrumSpaceDims, band: int, quantum: int) -> None:
    if not 0 <= band < dims.b_hat:
        raise ValueError(f"band index {band} out of range [0, {dims.b_hat})")
    if not 0 <= quantum < dims.t_hat:
        raise ValueError(f"time quantum {quantum} out of range [0, {dims.t_hat})")


def _field_linear(field: PowerField, bounds: PowerBounds) -> np.ndarray:
    """A dBm field in linear mW, exact on the power bounds.

    numpy's ** may round 10 ** (x / 10) one ulp away from the Python float **
    of PowerBounds, so cells equal to a bound take that bound's linear value.
    """
    values = field.values_dbm
    linear = db_to_linear(values)
    linear[values == bounds.p_min_dbm] = bounds.p_min_linear
    linear[values == bounds.p_max_dbm] = bounds.p_max_linear
    return linear


def occupancy_linear(scenario: Scenario, band: int, quantum: int) -> np.ndarray:
    """Aggregate man-made linear power (mW) at every cell center, unclipped.

    Contributions accumulate per network and then across networks, so the
    field of a scenario decomposes exactly into the sum of its per-network
    fields.
    """
    _check_slice(scenario.dims, band, quantum)
    grid = scenario.grid
    total = np.zeros((grid.n_y, grid.n_x))
    for net in scenario.networks:
        net_sum = np.zeros_like(total)
        for tx in net.transmitters:
            if tx.active_in(band, quantum):
                net_sum += db_to_linear(tx.tx_power_dbm + tx_gain_db_field(tx, grid, scenario.propagation))
        total += net_sum
    return total


def occupancy_map(scenario: Scenario, band: int, quantum: int) -> PowerField:
    """Occupancy in dBm per cell, clipped to the power bounds.

    Cells reached by no transmission report p_min. Noise is not part of
    occupancy; only transmitted power counts.
    """
    bounds = scenario.bounds
    values = np.clip(
        linear_to_db(occupancy_linear(scenario, band, quantum)),
        bounds.p_min_dbm,
        bounds.p_max_dbm,
    )
    return PowerField(band, quantum, values)


def occupancy_at_cell(scenario: Scenario, band: int, quantum: int, cell: Cell) -> float:
    """Clipped occupancy (dBm) at a single cell, without building the full field."""
    _check_slice(scenario.dims, band, quantum)
    grid, bounds = scenario.grid, scenario.bounds
    center = grid.cell_center(*cell)
    total = 0.0
    for tx in scenario.transmitters():
        if tx.active_in(band, quantum):
            total += db_to_linear(tx.tx_power_dbm) * link_gain_linear(tx, center, scenario.propagation)
    return min(max(linear_to_db(total), bounds.p_min_dbm), bounds.p_max_dbm)


def received_linear(tx: Transmitter, rx: Receiver, config: PropagationConfig) -> float:
    """Power (linear mW) a receiver's antenna picks up from one transmitter."""
    return db_to_linear(tx.tx_power_dbm) * link_gain_linear(tx, rx.position, config, rx.pattern)


def link_powers(rx: Receiver, quantum: int, transmitters: Iterable[Transmitter],
                config: PropagationConfig) -> tuple[float, float, dict[str, float]]:
    """The one signal/interference rule: what a receiver hears in a quantum, in linear mW.

    Of the given transmitters active in the receiver's slice, the linked one
    is signal (0.0 when silent) and every other one an interferer. Returns
    (signal, interference, {interferer id: power}) with interferers in the
    order given and their total accumulated with += in that order (sum()
    compensates float sums from Python 3.12, which would change the bits).
    """
    signal = interference = 0.0
    interferers: dict[str, float] = {}
    for tx in transmitters:
        if not tx.active_in(rx.band, quantum):
            continue
        power = received_linear(tx, rx, config)
        if tx.id == rx.linked_tx_id:
            signal = power
        else:
            interferers[tx.id] = power
            interference += power
    return signal, interference, interferers


def _margin(rx: Receiver, signal: float, interference: float) -> float:
    tolerable = signal / db_to_linear(rx.beta_db) - db_to_linear(rx.noise_floor_dbm) - interference
    return max(0.0, tolerable)


def sinr_db(scenario: Scenario, rx: Receiver, quantum: int) -> float:
    """SINR of a receiver's own link in a time quantum, in dB.

    -inf when the linked transmitter is silent in that quantum.
    """
    signal, interference, _ = link_powers(rx, quantum, scenario.transmitters(), scenario.propagation)
    return linear_to_db(signal / (db_to_linear(rx.noise_floor_dbm) + interference))


def receiver_margin_linear(scenario: Scenario, rx: Receiver, quantum: int) -> float:
    """Extra interference (linear mW) the receiver tolerates before SINR hits beta.

    Zero when the link is already at or below its threshold.
    """
    signal, interference, _ = link_powers(rx, quantum, scenario.transmitters(), scenario.propagation)
    return _margin(rx, signal, interference)


@dataclass(eq=False)
class SliceBudget:
    """Link budget of the protected receivers active in one (band, quantum) slice.

    ``receivers`` are in scenario declaration order; ``signal``,
    ``interference`` and ``margin`` are parallel lists in linear mW.
    """

    receivers: list[Receiver]
    signal: list[float]
    interference: list[float]
    margin: list[float]


class LinkBudget:
    """Signal, interference and margin of a scenario's protected receivers, per slice.

    A slice is built on first use with the arithmetic of
    receiver_margin_linear, so it holds exactly the floats that function
    returns. ``add`` moves the budget to a scenario with one more transmitter.
    When that transmitter comes last in declaration order, its received power
    is the next term of each receiver's sum, so adding it to every built slice
    gives, bit for bit, what a rebuild would; otherwise the slices it is
    active in are dropped and rebuilt on next use.

    Args:
      scenario: validated world.
      protected: receiver ids or Receiver objects; None protects all.
    """

    def __init__(self, scenario: Scenario, protected=None):
        self.scenario = scenario
        self._wanted = None if protected is None else frozenset(
            rx.id if isinstance(rx, Receiver) else rx for rx in protected
        )
        self._slices: dict[Slice, SliceBudget] = {}

    def slice(self, band: int, quantum: int) -> SliceBudget:
        """The budget of one slice; receivers inactive in it impose no constraint."""
        found = self._slices.get((band, quantum))
        if found is None:
            _check_slice(self.scenario.dims, band, quantum)
            rxs = [
                rx for rx in self.scenario.receivers()
                if (self._wanted is None or rx.id in self._wanted) and rx.active_in(band, quantum)
            ]
            found = SliceBudget(rxs, [], [], [])
            for rx in rxs:
                signal, interference, _ = link_powers(rx, quantum, self.scenario.transmitters(), self.scenario.propagation)
                found.signal.append(signal)
                found.interference.append(interference)
                found.margin.append(_margin(rx, signal, interference))
            self._slices[(band, quantum)] = found
        return found

    def add(self, scenario: Scenario, tx: Transmitter) -> None:
        """Move to ``scenario``: the current scenario plus the transmitter ``tx``."""
        appended = bool(scenario.networks) and scenario.networks[-1].transmitters[-1:] == (tx,)
        self.scenario = scenario
        for quantum in sorted(tx.quanta):
            found = self._slices.get((tx.band, quantum))
            if found is None:
                continue
            if not appended:
                del self._slices[(tx.band, quantum)]
                continue
            for i, rx in enumerate(found.receivers):
                power = received_linear(tx, rx, scenario.propagation)
                if tx.id == rx.linked_tx_id:
                    found.signal[i] = power
                else:
                    found.interference[i] += power
                found.margin[i] = _margin(rx, found.signal[i], found.interference[i])

    def opportunity_map(self, band: int, quantum: int) -> PowerField:
        """:func:`opportunity_map` of this budget's scenario and protected set."""
        grid, bounds = self.scenario.grid, self.scenario.bounds
        found = self.slice(band, quantum)
        if not found.receivers:
            return PowerField(band, quantum, np.full((grid.n_y, grid.n_x), float(bounds.p_max_dbm)))

        allowed = np.full((grid.n_y, grid.n_x), np.inf)
        zero_margin = []
        for rx, margin in zip(found.receivers, found.margin):
            if margin == 0.0:
                zero_margin.append(rx.id)
            gain = entrant_gain_field_linear(rx.position, rx.pattern, grid, self.scenario.propagation)
            allowed = np.minimum(allowed, margin / gain)

        values = np.clip(linear_to_db(allowed), bounds.p_min_dbm, bounds.p_max_dbm)
        for rx in found.receivers:
            if grid.contains(rx.position):
                ix, iy = grid.cell_of(rx.position)
                values[iy, ix] = bounds.p_min_dbm
        return PowerField(band, quantum, values, tuple(zero_margin))

    def opportunity_at_cell(self, band: int, quantum: int, cell: Cell) -> tuple[float, str | None]:
        """:func:`opportunity_at_cell` of this budget's scenario and protected set."""
        grid, bounds = self.scenario.grid, self.scenario.bounds
        found = self.slice(band, quantum)
        if not found.receivers:
            return float(bounds.p_max_dbm), None
        for rx in found.receivers:
            if grid.contains(rx.position) and grid.cell_of(rx.position) == cell:
                return float(bounds.p_min_dbm), rx.id

        center = grid.cell_center(*cell)
        best = np.inf
        limiting = None
        for rx, margin in zip(found.receivers, found.margin):
            gain = db_to_linear(float(gain_db(rx.position, rx.pattern, center, OMNI, self.scenario.propagation)))
            entrant_cap = margin / gain
            if entrant_cap < best:
                best, limiting = entrant_cap, rx.id
        value = min(max(linear_to_db(best), bounds.p_min_dbm), bounds.p_max_dbm)
        return value, limiting

    def available_spectrum(self) -> SpectrumQuantity:
        """:func:`available_spectrum` of this budget's scenario and protected set."""
        bounds, dims = self.scenario.bounds, self.scenario.dims
        above = {
            (b, t): _field_linear(self.opportunity_map(b, t), bounds) - bounds.p_min_linear
            for b in range(dims.b_hat) for t in range(dims.t_hat)
        }
        return quantify(ConsumptionSpace(frozenset(), above), self.scenario.grid)


def opportunity_map(scenario: Scenario, band: int, quantum: int, protected=None) -> PowerField:
    """Maximum dBm a new omni entrant may transmit from each cell.

    The entrant keeps every protected receiver at or above its SINR
    threshold. Cells hosting a protected receiver report p_min; with no
    protected receivers the whole field is p_max. Receivers whose link is
    already below threshold contribute a zero margin (opportunity collapses
    to p_min wherever they are reachable) and are flagged on the result.

    Args:
      scenario: validated world.
      band, quantum: the slice to evaluate.
      protected: receiver ids or Receiver objects; None protects all.
    """
    return LinkBudget(scenario, protected).opportunity_map(band, quantum)


def opportunity_at_cell(scenario: Scenario, band: int, quantum: int, cell: Cell,
                        protected=None) -> tuple[float, str | None]:
    """Opportunity at one cell plus the receiver that limits it.

    Returns (dBm value, limiting receiver id). The id is None when no
    protected receiver constrains the slice.
    """
    return LinkBudget(scenario, protected).opportunity_at_cell(band, quantum, cell)


def tx_consumption(tx, scenario: Scenario) -> ConsumptionSpace:
    """Spectrum consumed by one transmitter: received power above the floor.

    Per cell and slice, clip(received linear power, p_min, p_max) - p_min in
    mW; zero in slices where the transmitter is idle.
    """
    tx = resolve(tx, scenario.transmitter, "transmitter")
    grid, bounds, dims = scenario.grid, scenario.bounds, scenario.dims

    active_field = None
    slices: dict[Slice, np.ndarray] = {}
    for b in range(dims.b_hat):
        for t in range(dims.t_hat):
            if tx.active_in(b, t):
                if active_field is None:
                    received = db_to_linear(tx.tx_power_dbm + tx_gain_db_field(tx, grid, scenario.propagation))
                    active_field = np.clip(received, bounds.p_min_linear, bounds.p_max_linear) - bounds.p_min_linear
                slices[(b, t)] = active_field.copy()
            else:
                slices[(b, t)] = np.zeros((grid.n_y, grid.n_x))
    return ConsumptionSpace(frozenset({tx.id}), slices)


def rx_consumption(rx, scenario: Scenario) -> ConsumptionSpace:
    """Spectrum a receiver denies to entrants: p_max minus its solo opportunity.

    The denied consumption of this receiver alone, so a slice where the
    receiver is idle costs nothing; the entity set is the receiver either way.
    """
    rx = resolve(rx, scenario.receiver, "receiver")
    return ConsumptionSpace(frozenset({rx.id}), denied_consumption(scenario, [rx.id]).slices)


def denied_consumption(scenario: Scenario, protected=None) -> ConsumptionSpace:
    """Power denied to entrants by a whole protected set, jointly.

    Joint denial is not the sum of solo denials; it comes from the combined
    opportunity field. A slice no protected receiver is active in denies
    nothing.
    """
    grid, bounds, dims = scenario.grid, scenario.bounds, scenario.dims
    budget = LinkBudget(scenario, protected)
    ids: set[str] = set()
    slices: dict[Slice, np.ndarray] = {}
    for b in range(dims.b_hat):
        for t in range(dims.t_hat):
            receivers = budget.slice(b, t).receivers
            if not receivers:
                slices[(b, t)] = np.zeros((grid.n_y, grid.n_x))
                continue
            ids.update(rx.id for rx in receivers)
            slices[(b, t)] = bounds.p_max_linear - _field_linear(budget.opportunity_map(b, t), bounds)
    return ConsumptionSpace(frozenset(ids), slices)


def combine_consumption(a: ConsumptionSpace, b: ConsumptionSpace, bounds: PowerBounds) -> ConsumptionSpace:
    """Union of two consumption spaces: cell-wise sum, clipped to the point scale.

    The clip means overlapping entities can consume at most p_cmax per cell,
    so quantify(union) never exceeds quantify(a) + quantify(b).
    """
    slices: dict[Slice, np.ndarray] = {}
    for key in sorted(set(a.slices) | set(b.slices)):
        arr_a = a.slices.get(key)
        arr_b = b.slices.get(key)
        if arr_a is None:
            combined = arr_b.copy()
        elif arr_b is None:
            combined = arr_a.copy()
        else:
            combined = arr_a + arr_b
        slices[key] = np.clip(combined, 0.0, bounds.p_cmax_linear)
    return ConsumptionSpace(a.entity_ids | b.entity_ids, slices)


def quantify(space: ConsumptionSpace, grid: Grid, dims: SpectrumSpaceDims | None = None) -> SpectrumQuantity:
    """Integrate a consumption space into watt square meters.

    Each slice contributes sum(cells) * cell_area, converted from mW to W
    once. The per-slice breakdown sums exactly to the total.
    """
    breakdown: dict[Slice, float] = {}
    for key in sorted(space.slices):
        arr = space.slices[key]
        if arr.shape != (grid.n_y, grid.n_x):
            raise ValueError(f"slice {key}: shape {arr.shape} does not match grid ({grid.n_y}, {grid.n_x})")
        if dims is not None:
            _check_slice(dims, *key)
        breakdown[key] = float(np.sum(arr)) * grid.cell_area / 1000.0
    return SpectrumQuantity(sum(breakdown.values()), breakdown)


def total_spectrum(grid: Grid, dims: SpectrumSpaceDims, bounds: PowerBounds) -> SpectrumQuantity:
    """Total quantified spectrum of the discretized space, in W m^2."""
    value = (bounds.p_cmax_linear / 1000.0) * grid.cell_area * grid.a_hat * dims.b_hat * dims.t_hat
    return SpectrumQuantity(value)


def available_spectrum(scenario: Scenario, protected=None) -> SpectrumQuantity:
    """Spectrum still open to entrants across every slice, in W m^2.

    Integrates the opportunity field above the floor. With nothing protected
    this equals total_spectrum.
    """
    return LinkBudget(scenario, protected).available_spectrum()


def harvest_metrics(estimated: PowerField, truth: PowerField, grid: Grid,
                    bounds: PowerBounds) -> HarvestMetrics:
    """Score an estimated opportunity field against the ground truth.

    recovered counts opportunity the estimate correctly exposed,
    lost_available what it missed, potentially_incursed what it overstated,
    all as linear power above the floor integrated over cell area.
    """
    if (estimated.band, estimated.quantum) != (truth.band, truth.quantum):
        raise ValueError(
            f"slice mismatch: estimated ({estimated.band}, {estimated.quantum}) "
            f"vs truth ({truth.band}, {truth.quantum})"
        )
    if estimated.values_dbm.shape != truth.values_dbm.shape:
        raise ValueError(
            f"shape mismatch: {estimated.values_dbm.shape} vs {truth.values_dbm.shape}"
        )
    key = (estimated.band, estimated.quantum)
    est = _field_linear(estimated, bounds) - bounds.p_min_linear
    tru = _field_linear(truth, bounds) - bounds.p_min_linear

    def q(cells: np.ndarray) -> SpectrumQuantity:
        return quantify(ConsumptionSpace(frozenset(), {key: cells}), grid)

    return HarvestMetrics(
        recovered=q(np.minimum(est, tru)),
        lost_available=q(np.maximum(0.0, tru - est)),
        potentially_incursed=q(np.maximum(0.0, est - tru)),
    )
