"""Occupancy and opportunity fields, consumption spaces, spectrum quantities.

Everything here reduces to one accounting rule: a point consumes the linear
power interval it denies to others, and the grid integrates that over area,
bands, and time quanta into watt square meters. Maps carry dBm for human
consumption; all sums happen in linear milliwatts.

Each integrated field is finished in the array its linear caps were folded
into: clipped to dBm in place (model.linear_to_db_in_place), then back to mW
in place by model.db_to_linear_in_place, the one array 10 ** (x / 10),
computed only on cells off the power bounds and the bounds' own linear values
copied into the rest. The floats are those of converting on copies. A slice
an entity is idle in is a read-only, zero-stride view of 0.0, and quantify()
sums each distinct array once.

Occupancy is walked band-major (occupancy_maps): a transmitter's received
field is built once per band and added to every listed quantum it is active
in, with each slice's sums in the order of its own occupancy_linear.
Opportunity is walked receiver-major, one entrant gain field per receiver.
LinkBudget._opportunity_fields is the one fold of entrant caps into a grid:
every opportunity field, joint denial and receiver charge comes from it. A
receiver's charge, rx_consumption, is the denial of protecting it alone.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import groupby
from typing import Iterable, Iterator, Mapping

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
    db_to_linear_in_place,
    linear_to_db,
    linear_to_db_in_place,
    resolve,
)
from .propagation import PropagationConfig, entrant_gain_field_linear, gains_db, tx_gain_db_field

__all__ = [
    "ConsumptionSpace",
    "HarvestMetrics",
    "LinkBudget",
    "PowerField",
    "PriceSheet",
    "SliceBudget",
    "SpectrumQuantity",
    "aggregate_opportunity",
    "available_spectrum",
    "combine_consumption",
    "denied_consumption",
    "harvest_metrics",
    "link_powers",
    "occupancy_at_cell",
    "occupancy_linear",
    "occupancy_map",
    "occupancy_maps",
    "opportunity_at_cell",
    "opportunity_map",
    "price",
    "quantify",
    "receiver_accounting",
    "receiver_margin_linear",
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
    """Linear mW consumed per cell, per (band, quantum) slice, for an entity set.

    Slices with equal cells may share one read-only array.
    """

    entity_ids: frozenset[str]
    slices: dict[Slice, np.ndarray]


@dataclass(frozen=True)
class SpectrumQuantity:
    """A spectrum amount in watt square meters, optionally broken down by slice."""

    value: float
    breakdown: dict[Slice, float] | None = None


@dataclass(frozen=True)
class PriceSheet:
    """Linear tariff: currency per W m^2, optionally differentiated by slice."""

    rate: float = 0.0
    slice_rates: Mapping[Slice, float] | None = None


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


def _all_slices(dims: SpectrumSpaceDims) -> list[Slice]:
    return [(b, t) for b in range(dims.b_hat) for t in range(dims.t_hat)]


def _idle(grid: Grid) -> np.ndarray:
    """The cells of a slice that consumes nothing: a read-only, zero-stride view of 0.0."""
    return np.broadcast_to(0.0, (grid.n_y, grid.n_x))


def _linear_in_place(values: np.ndarray, bounds: PowerBounds) -> np.ndarray:
    """A float dBm field the caller owns, in linear mW over itself, exact on the power bounds.

    numpy's ** may round 10 ** (x / 10) one ulp away from the Python float **
    of PowerBounds, so ** skips the cells equal to a bound and they take that
    bound's linear value. Every other cell gets db_to_linear_in_place's
    10 ** (x / 10), bit for bit db_to_linear.
    """
    at_min = values == bounds.p_min_dbm
    at_max = values == bounds.p_max_dbm
    free = np.logical_or(at_min, at_max)
    np.logical_not(free, out=free)
    db_to_linear_in_place(values, where=free)
    np.copyto(values, bounds.p_min_linear, where=at_min)
    np.copyto(values, bounds.p_max_linear, where=at_max)
    return values


def _field_linear(field: PowerField, bounds: PowerBounds) -> np.ndarray:
    """A dBm field in linear mW, exact on the power bounds: _linear_in_place on a copy."""
    return _linear_in_place(np.array(field.values_dbm, dtype=float), bounds)


def _clipped_dbm(linear, bounds: PowerBounds) -> np.ndarray:
    """Linear mW in dBm, clipped to the power bounds: linear_to_db_in_place on a copy, so a cell
    follows a field's rule."""
    return linear_to_db_in_place(np.array(linear, dtype=float), bounds)


def _entrant_caps(margin, gain, out=None):
    """margin / gain, into ``out`` when given: the most (mW) an entrant may radiate before a
    receiver hits its threshold.

    A zero gain gives inf, or NaN when the margin is 0 too. Both callers fold
    the caps with np.fmin, starting from inf, and np.fmin skips NaN, so a
    receiver that no entrant power reaches sets no cap.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.divide(margin, gain, out=out)


def _entrant_gains(scenario: Scenario, receivers: Iterable[Receiver]) -> Iterator[tuple[Receiver, np.ndarray]]:
    """(receiver, entrant gain field) of each of ``receivers``, in that order, each field built as
    it is read."""
    for rx in receivers:
        yield rx, entrant_gain_field_linear(rx.position, rx.pattern, scenario.grid, scenario.propagation)


def _received_field(tx: Transmitter, scenario: Scenario) -> np.ndarray:
    """Linear mW a transmitter puts on every cell center, unclipped: a new array, converted in place."""
    field = tx_gain_db_field(tx, scenario.grid, scenario.propagation)
    return db_to_linear_in_place(np.add(tx.tx_power_dbm, field, out=field))


def _occupancy_walk(scenario: Scenario, keys: list[Slice]) -> Iterator[tuple[Slice, np.ndarray]]:
    """(key, occupancy_linear) of each of the distinct slices ``keys``, in that order.

    Each run of keys in one band is folded band-major: a transmitter active
    in one of its quanta has its received field built once and added to each.
    Per slice the sums are occupancy_linear's. A network's sum is a new
    array from its second field on, so a field two quanta share is never
    added into. The walk holds one band's totals and one network's partial
    sums at a time.
    """
    for key in keys:
        _check_slice(scenario.dims, *key)
    for band, run in groupby(keys, key=lambda k: k[0]):
        quanta = [q for _, q in run]
        totals = {q: np.zeros((scenario.grid.n_y, scenario.grid.n_x)) for q in quanta}
        for net in scenario.networks:
            sums: dict[int, np.ndarray] = {}
            owned: set[int] = set()
            for tx in net.transmitters:
                listed = [q for q in quanta if tx.active_in(band, q)]
                if not listed:
                    continue
                received = _received_field(tx, scenario)
                for q in listed:
                    if q not in sums:
                        sums[q] = received
                    elif q in owned:
                        sums[q] += received
                    else:
                        sums[q] = sums[q] + received
                        owned.add(q)
            for q, net_sum in sums.items():
                totals[q] += net_sum
        for q in quanta:
            yield (band, q), totals.pop(q)


def occupancy_linear(scenario: Scenario, band: int, quantum: int) -> np.ndarray:
    """Aggregate man-made linear power (mW) at every cell center, unclipped.

    Contributions accumulate per network and then across networks, so the
    field of a scenario decomposes exactly into the sum of its per-network
    fields. A network's sum starts at its first active transmitter's field
    and a network idle in the slice adds nothing: every term is >= +0.0, so
    both give the bits a sum started at zeros would.
    """
    return next(_occupancy_walk(scenario, [(band, quantum)]))[1]


def occupancy_map(scenario: Scenario, band: int, quantum: int) -> PowerField:
    """Occupancy in dBm per cell, clipped to the power bounds.

    Cells reached by no transmission report p_min. Noise is not part of
    occupancy; only transmitted power counts.
    """
    return next(occupancy_maps(scenario, [(band, quantum)]))


def occupancy_maps(scenario: Scenario, keys: Iterable[Slice]) -> Iterator[PowerField]:
    """occupancy_map of each of the distinct slices ``keys``, in that order, from one walk that
    builds a transmitter's field once per run of keys in its band."""
    for key, total in _occupancy_walk(scenario, list(keys)):
        yield PowerField(*key, linear_to_db_in_place(total, scenario.bounds))


def occupancy_at_cell(scenario: Scenario, band: int, quantum: int, cell: Cell) -> float:
    """Clipped occupancy (dBm) at a single cell, bit for bit its occupancy_map cell: one gain
    call, then occupancy_linear's sums per network and across networks."""
    _check_slice(scenario.dims, band, quantum)
    active = [tx for tx in scenario.transmitters() if tx.active_in(band, quantum)]
    gains = gains_db(scenario.grid.cell_center(*cell), OMNI, active, scenario.propagation)
    received = iter(db_to_linear(np.array([tx.tx_power_dbm for tx in active]) + gains).tolist())
    total = 0.0
    for net in scenario.networks:
        net_sum = 0.0
        for tx in net.transmitters:
            if tx.active_in(band, quantum):
                net_sum += next(received)
        total += net_sum
    return float(_clipped_dbm(total, scenario.bounds))


def link_powers(rx: Receiver, quantum: int, transmitters: Iterable[Transmitter],
                config: PropagationConfig) -> tuple[float, float, dict[str, float]]:
    """The one signal/interference rule: what a receiver hears in a quantum, in linear mW.

    Of the given transmitters active in the receiver's slice, the linked one
    is signal (0.0 when silent) and every other one an interferer. Returns
    (signal, interference, {interferer id: power}) with interferers in the
    order given and their total accumulated with += in that order (sum()
    compensates float sums from Python 3.12, which would change the bits).
    """
    active = [tx for tx in transmitters if tx.active_in(rx.band, quantum)]
    signal = interference = 0.0
    interferers: dict[str, float] = {}
    for tx, gain in zip(active, gains_db(rx.position, rx.pattern, active, config).tolist()):
        power = db_to_linear(tx.tx_power_dbm) * db_to_linear(gain)
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

    Raises:
      ValueError: a protected id names no receiver of ``scenario``.
    """

    def __init__(self, scenario: Scenario, protected=None):
        self.scenario = scenario
        self._wanted = None if protected is None else frozenset(
            rx.id if isinstance(rx, Receiver) else rx for rx in protected
        )
        unknown = sorted(self._wanted - {rx.id for rx in scenario.receivers()}) if self._wanted else []
        if unknown:
            raise ValueError(f"unknown receiver {unknown[0]!r} in the protected set")
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
            gains = gains_db(tx.position, tx.pattern, found.receivers, scenario.propagation).tolist()
            for i, (rx, gain) in enumerate(zip(found.receivers, gains)):
                power = db_to_linear(tx.tx_power_dbm) * db_to_linear(gain)
                if tx.id == rx.linked_tx_id:
                    found.signal[i] = power
                else:
                    found.interference[i] += power
                found.margin[i] = _margin(rx, found.signal[i], found.interference[i])

    def opportunity_map(self, band: int, quantum: int) -> PowerField:
        """:func:`opportunity_map` of this budget's scenario and protected set."""
        return next(self._opportunity_fields([(band, quantum)]))

    def _opportunity_fields(self, keys: list[Slice], gains: Iterable[tuple[Receiver, np.ndarray]] | None = None
                            ) -> Iterator[PowerField]:
        """The opportunity fields of ``keys``, in that order, from one walk over (receiver, entrant
        gain field) pairs: the one place entrant caps are folded into a grid.

        ``gains`` defaults to _entrant_gains of the protected receivers active
        in a listed slice, in declaration order, so each field is built once,
        as the walk reads it; a receiver that guards no listed slice folds
        nothing. A protected receiver folds margin / gain into every listed
        slice it is active in. The first caps of a slice become its array,
        through np.fmin(inf, caps); a later receiver's are divided into one
        scratch array, allocated on the first such fold, and folded in with
        np.fmin. np.fmin is exact, so the fold gives the same bits in any
        order. The walk runs in this call; each field is finished as it is
        read, in the array its caps were folded into.
        """
        scenario = self.scenario
        budgets = {key: self.slice(*key) for key in keys}
        folds: dict[str, list[tuple[Slice, float]]] = {}
        for key, found in budgets.items():
            for rx, margin in zip(found.receivers, found.margin):
                folds.setdefault(rx.id, []).append((key, margin))
        if gains is None:
            gains = _entrant_gains(scenario, [rx for rx in scenario.receivers() if rx.id in folds])
        allowed: dict[Slice, np.ndarray] = {}
        scratch = None
        for rx, gain in gains:
            for key, margin in folds.get(rx.id, ()):
                if key not in allowed:
                    caps = allowed[key] = _entrant_caps(margin, gain)
                    np.fmin(np.inf, caps, out=caps)
                else:
                    scratch = np.empty_like(gain) if scratch is None else scratch
                    np.fmin(allowed[key], _entrant_caps(margin, gain, scratch), out=allowed[key])
        return (_capped_field(key, allowed.pop(key, None), budgets[key], scenario) for key in keys)

    def opportunity_at_cell(self, band: int, quantum: int, cell: Cell) -> tuple[float, str | None]:
        """:func:`opportunity_at_cell` of this budget's scenario and protected set."""
        grid, bounds = self.scenario.grid, self.scenario.bounds
        found = self.slice(band, quantum)
        if not found.receivers:
            return float(bounds.p_max_dbm), None
        for rx in found.receivers:
            if grid.contains(rx.position) and grid.cell_of(rx.position) == cell:
                return float(bounds.p_min_dbm), rx.id

        gains = gains_db(grid.cell_center(*cell), OMNI, found.receivers, self.scenario.propagation)
        caps = np.fmin(np.inf, _entrant_caps(np.array(found.margin), db_to_linear(gains)))
        i = int(np.argmin(caps))
        return float(_clipped_dbm(caps[i], bounds)), found.receivers[i].id if caps[i] < np.inf else None

    def available_spectrum(self) -> SpectrumQuantity:
        """:func:`available_spectrum` of this budget's scenario and protected set."""
        return _available(self._opportunity_fields(_all_slices(self.scenario.dims)), self.scenario)


def _capped_field(key: Slice, allowed: np.ndarray | None, found: SliceBudget, scenario: Scenario) -> PowerField:
    """An opportunity field from the entrant caps of ``found``'s receivers folded into ``allowed``
    (None when there are none): clipped dBm over ``allowed`` itself, p_min on every cell hosting one
    of them, and the ids of those with zero margin."""
    grid, bounds = scenario.grid, scenario.bounds
    if allowed is None:
        return PowerField(*key, np.full((grid.n_y, grid.n_x), float(bounds.p_max_dbm)))
    values = linear_to_db_in_place(allowed, bounds)
    for rx in found.receivers:
        if grid.contains(rx.position):
            ix, iy = grid.cell_of(rx.position)
            values[iy, ix] = bounds.p_min_dbm
    zero_margin = tuple(rx.id for rx, margin in zip(found.receivers, found.margin) if margin == 0.0)
    return PowerField(*key, values, zero_margin)


def _denied_linear(field: PowerField, bounds: PowerBounds) -> np.ndarray:
    """p_max minus a just-built opportunity field, in mW over its own cells: what it denies to
    entrants per cell."""
    linear = _linear_in_place(field.values_dbm, bounds)
    return np.subtract(bounds.p_max_linear, linear, out=linear)


def _available(fields: Iterable[PowerField], scenario: Scenario) -> SpectrumQuantity:
    """Just-built opportunity fields integrated above the floor, read one at a time, each
    converted over its own cells."""
    bounds = scenario.bounds
    above = {}
    for field in fields:
        linear = _linear_in_place(field.values_dbm, bounds)
        above[(field.band, field.quantum)] = np.subtract(linear, bounds.p_min_linear, out=linear)
    return quantify(ConsumptionSpace(frozenset(), above), scenario.grid)


def opportunity_map(scenario: Scenario, band: int, quantum: int, protected=None) -> PowerField:
    """Maximum dBm a new omni entrant may transmit from each cell.

    The entrant keeps every protected receiver at or above its SINR
    threshold. Cells hosting a protected receiver report p_min; with no
    protected receivers the whole field is p_max. Receivers whose link is
    already below threshold contribute a zero margin (opportunity collapses
    to p_min wherever they are reachable) and are flagged on the result. A
    receiver no entrant power reaches, its gain underflowing to 0 mW, imposes
    no cap.

    Args:
      scenario: validated world.
      band, quantum: the slice to evaluate.
      protected: receiver ids or Receiver objects; None protects all.
    """
    return LinkBudget(scenario, protected).opportunity_map(band, quantum)


def opportunity_at_cell(scenario: Scenario, band: int, quantum: int, cell: Cell,
                        protected=None) -> tuple[float, str | None]:
    """Opportunity at one cell plus the receiver that limits it.

    Returns (dBm value, limiting receiver id): the opportunity_map cell, bit
    for bit, and the first receiver with the lowest entrant cap. The id is
    None when no protected receiver constrains the cell.
    """
    return LinkBudget(scenario, protected).opportunity_at_cell(band, quantum, cell)


def aggregate_opportunity(scenario: Scenario, position: tuple[float, float],
                          quanta=None, protected=None):
    """Opportunity at one location across every band, best slices first.

    Returns:
      (entries, quantity): entries are (band, quantum, dBm) tuples sorted by
      value descending, and the quantity integrates their linear power above
      the floor over the cell, converted and integrated as available_spectrum
      does a one-cell grid.
    """
    grid, bounds, dims = scenario.grid, scenario.bounds, scenario.dims
    cell = grid.cell_of(position)
    quantum_list = list(range(dims.t_hat)) if quanta is None else sorted(quanta)
    budget = LinkBudget(scenario, protected)
    entries = [(band, q, budget.opportunity_at_cell(band, q, cell)[0])
               for band in range(dims.b_hat) for q in quantum_list]
    above = {
        (band, q): _field_linear(PowerField(band, q, np.array([[value]])), bounds) - bounds.p_min_linear
        for band, q, value in entries
    }
    entries.sort(key=lambda e: (-e[2], e[0], e[1]))
    return entries, quantify(ConsumptionSpace(frozenset(), above), replace(grid, n_x=1, n_y=1))


def tx_consumption(tx, scenario: Scenario) -> ConsumptionSpace:
    """Spectrum consumed by one transmitter: received power above the floor.

    Per cell and slice, clip(received linear power, p_min, p_max) - p_min in
    mW; zero in slices where the transmitter is idle.
    """
    tx = resolve(tx, scenario.transmitter, "transmitter")
    bounds = scenario.bounds
    received = _received_field(tx, scenario)
    np.clip(received, bounds.p_min_linear, bounds.p_max_linear, out=received)
    active = np.subtract(received, bounds.p_min_linear, out=received)
    active.flags.writeable = False
    idle = _idle(scenario.grid)
    slices = {key: active if tx.active_in(*key) else idle for key in _all_slices(scenario.dims)}
    return ConsumptionSpace(frozenset({tx.id}), slices)


def rx_consumption(rx, scenario: Scenario) -> ConsumptionSpace:
    """Spectrum a receiver denies to entrants: denied_consumption protecting it alone.

    p_max minus the receiver's solo opportunity where it is active; a slice
    where it is idle costs nothing.
    """
    return denied_consumption(scenario, [resolve(rx, scenario.receiver, "receiver").id])


def denied_consumption(scenario: Scenario, protected=None) -> ConsumptionSpace:
    """Power denied to entrants by a whole protected set, jointly.

    Joint denial is not the sum of solo denials; it comes from the combined
    opportunity field. A slice no protected receiver is active in denies
    nothing.
    """
    return _denial(LinkBudget(scenario, protected))


def _denial(budget: LinkBudget, gains: Iterable[tuple[Receiver, np.ndarray]] | None = None) -> ConsumptionSpace:
    """denied_consumption of ``budget``'s scenario and protected set, its fields folded from
    ``gains`` (LinkBudget._opportunity_fields) when given."""
    scenario = budget.scenario
    keys = _all_slices(scenario.dims)
    guarded = [key for key in keys if budget.slice(*key).receivers]
    denied = {
        (field.band, field.quantum): _denied_linear(field, scenario.bounds)
        for field in budget._opportunity_fields(guarded, gains)
    }
    idle = _idle(scenario.grid)
    ids = frozenset(rx.id for key in guarded for rx in budget.slice(*key).receivers)
    return ConsumptionSpace(ids, {key: denied.get(key, idle) for key in keys})


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
    once. An array shared by several slices is summed once. The total adds
    the per-slice breakdown with += in slice order (sum() compensates float
    sums from Python 3.12, which would change the bits).
    """
    sums: dict[int, float] = {}
    breakdown: dict[Slice, float] = {}
    for key in sorted(space.slices):
        arr = space.slices[key]
        if arr.shape != (grid.n_y, grid.n_x):
            raise ValueError(f"slice {key}: shape {arr.shape} does not match grid ({grid.n_y}, {grid.n_x})")
        if dims is not None:
            _check_slice(dims, *key)
        if id(arr) not in sums:
            sums[id(arr)] = float(np.sum(arr))
        breakdown[key] = sums[id(arr)] * grid.cell_area / 1000.0
    total = 0.0
    for amount in breakdown.values():
        total += amount
    return SpectrumQuantity(total, breakdown)


def price(consumed: SpectrumQuantity, sheet: PriceSheet) -> float:
    """Charge for a consumed quantity under a linear tariff.

    Slice rates apply to the breakdown when both are present, totalled with
    += in slice order as quantify() totals; otherwise the flat rate
    multiplies the total. Negative rates are rejected.
    """
    if sheet.rate < 0 or (sheet.slice_rates and any(r < 0 for r in sheet.slice_rates.values())):
        raise ValueError("price rates must be non-negative")
    if sheet.slice_rates and consumed.breakdown is not None:
        total = 0.0
        for key, amount in sorted(consumed.breakdown.items()):
            total += sheet.slice_rates.get(key, sheet.rate) * amount
        return total
    return sheet.rate * consumed.value


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


def receiver_accounting(scenario: Scenario, protected) -> tuple[SpectrumQuantity, dict[str, SpectrumQuantity]]:
    """available_spectrum and every receiver's quantified rx_consumption, from one receiver walk.

    Returns (available_spectrum(scenario, protected), {rx id: quantify(
    rx_consumption(rx, scenario), grid, dims)}) with the receivers in
    declaration order. Every receiver, protected or not, has its entrant gain
    field built once: the walk folds it into the joint fields, then charges
    the receiver's one-receiver denial from it before the next field is built.
    """
    charges: dict[str, SpectrumQuantity] = {}

    def walk() -> Iterator[tuple[Receiver, np.ndarray]]:
        for rx, gain in _entrant_gains(scenario, scenario.receivers()):
            yield rx, gain
            charges[rx.id] = quantify(_denial(LinkBudget(scenario, [rx.id]), [(rx, gain)]),
                                      scenario.grid, scenario.dims)

    fields = LinkBudget(scenario, protected)._opportunity_fields(_all_slices(scenario.dims), walk())
    return _available(fields, scenario), charges


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
