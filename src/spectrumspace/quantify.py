"""Occupancy and opportunity fields, consumption spaces, spectrum quantities.

Everything here reduces to one accounting rule: a point consumes the linear
power interval it denies to others, and the grid integrates that over area,
bands, and time quanta into watt square meters. Maps carry dBm for human
consumption; all sums happen in linear milliwatts.

Each integrated field is finished in the array its linear caps were folded
into: clipped to dBm in place (model.linear_to_db_in_place), then back to mW
in place by model.db_to_linear_in_place, the one array 10 ** (x / 10), with
the bounds' own linear values copied over the cells on a power bound. The
floats are those of converting on copies. A slice an entity is idle in is a
read-only, zero-stride view of 0.0, and quantify() sums each distinct array
once.

Occupancy is walked band-major (occupancy_maps): a transmitter's received
field is built once per band and added to every listed quantum it is active
in, with each slice's sums in the order of its own occupancy_linear.
Opportunity is walked band by band and, within a band, receiver-major: one
entrant gain field per receiver, and one band's caps held at a time.
LinkBudget._opportunity_fields is the one fold of entrant caps into a grid:
every opportunity field, joint denial and receiver charge comes from it. A
receiver's charge, rx_consumption, is the denial of protecting it alone;
receiver_accounting charges it one slice at a time.

Every walk drops a full-grid array as soon as its last reader is done: a
gain or received field once it is folded in, a network's sums once they are
added, a finished field once it is read. No walk holds the previous field
while it builds the next, and none allocates a full-grid scratch: a later
receiver's caps are folded in a few rows at a time.
"""

from __future__ import annotations

import math
from dataclasses import replace
from itertools import groupby
from typing import Callable, Iterable, Iterator, Mapping

import numpy as np

from .model import (
    OMNI,
    Grid,
    PowerBounds,
    Receiver,
    Record,
    Scenario,
    SpectrumSpaceDims,
    Transmitter,
    check_slices,
    db_to_linear,
    db_to_linear_in_place,
    linear_to_db,
    linear_to_db_in_place,
    resolve,
)
from .propagation import (
    PropagationConfig,
    Targets,
    entrant_gain_field_linear,
    gains_db,
    prepare_targets,
    tx_gain_db_field,
)

__all__ = [
    "ConsumptionSpace",
    "HarvestMetrics",
    "LinkBudget",
    "PowerField",
    "PriceSheet",
    "SliceBudget",
    "SliceTransmitters",
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
# A band's (receiver, entrant gain field) pairs, for LinkBudget._opportunity_fields to fold.
Gains = Callable[[int], Iterable[tuple[Receiver, np.ndarray]]]


class PowerField(Record, eq=False):
    """Per-cell dBm values for one (band, quantum) slice.

    ``values_dbm`` has shape (n_y, n_x); row 0 is the minimum-y edge of the
    grid. ``zero_margin_rx_ids`` lists protected receivers whose own link was
    already below its SINR threshold when an opportunity field was computed.
    """

    band: int
    quantum: int
    values_dbm: np.ndarray
    zero_margin_rx_ids: tuple[str, ...] = ()


class ConsumptionSpace(Record, eq=False):
    """Linear mW consumed per cell, per (band, quantum) slice, for an entity set.

    Slices with equal cells may share one read-only array.
    """

    entity_ids: frozenset[str]
    slices: dict[Slice, np.ndarray]


class SpectrumQuantity(Record):
    """A spectrum amount in watt square meters, optionally broken down by slice."""

    value: float
    breakdown: dict[Slice, float] | None = None


class PriceSheet(Record):
    """Linear tariff: currency per W m^2, optionally differentiated by slice."""

    rate: float = 0.0
    slice_rates: Mapping[Slice, float] | None = None


class HarvestMetrics(Record):
    """How well an estimated opportunity field tracked the ground truth."""

    recovered: SpectrumQuantity
    lost_available: SpectrumQuantity
    potentially_incursed: SpectrumQuantity


def _check_slice(dims: SpectrumSpaceDims, band: int, quantum: int) -> None:
    errors: list[str] = []
    check_slices((band,), (quantum,), dims, "", errors)
    if errors:
        raise ValueError(errors[0])


def _all_slices(dims: SpectrumSpaceDims) -> list[Slice]:
    return [(b, t) for b in range(dims.b_hat) for t in range(dims.t_hat)]


def _idle(grid: Grid) -> np.ndarray:
    """The cells of a slice that consumes nothing: a read-only, zero-stride view of 0.0."""
    return np.broadcast_to(0.0, (grid.n_y, grid.n_x))


def _linear_in_place(values: np.ndarray, bounds: PowerBounds) -> np.ndarray:
    """A float dBm field the caller owns, in linear mW over itself, exact on the power bounds.

    numpy's ** may round 10 ** (x / 10) one ulp away from the Python float **
    of PowerBounds, so the cells equal to a bound are overwritten with that
    bound's linear value. Every other cell keeps db_to_linear_in_place's
    10 ** (x / 10), bit for bit db_to_linear.
    """
    at_min, at_max = values == bounds.p_min_dbm, values == bounds.p_max_dbm
    db_to_linear_in_place(values)
    np.copyto(values, bounds.p_min_linear, where=at_min)
    np.copyto(values, bounds.p_max_linear, where=at_max)
    return values


def _entrant_caps(margin, gain):
    """margin / gain: the most (mW) an entrant may radiate before a receiver hits its threshold.

    A zero gain gives inf, or NaN when the margin is 0 too. Both callers fold
    the caps with np.fmin, starting from inf, and np.fmin skips NaN, so a
    receiver that no entrant power reaches sets no cap.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.divide(margin, gain)


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
    Per slice the sums are occupancy_linear's. A network's sum starts at its
    first field and each later field is added out of place, so a field two
    quanta share is never written. The walk holds one band's totals and one
    network's partial sums at a time.

    Raises:
      ValueError: a slice is out of range or listed twice.
    """
    seen: set[Slice] = set()
    for key in keys:
        _check_slice(scenario.dims, *key)
        if key in seen:
            raise ValueError(f"slice {key} is listed twice")
        seen.add(key)
    for band, run in groupby(keys, key=lambda k: k[0]):
        quanta = [q for _, q in run]
        totals = {q: np.zeros((scenario.grid.n_y, scenario.grid.n_x)) for q in quanta}
        for net in scenario.networks:
            sums: dict[int, np.ndarray] = {}
            for tx in net.transmitters:
                listed = [q for q in quanta if tx.active_in(band, q)]
                if not listed:
                    continue
                received = _received_field(tx, scenario)
                for q in listed:
                    sums[q] = sums[q] + received if q in sums else received
                received = None  # release it before the next transmitter's field is built
            for q, net_sum in sums.items():
                totals[q] += net_sum
            sums = net_sum = None  # release the network's fields before the next one's are built
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
        total = None  # the reader may drop the field before the next one is built


def occupancy_at_cell(scenario: Scenario, band: int, quantum: int, cell: Cell) -> float:
    """Clipped occupancy (dBm) at a single cell, bit for bit its occupancy_map cell."""
    return LinkBudget(scenario).occupancy_at_cell(band, quantum, cell)


class SliceTransmitters(Record):
    """The transmitters active in one (band, quantum) slice, in scenario declaration order.

    ``networks`` holds the index of each one's network in the scenario,
    ``power`` its tx power in linear mW (db_to_linear of its dBm), and
    ``targets`` their positions and patterns prepared for gains_db. A
    snapshot never changes: LinkBudget.add drops it and the next read
    builds a new one.
    """

    transmitters: tuple[Transmitter, ...]
    networks: tuple[int, ...]
    power: tuple[float, ...]
    targets: Targets


def link_powers(rx: Receiver, active: SliceTransmitters,
                config: PropagationConfig) -> tuple[float, float, dict[str, float]]:
    """The one signal/interference rule: what a receiver hears from the transmitters of its slice, in mW.

    The linked transmitter is signal (0.0 when silent) and every other one
    an interferer. Returns (signal, interference, {interferer id: power})
    with interferers in declaration order and their total accumulated with +=
    in that order (sum() compensates float sums from Python 3.12, which would
    change the bits).
    """
    signal = interference = 0.0
    interferers: dict[str, float] = {}
    gains = gains_db(rx.position, rx.pattern, active.targets, config).tolist()
    for tx, tx_power, gain in zip(active.transmitters, active.power, gains):
        power = tx_power * db_to_linear(gain)
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
    return LinkBudget(scenario).sinr_db(rx, quantum)


def receiver_margin_linear(scenario: Scenario, rx: Receiver, quantum: int) -> float:
    """Extra interference (linear mW) the receiver tolerates before SINR hits beta.

    Zero when the link is already at or below its threshold.
    """
    signal, interference, _ = link_powers(rx, LinkBudget(scenario).active(rx.band, quantum), scenario.propagation)
    return _margin(rx, signal, interference)


class SliceBudget(Record):
    """Link budget of the protected receivers active in one (band, quantum) slice.

    ``receivers`` are in scenario declaration order, ``targets`` them prepared
    for gains_db, and ``cells`` the cell each one sits in (None outside the
    grid); ``signal``, ``interference`` and ``margin`` are parallel lists in
    linear mW. Its attributes are fixed; LinkBudget updates those lists in
    place.
    """

    receivers: list[Receiver]
    targets: Targets
    cells: list[Cell | None]
    signal: list[float]
    interference: list[float]
    margin: list[float]


class LinkBudget:
    """Per-slice state of a scenario: its active transmitters and its protected receivers' margins.

    The protected receivers are resolved once, in declaration order. Each
    slice's state is built on first use. ``active`` holds the transmitters
    active in it, prepared for the point queries that sensing and the links
    read. ``slice`` holds the protected receivers, prepared once, with their
    signal, interference and margin computed by link_powers over ``active``:
    exactly the floats receiver_margin_linear returns. ``add`` moves the
    budget to a scenario with one more transmitter and drops the ``active``
    state of each slice it is active in, to be rebuilt on next use. When
    that transmitter comes last in declaration order, its received power is
    the next term of each receiver's sum, so adding it to every built
    ``slice`` gives, bit for bit, what a rebuild would; otherwise those
    slices' ``slice`` states are dropped too.

    Args:
      scenario: validated world.
      protected: a collection of receiver ids or Receiver objects, never a
        bare id string; None protects all.

    Raises:
      TypeError: ``protected`` is a string.
      ValueError: a protected id names no receiver of ``scenario``.
    """

    def __init__(self, scenario: Scenario, protected=None):
        if isinstance(protected, str):
            raise TypeError(f"protected expects a collection of receiver ids, not the string {protected!r}")
        self.scenario = scenario
        wanted = None if protected is None else {rx.id if isinstance(rx, Receiver) else rx for rx in protected}
        self._receivers = tuple(rx for rx in scenario.receivers() if wanted is None or rx.id in wanted)
        unknown = sorted(wanted - {rx.id for rx in self._receivers}) if wanted else []
        if unknown:
            raise ValueError(f"unknown receiver {unknown[0]!r} in the protected set")
        self._active: dict[Slice, SliceTransmitters] = {}
        self._slices: dict[Slice, SliceBudget] = {}

    def active(self, band: int, quantum: int) -> SliceTransmitters:
        """The transmitters active in one slice, of every network, with their targets prepared."""
        _check_slice(self.scenario.dims, band, quantum)
        found = self._active.get((band, quantum))
        if found is None:
            pairs = [(i, tx) for i, net in enumerate(self.scenario.networks) for tx in net.transmitters
                     if tx.active_in(band, quantum)]
            txs = tuple(tx for _, tx in pairs)
            found = self._active[(band, quantum)] = SliceTransmitters(
                txs, tuple(i for i, _ in pairs), tuple(db_to_linear(tx.tx_power_dbm) for tx in txs),
                prepare_targets(txs))
        return found

    def slice(self, band: int, quantum: int) -> SliceBudget:
        """The budget of one slice; receivers inactive in it impose no constraint."""
        _check_slice(self.scenario.dims, band, quantum)
        found = self._slices.get((band, quantum))
        if found is None:
            grid = self.scenario.grid
            rxs = [rx for rx in self._receivers if rx.active_in(band, quantum)]
            cells = [grid.cell_of(rx.position) if grid.contains(rx.position) else None for rx in rxs]
            found = SliceBudget(rxs, prepare_targets(rxs), cells, [], [], [])
            for rx in rxs:
                signal, interference, _ = link_powers(rx, self.active(band, quantum), self.scenario.propagation)
                found.signal.append(signal)
                found.interference.append(interference)
                found.margin.append(_margin(rx, signal, interference))
            self._slices[(band, quantum)] = found
        return found

    def add(self, scenario: Scenario, tx: Transmitter) -> None:
        """Move to ``scenario``: the current scenario plus the transmitter ``tx``."""
        appended = bool(scenario.networks) and scenario.networks[-1].transmitters[-1:] == (tx,)
        self.scenario = scenario
        tx_power = db_to_linear(tx.tx_power_dbm)
        for quantum in sorted(tx.quanta):
            key = (tx.band, quantum)
            self._active.pop(key, None)
            if not appended:
                self._slices.pop(key, None)
                continue
            found = self._slices.get(key)
            if found is None:
                continue
            gains = gains_db(tx.position, tx.pattern, found.targets, scenario.propagation).tolist()
            for i, (rx, gain) in enumerate(zip(found.receivers, gains)):
                power = tx_power * db_to_linear(gain)
                if tx.id == rx.linked_tx_id:
                    found.signal[i] = power
                else:
                    found.interference[i] += power
                found.margin[i] = _margin(rx, found.signal[i], found.interference[i])

    def sinr_db(self, rx: Receiver, quantum: int) -> float:
        """:func:`sinr_db` of a receiver of this budget's scenario, protected or not."""
        signal, interference, _ = link_powers(rx, self.active(rx.band, quantum), self.scenario.propagation)
        return linear_to_db(signal / (db_to_linear(rx.noise_floor_dbm) + interference))

    def occupancy_at_cell(self, band: int, quantum: int, cell: Cell) -> float:
        """:func:`occupancy_at_cell` of this budget's scenario: one gain call over the slice's
        active transmitters, then occupancy_linear's sums per network and across networks."""
        active = self.active(band, quantum)
        gains = gains_db(self.scenario.grid.cell_center(*cell), OMNI, active.targets, self.scenario.propagation)
        received = db_to_linear(np.array([tx.tx_power_dbm for tx in active.transmitters]) + gains).tolist()
        total = 0.0
        for _, run in groupby(zip(active.networks, received), key=lambda pair: pair[0]):
            net_sum = 0.0
            for _, power in run:
                net_sum += power
            total += net_sum
        return float(linear_to_db_in_place(np.array(total), self.scenario.bounds))

    def _opportunity_fields(self, keys: list[Slice], gains: Gains | None = None) -> Iterator[PowerField]:
        """The opportunity fields of ``keys``, in that order, from a walk over (receiver, entrant
        gain field) pairs: the one place entrant caps are folded into a grid.

        Each run of keys in one band is folded and its fields finished before
        the next run's gain fields are built, so the walk holds one band's caps
        at a time, and each gain field is dropped once it is folded, before
        the next is built. ``gains(band)`` gives a run's pairs; by default
        _entrant_gains of the protected receivers active in a listed slice of
        the band, in declaration order, each field built as it is read. A
        protected receiver folds margin / gain into every listed slice it is
        active in; any other receiver folds nothing. The first caps
        of a slice become its array, through np.fmin(inf, caps); a later
        receiver's are folded in a few rows (about 4,096 cells) at a time,
        each block's caps divided into a temporary of that many rows and
        folded in with np.fmin, so no fold allocates a second full-grid
        array. np.divide and np.fmin are elementwise and exact, so the fold
        gives the same bits in any order and any block size. Each field is
        finished as it is read, in the array its caps were folded into.
        """
        scenario = self.scenario
        for band, run in groupby(keys, key=lambda key: key[0]):
            budgets = {key: self.slice(*key) for key in run}
            folds: dict[str, list[tuple[Slice, float]]] = {}
            for key, found in budgets.items():
                for rx, margin in zip(found.receivers, found.margin):
                    folds.setdefault(rx.id, []).append((key, margin))
            pairs = (_entrant_gains(scenario, [rx for rx in self._receivers if rx.id in folds])
                     if gains is None else gains(band))
            allowed: dict[Slice, np.ndarray] = {}
            for rx, gain in pairs:
                rows = max(1, 4096 // gain.shape[1])
                for key, margin in folds.get(rx.id, ()):
                    if key not in allowed:
                        caps = allowed[key] = _entrant_caps(margin, gain)
                        np.fmin(np.inf, caps, out=caps)
                    else:
                        for y in range(0, len(gain), rows):
                            block = allowed[key][y:y + rows]
                            np.fmin(block, _entrant_caps(margin, gain[y:y + rows]), out=block)
                gain = caps = block = None  # release them before the next gain field is built
            for key, found in budgets.items():
                yield _capped_field(key, allowed.pop(key, None), found, scenario)

    def opportunity_at_cell(self, band: int, quantum: int, cell: Cell) -> tuple[float, str | None]:
        """:func:`opportunity_at_cell` of this budget's scenario and protected set."""
        bounds = self.scenario.bounds
        center = self.scenario.grid.cell_center(*cell)
        cell = tuple(cell)  # found.cells holds tuples: a list or array cell would never match one
        found = self.slice(band, quantum)
        if not found.receivers:
            return float(bounds.p_max_dbm), None
        if cell in found.cells:
            return float(bounds.p_min_dbm), found.receivers[found.cells.index(cell)].id

        gains = gains_db(center, OMNI, found.targets, self.scenario.propagation)
        caps = np.fmin(np.inf, _entrant_caps(np.array(found.margin), db_to_linear(gains)))
        i = int(np.argmin(caps))
        return (float(linear_to_db_in_place(np.array(caps[i]), bounds)),
                found.receivers[i].id if caps[i] < np.inf else None)

    def available_spectrum(self) -> SpectrumQuantity:
        """:func:`available_spectrum` of this budget's scenario and protected set."""
        return _integrated(self._opportunity_fields(_all_slices(self.scenario.dims)), self.scenario)


def _capped_field(key: Slice, allowed: np.ndarray | None, found: SliceBudget, scenario: Scenario) -> PowerField:
    """An opportunity field from the entrant caps of ``found``'s receivers folded into ``allowed``
    (None when there are none): clipped dBm over ``allowed`` itself, p_min on every cell hosting one
    of them, and the ids of those with zero margin."""
    grid, bounds = scenario.grid, scenario.bounds
    if allowed is None:
        return PowerField(*key, np.full((grid.n_y, grid.n_x), float(bounds.p_max_dbm)))
    values = linear_to_db_in_place(allowed, bounds)
    for cell in found.cells:
        if cell is not None:
            values[cell[1], cell[0]] = bounds.p_min_dbm
    zero_margin = tuple(rx.id for rx, margin in zip(found.receivers, found.margin) if margin == 0.0)
    return PowerField(*key, values, zero_margin)


def _linear_cells(field: PowerField, bounds: PowerBounds, denied: bool) -> np.ndarray:
    """A just-built opportunity field in mW over its own cells, per cell what it denies to entrants
    (p_max minus it) when ``denied``, else what it leaves open to them (it minus p_min)."""
    linear = _linear_in_place(field.values_dbm, bounds)
    if denied:
        return np.subtract(bounds.p_max_linear, linear, out=linear)
    return np.subtract(linear, bounds.p_min_linear, out=linear)


def _integrated(fields: Iterable[PowerField], scenario: Scenario, denied=False, keys=()) -> SpectrumQuantity:
    """Just-built opportunity fields' _linear_cells quantified, each converted over its own cells
    and summed before the next is read. A slice of ``keys`` no field covers adds 0.0, as an idle
    slice does in quantify; the total adds the slices in slice order."""
    breakdown = dict.fromkeys(keys, 0.0)
    for field in fields:
        cells = {(field.band, field.quantum): _linear_cells(field, scenario.bounds, denied)}
        breakdown.update(quantify(ConsumptionSpace(frozenset(), cells), scenario.grid).breakdown)
        field = cells = None  # drop this slice's cells before the next field is built
    return _totalled(dict(sorted(breakdown.items())))


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
      protected: a collection of receiver ids or Receiver objects, never a
        bare id string; None protects all.
    """
    return next(LinkBudget(scenario, protected)._opportunity_fields([(band, quantum)]))


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
    grid, dims = scenario.grid, scenario.dims
    cell = grid.cell_of(position)
    quantum_list = list(range(dims.t_hat) if quanta is None else quanta)
    for q in quantum_list:
        _check_slice(dims, 0, q)  # before set() drops a bool equal to a listed integer
    budget = LinkBudget(scenario, protected)
    entries = [(band, q, budget.opportunity_at_cell(band, q, cell)[0])
               for band in range(dims.b_hat) for q in sorted(set(quantum_list))]
    entries.sort(key=lambda e: (-e[2], e[0], e[1]))
    return entries, _integrated((PowerField(band, q, np.array([[value]])) for band, q, value in entries),
                                replace(scenario, grid=replace(grid, n_x=1, n_y=1)))


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
    budget = LinkBudget(scenario, protected)
    keys = _all_slices(scenario.dims)
    guarded = [key for key in keys if any(rx.active_in(*key) for rx in budget._receivers)]
    denied = {
        (field.band, field.quantum): _linear_cells(field, scenario.bounds, True)
        for field in budget._opportunity_fields(guarded)
    }
    idle = _idle(scenario.grid)
    ids = frozenset(rx.id for rx in budget._receivers if rx.quanta)
    return ConsumptionSpace(ids, {key: denied.get(key, idle) for key in keys})


def combine_consumption(a: ConsumptionSpace, b: ConsumptionSpace, bounds: PowerBounds) -> ConsumptionSpace:
    """Union of two consumption spaces: cell-wise sum, clipped to the point scale.

    The clip means overlapping entities can consume at most p_cmax per cell,
    so quantify(union) never exceeds quantify(a) + quantify(b).
    """
    slices: dict[Slice, np.ndarray] = {}
    for key in sorted(set(a.slices) | set(b.slices)):
        arr_a, arr_b = a.slices.get(key), b.slices.get(key)
        combined = arr_b if arr_a is None else arr_a if arr_b is None else arr_a + arr_b
        slices[key] = np.clip(combined, 0.0, bounds.p_cmax_linear)  # a new array, never a slice's own
    return ConsumptionSpace(a.entity_ids | b.entity_ids, slices)


def quantify(space: ConsumptionSpace, grid: Grid, dims: SpectrumSpaceDims | None = None) -> SpectrumQuantity:
    """Integrate a consumption space into watt square meters.

    Each slice contributes sum(cells) * cell_area, converted from mW to W
    once. An array shared by several slices is summed once. The total adds
    the per-slice breakdown in slice order (_totalled).
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
    return _totalled(breakdown)


def _totalled(breakdown: dict[Slice, float]) -> SpectrumQuantity:
    """Per-slice amounts and their total, added with += in the breakdown's order (sum()
    compensates float sums from Python 3.12, which would change the bits)."""
    total = 0.0
    for amount in breakdown.values():
        total += amount
    return SpectrumQuantity(total, breakdown)


def price(consumed: SpectrumQuantity, sheet: PriceSheet) -> float:
    """Charge for a consumed quantity under a linear tariff.

    Slice rates apply to the breakdown when both are present, totalled with
    += in slice order as quantify() totals; otherwise the flat rate
    multiplies the total. Negative or non-finite rates are rejected.
    """
    rates = [sheet.rate, *(sheet.slice_rates or {}).values()]
    if not all(math.isfinite(r) and r >= 0 for r in rates):
        raise ValueError("price rates must be finite and non-negative")
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
    declaration order. The walk goes band by band, in declaration order within
    a band, and every receiver, protected or not, has its entrant gain field
    built once: the walk folds it into its band's joint fields, then charges
    the receiver's one-receiver denial from it, one slice at a time (each
    slice's caps folded, finished, turned into denial and summed before the
    next slice's are folded), and drops it before the next field is built.
    """
    charges: dict[str, SpectrumQuantity] = {}
    keys = _all_slices(scenario.dims)

    def solo_fields(rx: Receiver, gain: np.ndarray) -> Iterator[PowerField]:
        solo = LinkBudget(scenario, [rx.id])
        for key in keys:
            if rx.active_in(*key):
                yield from solo._opportunity_fields([key], lambda _: [(rx, gain)])

    def walk(band: int) -> Iterator[tuple[Receiver, np.ndarray]]:
        for rx, gain in _entrant_gains(scenario, [rx for rx in scenario.receivers() if rx.band == band]):
            yield rx, gain
            charges[rx.id] = _integrated(solo_fields(rx, gain), scenario, True, keys)
            gain = None  # release it before the next one is built

    available = _integrated(LinkBudget(scenario, protected)._opportunity_fields(keys, walk), scenario)
    return available, {rx.id: charges[rx.id] for rx in scenario.receivers()}


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
    est = _linear_in_place(estimated.values_dbm.astype(float), bounds) - bounds.p_min_linear
    tru = _linear_in_place(truth.values_dbm.astype(float), bounds) - bounds.p_min_linear

    def q(cells: np.ndarray) -> SpectrumQuantity:
        return quantify(ConsumptionSpace(frozenset(), {key: cells}), grid)

    return HarvestMetrics(
        recovered=q(np.minimum(est, tru)),
        lost_available=q(np.maximum(0.0, tru - est)),
        potentially_incursed=q(np.maximum(0.0, est - tru)),
    )
