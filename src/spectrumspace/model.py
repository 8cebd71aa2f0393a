"""Domain model for discretized spectrum-space scenarios.

Positions are 2-D coordinates in meters. Powers cross every interface in dBm
and are aggregated internally in linear milliwatts; ``db_to_linear`` /
``linear_to_db``, their in-place array halves, and quantify's bound-exact
field conversion are the only conversions in the package. All types are
immutable after validation, so scenarios can be shared freely across
concurrent evaluation workers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Iterator, Sequence

import numpy as np

if TYPE_CHECKING:
    from .propagation import PropagationConfig

__all__ = [
    "AccessRequest",
    "AntennaPattern",
    "Grid",
    "MAX_CELLS",
    "MAX_SLICES",
    "OMNI",
    "PowerBounds",
    "Receiver",
    "RFNetwork",
    "Scenario",
    "ScenarioValidationError",
    "SpectrumSpaceDims",
    "Transmitter",
    "db_to_linear",
    "db_to_linear_in_place",
    "linear_to_db",
    "linear_to_db_in_place",
    "request_errors",
    "resolve",
    "validate_scenario",
    "validation_errors",
]


def db_to_linear(db):
    """10^(db/10): dBm to milliwatts, or a dB figure to a linear ratio.

    A scalar goes through Python's float ``**``, which numpy's ``**`` may
    miss by an ulp; an array comes back as a new float array, by
    db_to_linear_in_place on a copy.
    """
    if isinstance(db, np.ndarray) and db.ndim:
        return db_to_linear_in_place(np.array(db, dtype=float))
    return 10.0 ** (db / 10.0)


# The base of every array 10 ** x: numpy's AVX-512 power loop reads a
# contiguous base about twice as fast as a broadcast scalar, and both loads
# feed the same routine, so the bits are those of np.power(10.0, x).
_TENS = np.full(4096, 10.0)
_TENS.flags.writeable = False


def db_to_linear_in_place(db: np.ndarray, where=True) -> np.ndarray:
    """db_to_linear of a float array the caller owns, written over it and returned.

    The package's one np.power call. Only cells where ``where`` (True, or a
    bool array of db's shape) holds are raised; the rest keep db / 10. An
    array of one block or less takes one call, a larger C-contiguous one runs
    block by block over its flat view, and any other takes the scalar base.
    """
    np.divide(db, 10.0, out=db)
    if db.size <= _TENS.size:
        tens = _TENS[:db.size]
        return np.power(tens if db.ndim == 1 else tens.reshape(db.shape), db, out=db, where=where)
    if not db.flags.c_contiguous:
        return np.power(10.0, db, out=db, where=where)
    flat, free = db.reshape(-1), np.broadcast_to(where, db.shape).reshape(-1)
    for start in range(0, flat.size, _TENS.size):
        block = flat[start:start + _TENS.size]
        np.power(_TENS[:block.size], block, out=block, where=free[start:start + _TENS.size])
    return db


def linear_to_db(value):
    """10*log10(value): milliwatts to dBm, or a ratio to dB.

    Zero maps to -inf so that an empty linear aggregate clips cleanly to the
    power floor instead of raising.
    """
    if isinstance(value, np.ndarray):
        with np.errstate(divide="ignore"):
            return 10.0 * np.log10(value)
    return 10.0 * math.log10(value) if value > 0.0 else float("-inf")


def linear_to_db_in_place(linear: np.ndarray, bounds: PowerBounds) -> np.ndarray:
    """linear_to_db of a float array the caller owns, clipped to the power bounds, written over it and returned.

    Bit for bit np.clip(linear_to_db(linear), bounds.p_min_dbm, bounds.p_max_dbm).
    """
    with np.errstate(divide="ignore"):
        np.log10(linear, out=linear)
    np.multiply(10.0, linear, out=linear)
    return np.clip(linear, bounds.p_min_dbm, bounds.p_max_dbm, out=linear)


# A float64 field is 8 bytes per cell. The opportunity walks (available
# spectrum, a report's receiver charges) hold one band's slices at a time;
# denied_consumption's returned space and compare-osa's entrant union hold one
# field per slice plus a few more: a gain field, a scratch array, the entrant
# being built and conversion masks. At both limits that is
# 8 B * 2**20 cells * (508 + 4) fields = 4 GiB, so no valid scenario asks for
# more; a field alone is at most 8 MiB.
MAX_CELLS = 2**20
MAX_SLICES = 508


class ScenarioValidationError(ValueError):
    """Raised when a scenario breaks one or more model invariants."""

    def __init__(self, errors: Sequence[str]):
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))


@dataclass(frozen=True)
class PowerBounds:
    """Permissible power range at any point.

    ``p_min_dbm`` is an arbitrary floor chosen below the thermal noise floor;
    the linear difference to ``p_max_dbm`` is the per-point consumption scale.
    """

    p_max_dbm: float
    p_min_dbm: float

    @property
    def p_max_linear(self) -> float:
        return db_to_linear(self.p_max_dbm)

    @property
    def p_min_linear(self) -> float:
        return db_to_linear(self.p_min_dbm)

    @property
    def p_cmax_linear(self) -> float:
        """Maximum consumable power at a point, in mW."""
        return self.p_max_linear - self.p_min_linear


@dataclass(frozen=True)
class Grid:
    """Uniform square discretization of the region of interest."""

    origin: tuple[float, float]
    cell_size: float
    n_x: int
    n_y: int

    @property
    def cell_area(self) -> float:
        return self.cell_size * self.cell_size

    @property
    def a_hat(self) -> int:
        """Number of unit regions."""
        return self.n_x * self.n_y

    @property
    def extent(self) -> tuple[float, float, float, float]:
        """(x_min, y_min, x_max, y_max) of the covered rectangle."""
        x0, y0 = self.origin
        return (x0, y0, x0 + self.n_x * self.cell_size, y0 + self.n_y * self.cell_size)

    def contains(self, position: tuple[float, float]) -> bool:
        x_min, y_min, x_max, y_max = self.extent
        return x_min <= position[0] <= x_max and y_min <= position[1] <= y_max

    def cell_of(self, position: tuple[float, float]) -> tuple[int, int]:
        """Map a position to its (ix, iy) cell index.

        Interior boundaries follow the floor convention; a point on the
        outer upper edge, or whose floor rounds up onto it, belongs to the
        last interior cell. Raises ValueError exactly for the positions
        ``contains`` rejects.
        """
        ix = _axis_index(position[0], self.origin[0], self.cell_size, self.n_x)
        iy = _axis_index(position[1], self.origin[1], self.cell_size, self.n_y)
        if ix is None or iy is None:
            raise ValueError(f"position {position} outside grid extent {self.extent}")
        return ix, iy

    def cell_center(self, ix: int, iy: int) -> tuple[float, float]:
        """The center of cell (ix, iy): the one check every cell query passes.

        Raises ValueError unless both indices are integers in [0, n_x) x [0, n_y).
        """
        if not (isinstance(ix, (int, np.integer)) and isinstance(iy, (int, np.integer))
                and 0 <= ix < self.n_x and 0 <= iy < self.n_y):
            raise ValueError(f"cell {(ix, iy)!r} is not a cell of the {self.n_x}x{self.n_y} grid")
        x0, y0 = self.origin
        return (x0 + (ix + 0.5) * self.cell_size, y0 + (iy + 0.5) * self.cell_size)

    def center_axes(self) -> tuple[np.ndarray, np.ndarray]:
        """Cell-center x and y coordinates, shaped (1, n_x) and (n_y, 1) to broadcast to the grid."""
        x0, y0 = self.origin
        xs = x0 + (np.arange(self.n_x) + 0.5) * self.cell_size
        ys = y0 + (np.arange(self.n_y) + 0.5) * self.cell_size
        return xs[np.newaxis, :], ys[:, np.newaxis]


def _axis_index(coord: float, origin: float, cell_size: float, n: int) -> int | None:
    """The cell holding ``coord`` on one axis, or None outside [origin, origin + n * cell_size].

    The upper limit is the float ``extent`` computes, so ``contains`` holds
    exactly when ``cell_of`` returns; a point that floors to n or past it
    within that limit belongs to the last cell.
    """
    if not origin <= coord <= origin + n * cell_size:
        return None
    return math.floor(min((coord - origin) / cell_size, n - 1))


@dataclass(frozen=True)
class SpectrumSpaceDims:
    """Counts of unit frequency bands and unit time quanta.

    Band width and quantum duration are descriptive metadata only; every
    quantity in the package treats bands and quanta as dimensionless counts.
    """

    b_hat: int = 1
    t_hat: int = 1
    band_width_hz: float = 1.0
    quantum_duration_s: float = 1.0


OMNI_KIND = "omni"
SECTORED_KIND = "sectored"


@dataclass(frozen=True)
class AntennaPattern:
    """Omnidirectional or ideal-sector gain pattern.

    An omni pattern has uniform 0 dB gain. A sectored pattern applies
    ``main_gain_db`` within +/- beamwidth/2 of the boresight bearing and
    ``back_gain_db`` everywhere else. Bearings are degrees counterclockwise
    from the +x axis.
    """

    kind: str = OMNI_KIND
    boresight_deg: float = 0.0
    beamwidth_deg: float = 360.0
    main_gain_db: float = 0.0
    back_gain_db: float = 0.0

    def gain_db(self, bearing_deg):
        """Pattern gain toward a bearing (scalar or array), in dB."""
        bearing = np.asarray(bearing_deg, dtype=float)
        if self.kind == OMNI_KIND:
            return np.zeros_like(bearing)
        off = np.abs((bearing - self.boresight_deg + 180.0) % 360.0 - 180.0)
        return np.where(off <= self.beamwidth_deg / 2.0, self.main_gain_db, self.back_gain_db)


OMNI = AntennaPattern()


@dataclass(frozen=True)
class Transmitter:
    """A transmitter of a network: where it is, its power in dBm, and the band and time quanta it
    is active in."""

    id: str
    network_id: str
    position: tuple[float, float]
    tx_power_dbm: float
    band: int
    quanta: frozenset[int]
    pattern: AntennaPattern = OMNI

    def active_in(self, band: int, quantum: int) -> bool:
        return self.band == band and quantum in self.quanta


@dataclass(frozen=True)
class Receiver:
    """A receiver of a network: where it is, the band and quanta it listens in, its SINR threshold
    ``beta_db`` and noise floor, and the transmitter whose link it receives."""

    id: str
    network_id: str
    position: tuple[float, float]
    band: int
    quanta: frozenset[int]
    beta_db: float
    noise_floor_dbm: float
    linked_tx_id: str
    pattern: AntennaPattern = OMNI

    def active_in(self, band: int, quantum: int) -> bool:
        return self.band == band and quantum in self.quanta


@dataclass(frozen=True)
class RFNetwork:
    """A network's transmitters and receivers, each in declaration order."""

    id: str
    transmitters: tuple[Transmitter, ...] = ()
    receivers: tuple[Receiver, ...] = ()


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
class Scenario:
    """The full world: grid, spectrum-space dims, bounds, networks, propagation.

    The aggregate of all networks is the RF system; link and network
    containment is represented by the network/id grouping.
    """

    grid: Grid
    dims: SpectrumSpaceDims
    bounds: PowerBounds
    propagation: "PropagationConfig"
    networks: tuple[RFNetwork, ...] = ()

    def transmitters(self) -> Iterator[Transmitter]:
        for net in self.networks:
            yield from net.transmitters

    def receivers(self) -> Iterator[Receiver]:
        for net in self.networks:
            yield from net.receivers

    def transmitter(self, tx_id: str) -> Transmitter | None:
        for tx in self.transmitters():
            if tx.id == tx_id:
                return tx
        return None

    def receiver(self, rx_id: str) -> Receiver | None:
        for rx in self.receivers():
            if rx.id == rx_id:
                return rx
        return None

    def network(self, net_id: str) -> RFNetwork | None:
        for net in self.networks:
            if net.id == net_id:
                return net
        return None

    def with_network(self, network: RFNetwork) -> "Scenario":
        """A copy with one more network appended (used for admitted entrants)."""
        return replace(self, networks=self.networks + (network,))

    def all_ids(self) -> set[str]:
        ids = {net.id for net in self.networks}
        ids.update(t.id for t in self.transmitters())
        ids.update(r.id for r in self.receivers())
        return ids


def resolve(entity, lookup, kind: str):
    """``entity`` itself, or what ``lookup`` finds under the id string ``entity``.

    Raises ValueError("unknown <kind> <id>") when the lookup finds nothing.
    """
    if not isinstance(entity, str):
        return entity
    found = lookup(entity)
    if found is None:
        raise ValueError(f"unknown {kind} {entity!r}")
    return found


def validation_errors(scenario: Scenario) -> list[str]:
    """Collect every invariant violation in the scenario, not just the first."""
    from .propagation import FREE_SPACE, LOG_DISTANCE

    errors: list[str] = []
    grid, dims, bounds, prop = scenario.grid, scenario.dims, scenario.bounds, scenario.propagation
    _check_finite("grid", errors, origin=grid.origin, cell_size=grid.cell_size)
    _check_finite("dims", errors, band_width_hz=dims.band_width_hz,
                  quantum_duration_s=dims.quantum_duration_s)
    _check_finite("bounds", errors, p_max_dbm=bounds.p_max_dbm, p_min_dbm=bounds.p_min_dbm)
    _check_finite("propagation", errors, path_loss_exponent=prop.path_loss_exponent,
                  reference_distance_m=prop.reference_distance_m,
                  reference_loss_db=prop.reference_loss_db,
                  min_distance_clamp_m=prop.min_distance_clamp_m)

    if grid.cell_size <= 0 or grid.n_x < 1 or grid.n_y < 1:
        errors.append(
            f"grid: non-positive grid dims (cell_size={grid.cell_size}, n_x={grid.n_x}, n_y={grid.n_y})"
        )
    if dims.b_hat < 1:
        errors.append(f"dims: band count must be >= 1 (got {dims.b_hat})")
    if dims.t_hat < 1:
        errors.append(f"dims: time-quantum count must be >= 1 (got {dims.t_hat})")
    if min(grid.n_x, grid.n_y) >= 1 and grid.n_x * grid.n_y > MAX_CELLS:
        errors.append(
            f"grid: n_x * n_y = {grid.n_x} * {grid.n_y} cells per slice exceeds the limit of {MAX_CELLS}"
        )
    if min(dims.b_hat, dims.t_hat) >= 1 and dims.b_hat * dims.t_hat > MAX_SLICES:
        errors.append(
            f"dims: bands * quanta = {dims.b_hat} * {dims.t_hat} slices exceeds the limit of {MAX_SLICES}"
        )
    if not bounds.p_max_dbm > bounds.p_min_dbm:
        errors.append(
            f"bounds: p_max ({bounds.p_max_dbm} dBm) must exceed p_min ({bounds.p_min_dbm} dBm)"
        )

    if prop.model not in (FREE_SPACE, LOG_DISTANCE):
        errors.append(f"propagation: unknown model {prop.model!r}")
    if prop.model == LOG_DISTANCE and prop.path_loss_exponent < 1.0:
        errors.append(
            f"propagation: path_loss_exponent must be >= 1 (got {prop.path_loss_exponent})"
        )
    if prop.reference_distance_m <= 0:
        errors.append("propagation: reference_distance_m must be positive")
    if prop.min_distance_clamp_m <= 0:
        errors.append("propagation: min_distance_clamp_m must be positive")

    seen: set[str] = set()
    for name in _all_names(scenario):
        if name in seen:
            errors.append(f"duplicate id {name!r}")
        seen.add(name)

    for net in scenario.networks:
        tx_ids = {tx.id: tx for tx in net.transmitters}
        for tx in net.transmitters:
            _check_finite(f"transmitter {tx.id!r}", errors, position=tx.position,
                          tx_power_dbm=tx.tx_power_dbm)
            _check_pattern(tx.pattern, f"transmitter {tx.id!r}", errors)
            if tx.tx_power_dbm > bounds.p_max_dbm:
                errors.append(
                    f"transmitter {tx.id!r}: power above p_max ({tx.tx_power_dbm} > {bounds.p_max_dbm} dBm)"
                )
            if tx.tx_power_dbm < bounds.p_min_dbm:
                errors.append(
                    f"transmitter {tx.id!r}: power below p_min ({tx.tx_power_dbm} < {bounds.p_min_dbm} dBm)"
                )
            _check_slices((tx.band,), tx.quanta, dims, f"transmitter {tx.id!r}", errors)
        for rx in net.receivers:
            _check_finite(f"receiver {rx.id!r}", errors, position=rx.position,
                          beta_db=rx.beta_db, noise_floor_dbm=rx.noise_floor_dbm)
            _check_pattern(rx.pattern, f"receiver {rx.id!r}", errors)
            if not rx.beta_db > 0:
                errors.append(f"receiver {rx.id!r}: beta_db must be positive (got {rx.beta_db})")
            _check_slices((rx.band,), rx.quanta, dims, f"receiver {rx.id!r}", errors)
            linked = tx_ids.get(rx.linked_tx_id)
            if linked is None:
                errors.append(f"receiver {rx.id!r}: dangling link {rx.linked_tx_id!r}")
            elif linked.band != rx.band:
                errors.append(
                    f"receiver {rx.id!r}: linked transmitter {linked.id!r} uses band "
                    f"{linked.band}, receiver uses band {rx.band}"
                )
    return errors


def validate_scenario(scenario: Scenario) -> Scenario:
    """Return the scenario unchanged iff every invariant holds.

    Raises ScenarioValidationError carrying the full list of violations.
    """
    errors = validation_errors(scenario)
    if errors:
        raise ScenarioValidationError(errors)
    return scenario


def request_errors(scenario: Scenario, requests) -> list[str]:
    """Every way the requests break their rules in the scenario, not just the first.

    A request needs a finite position on the grid and finite powers,
    min_useful_dbm no more than desired_dbm, between one and all of its
    acceptable_bands required, some quanta, and bands and quanta in the
    scenario's range. Request ids are not checked against the scenario's:
    admission does that, since a document audited by ``enforce`` names its
    observed entrants after its requests.
    """
    errors: list[str] = []
    for req in requests:
        who = f"request {req.request_id!r}"
        _check_finite(who, errors, position=req.position, desired_dbm=req.desired_dbm,
                      min_useful_dbm=req.min_useful_dbm)
        if all(map(math.isfinite, req.position)):
            try:
                scenario.grid.cell_of(req.position)
            except ValueError as exc:
                errors.append(f"{who}: {exc}")
        if req.min_useful_dbm > req.desired_dbm:
            errors.append(f"{who}: min useful power exceeds desired power "
                          f"(min_useful_dbm {req.min_useful_dbm} > desired_dbm {req.desired_dbm})")
        if not 1 <= req.required_bands <= len(req.acceptable_bands):
            errors.append(f"{who}: required band count out of range (required_bands "
                          f"{req.required_bands} of {len(req.acceptable_bands)} acceptable_bands)")
        if not req.quanta:
            errors.append(f"{who}: no time quanta requested")
        _check_slices(req.acceptable_bands, req.quanta, scenario.dims, who, errors,
                      ("acceptable_bands: band index", "quanta: time quantum"))
    return errors


def _all_names(scenario: Scenario) -> Iterator[str]:
    for net in scenario.networks:
        yield net.id
        for tx in net.transmitters:
            yield tx.id
        for rx in net.receivers:
            yield rx.id


def _check_slices(bands, quanta, dims: SpectrumSpaceDims, who: str, errors: list[str],
                  names=("band index", "time quantum")) -> None:
    for name, indices, count in ((names[0], bands, dims.b_hat), (names[1], quanta, dims.t_hat)):
        for i in sorted(indices):
            if not 0 <= i < count:
                errors.append(f"{who}: {name} {i} out of range [0, {count})")


def _check_finite(who: str, errors: list[str], **values) -> None:
    """Report every value (a number or a tuple of numbers) that is NaN or infinite.

    Comparisons with NaN are false, so a non-finite number would otherwise
    slip past every range check below and poison the fields downstream.
    """
    for name, value in values.items():
        if not all(map(math.isfinite, value if isinstance(value, tuple) else (value,))):
            errors.append(f"{who}: {name} must be finite (got {value!r})")


def _check_pattern(pattern: AntennaPattern, who: str, errors: list[str]) -> None:
    _check_finite(f"{who} pattern", errors, boresight_deg=pattern.boresight_deg,
                  beamwidth_deg=pattern.beamwidth_deg, main_gain_db=pattern.main_gain_db,
                  back_gain_db=pattern.back_gain_db)
    if pattern.kind not in (OMNI_KIND, SECTORED_KIND):
        errors.append(f"{who}: unknown antenna kind {pattern.kind!r}")
    elif pattern.kind == SECTORED_KIND and not 0 < pattern.beamwidth_deg <= 360:
        errors.append(f"{who}: beamwidth_deg must be in (0, 360] (got {pattern.beamwidth_deg})")
