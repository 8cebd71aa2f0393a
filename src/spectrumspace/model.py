"""Domain model for discretized spectrum-space scenarios.

Positions are 2-D coordinates in meters. Powers cross every interface in dBm
and are aggregated internally in linear milliwatts; ``db_to_linear`` /
``linear_to_db``, their in-place array halves, and quantify's bound-exact
field conversion are the only conversions in the package. All types are
immutable after validation, so scenarios can be shared freely across
concurrent evaluation workers.

Every record of the package subclasses ``Record``, which writes the methods
of a frozen dataclass (``__init__``, ``__eq__``, ``__hash__``, ``__repr__``,
``__setattr__`` and ``__delattr__``) once, generically over the fields, so
defining a record compiles no code when its module is imported.
"""

from __future__ import annotations

import math
import numbers
import reprlib
from dataclasses import MISSING, FrozenInstanceError, dataclass, fields, make_dataclass, replace
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
    "Record",
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


def db_to_linear_in_place(db: np.ndarray) -> np.ndarray:
    """db_to_linear of a float array the caller owns, written over it and returned.

    The package's one np.power call: one call up to one block, block by block
    over a larger C-contiguous array's flat view, and the scalar base otherwise.
    """
    np.divide(db, 10.0, out=db)
    if db.size <= _TENS.size:
        tens = _TENS[:db.size]
        return np.power(tens if db.ndim == 1 else tens.reshape(db.shape), db, out=db)
    if not db.flags.c_contiguous:
        return np.power(10.0, db, out=db)
    flat = db.reshape(-1)
    for start in range(0, flat.size, _TENS.size):
        block = flat[start:start + _TENS.size]
        np.power(_TENS[:block.size], block, out=block)
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
# field per slice plus a few more: a gain field, the entrant being built and
# conversion masks (a fold's temporary is a few rows, never a field). At both
# limits that is under 8 B * 2**20 cells * (508 + 4) fields = 4 GiB, so no
# valid scenario asks for more; a field alone is at most 8 MiB.
MAX_CELLS = 2**20
MAX_SLICES = 508


class ScenarioValidationError(ValueError):
    """Raised when a scenario breaks one or more model invariants."""

    def __init__(self, errors: Sequence[str]):
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))


class Record:
    """The base of every record: a dataclass that behaves as a frozen one and compiles no code.

    A subclass declares annotated fields with plain defaults (no ``field()``)
    and gets what ``@dataclass(frozen=True)`` gives it: ``dataclasses.fields``,
    ``replace`` and ``asdict`` work, construction takes the fields
    positionally or by name, ``repr`` lists them, equal fields of one class
    compare and hash equal, and assigning or deleting an attribute raises
    FrozenInstanceError. ``class C(Record, eq=False)`` keeps identity
    equality and hashing instead, for records that hold arrays. Each subclass
    needs a docstring of its own, or ``dataclass`` computes one from
    ``inspect.signature`` when the class is defined.

    An instance's ``__dict__`` holds exactly its fields, in field order, so
    equality, hashing and repr read it directly.
    """

    def __init_subclass__(cls, eq: bool = True, **kwargs):
        super().__init_subclass__(**kwargs)
        dataclass(cls, init=False, repr=False, eq=False)
        own = fields(cls)
        names = tuple(f.name for f in own)
        cls._record_fields = names
        cls._record_defaults = {f.name: f.default for f in own}  # MISSING where a field has none
        # after i positional arguments: the names a keyword may give, and those one must give
        cls._record_keywords = [(frozenset(names[i:]), frozenset(f.name for f in own[i:] if f.default is MISSING))
                                for i in range(len(names) + 1)]
        if not eq:
            cls.__eq__, cls.__hash__ = object.__eq__, object.__hash__

    def __init__(self, /, *args, **kwargs):
        names, values = self._record_fields, self.__dict__
        if kwargs or len(args) != len(names):
            if len(args) > len(names):
                raise _call_error(type(self), args, kwargs)
            may, must = self._record_keywords[len(args)]
            if not must <= kwargs.keys() <= may:
                raise _call_error(type(self), args, kwargs)
            values.update(self._record_defaults)
        values.update(zip(names, args))
        values.update(kwargs)

    @reprlib.recursive_repr()
    def __repr__(self):
        shown = ", ".join(f"{name}={value!r}" for name, value in self.__dict__.items())
        return f"{type(self).__qualname__}({shown})"

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.__dict__ == other.__dict__
        return NotImplemented

    def __hash__(self):
        return hash(tuple(self.__dict__.values()))

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")


def _call_error(cls: type[Record], args: tuple, kwargs: dict) -> TypeError:
    """The TypeError, message included, that a frozen dataclass with ``cls``'s name, fields and
    defaults raises for a call ``cls`` refuses. That twin is made on the class's first refused call
    and kept in the class's own ``__dict__``, so a subclass never reuses its parent's."""
    twin = cls.__dict__.get("_record_twin")
    if twin is None:
        spec = [(f.name, f.type) if f.default is MISSING else (f.name, f.type, f.default) for f in fields(cls)]
        twin = cls._record_twin = make_dataclass(cls.__qualname__, spec, frozen=True)
    try:
        twin(*args, **kwargs)
    except TypeError as error:
        return error
    raise AssertionError(f"{cls.__qualname__} refused a call its dataclass twin accepts")


class PowerBounds(Record):
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


class Grid(Record):
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

        Raises ValueError unless both indices are integers (not bools) in
        [0, n_x) x [0, n_y).
        """
        if not (_is_integer(ix) and _is_integer(iy) and 0 <= ix < self.n_x and 0 <= iy < self.n_y):
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


class SpectrumSpaceDims(Record):
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


class AntennaPattern(Record):
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


class Transmitter(Record):
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


class Receiver(Record):
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


class RFNetwork(Record):
    """A network's transmitters and receivers, each in declaration order."""

    id: str
    transmitters: tuple[Transmitter, ...] = ()
    receivers: tuple[Receiver, ...] = ()


class AccessRequest(Record):
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


class Scenario(Record):
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
    """Collect every invariant violation in the scenario, not just the first.

    A value that is not a number, a number that is not finite and a count
    that is not an integer are each reported once: the range checks of their
    record skip them rather than compare them.
    """
    from .propagation import FREE_SPACE, LOG_DISTANCE

    errors: list[str] = []
    grid, dims, bounds, prop = scenario.grid, scenario.dims, scenario.bounds, scenario.propagation
    sized = _check_finite("grid", errors, grid, "origin", "cell_size")
    _check_finite("dims", errors, dims, "band_width_hz", "quantum_duration_s")
    bounded = _check_finite("bounds", errors, bounds, "p_max_dbm", "p_min_dbm")
    propagates = _check_finite("propagation", errors, prop, "path_loss_exponent", "reference_distance_m",
                               "reference_loss_db", "min_distance_clamp_m")

    sized &= _check_integers("grid", errors, grid, "n_x", "n_y")
    counted = _check_integers("dims", errors, dims, "b_hat", "t_hat")
    if sized and (grid.cell_size <= 0 or grid.n_x < 1 or grid.n_y < 1):
        errors.append(
            f"grid: non-positive grid dims (cell_size={grid.cell_size}, n_x={grid.n_x}, n_y={grid.n_y})"
        )
    if counted and dims.b_hat < 1:
        errors.append(f"dims: band count must be >= 1 (got {dims.b_hat})")
    if counted and dims.t_hat < 1:
        errors.append(f"dims: time-quantum count must be >= 1 (got {dims.t_hat})")
    if sized and min(grid.n_x, grid.n_y) >= 1 and grid.n_x * grid.n_y > MAX_CELLS:
        errors.append(
            f"grid: n_x * n_y = {grid.n_x} * {grid.n_y} cells per slice exceeds the limit of {MAX_CELLS}"
        )
    if counted and min(dims.b_hat, dims.t_hat) >= 1 and dims.b_hat * dims.t_hat > MAX_SLICES:
        errors.append(
            f"dims: bands * quanta = {dims.b_hat} * {dims.t_hat} slices exceeds the limit of {MAX_SLICES}"
        )
    if bounded and not bounds.p_max_dbm > bounds.p_min_dbm:
        errors.append(
            f"bounds: p_max ({bounds.p_max_dbm} dBm) must exceed p_min ({bounds.p_min_dbm} dBm)"
        )

    if prop.model not in (FREE_SPACE, LOG_DISTANCE):
        errors.append(f"propagation: unknown model {prop.model!r}")
    if propagates and prop.model == LOG_DISTANCE and prop.path_loss_exponent < 1.0:
        errors.append(
            f"propagation: path_loss_exponent must be >= 1 (got {prop.path_loss_exponent})"
        )
    if propagates and prop.reference_distance_m <= 0:
        errors.append("propagation: reference_distance_m must be positive")
    if propagates and prop.min_distance_clamp_m <= 0:
        errors.append("propagation: min_distance_clamp_m must be positive")

    seen: set[str] = set()
    for name in (entity.id for net in scenario.networks
                 for entity in (net, *net.transmitters, *net.receivers)):
        if name in seen:
            errors.append(f"duplicate id {name!r}")
        seen.add(name)

    for net in scenario.networks:
        tx_ids = {tx.id: tx for tx in net.transmitters}
        for tx in net.transmitters:
            powered = _check_finite(f"transmitter {tx.id!r}", errors, tx, "position",
                                    "tx_power_dbm") and bounded
            _check_pattern(tx.pattern, f"transmitter {tx.id!r}", errors)
            if powered and tx.tx_power_dbm > bounds.p_max_dbm:
                errors.append(
                    f"transmitter {tx.id!r}: power above p_max ({tx.tx_power_dbm} > {bounds.p_max_dbm} dBm)"
                )
            if powered and tx.tx_power_dbm < bounds.p_min_dbm:
                errors.append(
                    f"transmitter {tx.id!r}: power below p_min ({tx.tx_power_dbm} < {bounds.p_min_dbm} dBm)"
                )
            check_slices((tx.band,), tx.quanta, dims, f"transmitter {tx.id!r}: ", errors)
        for rx in net.receivers:
            finite = _check_finite(f"receiver {rx.id!r}", errors, rx, "position", "beta_db",
                                   "noise_floor_dbm")
            _check_pattern(rx.pattern, f"receiver {rx.id!r}", errors)
            if finite and not rx.beta_db > 0:
                errors.append(f"receiver {rx.id!r}: beta_db must be positive (got {rx.beta_db})")
            check_slices((rx.band,), rx.quanta, dims, f"receiver {rx.id!r}: ", errors)
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
    min_useful_dbm no more than desired_dbm, an integer required_bands
    between one and the number of its acceptable_bands, some quanta, and
    integer bands and quanta in the scenario's range. Request ids are not checked against the scenario's:
    admission does that, since a document audited by ``enforce`` names its
    observed entrants after its requests.
    """
    errors: list[str] = []
    for req in requests:
        who = f"request {req.request_id!r}"
        if _check_finite(who, errors, req, "position"):
            try:
                scenario.grid.cell_of(req.position)
            except ValueError as exc:
                errors.append(f"{who}: {exc}")
        if (_check_finite(who, errors, req, "desired_dbm", "min_useful_dbm")
                and req.min_useful_dbm > req.desired_dbm):
            errors.append(f"{who}: min useful power exceeds desired power "
                          f"(min_useful_dbm {req.min_useful_dbm} > desired_dbm {req.desired_dbm})")
        if _check_integers(who, errors, req, "required_bands") and not (
                1 <= req.required_bands <= len(req.acceptable_bands)):
            errors.append(f"{who}: required band count out of range (required_bands "
                          f"{req.required_bands} of {len(req.acceptable_bands)} acceptable_bands)")
        if not req.quanta:
            errors.append(f"{who}: no time quanta requested")
        check_slices(req.acceptable_bands, req.quanta, scenario.dims, f"{who}: ", errors,
                     ("acceptable_bands: band index", "quanta: time quantum"))
    return errors


def check_slices(bands, quanta, dims: SpectrumSpaceDims, who: str, errors: list[str],
                 names=("band index", "time quantum")) -> None:
    # who carries its own separator ("" or "receiver 'r': "): each message starts with it as is
    for name, indices, count in ((names[0], bands, dims.b_hat), (names[1], quanta, dims.t_hat)):
        # grouped by type, so that sorted() never compares a string with a number
        for i in sorted(indices, key=lambda i: (type(i).__name__, i)):
            if not _is_integer(i):
                errors.append(f"{who}{name} {i!r} is not an integer")
            elif _is_integer(count) and not 0 <= i < count:
                errors.append(f"{who}{name} {i} out of range [0, {count})")


def check_non_negative(what: str, value) -> None:
    """Raise ValueError unless ``value`` is a finite, non-negative real number."""
    if not (isinstance(value, numbers.Real) and math.isfinite(value) and value >= 0):
        raise ValueError(f"{what} must be finite and non-negative (got {value})")


def _is_integer(value) -> bool:
    """An int or numpy integer, but not a bool: the parser refuses bools where it wants integers."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _check_integers(who: str, errors: list[str], record, *names) -> bool:
    """Report every named field of ``record`` that is not an integer (see _is_integer); True when
    none is."""
    count = len(errors)
    for name in names:
        value = getattr(record, name)
        if not _is_integer(value):
            errors.append(f"{who}: {name} must be an integer (got {value!r})")
    return len(errors) == count


def _check_finite(who: str, errors: list[str], record, *names) -> bool:
    """Report every named field of ``record`` (a number or a tuple of numbers) that is not a
    number, or NaN or infinite; True when none is.

    Comparisons with NaN are false, so a non-finite number would otherwise
    slip past every range check below and poison the fields downstream.
    """
    count = len(errors)
    for name in names:
        value = getattr(record, name)
        parts = value if isinstance(value, tuple) else (value,)
        if not all(isinstance(part, numbers.Real) for part in parts):
            errors.append(f"{who}: {name} must be a number (got {value!r})")
        elif not all(map(math.isfinite, parts)):
            errors.append(f"{who}: {name} must be finite (got {value!r})")
    return len(errors) == count


def _check_pattern(pattern: AntennaPattern, who: str, errors: list[str]) -> None:
    finite = _check_finite(f"{who} pattern", errors, pattern, "boresight_deg", "beamwidth_deg",
                           "main_gain_db", "back_gain_db")
    if pattern.kind not in (OMNI_KIND, SECTORED_KIND):
        errors.append(f"{who}: unknown antenna kind {pattern.kind!r}")
    elif finite and pattern.kind == SECTORED_KIND and not 0 < pattern.beamwidth_deg <= 360:
        errors.append(f"{who}: beamwidth_deg must be in (0, 360] (got {pattern.beamwidth_deg})")
