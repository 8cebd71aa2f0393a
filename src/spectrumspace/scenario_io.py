"""Scenario documents, raster exports, and report serialization.

The scenario file is strict JSON: every field is checked, unknown and
duplicate keys are rejected with their path, and a document re-serialized
from a parsed scenario round-trips to an identical object. Each document
object is one table of (key, model attribute, reader, writer) rows, which
both parsing and dumping walk. Reports carry units on every quantity and fix
numeric output at 12 significant digits.
"""

from __future__ import annotations

import contextlib
import functools
import json
import math
import os
from dataclasses import MISSING, fields, is_dataclass
from typing import NamedTuple

import numpy as np

from .model import (
    OMNI_KIND,
    SECTORED_KIND,
    AccessRequest,
    AntennaPattern,
    Grid,
    PowerBounds,
    Receiver,
    Record,
    RFNetwork,
    Scenario,
    ScenarioValidationError,
    SpectrumSpaceDims,
    Transmitter,
    check_slices,
    is_integer,
    is_number,
    request_errors,
    validate_scenario,
)
from .propagation import FREE_SPACE, LOG_DISTANCE, PropagationConfig
from .quantify import PowerField, SpectrumQuantity

__all__ = [
    "PolicyParams",
    "PriceRate",
    "ScenarioDocument",
    "ScenarioFormatError",
    "document_to_dict",
    "export_field",
    "format_number",
    "load_document",
    "load_scenario",
    "parse_document",
    "quantity_to_dict",
    "record_to_dict",
    "report_to_dict",
    "scenario_to_dict",
    "write_report",
]

QUANTITY_UNIT = "W*m^2"


class ScenarioFormatError(ValueError):
    """Malformed or out-of-schema scenario document."""


class PriceRate(NamedTuple):
    """The price of one (band, quantum) slice."""

    band: int
    quantum: int
    rate: float


class PolicyParams(Record):
    """Policy knobs a document may carry; flags override these at the CLI."""

    margin_db: float = 0.0
    sensitivity_dbm: float = -90.0
    tolerance_db: float = 0.5
    price_rate: float = 0.0
    price_rates: tuple[PriceRate, ...] = ()


class ScenarioDocument(Record):
    """A parsed scenario file: the validated scenario, its request batch and its policy knobs."""

    scenario: Scenario
    requests: tuple[AccessRequest, ...] = ()
    policy: PolicyParams = PolicyParams()


def _reject_unknown(obj: dict, allowed, path: str) -> None:
    unknown = sorted(set(obj) - allowed)
    if unknown:
        raise ScenarioFormatError(f"{path}: unknown field(s) {', '.join(repr(u) for u in unknown)}")


def _missing(path: str, key: str) -> ScenarioFormatError:
    return ScenarioFormatError(f"{path}: missing required field {key!r}")


# Readers take a document value, its path and the attributes of the enclosing
# record read so far; only list readers use the last.

def _num(value, path: str, parent=None) -> float:
    if not is_number(value):
        raise ScenarioFormatError(f"{path}: expected a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:
        raise ScenarioFormatError(f"{path}: integer too large for a float") from None
    if not math.isfinite(number):
        raise ScenarioFormatError(f"{path}: number must be finite, got {value!r}")
    return number

def _int(value, path: str, parent=None) -> int:
    if not is_integer(value):
        raise ScenarioFormatError(f"{path}: expected an integer, got {value!r}")
    return int(value)

def _str(value, path: str, parent=None) -> str:
    if not isinstance(value, str) or not value:
        raise ScenarioFormatError(f"{path}: expected a non-empty string, got {value!r}")
    return value

def _position(value, path: str, parent=None) -> tuple[float, float]:
    if not isinstance(value, list) or len(value) != 2:
        raise ScenarioFormatError(f"{path}: expected [x, y], got {value!r}")
    return (_num(value[0], f"{path}[0]"), _num(value[1], f"{path}[1]"))

def _indices(value, path: str, parent=None) -> frozenset[int]:
    if not isinstance(value, list) or not value:
        raise ScenarioFormatError(f"{path}: expected a non-empty list of integers")
    return frozenset(_int(v, f"{path}[{i}]") for i, v in enumerate(value))

def _dict(value, path: str) -> dict:
    if not isinstance(value, dict):
        raise ScenarioFormatError(f"{path}: expected an object, got {type(value).__name__}")
    return value

def _list(value, path: str) -> list:
    if not isinstance(value, list):
        raise ScenarioFormatError(f"{path}: expected a list, got {type(value).__name__}")
    return value

def _as_is(value):
    return value


def _model_defaults(cls) -> dict:
    """Each attribute's default in a dataclass or named tuple; MISSING where it has none."""
    if is_dataclass(cls):
        return {f.name: f.default for f in fields(cls)}
    return {name: cls._field_defaults.get(name, MISSING) for name in cls._fields}


class _Record:
    """A model class as a document object, one (key, attribute, reader, writer) row per key.

    A key is optional exactly when the model supplies its value: the class
    gives the attribute a default, or the value is an object whose own keys
    are all optional. ``all_required`` makes every key required instead. An
    optional object may be null, which means absent. Rows are read in order,
    so a document's first bad key in table order is the one reported.
    """

    def __init__(self, cls, rows, all_required=False):
        self.cls, self.rows = cls, rows
        self.keys = frozenset(key for key, _, _, _ in rows)
        own = _model_defaults(cls)
        if all_required:
            own = dict.fromkeys(own, MISSING)
        self.defaults = {}
        for _, attr, read, _ in rows:
            default = getattr(read, "empty", MISSING) if own[attr] is MISSING else own[attr]
            if default is not MISSING:
                self.defaults[attr] = default
        self.nullable = frozenset(attr for _, attr, read, _ in rows
                                  if attr in self.defaults and isinstance(read, (_Record, _Choice)))
        # the object an absent key stands for, when the class defaults every attribute
        self.empty = MISSING if MISSING in own.values() else cls()

    def __call__(self, value, path: str, parent=None, **given):
        obj = _dict(value, path)
        _reject_unknown(obj, self.keys, path)
        return self.build(obj, path, given)

    def build(self, obj: dict, path: str, values: dict):
        """The model object from ``obj``'s keys plus the attributes already in ``values``."""
        for key, attr, read, _ in self.rows:
            raw = obj.get(key, MISSING)
            if raw is MISSING or (raw is None and attr in self.nullable):
                if attr not in self.defaults:
                    raise _missing(path, key)
                values[attr] = self.defaults[attr]
            else:
                values[attr] = read(raw, f"{path}.{key}", values)
        return self.cls(**values)

    def write(self, record) -> dict:
        return {key: write(getattr(record, attr)) for key, attr, _, write in self.rows}


class _Choice:
    """An object whose first key picks the record that reads and writes it."""

    def __init__(self, records: dict):
        self.records = records
        first = next(iter(records.values()))
        self.key, self.attr, self.read_choice, _ = first.rows[0]
        self.default = first.defaults.get(self.attr, MISSING)
        self.empty = MISSING if self.default is MISSING else records[self.default].empty
        self.expected = " or ".join(map(repr, records))

    def __call__(self, value, path: str, parent=None):
        obj = _dict(value, path)
        if self.key in obj:
            choice = self.read_choice(obj[self.key], f"{path}.{self.key}")
        elif self.default is not MISSING:
            choice = self.default
        else:
            raise _missing(path, self.key)
        record = self.records.get(choice)
        if record is None:
            raise ScenarioFormatError(f"{path}.{self.key}: expected {self.expected}, got {choice!r}")
        return record(obj, path)

    def write(self, value) -> dict:
        return self.records[getattr(value, self.attr)].write(value)


def _each(record: _Record, **inherit):
    """Reader and writer of a list of ``record`` objects.

    ``inherit`` maps an attribute of each item to the enclosing record's
    attribute it takes its value from.
    """
    def read(value, path: str, parent) -> tuple:
        given = {attr: parent[outer] for attr, outer in inherit.items()}
        return tuple(record(item, f"{path}[{i}]", **given) for i, item in enumerate(_list(value, path)))

    def write(items) -> list:
        return [record.write(item) for item in items]

    return read, write


def _object(record):
    return record, record.write


_KIND = ("kind", "kind", _str, _as_is)
_PATTERN = _Choice({
    OMNI_KIND: _Record(AntennaPattern, (_KIND,), all_required=True),
    SECTORED_KIND: _Record(AntennaPattern, (
        _KIND,
        ("boresight_deg", "boresight_deg", _num, _as_is),
        ("beamwidth_deg", "beamwidth_deg", _num, _as_is),
        ("main_gain_db", "main_gain_db", _num, _as_is),
        ("back_gain_db", "back_gain_db", _num, _as_is),
    ), all_required=True),
})

_TRANSMITTER = _Record(Transmitter, (
    ("id", "id", _str, _as_is),
    ("position", "position", _position, list),
    ("tx_power_dbm", "tx_power_dbm", _num, _as_is),
    ("band", "band", _int, _as_is),
    ("quanta", "quanta", _indices, sorted),
    ("pattern", "pattern", *_object(_PATTERN)),
))

_RECEIVER = _Record(Receiver, (
    ("id", "id", _str, _as_is),
    ("position", "position", _position, list),
    ("band", "band", _int, _as_is),
    ("quanta", "quanta", _indices, sorted),
    ("beta_db", "beta_db", _num, _as_is),
    ("noise_floor_dbm", "noise_floor_dbm", _num, _as_is),
    ("linked_tx", "linked_tx_id", _str, _as_is),
    ("pattern", "pattern", *_object(_PATTERN)),
))

_NETWORK = _Record(RFNetwork, (
    ("id", "id", _str, _as_is),
    ("transmitters", "transmitters", *_each(_TRANSMITTER, network_id="id")),
    ("receivers", "receivers", *_each(_RECEIVER, network_id="id")),
))

_CURVE = (
    ("model", "model", _str, _as_is),
    ("reference_distance_m", "reference_distance_m", _num, _as_is),
    ("reference_loss_db", "reference_loss_db", _num, _as_is),
    ("min_distance_clamp_m", "min_distance_clamp_m", _num, _as_is),
)
_PROPAGATION = _Choice({
    FREE_SPACE: _Record(PropagationConfig, _CURVE),
    LOG_DISTANCE: _Record(PropagationConfig,
                          _CURVE + (("path_loss_exponent", "path_loss_exponent", _num, _as_is),)),
})

_SCENARIO = _Record(Scenario, (
    ("grid", "grid", *_object(_Record(Grid, (
        ("origin", "origin", _position, list),
        ("cell_size", "cell_size", _num, _as_is),
        ("n_x", "n_x", _int, _as_is),
        ("n_y", "n_y", _int, _as_is),
    )))),
    ("bounds", "bounds", *_object(_Record(PowerBounds, (
        ("p_max_dbm", "p_max_dbm", _num, _as_is),
        ("p_min_dbm", "p_min_dbm", _num, _as_is),
    )))),
    ("dims", "dims", *_object(_Record(SpectrumSpaceDims, (
        ("bands", "b_hat", _int, _as_is),
        ("quanta", "t_hat", _int, _as_is),
        ("band_width_hz", "band_width_hz", _num, _as_is),
        ("quantum_duration_s", "quantum_duration_s", _num, _as_is),
    )))),
    ("networks", "networks", *_each(_NETWORK)),
    ("propagation", "propagation", *_object(_PROPAGATION)),
))

_DOCUMENT = _Record(ScenarioDocument, (
    ("requests", "requests", *_each(_Record(AccessRequest, (
        ("id", "request_id", _str, _as_is),
        ("position", "position", _position, list),
        ("desired_dbm", "desired_dbm", _num, _as_is),
        ("min_useful_dbm", "min_useful_dbm", _num, _as_is),
        ("required_bands", "required_bands", _int, _as_is),
        ("acceptable_bands", "acceptable_bands", _indices, sorted),
        ("quanta", "quanta", _indices, sorted),
        ("priority", "priority", _int, _as_is),
    )))),
    ("policy", "policy", *_object(_Record(PolicyParams, (
        ("price_rates", "price_rates", *_each(_Record(PriceRate, (
            ("band", "band", _int, _as_is),
            ("quantum", "quantum", _int, _as_is),
            ("rate", "rate", _num, _as_is),
        )))),
        ("margin_db", "margin_db", _num, _as_is),
        ("sensitivity_dbm", "sensitivity_dbm", _num, _as_is),
        ("tolerance_db", "tolerance_db", _num, _as_is),
        ("price_rate", "price_rate", _num, _as_is),
    )))),
))


def parse_document(data, source: str = "document") -> ScenarioDocument:
    """Build a validated ScenarioDocument from parsed JSON data.

    Raises ScenarioFormatError with a field path on schema problems, and
    ScenarioValidationError listing every model violation afterwards; the
    scenario is validated before the requests and policy are read, and the
    requests (model.request_errors) and the policy (_policy_errors) against
    the scenario after.
    """
    data = _dict(data, source)
    _reject_unknown(data, _SCENARIO.keys | _DOCUMENT.keys, source)
    scenario = validate_scenario(_SCENARIO.build(data, source, {}))
    document = _DOCUMENT.build(data, source, {"scenario": scenario})
    errors = request_errors(scenario, document.requests) + _policy_errors(scenario, document.policy)
    if errors:
        raise ScenarioValidationError(errors)
    return document


def _policy_errors(scenario: Scenario, policy: PolicyParams) -> list[str]:
    """Every way the policy breaks its rules in the scenario, not just the first.

    The guard margin, the enforcement tolerance and every price rate are
    non-negative, and each price rate names a slice in the scenario's range
    that no earlier one named.
    """
    errors = [f"policy.{name}: must be non-negative (got {value})"
              for name, value in (("margin_db", policy.margin_db), ("tolerance_db", policy.tolerance_db),
                                  ("price_rate", policy.price_rate))
              if value < 0]
    dims, first = scenario.dims, {}
    for i, (band, quantum, rate) in enumerate(policy.price_rates):
        who = f"policy.price_rates[{i}]"
        check_slices((band,), (quantum,), dims, f"{who}.", errors, ("band:", "quantum:"))
        if rate < 0:
            errors.append(f"{who}.rate: must be non-negative (got {rate})")
        earlier = first.setdefault((band, quantum), i)
        if earlier != i:
            errors.append(f"{who}: slice ({band}, {quantum}) is already priced by "
                          f"policy.price_rates[{earlier}]")
    return errors


def load_document(path) -> ScenarioDocument:
    """Parse and validate a scenario file. I/O errors propagate as OSError."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()

    def unique_keys(pairs: list) -> dict:
        obj = dict(pairs)
        if len(obj) < len(pairs):
            seen: set = set()
            key = next(k for k, _ in pairs if k in seen or seen.add(k))
            raise ScenarioFormatError(f"{path}: duplicate key {key!r}")
        return obj

    try:
        data = json.loads(text, object_pairs_hook=unique_keys)
    except ScenarioFormatError:
        raise
    except json.JSONDecodeError as exc:
        raise ScenarioFormatError(f"{path}: line {exc.lineno} column {exc.colno}: {exc.msg}") from exc
    except ValueError as exc:  # the interpreter's limit on integer digits
        raise ScenarioFormatError(f"{path}: an integer literal is too long to parse") from exc
    return parse_document(data, source=str(path))


def load_scenario(path) -> Scenario:
    return load_document(path).scenario


def scenario_to_dict(scenario: Scenario) -> dict:
    """Canonical document form of a scenario; parses back to an equal object."""
    return _SCENARIO.write(scenario)


def document_to_dict(doc: ScenarioDocument) -> dict:
    return {**_SCENARIO.write(doc.scenario), **_DOCUMENT.write(doc)}


# export_field formats and writes about this many cells at a time, so it holds
# one block's buffers, never a second copy of the raster. A smaller raster
# goes through %.4f: in a fresh process the block writer's first use (its
# tables and ~0.3 MB of numpy code read in) costs more than it saves there.
_BLOCK_CELLS = 4096


def export_field(field: PowerField, path) -> None:
    """Write a power field as a CSV raster.

    One header comment line, then n_y rows of n_x values at 4 decimal places;
    row 0 is the minimum-y edge. Output is byte-stable across runs. Each
    value has the bytes of ``%.4f``, the formatter behind ``format(v, ".4f")``,
    -0.0000 included. A raster of at least ``_BLOCK_CELLS`` cells is
    formatted and written a block at a time: a block whose every row
    ``_ten_thousandths`` can round is laid out in numpy by ``_fixed_rows``,
    any other block goes whole through ``%.4f`` itself, as every row of a
    smaller raster does.
    """
    values = np.asarray(field.values_dbm, dtype=float)
    row_format = ",".join(["%.4f"] * values.shape[1])

    def formatted(rows):
        return (row_format % tuple(row.tolist()) + "\n" for row in rows)

    with _replacing(path) as fh:
        fh.write(f"# band={field.band} quantum={field.quantum} unit=dBm\n")
        if values.size < _BLOCK_CELLS:
            fh.writelines(formatted(values))
            return
        step = max(1, _BLOCK_CELLS // values.shape[1])
        for start in range(0, len(values), step):
            block = values[start:start + step]
            units, rows_placed = _ten_thousandths(block)
            if rows_placed.all():
                fh.write(_fixed_rows(units, block))
            else:
                fh.writelines(formatted(block))


def _ten_thousandths(block: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each cell's ``rint(|v| * 1e4)``, and the rows where ``%.4f`` rounds the same.

    ``%.4f`` rounds the exact ``|v| * 10**4`` half to even. The float
    product is within half a spacing of it, and floats below 2**23 are at
    most 2**-30 apart, so a product below 2**23 and more than 2**-30 from a
    .5 tie rounds alike. One comparison per row checks both: the larger of a
    cell's distance from its rounding and its rounding times 2**-24 (exact)
    must stay below 0.5 - 2**-30. That places |v| up to about 838.86; a row
    with NaN, an infinity, a larger value, or an exact or near tie such as
    -100.03125 is left to ``%.4f``.
    """
    with np.errstate(all="ignore"):
        scaled = np.abs(block) * 1e4
        units = np.rint(scaled)
        worst = np.maximum(np.abs(scaled - units), units * 2.0**-24).max(axis=1)
    return units, worst < 0.5 - 2.0**-30


# One cell's 16 bytes: sign, integer digits and point right-aligned in eight,
# then the four fraction digits, then a comma or newline; zero bytes are padding.
_CELL = np.dtype([("whole", "u8"), ("fraction", "u4"), ("end", "u4")])


@functools.cache
def _cell_words() -> tuple[np.ndarray, ...]:
    """``_CELL``'s field values, built on first use.

    The ``whole`` words of 0-999 without and with a minus sign, the
    ``fraction`` words of 0-9999, and the comma and newline ``end`` words.
    """
    digits = np.stack(np.indices((10,) * 4, dtype=np.uint8).reshape(4, -1), axis=1) + ord("0")
    whole = np.zeros((2, 1000, 8), np.uint8)
    whole[:, :, 4:7] = digits[:1000, 1:]
    whole[:, :, 7] = ord(".")
    for width, (lo, hi) in enumerate([(0, 10), (10, 100), (100, 1000)], 1):
        whole[:, lo:hi, 4:7 - width] = 0
        whole[1, lo:hi, 6 - width] = ord("-")
    plus, minus = whole.view(np.uint64)[..., 0]
    return plus, minus, digits.view(np.uint32)[:, 0], np.frombuffer(b",\0\0\0\n\0\0\0", np.uint32)


def _fixed_rows(units: np.ndarray, block: np.ndarray) -> str:
    """The CSV text of rows that ``_ten_thousandths`` placed.

    The sign is the sign bit of the value, so -0.0 and values that round to
    zero from below read -0.0000.
    """
    plus, minus, fraction_words, (comma, newline) = _cell_words()
    whole, fraction = np.divmod(units.astype(np.int32), 10_000)
    cells = np.empty(units.shape, _CELL)
    cells["whole"] = np.where(np.signbit(block), minus[whole], plus[whole])
    cells["fraction"] = fraction_words[fraction]
    cells["end"] = comma
    cells["end"][:, -1] = newline
    return cells.tobytes().translate(None, b"\0").decode("ascii")


def format_number(value: float) -> float:
    """Fix a report number at 12 significant digits."""
    return float(f"{value:.12g}")


def quantity_to_dict(quantity: SpectrumQuantity) -> dict:
    out: dict = {"unit": QUANTITY_UNIT, "value": format_number(quantity.value)}
    if quantity.breakdown is not None:
        out["breakdown"] = [
            {"band": b, "quantum": q, "value": format_number(v)}
            for (b, q), v in sorted(quantity.breakdown.items())
        ]
    return out


def record_to_dict(record) -> dict:
    """A result record as its fields by name, for a report.

    Floats are fixed at 12 significant digits; tuples, lists, dicts and
    nested records are written item by item; ints, bools, strings and None
    are kept. A SpectrumQuantity is written by ``quantity_to_dict``, and the
    ``caps_dbm`` of a record that has them (a policy.Grant) as one {band,
    quantum, cell, cap_dbm} entry per cell under ``caps``.
    """
    if isinstance(record, SpectrumQuantity):
        return quantity_to_dict(record)
    out = {name: getattr(record, name) for name in record.__dataclass_fields__}
    if "caps_dbm" in out:
        out["caps"] = [
            {"band": b, "quantum": q, "cell": cell, "cap_dbm": cap}
            for (b, q), cells in sorted(out.pop("caps_dbm").items())
            for cell, cap in sorted(cells.items())
        ]
    return {name: _report_value(value) for name, value in out.items()}


def _report_value(value):
    if isinstance(value, float):
        return format_number(value)
    if isinstance(value, (tuple, list)):
        return [_report_value(item) for item in value]
    if isinstance(value, dict):
        return {key: _report_value(item) for key, item in value.items()}
    if hasattr(value, "__dataclass_fields__"):
        return record_to_dict(value)
    return value


def report_to_dict(report: dict) -> dict:
    """A report's sections, as write_report takes them.

    A Scenario is written in its unrounded document form (``scenario_to_dict``),
    so an echoed scenario parses back to an equal one. Every other section is
    written as ``record_to_dict`` writes a field: floats at 12 significant
    digits, quantities and records by ``record_to_dict``, lists, tuples and
    dicts item by item, and strings, ints, bools and None kept.
    """
    return {name: scenario_to_dict(value) if isinstance(value, Scenario) else _report_value(value)
            for name, value in report.items()}


def write_report(report: dict, path) -> None:
    """Serialize a report dict as deterministic JSON.

    The bytes are json.dump(report, fh, indent=2, sort_keys=True) and a
    newline; ``path`` is replaced only once the whole report is written.
    """
    with _replacing(path) as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")


@contextlib.contextmanager
def _replacing(path):
    """A text file beside ``path`` that replaces ``path`` only if the block completes."""
    tmp = os.path.join(os.path.dirname(path), f".{os.path.basename(path)}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise
