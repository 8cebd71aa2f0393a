"""Scenario documents, raster exports, and report serialization.

The scenario file is strict JSON: every field is checked, unknown keys are
rejected with their path, and a document re-serialized from a parsed scenario
round-trips to an identical object. Reports carry units on every quantity and
fix numeric output at 12 significant digits.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
from dataclasses import dataclass

import numpy as np

from .admission import AccessRequest
from .model import (
    OMNI,
    OMNI_KIND,
    SECTORED_KIND,
    AntennaPattern,
    Grid,
    PowerBounds,
    Receiver,
    RFNetwork,
    Scenario,
    SpectrumSpaceDims,
    Transmitter,
    validate_scenario,
)
from .propagation import FREE_SPACE, LOG_DISTANCE, PropagationConfig
from .quantify import PowerField, SpectrumQuantity

__all__ = [
    "PolicyParams",
    "ScenarioDocument",
    "ScenarioFormatError",
    "document_to_dict",
    "export_field",
    "format_number",
    "load_document",
    "load_scenario",
    "parse_document",
    "quantity_to_dict",
    "scenario_to_dict",
    "write_report",
]

QUANTITY_UNIT = "W*m^2"


class ScenarioFormatError(ValueError):
    """Malformed or out-of-schema scenario document."""


@dataclass(frozen=True)
class PolicyParams:
    """Policy knobs a document may carry; flags override these at the CLI."""

    margin_db: float = 0.0
    sensitivity_dbm: float = -90.0
    tolerance_db: float = 0.5
    price_rate: float = 0.0
    price_rates: tuple[tuple[int, int, float], ...] = ()


@dataclass(frozen=True)
class ScenarioDocument:
    scenario: Scenario
    requests: tuple[AccessRequest, ...] = ()
    policy: PolicyParams = PolicyParams()


def _reject_unknown(obj: dict, allowed: set[str], path: str) -> None:
    unknown = sorted(set(obj) - allowed)
    if unknown:
        raise ScenarioFormatError(f"{path}: unknown field(s) {', '.join(repr(u) for u in unknown)}")


def _get(obj: dict, key: str, path: str, required: bool = True, default=None):
    if key in obj:
        return obj[key]
    if required:
        raise ScenarioFormatError(f"{path}: missing required field {key!r}")
    return default


def _num(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ScenarioFormatError(f"{path}: expected a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:
        raise ScenarioFormatError(f"{path}: integer too large for a float") from None
    if not math.isfinite(number):
        raise ScenarioFormatError(f"{path}: number must be finite, got {value!r}")
    return number

def _int(value, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ScenarioFormatError(f"{path}: expected an integer, got {value!r}")
    return value

def _str(value, path: str) -> str:
    if not isinstance(value, str) or not value:
        raise ScenarioFormatError(f"{path}: expected a non-empty string, got {value!r}")
    return value

def _position(value, path: str) -> tuple[float, float]:
    if not isinstance(value, list) or len(value) != 2:
        raise ScenarioFormatError(f"{path}: expected [x, y], got {value!r}")
    return (_num(value[0], f"{path}[0]"), _num(value[1], f"{path}[1]"))

def _int_list(value, path: str) -> list[int]:
    if not isinstance(value, list) or not value:
        raise ScenarioFormatError(f"{path}: expected a non-empty list of integers")
    return [_int(v, f"{path}[{i}]") for i, v in enumerate(value)]

def _dict(value, path: str) -> dict:
    if not isinstance(value, dict):
        raise ScenarioFormatError(f"{path}: expected an object, got {type(value).__name__}")
    return value

def _list(value, path: str) -> list:
    if not isinstance(value, list):
        raise ScenarioFormatError(f"{path}: expected a list, got {type(value).__name__}")
    return value


def _parse_pattern(obj, path: str) -> AntennaPattern:
    if obj is None:
        return OMNI
    obj = _dict(obj, path)
    kind = _str(_get(obj, "kind", path), f"{path}.kind")
    if kind == OMNI_KIND:
        _reject_unknown(obj, {"kind"}, path)
        return OMNI
    if kind != SECTORED_KIND:
        raise ScenarioFormatError(f"{path}.kind: expected {OMNI_KIND!r} or {SECTORED_KIND!r}, got {kind!r}")
    _reject_unknown(obj, {"kind", "boresight_deg", "beamwidth_deg", "main_gain_db", "back_gain_db"}, path)
    return AntennaPattern(
        kind=SECTORED_KIND,
        boresight_deg=_num(_get(obj, "boresight_deg", path), f"{path}.boresight_deg"),
        beamwidth_deg=_num(_get(obj, "beamwidth_deg", path), f"{path}.beamwidth_deg"),
        main_gain_db=_num(_get(obj, "main_gain_db", path), f"{path}.main_gain_db"),
        back_gain_db=_num(_get(obj, "back_gain_db", path), f"{path}.back_gain_db"),
    )


def _parse_transmitter(obj, net_id: str, path: str) -> Transmitter:
    obj = _dict(obj, path)
    _reject_unknown(obj, {"id", "position", "tx_power_dbm", "band", "quanta", "pattern"}, path)
    return Transmitter(
        id=_str(_get(obj, "id", path), f"{path}.id"),
        network_id=net_id,
        position=_position(_get(obj, "position", path), f"{path}.position"),
        tx_power_dbm=_num(_get(obj, "tx_power_dbm", path), f"{path}.tx_power_dbm"),
        band=_int(_get(obj, "band", path), f"{path}.band"),
        quanta=frozenset(_int_list(_get(obj, "quanta", path), f"{path}.quanta")),
        pattern=_parse_pattern(obj.get("pattern"), f"{path}.pattern"),
    )


def _parse_receiver(obj, net_id: str, path: str) -> Receiver:
    obj = _dict(obj, path)
    _reject_unknown(
        obj,
        {"id", "position", "band", "quanta", "beta_db", "noise_floor_dbm", "linked_tx", "pattern"},
        path,
    )
    return Receiver(
        id=_str(_get(obj, "id", path), f"{path}.id"),
        network_id=net_id,
        position=_position(_get(obj, "position", path), f"{path}.position"),
        band=_int(_get(obj, "band", path), f"{path}.band"),
        quanta=frozenset(_int_list(_get(obj, "quanta", path), f"{path}.quanta")),
        beta_db=_num(_get(obj, "beta_db", path), f"{path}.beta_db"),
        noise_floor_dbm=_num(_get(obj, "noise_floor_dbm", path), f"{path}.noise_floor_dbm"),
        linked_tx_id=_str(_get(obj, "linked_tx", path), f"{path}.linked_tx"),
        pattern=_parse_pattern(obj.get("pattern"), f"{path}.pattern"),
    )


def _parse_propagation(obj, path: str) -> PropagationConfig:
    if obj is None:
        return PropagationConfig()
    obj = _dict(obj, path)
    model = _str(_get(obj, "model", path, required=False, default=LOG_DISTANCE), f"{path}.model")
    if model not in (FREE_SPACE, LOG_DISTANCE):
        raise ScenarioFormatError(f"{path}.model: expected {FREE_SPACE!r} or {LOG_DISTANCE!r}, got {model!r}")
    allowed = {"model", "reference_distance_m", "reference_loss_db", "min_distance_clamp_m"}
    if model == LOG_DISTANCE:
        allowed.add("path_loss_exponent")
    _reject_unknown(obj, allowed, path)
    kwargs = dict(
        model=model,
        reference_distance_m=_num(_get(obj, "reference_distance_m", path, False, 1.0), f"{path}.reference_distance_m"),
        reference_loss_db=_num(_get(obj, "reference_loss_db", path, False, 40.0), f"{path}.reference_loss_db"),
        min_distance_clamp_m=_num(_get(obj, "min_distance_clamp_m", path, False, 1.0), f"{path}.min_distance_clamp_m"),
    )
    if model == LOG_DISTANCE:
        kwargs["path_loss_exponent"] = _num(
            _get(obj, "path_loss_exponent", path, False, 2.0), f"{path}.path_loss_exponent"
        )
    return PropagationConfig(**kwargs)


def _parse_request(obj, path: str) -> AccessRequest:
    obj = _dict(obj, path)
    _reject_unknown(
        obj,
        {"id", "position", "desired_dbm", "min_useful_dbm", "required_bands",
         "acceptable_bands", "quanta", "priority"},
        path,
    )
    return AccessRequest(
        request_id=_str(_get(obj, "id", path), f"{path}.id"),
        position=_position(_get(obj, "position", path), f"{path}.position"),
        desired_dbm=_num(_get(obj, "desired_dbm", path), f"{path}.desired_dbm"),
        min_useful_dbm=_num(_get(obj, "min_useful_dbm", path), f"{path}.min_useful_dbm"),
        required_bands=_int(_get(obj, "required_bands", path), f"{path}.required_bands"),
        acceptable_bands=frozenset(_int_list(_get(obj, "acceptable_bands", path), f"{path}.acceptable_bands")),
        quanta=frozenset(_int_list(_get(obj, "quanta", path), f"{path}.quanta")),
        priority=_int(_get(obj, "priority", path, False, 0), f"{path}.priority"),
    )


def _parse_policy(obj, path: str) -> PolicyParams:
    if obj is None:
        return PolicyParams()
    obj = _dict(obj, path)
    _reject_unknown(
        obj, {"margin_db", "sensitivity_dbm", "tolerance_db", "price_rate", "price_rates"}, path
    )
    rates: list[tuple[int, int, float]] = []
    for i, entry in enumerate(_list(obj.get("price_rates", []), f"{path}.price_rates")):
        entry_path = f"{path}.price_rates[{i}]"
        entry = _dict(entry, entry_path)
        _reject_unknown(entry, {"band", "quantum", "rate"}, entry_path)
        rates.append((
            _int(_get(entry, "band", entry_path), f"{entry_path}.band"),
            _int(_get(entry, "quantum", entry_path), f"{entry_path}.quantum"),
            _num(_get(entry, "rate", entry_path), f"{entry_path}.rate"),
        ))
    defaults = PolicyParams()
    return PolicyParams(
        margin_db=_num(_get(obj, "margin_db", path, False, defaults.margin_db), f"{path}.margin_db"),
        sensitivity_dbm=_num(_get(obj, "sensitivity_dbm", path, False, defaults.sensitivity_dbm), f"{path}.sensitivity_dbm"),
        tolerance_db=_num(_get(obj, "tolerance_db", path, False, defaults.tolerance_db), f"{path}.tolerance_db"),
        price_rate=_num(_get(obj, "price_rate", path, False, defaults.price_rate), f"{path}.price_rate"),
        price_rates=tuple(rates),
    )


def parse_document(data, source: str = "document") -> ScenarioDocument:
    """Build a validated ScenarioDocument from parsed JSON data.

    Raises ScenarioFormatError with a field path on schema problems, and
    ScenarioValidationError listing every model violation afterwards.
    """
    data = _dict(data, source)
    _reject_unknown(
        data, {"grid", "bounds", "dims", "propagation", "networks", "requests", "policy"}, source
    )

    grid_obj = _dict(_get(data, "grid", source), f"{source}.grid")
    _reject_unknown(grid_obj, {"origin", "cell_size", "n_x", "n_y"}, f"{source}.grid")
    grid = Grid(
        origin=_position(_get(grid_obj, "origin", f"{source}.grid"), f"{source}.grid.origin"),
        cell_size=_num(_get(grid_obj, "cell_size", f"{source}.grid"), f"{source}.grid.cell_size"),
        n_x=_int(_get(grid_obj, "n_x", f"{source}.grid"), f"{source}.grid.n_x"),
        n_y=_int(_get(grid_obj, "n_y", f"{source}.grid"), f"{source}.grid.n_y"),
    )

    bounds_obj = _dict(_get(data, "bounds", source), f"{source}.bounds")
    _reject_unknown(bounds_obj, {"p_max_dbm", "p_min_dbm"}, f"{source}.bounds")
    bounds = PowerBounds(
        p_max_dbm=_num(_get(bounds_obj, "p_max_dbm", f"{source}.bounds"), f"{source}.bounds.p_max_dbm"),
        p_min_dbm=_num(_get(bounds_obj, "p_min_dbm", f"{source}.bounds"), f"{source}.bounds.p_min_dbm"),
    )

    dims_obj = data.get("dims")
    if dims_obj is None:
        dims = SpectrumSpaceDims()
    else:
        dims_obj = _dict(dims_obj, f"{source}.dims")
        _reject_unknown(dims_obj, {"bands", "quanta", "band_width_hz", "quantum_duration_s"}, f"{source}.dims")
        dims = SpectrumSpaceDims(
            b_hat=_int(_get(dims_obj, "bands", f"{source}.dims", False, 1), f"{source}.dims.bands"),
            t_hat=_int(_get(dims_obj, "quanta", f"{source}.dims", False, 1), f"{source}.dims.quanta"),
            band_width_hz=_num(_get(dims_obj, "band_width_hz", f"{source}.dims", False, 1.0), f"{source}.dims.band_width_hz"),
            quantum_duration_s=_num(_get(dims_obj, "quantum_duration_s", f"{source}.dims", False, 1.0), f"{source}.dims.quantum_duration_s"),
        )

    networks = []
    for i, net_obj in enumerate(_list(data.get("networks", []), f"{source}.networks")):
        net_path = f"{source}.networks[{i}]"
        net_obj = _dict(net_obj, net_path)
        _reject_unknown(net_obj, {"id", "transmitters", "receivers"}, net_path)
        net_id = _str(_get(net_obj, "id", net_path), f"{net_path}.id")
        networks.append(RFNetwork(
            id=net_id,
            transmitters=tuple(
                _parse_transmitter(t, net_id, f"{net_path}.transmitters[{j}]")
                for j, t in enumerate(_list(net_obj.get("transmitters", []), f"{net_path}.transmitters"))
            ),
            receivers=tuple(
                _parse_receiver(r, net_id, f"{net_path}.receivers[{j}]")
                for j, r in enumerate(_list(net_obj.get("receivers", []), f"{net_path}.receivers"))
            ),
        ))

    scenario = validate_scenario(Scenario(
        grid=grid,
        dims=dims,
        bounds=bounds,
        propagation=_parse_propagation(data.get("propagation"), f"{source}.propagation"),
        networks=tuple(networks),
    ))
    requests = tuple(
        _parse_request(r, f"{source}.requests[{i}]")
        for i, r in enumerate(_list(data.get("requests", []), f"{source}.requests"))
    )
    return ScenarioDocument(
        scenario=scenario,
        requests=requests,
        policy=_parse_policy(data.get("policy"), f"{source}.policy"),
    )


def load_document(path) -> ScenarioDocument:
    """Parse and validate a scenario file. I/O errors propagate as OSError."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioFormatError(f"{path}: line {exc.lineno} column {exc.colno}: {exc.msg}") from exc
    except ValueError as exc:  # the interpreter's limit on integer digits
        raise ScenarioFormatError(f"{path}: an integer literal is too long to parse") from exc
    return parse_document(data, source=str(path))


def load_scenario(path) -> Scenario:
    return load_document(path).scenario


def _pattern_to_dict(pattern: AntennaPattern) -> dict:
    if pattern.kind == OMNI_KIND:
        return {"kind": OMNI_KIND}
    return {
        "kind": pattern.kind,
        "boresight_deg": pattern.boresight_deg,
        "beamwidth_deg": pattern.beamwidth_deg,
        "main_gain_db": pattern.main_gain_db,
        "back_gain_db": pattern.back_gain_db,
    }


def scenario_to_dict(scenario: Scenario) -> dict:
    """Canonical document form of a scenario; parses back to an equal object."""
    prop = scenario.propagation
    prop_dict = {
        "model": prop.model,
        "reference_distance_m": prop.reference_distance_m,
        "reference_loss_db": prop.reference_loss_db,
        "min_distance_clamp_m": prop.min_distance_clamp_m,
    }
    if prop.model == LOG_DISTANCE:
        prop_dict["path_loss_exponent"] = prop.path_loss_exponent
    return {
        "grid": {
            "origin": list(scenario.grid.origin),
            "cell_size": scenario.grid.cell_size,
            "n_x": scenario.grid.n_x,
            "n_y": scenario.grid.n_y,
        },
        "bounds": {
            "p_max_dbm": scenario.bounds.p_max_dbm,
            "p_min_dbm": scenario.bounds.p_min_dbm,
        },
        "dims": {
            "bands": scenario.dims.b_hat,
            "quanta": scenario.dims.t_hat,
            "band_width_hz": scenario.dims.band_width_hz,
            "quantum_duration_s": scenario.dims.quantum_duration_s,
        },
        "propagation": prop_dict,
        "networks": [
            {
                "id": net.id,
                "transmitters": [
                    {
                        "id": tx.id,
                        "position": list(tx.position),
                        "tx_power_dbm": tx.tx_power_dbm,
                        "band": tx.band,
                        "quanta": sorted(tx.quanta),
                        "pattern": _pattern_to_dict(tx.pattern),
                    }
                    for tx in net.transmitters
                ],
                "receivers": [
                    {
                        "id": rx.id,
                        "position": list(rx.position),
                        "band": rx.band,
                        "quanta": sorted(rx.quanta),
                        "beta_db": rx.beta_db,
                        "noise_floor_dbm": rx.noise_floor_dbm,
                        "linked_tx": rx.linked_tx_id,
                        "pattern": _pattern_to_dict(rx.pattern),
                    }
                    for rx in net.receivers
                ],
            }
            for net in scenario.networks
        ],
    }


def document_to_dict(doc: ScenarioDocument) -> dict:
    data = scenario_to_dict(doc.scenario)
    data["requests"] = [
        {
            "id": req.request_id,
            "position": list(req.position),
            "desired_dbm": req.desired_dbm,
            "min_useful_dbm": req.min_useful_dbm,
            "required_bands": req.required_bands,
            "acceptable_bands": sorted(req.acceptable_bands),
            "quanta": sorted(req.quanta),
            "priority": req.priority,
        }
        for req in doc.requests
    ]
    data["policy"] = {
        "margin_db": doc.policy.margin_db,
        "sensitivity_dbm": doc.policy.sensitivity_dbm,
        "tolerance_db": doc.policy.tolerance_db,
        "price_rate": doc.policy.price_rate,
        "price_rates": [
            {"band": b, "quantum": q, "rate": r} for b, q, r in doc.policy.price_rates
        ],
    }
    return data


def export_field(field: PowerField, path) -> None:
    """Write a power field as a CSV raster.

    One header comment line, then n_y rows of n_x values at 4 decimal places;
    row 0 is the minimum-y edge. Output is byte-stable across runs. Each
    value is ``%.4f``, the formatter behind ``format(v, ".4f")``, so both
    give the same bytes, -0.0000 included; rows are written one at a time.
    """
    values = np.asarray(field.values_dbm, dtype=float)
    row_format = ",".join(["%.4f"] * values.shape[1])
    with _replacing(path) as fh:
        fh.write(f"# band={field.band} quantum={field.quantum} unit=dBm\n")
        for row in values:
            fh.write(row_format % tuple(row.tolist()) + "\n")


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


def write_report(report: dict, path) -> None:
    """Serialize a report dict as deterministic JSON."""
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
