"""Quantified spectrum sharing over a discretized space-frequency-time grid.

The package measures spectrum as a physical quantity (watt square meters):
occupancy and opportunity fields over a square grid, consumption accounting
per transceiver, rights definition with guard margins and enforcement, and a
sequential admission mechanism with a listen-before-talk baseline to compare
against.

Admission and rights (the ``admission`` and ``policy`` modules) load on
first use of one of their names, so a process that only measures fields or
reads documents never compiles them.
"""

from importlib import import_module

from .model import (
    OMNI,
    AccessRequest,
    AntennaPattern,
    Grid,
    PowerBounds,
    Receiver,
    RFNetwork,
    Scenario,
    ScenarioValidationError,
    SpectrumSpaceDims,
    Transmitter,
    db_to_linear,
    linear_to_db,
    validate_scenario,
    validation_errors,
)
from .propagation import (
    FREE_SPACE,
    LOG_DISTANCE,
    PropagationConfig,
    link_gain_db,
)
from .quantify import (
    ConsumptionSpace,
    HarvestMetrics,
    LinkBudget,
    PowerField,
    PriceSheet,
    SpectrumQuantity,
    aggregate_opportunity,
    available_spectrum,
    combine_consumption,
    denied_consumption,
    harvest_metrics,
    occupancy_at_cell,
    occupancy_linear,
    occupancy_map,
    opportunity_at_cell,
    opportunity_map,
    price,
    quantify,
    receiver_accounting,
    receiver_margin_linear,
    rx_consumption,
    sinr_db,
    total_spectrum,
    tx_consumption,
)
from .scenario_io import (
    PolicyParams,
    ScenarioDocument,
    ScenarioFormatError,
    document_to_dict,
    export_field,
    load_document,
    load_scenario,
    parse_document,
    scenario_to_dict,
)

__version__ = "0.1.0"

# Names resolved on first access (PEP 562): each maps to its defining module.
_LAZY = {
    **dict.fromkeys([
        "AdmissionOutcome",
        "PolicyComparison",
        "PolicySummary",
        "RequestOutcome",
        "admit_osa",
        "admit_quantified",
        "compare_policies",
        "rights_register",
    ], "admission"),
    **dict.fromkeys([
        "Grant",
        "Refusal",
        "RightsRequest",
        "Violation",
        "apply_guard_margin",
        "attribute_harmful_interference",
        "define_rights",
        "enforce",
    ], "policy"),
}

__all__ = sorted([
    "OMNI", "AccessRequest", "AntennaPattern", "Grid", "PowerBounds", "Receiver", "RFNetwork",
    "Scenario", "ScenarioValidationError", "SpectrumSpaceDims", "Transmitter", "db_to_linear",
    "linear_to_db", "validate_scenario", "validation_errors",
    "FREE_SPACE", "LOG_DISTANCE", "PropagationConfig", "link_gain_db",
    "ConsumptionSpace", "HarvestMetrics", "LinkBudget", "PowerField", "PriceSheet",
    "SpectrumQuantity", "aggregate_opportunity", "available_spectrum", "combine_consumption",
    "denied_consumption", "harvest_metrics", "occupancy_at_cell", "occupancy_linear",
    "occupancy_map", "opportunity_at_cell", "opportunity_map", "price", "quantify",
    "receiver_accounting", "receiver_margin_linear", "rx_consumption", "sinr_db",
    "total_spectrum", "tx_consumption",
    "PolicyParams", "ScenarioDocument", "ScenarioFormatError", "document_to_dict",
    "export_field", "load_document", "load_scenario", "parse_document", "scenario_to_dict",
    *_LAZY,
])


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_LAZY))
