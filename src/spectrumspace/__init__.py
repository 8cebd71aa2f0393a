"""Quantified spectrum sharing over a discretized space-frequency-time grid.

The package measures spectrum as a physical quantity (watt square meters):
occupancy and opportunity fields over a square grid, consumption accounting
per transceiver, rights definition with guard margins and enforcement, and a
sequential admission mechanism with a listen-before-talk baseline to compare
against.
"""

from .admission import (
    AccessRequest,
    AdmissionOutcome,
    PolicyComparison,
    PolicySummary,
    RequestOutcome,
    admit_osa,
    admit_quantified,
    compare_policies,
    rights_register,
)
from .model import (
    OMNI,
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
from .policy import (
    Grant,
    PriceSheet,
    Refusal,
    RightsRequest,
    Violation,
    apply_guard_margin,
    attribute_harmful_interference,
    define_rights,
    enforce,
    price,
)
from .propagation import (
    FREE_SPACE,
    LOG_DISTANCE,
    PropagationConfig,
    link_gain_db,
    path_loss_db,
)
from .quantify import (
    ConsumptionSpace,
    HarvestMetrics,
    LinkBudget,
    PowerField,
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
