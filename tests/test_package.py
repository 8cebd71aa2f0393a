"""The package's public surface: the names ``spectrumspace`` exports and where each is defined.

Names of ``admission`` and ``policy`` resolve on first access (PEP 562), so a
process that never admits never loads those modules. To a caller they must
behave as eager names do: the defining module's own object, listed by
``dir()`` and ``__all__``.
"""

import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

import spectrumspace

# Every name the package exported while it imported all six modules eagerly,
# by the module that defines it now.
EXPORTS = {
    "model": [
        "OMNI", "AccessRequest", "AntennaPattern", "Grid", "PowerBounds", "Receiver", "RFNetwork",
        "Scenario", "ScenarioValidationError", "SpectrumSpaceDims", "Transmitter", "db_to_linear",
        "linear_to_db", "validate_scenario", "validation_errors",
    ],
    "propagation": ["FREE_SPACE", "LOG_DISTANCE", "PropagationConfig", "link_gain_db", "path_loss_db"],
    "quantify": [
        "ConsumptionSpace", "HarvestMetrics", "LinkBudget", "PowerField", "PriceSheet",
        "SpectrumQuantity", "aggregate_opportunity", "available_spectrum", "combine_consumption",
        "denied_consumption", "harvest_metrics", "occupancy_at_cell", "occupancy_linear",
        "occupancy_map", "opportunity_at_cell", "opportunity_map", "price", "quantify",
        "receiver_accounting", "receiver_margin_linear", "rx_consumption", "sinr_db",
        "total_spectrum", "tx_consumption",
    ],
    "scenario_io": [
        "PolicyParams", "ScenarioDocument", "ScenarioFormatError", "document_to_dict", "export_field",
        "load_document", "load_scenario", "parse_document", "scenario_to_dict",
    ],
    "admission": [
        "AdmissionOutcome", "PolicyComparison", "PolicySummary", "RequestOutcome", "admit_osa",
        "admit_quantified", "compare_policies", "rights_register",
    ],
    "policy": [
        "Grant", "Refusal", "RightsRequest", "Violation", "apply_guard_margin",
        "attribute_harmful_interference", "define_rights", "enforce",
    ],
}
NAMES = [(module, name) for module, names in EXPORTS.items() for name in names]
SRC = Path(spectrumspace.__file__).resolve().parents[1]


def run_fresh(code: str) -> None:
    """Run ``code`` in a fresh interpreter on this package; it fails by raising."""
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            env={**os.environ, "PYTHONPATH": str(SRC)})
    assert result.returncode == 0, result.stderr


@pytest.mark.parametrize("module, name", NAMES, ids=[name for _, name in NAMES])
def test_each_export_is_its_defining_modules_object(module, name):
    defining = importlib.import_module(f"spectrumspace.{module}")
    assert getattr(spectrumspace, name) is getattr(defining, name)
    assert name in defining.__all__


def test_all_and_dir_list_every_export():
    names = {name for _, name in NAMES}
    assert len(NAMES) == len(names) == 69
    assert set(spectrumspace.__all__) == names
    assert names <= set(dir(spectrumspace))
    run_fresh(
        "import spectrumspace\n"
        "assert 'Grant' not in vars(spectrumspace) and 'Grant' in dir(spectrumspace)\n"
        "assert set(spectrumspace.__all__) <= set(dir(spectrumspace))\n"
    )


def test_moved_records_are_re_exported_by_their_old_modules():
    from spectrumspace import admission, model, policy
    from spectrumspace.admission import AccessRequest
    from spectrumspace.policy import PriceSheet, price

    assert AccessRequest is admission.AccessRequest is model.AccessRequest
    # the package's ``quantify`` attribute is the function, so the module comes from importlib
    quantify_module = importlib.import_module("spectrumspace.quantify")
    assert PriceSheet is quantify_module.PriceSheet and price is quantify_module.price
    assert {"PriceSheet", "price"} <= set(policy.__all__)
    assert "AccessRequest" in admission.__all__


def test_quantify_is_the_function_once_every_module_is_loaded():
    import spectrumspace.cli  # noqa: F401  (loads the quantify module as well)
    from spectrumspace import quantify

    assert inspect.isfunction(quantify) and quantify.__module__ == "spectrumspace.quantify"
    run_fresh(
        "import inspect, spectrumspace.cli, spectrumspace.admission, spectrumspace.policy\n"
        "from spectrumspace import quantify\n"
        "assert inspect.isfunction(quantify), quantify\n"
    )


def test_a_lazy_name_loads_only_its_own_module():
    run_fresh(
        "import sys, spectrumspace\n"
        "assert 'spectrumspace.policy' not in sys.modules\n"
        "grant = spectrumspace.Grant\n"
        "assert 'spectrumspace.policy' in sys.modules and 'spectrumspace.admission' not in sys.modules\n"
        "assert vars(spectrumspace)['Grant'] is grant is sys.modules['spectrumspace.policy'].Grant\n"
        "from spectrumspace import admit_quantified\n"
        "assert admit_quantified is sys.modules['spectrumspace.admission'].admit_quantified\n"
    )


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        spectrumspace.no_such_name
    with pytest.raises(ImportError):
        from spectrumspace import no_such_name  # noqa: F401
