import contextlib
import io
import json
import math
import subprocess
import sys
from dataclasses import replace
from functools import reduce
from operator import getitem, mul
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from spectrumspace import (
    FREE_SPACE,
    AccessRequest,
    Grant,
    PolicySummary,
    PowerField,
    PropagationConfig,
    Refusal,
    RequestOutcome,
    ScenarioValidationError,
    SpectrumQuantity,
    Violation,
)
from spectrumspace import scenario_io
from spectrumspace.scenario_io import (
    PolicyParams,
    PriceRate,
    ScenarioDocument,
    ScenarioFormatError,
    document_to_dict,
    export_field,
    format_number,
    load_document,
    load_scenario,
    parse_document,
    quantity_to_dict,
    record_to_dict,
    report_to_dict,
    scenario_to_dict,
    write_report,
)
from spectrumspace.model import MAX_CELLS, MAX_SLICES

from helpers import BOUNDS, o_field_csv, random_requests, random_scenario, sectored_scenario

CAMPUS = Path(__file__).resolve().parents[1] / "demos" / "scenarios" / "campus.json"

MINIMAL = {
    "grid": {"origin": [0.0, 0.0], "cell_size": 100.0, "n_x": 12, "n_y": 1},
    "bounds": {"p_max_dbm": 30.0, "p_min_dbm": -125.0},
}

FULL = {
    **MINIMAL,
    "dims": {"bands": 2, "quanta": 2, "band_width_hz": 5e6, "quantum_duration_s": 0.5},
    "propagation": {"model": "log-distance", "path_loss_exponent": 2.7,
                    "reference_distance_m": 1.0, "reference_loss_db": 42.0,
                    "min_distance_clamp_m": 2.0},
    "networks": [
        {
            "id": "a",
            "transmitters": [
                {"id": "a-tx", "position": [50.0, 50.0], "tx_power_dbm": 30.0,
                 "band": 0, "quanta": [0, 1],
                 "pattern": {"kind": "sectored", "boresight_deg": 10.0,
                             "beamwidth_deg": 90.0, "main_gain_db": 6.0,
                             "back_gain_db": -20.0}},
            ],
            "receivers": [
                {"id": "a-rx", "position": [150.0, 50.0], "band": 0, "quanta": [0, 1],
                 "beta_db": 10.0, "noise_floor_dbm": -100.0, "linked_tx": "a-tx"},
            ],
        },
        {
            "id": "b",
            "transmitters": [
                {"id": "b-tx", "position": [650.0, 50.0], "tx_power_dbm": 12.0,
                 "band": 1, "quanta": [1]},
            ],
        },
    ],
    "requests": [
        {"id": "r1", "position": [250.0, 50.0], "desired_dbm": 20.0,
         "min_useful_dbm": -10.0, "required_bands": 1, "acceptable_bands": [0, 1],
         "quanta": [0], "priority": 2},
    ],
    "policy": {"margin_db": 3.0, "sensitivity_dbm": -85.0, "tolerance_db": 1.0,
               "price_rate": 0.5,
               "price_rates": [{"band": 0, "quantum": 0, "rate": 2.0}]},
}


def _paths(value, prefix=()):
    """Every path into a JSON value, the root included, as key/index tuples."""
    yield prefix
    if isinstance(value, dict):
        for key, child in value.items():
            yield from _paths(child, prefix + (key,))
    elif isinstance(value, list):
        for i, child in enumerate(value):
            yield from _paths(child, prefix + (i,))


# JSON integers have no size limit; about half the values drawn lie beyond
# the float range (about 1.8e308), where float() overflows.
HUGE_INTEGERS = st.builds(mul, st.sampled_from((1, -1)),
                          st.integers(min_value=2**1024, max_value=10**400))
JSON_VALUES = HUGE_INTEGERS | st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=4), children, max_size=3),
    max_leaves=6,
)


class TestParseDocument:
    def test_minimal_document(self):
        doc = parse_document(MINIMAL)
        scn = doc.scenario
        assert scn.networks == ()
        assert (scn.grid.n_x, scn.grid.n_y, scn.grid.cell_size) == (12, 1, 100.0)
        assert (scn.dims.b_hat, scn.dims.t_hat) == (1, 1)
        assert scn.propagation.model == "log-distance"
        assert scn.propagation.path_loss_exponent == 2.0
        assert doc.requests == ()
        assert doc.policy == PolicyParams()

    @pytest.mark.parametrize("section, key", [("grid", "n_x"), ("grid", "n_y"), ("dims", "bands"), ("dims", "quanta")])
    def test_an_oversized_campus_is_refused_at_parse(self, section, key):
        data = json.loads(CAMPUS.read_text())
        data[section][key] = 10**12
        with pytest.raises(ScenarioValidationError, match="exceeds the limit") as err:
            parse_document(data)
        assert len(err.value.errors) == 1

    def test_a_campus_at_both_size_limits_parses(self):
        data = json.loads(CAMPUS.read_text())
        data["grid"].update(n_x=1024, n_y=1024)
        data["dims"].update(bands=254, quanta=2)
        scn = parse_document(data).scenario
        assert (scn.grid.a_hat, scn.dims.b_hat * scn.dims.t_hat) == (MAX_CELLS, MAX_SLICES)

    def test_full_document(self):
        doc = parse_document(FULL)
        scn = doc.scenario
        assert {net.id for net in scn.networks} == {"a", "b"}
        tx = scn.transmitter("a-tx")
        assert tx.pattern.kind == "sectored"
        assert tx.pattern.main_gain_db == 6.0
        assert scn.receiver("a-rx").linked_tx_id == "a-tx"
        assert scn.propagation.path_loss_exponent == 2.7
        assert scn.dims.band_width_hz == 5e6
        assert doc.requests == (AccessRequest(
            request_id="r1", position=(250.0, 50.0), desired_dbm=20.0,
            min_useful_dbm=-10.0, required_bands=1,
            acceptable_bands=frozenset({0, 1}), quanta=frozenset({0}), priority=2),)
        assert doc.policy.margin_db == 3.0
        assert doc.policy.price_rates == ((0, 0, 2.0),)

    def test_round_trip_is_identity(self):
        doc = parse_document(FULL)
        again = parse_document(document_to_dict(doc))
        assert again.scenario == doc.scenario
        assert again.requests == doc.requests
        assert again.policy == doc.policy

    def test_canonical_dict_is_stable(self):
        doc = parse_document(FULL)
        first = document_to_dict(doc)
        second = document_to_dict(parse_document(first))
        assert first == second

    def test_unknown_top_level_field(self):
        with pytest.raises(ScenarioFormatError, match="'foo'"):
            parse_document({**MINIMAL, "foo": 1})

    def test_unknown_nested_field_carries_its_path(self):
        data = json.loads(json.dumps(FULL))
        data["networks"][0]["transmitters"][0]["power"] = 10
        with pytest.raises(ScenarioFormatError,
                           match=r"networks\[0\].transmitters\[0\].*'power'"):
            parse_document(data)

    def test_missing_required_fields(self):
        with pytest.raises(ScenarioFormatError, match="missing required field 'grid'"):
            parse_document({"bounds": MINIMAL["bounds"]})
        broken = {"grid": MINIMAL["grid"], "bounds": {"p_max_dbm": 30.0}}
        with pytest.raises(ScenarioFormatError, match="'p_min_dbm'"):
            parse_document(broken)

    def test_booleans_are_not_numbers(self):
        data = json.loads(json.dumps(FULL))
        data["networks"][0]["transmitters"][0]["tx_power_dbm"] = True
        with pytest.raises(ScenarioFormatError, match="expected a number"):
            parse_document(data)
        bad_count = json.loads(json.dumps(MINIMAL))
        bad_count["grid"]["n_x"] = True
        with pytest.raises(ScenarioFormatError, match="expected an integer"):
            parse_document(bad_count)

    def test_non_finite_numbers_rejected(self):
        data = json.loads(json.dumps(MINIMAL))
        data["bounds"]["p_max_dbm"] = float("inf")
        with pytest.raises(ScenarioFormatError, match="finite"):
            parse_document(data)
        data["bounds"]["p_max_dbm"] = 10**400
        with pytest.raises(ScenarioFormatError, match=r"bounds\.p_max_dbm: integer too large"):
            parse_document(data)

    def test_malformed_position(self):
        data = json.loads(json.dumps(FULL))
        data["networks"][0]["transmitters"][0]["position"] = [1.0]
        with pytest.raises(ScenarioFormatError, match=r"expected \[x, y\]"):
            parse_document(data)

    def test_free_space_refuses_an_exponent(self):
        data = json.loads(json.dumps(MINIMAL))
        data["propagation"] = {"model": "free-space", "path_loss_exponent": 3.0}
        with pytest.raises(ScenarioFormatError, match="'path_loss_exponent'"):
            parse_document(data)

    def test_unknown_pattern_kind(self):
        data = json.loads(json.dumps(FULL))
        data["networks"][0]["transmitters"][0]["pattern"] = {"kind": "dish"}
        with pytest.raises(ScenarioFormatError, match="'dish'"):
            parse_document(data)

    def test_omni_pattern_takes_no_shape_fields(self):
        data = json.loads(json.dumps(FULL))
        data["networks"][0]["transmitters"][0]["pattern"] = {
            "kind": "omni", "beamwidth_deg": 90.0}
        with pytest.raises(ScenarioFormatError, match="'beamwidth_deg'"):
            parse_document(data)

    def test_validation_failures_are_forwarded_together(self):
        data = json.loads(json.dumps(FULL))
        data["networks"][0]["transmitters"][0]["tx_power_dbm"] = 40.0
        data["networks"][0]["receivers"][0]["linked_tx"] = "ghost"
        with pytest.raises(ScenarioValidationError) as err:
            parse_document(data)
        text = str(err.value)
        assert "power above p_max" in text
        assert "dangling link" in text

    @pytest.mark.parametrize("policy, named", [
        ({"price_rates": [{"band": 2, "quantum": 0, "rate": 1.0}]},
         "policy.price_rates[0].band: 2 out of range [0, 2)"),
        ({"price_rates": [{"band": -1, "quantum": 0, "rate": 1.0}]},
         "policy.price_rates[0].band: -1 out of range [0, 2)"),
        ({"price_rates": [{"band": 0, "quantum": 2, "rate": 1.0}]},
         "policy.price_rates[0].quantum: 2 out of range [0, 2)"),
        ({"price_rates": [{"band": 0, "quantum": 0, "rate": 1.0}, {"band": 0, "quantum": 0, "rate": 7.0}]},
         "policy.price_rates[1]: slice (0, 0) is already priced by policy.price_rates[0]"),
        ({"price_rates": [{"band": 0, "quantum": 0, "rate": -1.0}]},
         "policy.price_rates[0].rate: must be non-negative (got -1.0)"),
        ({"price_rate": -0.5}, "policy.price_rate: must be non-negative (got -0.5)"),
        ({"margin_db": -1.0}, "policy.margin_db: must be non-negative (got -1.0)"),
    ])
    def test_a_policy_breaking_a_rule_is_refused_naming_the_field(self, policy, named):
        data = json.loads(json.dumps(FULL))
        data["policy"].update(policy)
        with pytest.raises(ScenarioValidationError) as err:
            parse_document(data)
        assert err.value.errors == [named]

    def test_a_negative_tolerance_is_refused(self):
        # enforce flagged an entrant at its cap under a negative tolerance
        data = json.loads(json.dumps(FULL))
        data["policy"]["tolerance_db"] = -1.0
        with pytest.raises(ScenarioValidationError) as err:
            parse_document(data)
        assert err.value.errors == ["policy.tolerance_db: must be non-negative (got -1.0)"]

    def test_every_policy_problem_is_listed_together(self):
        data = json.loads(json.dumps(FULL))
        data["policy"].update(margin_db=-3.0, price_rate=-1.0, price_rates=[
            {"band": 0, "quantum": 1, "rate": 1.0},
            {"band": 5, "quantum": -2, "rate": -4.0},
            {"band": 0, "quantum": 1, "rate": 2.0},
        ])
        with pytest.raises(ScenarioValidationError) as err:
            parse_document(data)
        assert err.value.errors == [
            "policy.margin_db: must be non-negative (got -3.0)",
            "policy.price_rate: must be non-negative (got -1.0)",
            "policy.price_rates[1].band: 5 out of range [0, 2)",
            "policy.price_rates[1].quantum: -2 out of range [0, 2)",
            "policy.price_rates[1].rate: must be non-negative (got -4.0)",
            "policy.price_rates[2]: slice (0, 1) is already priced by policy.price_rates[0]",
        ]

    def test_zero_rates_and_margin_and_every_slice_priced_once_parse(self):
        data = json.loads(json.dumps(FULL))
        data["policy"].update(margin_db=0.0, price_rate=0.0, price_rates=[
            {"band": b, "quantum": q, "rate": 0.0} for b in range(2) for q in range(2)])
        assert len(parse_document(data).policy.price_rates) == 4

    @given(st.sampled_from(list(_paths(FULL))), JSON_VALUES)
    def test_any_value_anywhere_parses_or_is_rejected(self, path, value):
        # A valid document with one node swapped for an arbitrary JSON value
        # gets past the top-level type checks into every field parser.
        data = json.loads(json.dumps(FULL))
        if path:
            reduce(getitem, path[:-1], data)[path[-1]] = value
        else:
            data = value
        try:
            doc = parse_document(data)
        except (ScenarioFormatError, ScenarioValidationError):
            return
        assert parse_document(json.loads(json.dumps(document_to_dict(doc)))) == doc

    @pytest.mark.parametrize("seed", range(40))
    @pytest.mark.parametrize("world", [random_scenario, sectored_scenario],
                             ids=lambda world: world.__name__)
    def test_generated_documents_round_trip_through_json(self, world, seed):
        scenario = world(seed)
        propagation = (PropagationConfig(model=FREE_SPACE, reference_loss_db=30.0) if seed % 2
                       else PropagationConfig(path_loss_exponent=2.7, min_distance_clamp_m=2.0))
        scenario = replace(scenario, propagation=propagation)
        dims = scenario.dims
        rates = tuple(PriceRate(b, q, 0.25 + b + q / 3.0)
                      for b in range(dims.b_hat) for q in range(dims.t_hat))
        doc = ScenarioDocument(
            scenario=scenario,
            requests=tuple(random_requests(seed, scenario)),
            policy=PolicyParams(margin_db=1.5, price_rate=0.5, price_rates=rates),
        )
        assert parse_document(json.loads(json.dumps(document_to_dict(doc)))) == doc

    def test_null_objects_are_absent_and_null_lists_are_errors(self):
        def with_null(path):
            data = json.loads(json.dumps(FULL))
            reduce(getitem, path[:-1], data)[path[-1]] = None
            return data

        def without(path):
            data = json.loads(json.dumps(FULL))
            del reduce(getitem, path[:-1], data)[path[-1]]
            return data

        for path in [("propagation",), ("policy",), ("networks", 0, "transmitters", 0, "pattern")]:
            assert parse_document(with_null(path)) == parse_document(without(path))
        with pytest.raises(ScenarioValidationError) as absent:
            parse_document(without(("dims",)))
        with pytest.raises(ScenarioValidationError) as null:
            parse_document(with_null(("dims",)))
        assert str(null.value) == str(absent.value)
        for path in [("networks",), ("requests",), ("networks", 0, "transmitters"),
                     ("networks", 0, "receivers"), ("policy", "price_rates")]:
            with pytest.raises(ScenarioFormatError, match="expected a list, got NoneType"):
                parse_document(with_null(path))
        with pytest.raises(ScenarioFormatError, match=r"grid: expected an object, got NoneType"):
            parse_document(with_null(("grid",)))


def _dotted(path) -> str:
    return ".".join(map(str, path))


def _error_path(path) -> str:
    """The field path a parse error names for a key path into a document."""
    return "document" + "".join(f"[{p}]" if isinstance(p, int) else f".{p}" for p in path)


# Every key of FULL that a document may leave out, with the value its absence
# stands for. Each of the other 42 keys is required.
OPTIONAL = {
    "dims": {"bands": 1, "quanta": 1, "band_width_hz": 1.0, "quantum_duration_s": 1.0},
    "dims.bands": 1,
    "dims.quanta": 1,
    "dims.band_width_hz": 1.0,
    "dims.quantum_duration_s": 1.0,
    "propagation": {"model": "log-distance", "path_loss_exponent": 2.0,
                    "reference_distance_m": 1.0, "reference_loss_db": 40.0,
                    "min_distance_clamp_m": 1.0},
    "propagation.model": "log-distance",
    "propagation.path_loss_exponent": 2.0,
    "propagation.reference_distance_m": 1.0,
    "propagation.reference_loss_db": 40.0,
    "propagation.min_distance_clamp_m": 1.0,
    "networks": [],
    "networks.0.transmitters": [],
    "networks.0.transmitters.0.pattern": {"kind": "omni"},
    "networks.0.receivers": [],
    "networks.1.transmitters": [],
    "requests": [],
    "requests.0.priority": 0,
    "policy": {"margin_db": 0.0, "sensitivity_dbm": -90.0, "tolerance_db": 0.5,
               "price_rate": 0.0, "price_rates": []},
    "policy.margin_db": 0.0,
    "policy.sensitivity_dbm": -90.0,
    "policy.tolerance_db": 0.5,
    "policy.price_rate": 0.0,
    "policy.price_rates": [],
}
KEYS = [path for path in _paths(FULL) if path and isinstance(path[-1], str)]


class TestRequiredness:
    def test_every_key_of_full_is_classified(self):
        assert set(OPTIONAL) <= {_dotted(path) for path in KEYS}
        assert (len(KEYS) - len(OPTIONAL), len(OPTIONAL)) == (42, 24)

    @pytest.mark.parametrize("path", [p for p in KEYS if _dotted(p) not in OPTIONAL], ids=_dotted)
    def test_a_required_key_cannot_be_left_out(self, path):
        data = json.loads(json.dumps(FULL))
        del reduce(getitem, path[:-1], data)[path[-1]]
        with pytest.raises(ScenarioFormatError) as err:
            parse_document(data)
        assert str(err.value) == f"{_error_path(path[:-1])}: missing required field {path[-1]!r}"

    @pytest.mark.parametrize("path", [p for p in KEYS if _dotted(p) in OPTIONAL], ids=_dotted)
    def test_an_optional_key_stands_for_its_default(self, path):
        absent = json.loads(json.dumps(FULL))
        del reduce(getitem, path[:-1], absent)[path[-1]]
        explicit = json.loads(json.dumps(FULL))
        reduce(getitem, path[:-1], explicit)[path[-1]] = OPTIONAL[_dotted(path)]
        try:
            expected = parse_document(explicit)
        except ScenarioValidationError as err:
            # the default itself breaks the scenario, as one band does for FULL
            with pytest.raises(ScenarioValidationError) as absent_err:
                parse_document(absent)
            assert str(absent_err.value) == str(err)
        else:
            assert parse_document(absent) == expected


class TestLoadDocument:
    def test_load_and_validate(self, tmp_path):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(FULL))
        scn = load_scenario(path)
        assert scn == parse_document(FULL).scenario

    def test_missing_file_is_an_io_error(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_document(tmp_path / "nope.json")

    def test_malformed_json_carries_line_info(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"grid": }')
        with pytest.raises(ScenarioFormatError, match="line 1 column 10"):
            load_document(path)

    def test_duplicate_keys_are_rejected_with_file_and_key(self, tmp_path):
        # a second bounds block would otherwise replace the first one unseen
        path = tmp_path / "twice.json"
        text = json.dumps(MINIMAL)
        path.write_text(text[:-1] + ', "bounds": {"p_max_dbm": -200.0, "p_min_dbm": 0.0}}')
        with pytest.raises(ScenarioFormatError, match=r"twice\.json: duplicate key 'bounds'"):
            load_document(path)
        data = json.loads(json.dumps(FULL))
        data["requests"][0]["priority"] = "DUPLICATE"
        path.write_text(json.dumps(data).replace('"priority": "DUPLICATE"',
                                                 '"priority": 1, "priority": 2'))
        with pytest.raises(ScenarioFormatError, match=r"twice\.json: duplicate key 'priority'"):
            load_document(path)


class TestExportField:
    def test_single_cell_raster(self, tmp_path):
        path = tmp_path / "field.csv"
        export_field(PowerField(0, 0, np.full((1, 1), -125.0)), path)
        assert path.read_bytes() == b"# band=0 quantum=0 unit=dBm\n-125.0000\n"

    def test_uniform_two_by_two(self, tmp_path):
        path = tmp_path / "field.csv"
        export_field(PowerField(1, 2, np.full((2, 2), 30.0)), path)
        assert path.read_bytes() == (
            b"# band=1 quantum=2 unit=dBm\n30.0000,30.0000\n30.0000,30.0000\n")

    def test_row_zero_is_minimum_y(self, tmp_path):
        path = tmp_path / "field.csv"
        export_field(PowerField(0, 0, np.array([[1.0, 2.0], [3.0, 4.0]])), path)
        lines = path.read_text().splitlines()
        assert lines[1] == "1.0000,2.0000"
        assert lines[2] == "3.0000,4.0000"

    def test_re_export_is_byte_identical(self, tmp_path):
        values = np.linspace(-125.0, 30.0, 12).reshape(3, 4)
        first, second = tmp_path / "one.csv", tmp_path / "two.csv"
        export_field(PowerField(0, 0, values), first)
        export_field(PowerField(0, 0, values), second)
        assert first.read_bytes() == second.read_bytes()


# Values where a 4-decimal formatter could go wrong: half-unit ties, values
# that round to -0.0000, the power bounds, and extreme magnitudes.
CSV_VALUES = st.one_of(
    st.integers(-2_000_000, 2_000_000).map(lambda k: k * 1e-4 + 5e-5),
    st.sampled_from([0.0, -0.0, -1e-9, 1e-9, -4.99999e-5, 4.99999e-5, -5e-5, 5e-5,
                     BOUNDS.p_min_dbm, BOUNDS.p_max_dbm]),
    st.sampled_from([1e300, -1e300, 1.7976931348623157e308, 5e-324, -5e-324, 1e-300]),
    st.floats(),
)


@st.composite
def csv_fields(draw):
    n_y, n_x = draw(st.integers(1, 4)), draw(st.integers(1, 5))
    cells = draw(st.lists(CSV_VALUES, min_size=n_y * n_x, max_size=n_y * n_x))
    return PowerField(draw(st.integers(0, 3)), draw(st.integers(0, 3)),
                      np.array(cells, dtype=float).reshape(n_y, n_x))


class TestExportFieldBytes:
    @given(csv_fields())
    @example(PowerField(0, 0, np.array([[-0.0, -1e-9, -4.99999e-5, 0.00015, 0.00025]])))
    @example(PowerField(0, 0, np.array([[BOUNDS.p_min_dbm], [BOUNDS.p_max_dbm], [1e300]])))
    @example(PowerField(2, 1, np.array([[5e-324]])))
    def test_writes_exactly_the_oracle_bytes(self, tmp_path_factory, field):
        path = tmp_path_factory.mktemp("csv") / "field.csv"
        export_field(field, path)
        assert path.read_bytes() == o_field_csv(field)


# In a raster of at least one block, export_field lays a row out in numpy
# only when every cell is finite, below about 838.86 in magnitude and not at
# or near a .5 tie in ten-thousandths; any other row goes through %.4f.
# These are the largest magnitude the vector rule takes and the next float
# above it.
LARGEST_VECTOR = 838.8607499999998
ABOVE_VECTOR = float(np.nextafter(LARGEST_VECTOR, np.inf))
# one value each that sends its row to %.4f
FALLBACK_VALUES = [math.nan, math.inf, -math.inf, 1e300, -100.03125, ABOVE_VECTOR, 838.8608]
# values on the vector path that a digit layout could get wrong
VECTOR_EDGES = [0.0, -0.0, -1e-9, -4.99999e-5, 0.99996, -799.99996, 5e-324,
                LARGEST_VECTOR, -LARGEST_VECTOR]


def _block_rows(n_x: int) -> int:
    return max(1, scenario_io._BLOCK_CELLS // n_x)


def tall_field(value: float, n_x: int = 7) -> PowerField:
    """A field over three writer blocks tall, ``value`` in a row of the second block."""
    rows = _block_rows(n_x)
    values = np.random.default_rng(0).uniform(-130.0, 40.0, (3 * rows + 2, n_x))
    values[rows + 1, n_x // 2] = value
    return PowerField(1, 0, values)


@st.composite
def tall_fields(draw):
    """Fields over three writer blocks tall: dBm values, decimal half-unit ties and
    ``VECTOR_EDGES``, with a ``FALLBACK_VALUES`` cell in a row off the first and last block."""
    n_x = draw(st.integers(8, 300))  # narrower rows only make the oracle slower
    rows = _block_rows(n_x)
    n_y = draw(st.integers(3 * rows + 1, 4 * rows))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = rng.uniform(-130.0, 40.0, (n_y, n_x))
    ties = rng.random(values.shape) < 0.3
    values[ties] = rng.integers(-1_300_000, 400_000, ties.sum()) * 1e-4 + 5e-5
    edges = rng.random(values.shape) < 0.02
    values[edges] = rng.choice(VECTOR_EDGES, edges.sum())
    row, column = draw(st.integers(rows, n_y - rows - 1)), draw(st.integers(0, n_x - 1))
    values[row, column] = draw(st.sampled_from(FALLBACK_VALUES))
    return PowerField(draw(st.integers(0, 3)), draw(st.integers(0, 3)), values)


class TestExportFieldBlocks:
    @given(tall_fields())
    @example(tall_field(9999.99995)).via("carry across the four-digit split, by %.4f")
    @example(tall_field(0.99995)).via("carry into the integer digits, by %.4f")
    @example(tall_field(0.99996)).via("carry into the integer digits, in numpy")
    @example(tall_field(-4.99999e-5)).via("just below zero, rounds to -0.0000")
    @example(tall_field(-5e-5)).via("just below zero, a tie that rounds to -0.0001")
    @example(tall_field(LARGEST_VECTOR)).via("largest magnitude in numpy")
    @example(tall_field(-ABOVE_VECTOR, n_x=300)).via("next float above it")
    def test_writes_exactly_the_oracle_bytes(self, tmp_path_factory, field):
        path = tmp_path_factory.mktemp("csv") / "field.csv"
        export_field(field, path)
        assert path.read_bytes() == o_field_csv(field)

    @pytest.mark.parametrize("value", VECTOR_EDGES + [30.0, -125.0, -100.0312])
    def test_vector_rule_takes(self, value):
        assert scenario_io._ten_thousandths(np.array([[value, -125.0], [1.0, 2.0]]))[1].all()

    @pytest.mark.parametrize("value", FALLBACK_VALUES + [-5e-5, 0.99995, 9999.99995, 2.5e-4])
    def test_vector_rule_leaves_to_format(self, value):
        _, placed = scenario_io._ten_thousandths(np.array([[1.0, 2.0], [value, -125.0], [3.0, 4.0]]))
        assert placed.tolist() == [True, False, True]

    def test_digit_tables_wait_for_a_raster_of_one_block(self, tmp_path):
        code = f"""
import numpy as np, spectrumspace.cli, spectrumspace.scenario_io as io
print(io._cell_words.cache_info().currsize)
for n in (12, 63, 64):
    io.export_field(io.PowerField(0, 0, np.full((n, n), -125.0)), {str(tmp_path / "f.csv")!r})
    print(io._cell_words.cache_info().currsize)
"""
        result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
        assert result.stdout.split() == ["0", "0", "0", "1"]


class TestReportHelpers:
    def test_format_number_pins_12_significant_digits(self):
        assert format_number(1.0 / 3.0) == 0.333333333333
        assert format_number(999999.9999999997) == 1000000.0
        assert format_number(0.0) == 0.0
        assert format_number(84998.5) == 84998.5

    def test_quantity_serialization(self):
        quantity = SpectrumQuantity(6.5, {(1, 0): 2.5, (0, 0): 4.0})
        out = quantity_to_dict(quantity)
        assert out["unit"] == "W*m^2"
        assert out["value"] == 6.5
        assert out["breakdown"] == [
            {"band": 0, "quantum": 0, "value": 4.0},
            {"band": 1, "quantum": 0, "value": 2.5},
        ]
        assert "breakdown" not in quantity_to_dict(SpectrumQuantity(1.0))

    def test_write_report_deterministic(self, tmp_path):
        report = {"b": 1, "a": {"z": [1, 2], "y": 0.5}}
        one, two = tmp_path / "one.json", tmp_path / "two.json"
        write_report(report, one)
        write_report(report, two)
        assert one.read_bytes() == two.read_bytes()
        assert one.read_text().endswith("\n")
        assert json.loads(one.read_text()) == report
        assert one.read_text().index('"a"') < one.read_text().index('"b"')

    def test_failed_report_write_keeps_the_old_file(self, tmp_path):
        path = tmp_path / "report.json"
        write_report({"a": 1}, path)
        before = path.read_bytes()
        # the writer fails at the third key, after the temp file is opened
        with pytest.raises(TypeError):
            write_report({"a": 1, "b": float("nan"), "c": object()}, path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["report.json"]

    def test_failed_field_export_keeps_the_old_file(self, tmp_path):
        path = tmp_path / "field.csv"
        export_field(PowerField(0, 0, np.full((1, 2), 30.0)), path)
        before = path.read_bytes()
        with pytest.raises(ValueError):
            export_field(PowerField(0, 0, np.array([[1.0, "x"]], dtype=object)), path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["field.csv"]

    def test_failed_rename_removes_the_temp_file(self, tmp_path, monkeypatch):
        path = tmp_path / "report.json"
        write_report({"a": 1}, path)

        def refuse(src, dst):
            raise OSError("rename refused")

        monkeypatch.setattr("os.replace", refuse)
        with pytest.raises(OSError, match="rename refused"):
            write_report({"a": 2}, path)
        assert json.loads(path.read_text()) == {"a": 1}
        assert [p.name for p in tmp_path.iterdir()] == ["report.json"]

    def test_scenario_to_dict_parses_back(self):
        scn = parse_document(FULL).scenario
        assert parse_document(scenario_to_dict(scn)).scenario == scn


# json.dump's inputs: floats with their edge values (float subclasses too),
# non-ASCII and control-character strings, and dicts whose keys are all of
# one kind json accepts, or, now and then, of mixed or unsupported kinds.
JSON_FLOATS = st.one_of(
    st.floats(), st.sampled_from([-0.0, 5e-324, -2.2250738585072014e-308, math.nan, math.inf, -math.inf]),
    st.floats().map(np.float64))
JSON_ATOMS = st.one_of(st.none(), st.booleans(), st.integers(), JSON_FLOATS,
                       st.text(), st.text(st.characters(max_codepoint=0x1f)))
JSON_KEYS = [st.text(), st.integers(), JSON_FLOATS, st.booleans(), st.none()]
UNSUPPORTED = st.one_of(st.builds(object), st.sets(st.integers(), max_size=2), st.binary(max_size=2),
                        st.complex_numbers(), st.integers(-2**63, 2**63 - 1).map(np.int64))


def _json_trees(leaves):
    def containers(children):
        dicts = [st.dictionaries(keys, children, max_size=4) for keys in JSON_KEYS]
        mixed = st.dictionaries(st.one_of(*JSON_KEYS, st.tuples(st.integers())), children, max_size=3)
        return st.one_of(st.lists(children, max_size=4), st.lists(children, max_size=4).map(tuple),
                         *dicts, mixed)

    return st.recursive(leaves, containers, max_leaves=24)


def _json_dump_bytes(tree):
    out = io.StringIO()
    json.dump(tree, out, indent=2, sort_keys=True)
    return (out.getvalue() + "\n").encode("utf-8")


class TestReportWriter:
    """write_report writes json.dump(report, indent=2, sort_keys=True)'s bytes and a newline."""

    @given(tree=_json_trees(JSON_ATOMS) | _json_trees(JSON_ATOMS | UNSUPPORTED))
    @example(tree={"b": [(), {}, [[]]], "a": {1.5: -0.0, 2.0: 5e-324}, "\u00e9\n": "\x00\u2028\ud800"})
    @example(tree={"a": 1, 2: 3})
    @example(tree={(1,): 1})
    @example(tree=[object()])
    def test_bytes_equal_json_dump(self, tmp_path_factory, tree):
        path = tmp_path_factory.getbasetemp() / "writer.json"
        try:
            expected = _json_dump_bytes(tree)
        except Exception as exc:
            with pytest.raises(type(exc)):
                write_report(tree, path)
            return
        write_report(tree, path)
        assert path.read_bytes() == expected

    def test_writes_in_chunks(self, monkeypatch):
        # A long report goes out in several writes, none of them the whole text.
        writes = []

        class Recording(io.StringIO):
            def write(self, text):
                writes.append(len(text))
                return super().write(text)

        out = Recording()

        @contextlib.contextmanager
        def recording(path):
            yield out

        monkeypatch.setattr(scenario_io, "_replacing", recording)
        report = {"rows": [{"band": i, "value": i / 7.0} for i in range(5000)]}
        write_report(report, "unused.json")
        assert out.getvalue().encode() == _json_dump_bytes(report)
        assert len(writes) > 10 and max(writes) < sum(writes) / 10


def _json(value) -> str:
    return json.dumps(value, sort_keys=True)


REFUSAL = Refusal(tx_id="e", band=1, reason="no room")
REFUSAL_DICT = {"tx_id": "e", "band": 1, "reason": "no room", "limiting_rx_id": None,
                "guarded_opportunity_dbm": None}
GRANT = Grant(grant_id="grant:e:b1", grantee_tx_id="e",
              caps_dbm={(1, 1): {(3, 2): np.float64(2.0 / 3.0)}, (1, 0): {(3, 2): 2.0 / 3.0}},
              margin_db=1.0 / 3.0, issued_at=4)
GRANT_DICT = {
    "grant_id": "grant:e:b1", "grantee_tx_id": "e", "margin_db": 0.333333333333, "issued_at": 4,
    "caps": [{"band": 1, "quantum": 0, "cell": [3, 2], "cap_dbm": 0.666666666667},
             {"band": 1, "quantum": 1, "cell": [3, 2], "cap_dbm": 0.666666666667}],
}
OUTCOME = RequestOutcome(request_id="r", admitted=True, bands=(1, 0), powers_dbm=(2.0 / 3.0, -5.0),
                         grants=(GRANT,), refusals=(REFUSAL,))
OUTCOME_DICT = {"request_id": "r", "admitted": True, "bands": [1, 0],
                "powers_dbm": [0.666666666667, -5.0], "grants": [GRANT_DICT],
                "refusals": [REFUSAL_DICT]}


class TestRecordToDict:
    """Report records against the literal dicts of the report builders it replaced.

    The JSON texts are compared, so 4 and 4.0, or true and 1, differ.
    """

    def test_refusal_without_a_limiting_receiver(self):
        assert _json(record_to_dict(REFUSAL)) == _json(REFUSAL_DICT)

    def test_refusal_with_a_limiting_receiver(self):
        refusal = replace(REFUSAL, limiting_rx_id="rx", guarded_opportunity_dbm=-1.0 / 3.0)
        assert _json(record_to_dict(refusal)) == _json(
            {**REFUSAL_DICT, "limiting_rx_id": "rx", "guarded_opportunity_dbm": -0.333333333333})

    def test_violation_outside_the_grid(self):
        violation = Violation(grant_id=None, tx_id="x", cell=None, band=0, quantum=1,
                              granted_dbm=-125.0, observed_dbm=1.0 / 3.0,
                              excess_db=125.0 + 1.0 / 3.0)
        assert _json(record_to_dict(violation)) == _json({
            "grant_id": None, "tx_id": "x", "cell": None, "band": 0, "quantum": 1,
            "granted_dbm": -125.0, "observed_dbm": 0.333333333333, "excess_db": 125.333333333})

    def test_two_quantum_grant(self):
        assert _json(record_to_dict(GRANT)) == _json(GRANT_DICT)

    def test_outcome_with_grants_and_refusals(self):
        assert _json(record_to_dict(OUTCOME)) == _json(OUTCOME_DICT)

    def test_policy_summary(self):
        summary = PolicySummary(policy="osa", admitted_count=1,
                                exploited=SpectrumQuantity(1.0 / 3.0, {(0, 0): 1.0 / 3.0}),
                                violation_count=2, violation_total_db=7.0 / 3.0,
                                outcomes=(OUTCOME,))
        assert _json(record_to_dict(summary)) == _json({
            "policy": "osa", "admitted_count": 1,
            "exploited": {"unit": "W*m^2", "value": 0.333333333333,
                          "breakdown": [{"band": 0, "quantum": 0, "value": 0.333333333333}]},
            "violation_count": 2, "violation_total_db": 2.33333333333,
            "outcomes": [OUTCOME_DICT]})

    def test_flags_counts_and_indices_stay_unformatted(self):
        out = record_to_dict(OUTCOME)
        assert out["admitted"] is True
        assert [type(b) for b in out["bands"]] == [int, int]
        grant = out["grants"][0]
        assert type(grant["issued_at"]) is int
        assert [type(v) for cap in grant["caps"] for v in (cap["band"], cap["quantum"], *cap["cell"])] \
            == [int] * 8
        assert type(grant["caps"][1]["cap_dbm"]) is float


class TestReportToDict:
    """report_to_dict renders a report's sections as record_to_dict renders a record's fields, and an
    echoed Scenario in its unrounded document form."""

    def test_a_scenario_echo_stays_unrounded(self):
        data = json.loads(json.dumps(FULL))
        data["networks"][1]["transmitters"][0]["tx_power_dbm"] = 1.0 / 3.0
        scn = parse_document(data).scenario
        echoed = report_to_dict({"scenario": scn})["scenario"]
        assert echoed == scenario_to_dict(scn)
        assert echoed["networks"][1]["transmitters"][0]["tx_power_dbm"] == 1.0 / 3.0
        assert parse_document(echoed).scenario == scn

    def test_a_float_is_fixed_at_12_digits(self):
        out = report_to_dict({"command": "admit", "margin_db": 1.0 / 3.0, "tolerance_db": 0.5})
        assert out == {"command": "admit", "margin_db": 0.333333333333, "tolerance_db": 0.5}
        assert type(out["margin_db"]) is float

    def test_quantities_and_records_match_record_to_dict(self):
        quantity = SpectrumQuantity(2.0 / 3.0, {(0, 1): 2.0 / 3.0})
        report = {"total_spectrum": quantity, "admission": OUTCOME, "grants": [GRANT],
                  "refusals": (REFUSAL,), "consumed": {"transmitters": {"t": quantity}, "receivers": {}},
                  "prices": {"transmitters": {"t": 1.0 / 7.0}}}
        assert _json(report_to_dict(report)) == _json({
            "total_spectrum": record_to_dict(quantity), "admission": record_to_dict(OUTCOME),
            "grants": [record_to_dict(GRANT)], "refusals": [record_to_dict(REFUSAL)],
            "consumed": {"transmitters": {"t": quantity_to_dict(quantity)}, "receivers": {}},
            "prices": {"transmitters": {"t": format_number(1.0 / 7.0)}}})
