import importlib
import json
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from spectrumspace import (
    LinkBudget,
    available_spectrum,
    occupancy_map,
    opportunity_map,
    quantify,
    receiver_accounting,
    rx_consumption,
    total_spectrum,
)
from spectrumspace import scenario_io
from spectrumspace.cli import run
from spectrumspace.scenario_io import (
    format_number,
    load_scenario,
    parse_document,
    quantity_to_dict,
    scenario_to_dict,
)

from helpers import o_available, o_field_csv, o_rx_consumption_value, random_scenario, sectored_scenario

quantify_module = importlib.import_module("spectrumspace.quantify")

CAMPUS = Path(__file__).resolve().parents[1] / "demos" / "scenarios" / "campus.json"

BASE = {
    "grid": {"origin": [0.0, 0.0], "cell_size": 100.0, "n_x": 12, "n_y": 1},
    "bounds": {"p_max_dbm": 30.0, "p_min_dbm": -125.0},
}

LINK = {
    **BASE,
    "networks": [
        {
            "id": "a",
            "transmitters": [
                {"id": "a-tx", "position": [50.0, 50.0], "tx_power_dbm": 30.0,
                 "band": 0, "quanta": [0]},
            ],
            "receivers": [
                {"id": "a-rx", "position": [150.0, 50.0], "band": 0, "quanta": [0],
                 "beta_db": 10.0, "noise_floor_dbm": -100.0, "linked_tx": "a-tx"},
            ],
        },
    ],
}


def write(tmp_path, data, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return path


def load(out_dir, name):
    return json.loads((out_dir / name).read_text())


class TestExitCodes:
    def test_success(self, tmp_path):
        scn = write(tmp_path, BASE)
        assert run(["quantify", "--scenario", str(scn), "--out", str(tmp_path)]) == 0

    def test_missing_scenario_file_is_io(self, tmp_path, capsys):
        code = run(["quantify", "--scenario", str(tmp_path / "gone.json"),
                    "--out", str(tmp_path)])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_malformed_json_is_usage(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{")
        assert run(["quantify", "--scenario", str(bad), "--out", str(tmp_path)]) == 1
        assert "error:" in capsys.readouterr().err

    def test_validation_failure_is_usage(self, tmp_path):
        data = json.loads(json.dumps(LINK))
        data["networks"][0]["transmitters"][0]["tx_power_dbm"] = 99.0
        scn = write(tmp_path, data)
        assert run(["quantify", "--scenario", str(scn), "--out", str(tmp_path)]) == 1

    def test_unknown_subcommand(self, tmp_path, capsys):
        scn = write(tmp_path, BASE)
        assert run(["summon", "--scenario", str(scn)]) == 1
        capsys.readouterr()

    def test_unknown_protect_network(self, tmp_path, capsys):
        scn = write(tmp_path, LINK)
        code = run(["opportunity", "--scenario", str(scn), "--out", str(tmp_path),
                    "--protect", "ghost"])
        assert code == 1
        assert "unknown network" in capsys.readouterr().err

    def test_help_exits_clean(self, capsys):
        assert run(["--help"]) == 0
        assert "spectrumspace" in capsys.readouterr().out

    def test_integer_beyond_float_range_is_usage(self, tmp_path):
        data = json.loads(json.dumps(BASE))
        data["bounds"]["p_max_dbm"] = 10**400
        scn = write(tmp_path, data)
        result = subprocess.run(
            [sys.executable, "-m", "spectrumspace", "quantify",
             "--scenario", str(scn), "--out", str(tmp_path)],
            capture_output=True, text=True)
        assert result.returncode == 1
        assert "error:" in result.stderr
        assert "bounds.p_max_dbm" in result.stderr
        assert "Traceback" not in result.stderr

    def test_overlong_integer_literal_is_usage(self, tmp_path):
        data = json.loads(json.dumps(BASE))
        data["grid"]["n_x"] = "DIGITS"
        scn = tmp_path / "overlong.json"
        scn.write_text(json.dumps(data).replace('"DIGITS"', "1" + "0" * 5000))
        result = subprocess.run(
            [sys.executable, "-m", "spectrumspace", "quantify",
             "--scenario", str(scn), "--out", str(tmp_path)],
            capture_output=True, text=True)
        assert result.returncode == 1
        assert "error:" in result.stderr
        assert "overlong.json" in result.stderr
        assert "integer literal" in result.stderr
        assert "Traceback" not in result.stderr
        assert "set_int_max_str_digits" not in result.stderr

    @pytest.mark.parametrize("section, key, named", [("grid", "n_x", "n_x * n_y"),
                                                     ("dims", "bands", "bands * quanta")])
    def test_oversized_scenario_is_usage(self, tmp_path, capsys, section, key, named):
        data = json.loads(CAMPUS.read_text())
        data[section][key] = 10**12
        scn = write(tmp_path, data)
        assert run(["quantify", "--scenario", str(scn), "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and named in err and "exceeds the limit" in err
        assert not (tmp_path / "quantify.json").exists()

    def test_duplicate_key_is_usage(self, tmp_path):
        # json.loads alone keeps the last value, and 29 dBm passes validation
        scn = tmp_path / "duplicated.json"
        scn.write_text(CAMPUS.read_text().replace(
            '"tx_power_dbm": 24.0,', '"tx_power_dbm": 24.0, "tx_power_dbm": 29.0,', 1))
        result = subprocess.run(
            [sys.executable, "-m", "spectrumspace", "quantify",
             "--scenario", str(scn), "--out", str(tmp_path)],
            capture_output=True, text=True)
        assert result.returncode == 1
        assert "error:" in result.stderr
        assert "duplicated.json" in result.stderr
        assert "'tx_power_dbm'" in result.stderr
        assert "Traceback" not in result.stderr
        assert not (tmp_path / "quantify.json").exists()

    def test_module_entry_point(self, tmp_path):
        scn = write(tmp_path, BASE)
        result = subprocess.run(
            [sys.executable, "-m", "spectrumspace", "quantify",
             "--scenario", str(scn), "--out", str(tmp_path)],
            capture_output=True, text=True)
        assert result.returncode == 0


class TestRasterCommands:
    def test_occupancy_exports_every_slice(self, tmp_path):
        data = json.loads(json.dumps(LINK))
        data["dims"] = {"bands": 2, "quanta": 1}
        scn = write(tmp_path, data)
        out = tmp_path / "out"
        assert run(["occupancy", "--scenario", str(scn), "--out", str(out)]) == 0
        names = sorted(p.name for p in out.glob("*.csv"))
        assert names == ["occupancy_b0_q0.csv", "occupancy_b1_q0.csv"]
        body = (out / "occupancy_b0_q0.csv").read_text()
        assert body.startswith("# band=0 quantum=0 unit=dBm\n")
        # tx sits at the cell center, so the clamped 1 m path applies
        assert body.splitlines()[1].split(",")[0] == "-10.0000"
        quiet = (out / "occupancy_b1_q0.csv").read_text()
        assert set(quiet.splitlines()[1].split(",")) == {"-125.0000"}

    def test_band_and_quantum_filters(self, tmp_path):
        data = json.loads(json.dumps(LINK))
        data["dims"] = {"bands": 2, "quanta": 3}
        scn = write(tmp_path, data)
        out = tmp_path / "out"
        assert run(["occupancy", "--scenario", str(scn), "--out", str(out),
                    "--band", "1", "--quantum", "2"]) == 0
        assert [p.name for p in out.glob("*.csv")] == ["occupancy_b1_q2.csv"]

    def test_opportunity_raster_floor_at_receiver_cell(self, tmp_path):
        scn = write(tmp_path, LINK)
        out = tmp_path / "out"
        assert run(["opportunity", "--scenario", str(scn), "--out", str(out)]) == 0
        row = (out / "opportunity_b0_q0.csv").read_text().splitlines()[1]
        assert row.split(",")[1] == "-125.0000"

    def test_protect_specific_network_matches_all_here(self, tmp_path):
        scn = write(tmp_path, LINK)
        all_dir, one_dir = tmp_path / "all", tmp_path / "one"
        run(["opportunity", "--scenario", str(scn), "--out", str(all_dir)])
        run(["opportunity", "--scenario", str(scn), "--out", str(one_dir),
             "--protect", "a"])
        assert ((all_dir / "opportunity_b0_q0.csv").read_bytes()
                == (one_dir / "opportunity_b0_q0.csv").read_bytes())

    def test_reruns_are_byte_identical(self, tmp_path):
        scn = write(tmp_path, LINK)
        first, second = tmp_path / "first", tmp_path / "second"
        for out in (first, second):
            assert run(["occupancy", "--scenario", str(scn),
                        "--out", str(out)]) == 0
            assert run(["opportunity", "--scenario", str(scn),
                        "--out", str(out)]) == 0
        for name in ("occupancy_b0_q0.csv", "opportunity_b0_q0.csv"):
            assert (first / name).read_bytes() == (second / name).read_bytes()


class TestRasterBytes:
    """Every CSV the raster commands write is the oracle's text of the in-process field."""

    @pytest.fixture(params=["campus", "sectored", "tall"])
    def scenario_file(self, request, tmp_path):
        if request.param == "campus":
            return CAMPUS
        if request.param == "sectored":
            return write(tmp_path, scenario_to_dict(sectored_scenario(3)))
        # random_scenario(5) on a grid of the same extent with 8x8 cells per cell:
        # 120 x 136 cells, more rows than two of export_field's blocks
        scenario = random_scenario(5)
        grid = scenario.grid
        fine = replace(grid, cell_size=grid.cell_size / 8, n_x=grid.n_x * 8, n_y=grid.n_y * 8)
        assert fine.n_y > 2 * max(1, scenario_io._BLOCK_CELLS // fine.n_x)
        return write(tmp_path, scenario_to_dict(replace(scenario, grid=fine)))

    @pytest.mark.parametrize("command, field_of", [
        ("occupancy", occupancy_map),
        ("opportunity", opportunity_map),
    ])
    def test_csv_equals_the_oracle(self, scenario_file, tmp_path, command, field_of):
        scn = load_scenario(scenario_file)
        out = tmp_path / "out"
        assert run([command, "--scenario", str(scenario_file), "--out", str(out)]) == 0
        slices = [(b, q) for b in range(scn.dims.b_hat) for q in range(scn.dims.t_hat)]
        assert len(list(out.glob("*.csv"))) == len(slices)
        for b, q in slices:
            written = (out / f"{command}_b{b}_q{q}.csv").read_bytes()
            assert written == o_field_csv(field_of(scn, b, q))


class TestQuantifyCommand:
    def test_empty_scenario_available_equals_total(self, tmp_path):
        scn = write(tmp_path, BASE)
        assert run(["quantify", "--scenario", str(scn), "--out", str(tmp_path)]) == 0
        report = load(tmp_path, "quantify.json")
        assert report["available_spectrum"]["value"] == \
            report["total_spectrum"]["value"]
        assert report["available_spectrum"]["unit"] == "W*m^2"

    def test_values_match_engine_after_rounding(self, tmp_path):
        scn = write(tmp_path, LINK)
        assert run(["quantify", "--scenario", str(scn), "--out", str(tmp_path)]) == 0
        report = load(tmp_path, "quantify.json")
        scenario = parse_document(LINK).scenario
        assert report["total_spectrum"]["value"] == format_number(
            total_spectrum(scenario.grid, scenario.dims, scenario.bounds).value)
        assert report["available_spectrum"]["value"] == format_number(
            available_spectrum(scenario).value)

    def test_scenario_echo_round_trips(self, tmp_path):
        scn = write(tmp_path, LINK)
        assert run(["quantify", "--scenario", str(scn), "--out", str(tmp_path)]) == 0
        report = load(tmp_path, "quantify.json")
        assert parse_document(report["scenario"]).scenario == \
            parse_document(LINK).scenario

    def test_json_reruns_byte_identical(self, tmp_path):
        scn = write(tmp_path, LINK)
        first, second = tmp_path / "a", tmp_path / "b"
        for out in (first, second):
            assert run(["quantify", "--scenario", str(scn), "--out", str(out)]) == 0
        assert (first / "quantify.json").read_bytes() == \
            (second / "quantify.json").read_bytes()


class TestReportCommand:
    def test_consumption_sections(self, tmp_path):
        scn = write(tmp_path, LINK)
        assert run(["report", "--scenario", str(scn), "--out", str(tmp_path)]) == 0
        report = load(tmp_path, "report.json")
        consumed = report["consumed"]
        assert set(consumed["transmitters"]) == {"a-tx"}
        assert set(consumed["receivers"]) == {"a-rx"}
        assert consumed["receivers"]["a-rx"]["value"] > \
            consumed["transmitters"]["a-tx"]["value"]
        assert report["available_spectrum"]["value"] > 0

    def test_prices_follow_consumption(self, tmp_path):
        data = json.loads(json.dumps(LINK))
        data["policy"] = {"price_rate": 2.0}
        scn = write(tmp_path, data)
        assert run(["report", "--scenario", str(scn), "--out", str(tmp_path)]) == 0
        report = load(tmp_path, "report.json")
        for kind in ("transmitters", "receivers"):
            for entity_id, price in report["prices"][kind].items():
                quantity = report["consumed"][kind][entity_id]["value"]
                assert price == format_number(2.0 * quantity)


class TestReportWalk:
    """report charges every receiver from the walk that gives available spectrum: each
    receiver's entrant gain field and each transmitter's gain field is built once."""

    SCENARIOS = [(make, seed) for make in (random_scenario, sectored_scenario) for seed in range(5)]

    @pytest.fixture
    def built(self, monkeypatch):
        built = {"entrant": [], "tx": []}
        entrant, tx_field = quantify_module.entrant_gain_field_linear, quantify_module.tx_gain_db_field

        def counting_entrant(position, *args):
            built["entrant"].append(position)
            return entrant(position, *args)

        def counting_tx(tx, *args):
            built["tx"].append(tx.id)
            return tx_field(tx, *args)

        monkeypatch.setattr(quantify_module, "entrant_gain_field_linear", counting_entrant)
        monkeypatch.setattr(quantify_module, "tx_gain_db_field", counting_tx)
        return built

    @staticmethod
    def protect(scn, which):
        if which == "all":
            return "all", None
        net = next((net for net in scn.networks if net.receivers), scn.networks[0])
        return net.id, [rx.id for rx in net.receivers]

    @pytest.mark.parametrize("which", ["all", "one network"])
    @pytest.mark.parametrize("make, seed", SCENARIOS, ids=lambda v: getattr(v, "__name__", v))
    def test_each_field_is_built_once(self, tmp_path, built, make, seed, which):
        path = write(tmp_path, scenario_to_dict(make(seed)))
        scn = load_scenario(path)
        flag, _ = self.protect(scn, which)
        assert run(["report", "--scenario", str(path), "--out", str(tmp_path), "--protect", flag]) == 0
        assert built["entrant"] == [rx.position for rx in scn.receivers()]
        assert sorted(built["tx"]) == sorted(tx.id for tx in scn.transmitters())

    @pytest.mark.parametrize("which", ["all", "one network"])
    @pytest.mark.parametrize("make, seed", SCENARIOS, ids=lambda v: getattr(v, "__name__", v))
    def test_charges_equal_rx_consumption_and_the_oracle(self, tmp_path, make, seed, which):
        path = write(tmp_path, scenario_to_dict(make(seed)))
        scn = load_scenario(path)
        flag, protected = self.protect(scn, which)
        assert run(["report", "--scenario", str(path), "--out", str(tmp_path), "--protect", flag]) == 0
        report = load(tmp_path, "report.json")
        available, charges = receiver_accounting(scn, protected)
        assert available == available_spectrum(scn, protected)
        assert report["available_spectrum"] == quantity_to_dict(available)
        assert available.value == pytest.approx(o_available(scn, protected), rel=1e-9)
        assert list(charges) == [rx.id for rx in scn.receivers()]
        assert set(report["consumed"]["receivers"]) == set(charges)
        for rx in scn.receivers():
            alone = quantify(rx_consumption(rx, scn), scn.grid, scn.dims)
            assert charges[rx.id] == alone
            assert report["consumed"]["receivers"][rx.id] == quantity_to_dict(alone)
            assert alone.value == pytest.approx(o_rx_consumption_value(scn, rx), rel=1e-9)


class TestAdmitCommand:
    def scenario_with_request(self):
        data = json.loads(json.dumps(LINK))
        data["requests"] = [
            {"id": "r1", "position": [250.0, 50.0], "desired_dbm": 30.0,
             "min_useful_dbm": -20.0, "required_bands": 1,
             "acceptable_bands": [0], "quanta": [0]},
        ]
        return data

    def test_admit_writes_outcomes_and_augmented_scenario(self, tmp_path):
        scn = write(tmp_path, self.scenario_with_request())
        assert run(["admit", "--scenario", str(scn), "--out", str(tmp_path)]) == 0
        report = load(tmp_path, "admit.json")
        outcome = report["admission"]["outcomes"][0]
        assert outcome["request_id"] == "r1"
        assert outcome["admitted"] is True
        assert outcome["bands"] == [0]
        assert outcome["powers_dbm"] == [19.9995656838]
        assert outcome["grants"][0]["grant_id"] == "grant:r1:b0"
        augmented = parse_document(report["augmented_scenario"]).scenario
        assert {net.id for net in augmented.networks} == {"a", "entrants"}
        assert augmented.transmitter("r1").position == (250.0, 50.0)
        assert report["admission"]["admitted_count"] == 1
        assert report["admission"]["post_available"]["value"] >= 0.0

    def test_margin_flag_tightens_the_cap(self, tmp_path):
        scn = write(tmp_path, self.scenario_with_request())
        loose, tight = tmp_path / "loose", tmp_path / "tight"
        run(["admit", "--scenario", str(scn), "--out", str(loose)])
        run(["admit", "--scenario", str(scn), "--out", str(tight),
             "--margin-db", "6"])
        p_loose = load(loose, "admit.json")["admission"]["outcomes"][0]["powers_dbm"][0]
        p_tight = load(tight, "admit.json")["admission"]["outcomes"][0]["powers_dbm"][0]
        assert p_loose - p_tight == pytest.approx(6.0, abs=1e-9)


class TestEnforceCommand:
    def scenario_with_entrant(self, entrant_power):
        data = json.loads(json.dumps(LINK))
        data["networks"].append({
            "id": "ent",
            "transmitters": [
                {"id": "e1", "position": [250.0, 50.0],
                 "tx_power_dbm": entrant_power, "band": 0, "quanta": [0]},
            ],
        })
        data["requests"] = [
            {"id": "e1", "position": [250.0, 50.0], "desired_dbm": 30.0,
             "min_useful_dbm": -30.0, "required_bands": 1,
             "acceptable_bands": [0], "quanta": [0]},
        ]
        return data

    def test_compliant_entrant_passes(self, tmp_path):
        scn = write(tmp_path, self.scenario_with_entrant(19.0))
        assert run(["enforce", "--scenario", str(scn), "--out", str(tmp_path)]) == 0
        report = load(tmp_path, "enforce.json")
        assert [grant["grantee_tx_id"] for grant in report["grants"]] == ["e1"]
        flagged = {v["tx_id"] for v in report["violations"]}
        assert "e1" not in flagged

    def test_over_power_and_unlicensed_are_flagged(self, tmp_path):
        scn = write(tmp_path, self.scenario_with_entrant(25.0))
        assert run(["enforce", "--scenario", str(scn), "--out", str(tmp_path)]) == 0
        report = load(tmp_path, "enforce.json")
        violations = {v["tx_id"]: v for v in report["violations"]}
        assert violations["e1"]["granted_dbm"] == 19.9995656838
        assert violations["e1"]["excess_db"] == pytest.approx(
            25.0 - 19.9995656838, abs=1e-6)
        assert violations["a-tx"]["granted_dbm"] == -125.0
        assert violations["a-tx"]["grant_id"] is None

    def test_refusals_reported(self, tmp_path):
        data = self.scenario_with_entrant(-100.0)
        data["requests"][0]["position"] = [150.0, 50.0]
        data["requests"][0]["min_useful_dbm"] = 0.0
        data["networks"][1]["transmitters"][0]["position"] = [150.0, 50.0]
        scn = write(tmp_path, data)
        assert run(["enforce", "--scenario", str(scn), "--out", str(tmp_path)]) == 0
        report = load(tmp_path, "enforce.json")
        assert report["grants"] == []
        refusal = report["refusals"][0]
        assert refusal["tx_id"] == "e1"
        assert refusal["limiting_rx_id"] == "a-rx"


class TestAdmitEnforceRoundTrip:
    """`enforce` audits what `admit` granted: admitted entrants pass, excess is caught."""

    def scenario(self):
        data = json.loads(json.dumps(LINK))
        data["grid"] = {"origin": [0.0, 0.0], "cell_size": 100.0, "n_x": 10, "n_y": 10}
        data["dims"] = {"bands": 2, "quanta": 1}
        data["networks"][0]["transmitters"][0].update(position=[250.0, 250.0], tx_power_dbm=20.0)
        data["networks"][0]["receivers"][0]["position"] = [350.0, 250.0]
        data["networks"].append({
            "id": "b",
            "transmitters": [{"id": "b-tx", "position": [650.0, 650.0], "tx_power_dbm": 20.0,
                              "band": 1, "quanta": [0]}],
            "receivers": [{"id": "b-rx", "position": [750.0, 650.0], "band": 1, "quanta": [0],
                           "beta_db": 10.0, "noise_floor_dbm": -100.0, "linked_tx": "b-tx"}],
        })
        request = {"desired_dbm": 25.0, "min_useful_dbm": -40.0, "quanta": [0]}
        # r1 and r2 are both held back by a-rx, so r2 is priced against r1's
        # interference; r3 needs both bands.
        data["requests"] = [
            {**request, "id": "r1", "position": [550.0, 250.0], "required_bands": 1,
             "acceptable_bands": [0]},
            {**request, "id": "r2", "position": [550.0, 350.0], "required_bands": 1,
             "acceptable_bands": [0], "priority": 1},
            {**request, "id": "r3", "position": [450.0, 650.0], "required_bands": 2,
             "acceptable_bands": [0, 1], "priority": 2},
        ]
        data["policy"] = {"margin_db": 3.0}
        return data

    def admit_then_enforce(self, tmp_path, raise_db=None):
        data = self.scenario()
        scn = write(tmp_path, data)
        assert run(["admit", "--scenario", str(scn), "--out", str(tmp_path / "admit")]) == 0
        admitted = load(tmp_path / "admit", "admit.json")
        outcomes = admitted["admission"]["outcomes"]
        assert [o["admitted"] for o in outcomes] == [True, True, True]
        assert [o["powers_dbm"][0] < 25.0 for o in outcomes[:2]] == [True, True]
        observed = dict(admitted["augmented_scenario"], requests=data["requests"],
                        policy=data["policy"])
        entrants = next(net for net in observed["networks"] if net["id"] == "entrants")
        for tx_id, delta in (raise_db or {}).items():
            tx = next(tx for tx in entrants["transmitters"] if tx["id"] == tx_id)
            tx["tx_power_dbm"] += delta
        path = write(tmp_path, observed, "observed.json")
        assert run(["enforce", "--scenario", str(path), "--out", str(tmp_path / "enforce")]) == 0
        report = load(tmp_path / "enforce", "enforce.json")
        entrant_ids = {tx["id"] for tx in entrants["transmitters"]}
        return report, entrant_ids

    def test_admitted_entrants_pass_enforce(self, tmp_path):
        report, entrant_ids = self.admit_then_enforce(tmp_path)
        assert entrant_ids == {"r1", "r2", "r3:b0", "r3:b1"}
        assert sorted(g["grantee_tx_id"] for g in report["grants"]) == sorted(entrant_ids)
        assert [v for v in report["violations"] if v["tx_id"] in entrant_ids] == []
        assert {v["tx_id"] for v in report["violations"]} == {"a-tx", "b-tx"}

    def test_over_cap_entrant_is_caught(self, tmp_path):
        report, _ = self.admit_then_enforce(tmp_path, {"r2": 3.0, "r3:b0": 1.0})
        excess = {v["tx_id"]: v["excess_db"] for v in report["violations"]}
        assert excess.pop("r2") == pytest.approx(3.0, abs=1e-9)
        assert excess.pop("r3:b0") == pytest.approx(1.0, abs=1e-9)
        assert set(excess) == {"a-tx", "b-tx"}


class TestCompareCommand:
    def scenario_with_entrants(self):
        data = json.loads(json.dumps(LINK))
        data["grid"] = {"origin": [0.0, 0.0], "cell_size": 100.0,
                        "n_x": 10, "n_y": 10}
        data["networks"][0]["transmitters"][0]["position"] = [250.0, 250.0]
        data["networks"][0]["transmitters"][0]["tx_power_dbm"] = 20.0
        data["networks"][0]["receivers"][0]["position"] = [350.0, 250.0]
        data["requests"] = [
            {"id": "n1", "position": [450.0, 250.0], "desired_dbm": 10.0,
             "min_useful_dbm": -40.0, "required_bands": 1,
             "acceptable_bands": [0], "quanta": [0]},
        ]
        return data

    def test_comparison_report(self, tmp_path):
        scn = write(tmp_path, self.scenario_with_entrants())
        assert run(["compare-osa", "--scenario", str(scn), "--out", str(tmp_path),
                    "--sensitivity-dbm", "-30"]) == 0
        report = load(tmp_path, "compare-osa.json")
        quantified = report["comparison"]["quantified"]
        osa = report["comparison"]["osa"]
        assert quantified["policy"] == "quantified"
        assert osa["policy"] == "osa"
        assert quantified["violation_count"] == 0
        assert osa["admitted_count"] == 1
        assert osa["violation_count"] >= 1
        assert osa["exploited"]["value"] > quantified["exploited"]["value"]

    def test_computes_no_available_spectrum(self, tmp_path, monkeypatch):
        def refuse(budget):
            raise AssertionError("available spectrum computed")

        monkeypatch.setattr(LinkBudget, "available_spectrum", refuse)
        scn = write(tmp_path, self.scenario_with_entrants())
        assert run(["compare-osa", "--scenario", str(scn), "--out", str(tmp_path)]) == 0
        assert load(tmp_path, "compare-osa.json")["comparison"]["quantified"]["admitted_count"] == 1

    def test_silent_linked_transmitter_writes_strict_json(self, tmp_path):
        # The receiver listens in a quantum its transmitter is silent in, so its
        # SINR there is -inf before any admission; that is not a violation.
        data = self.scenario_with_entrants()
        data["dims"] = {"bands": 1, "quanta": 2}
        data["networks"][0]["receivers"][0]["quanta"] = [0, 1]
        data["requests"][0]["quanta"] = [0, 1]
        scn = write(tmp_path, data)
        assert run(["compare-osa", "--scenario", str(scn), "--out", str(tmp_path),
                    "--sensitivity-dbm", "-30"]) == 0

        def reject(constant):
            raise ValueError(f"non-standard JSON constant {constant}")

        report = json.loads((tmp_path / "compare-osa.json").read_text(), parse_constant=reject)
        osa = report["comparison"]["osa"]
        assert osa["admitted_count"] == 1
        assert osa["violation_count"] == 1
        assert 0.0 < osa["violation_total_db"] < float("inf")

    def test_sensitivity_flag_overrides_document(self, tmp_path):
        data = self.scenario_with_entrants()
        data["policy"] = {"sensitivity_dbm": -30.0}
        scn = write(tmp_path, data)
        strict_dir = tmp_path / "strict"
        assert run(["compare-osa", "--scenario", str(scn), "--out", str(strict_dir),
                    "--sensitivity-dbm", "-120"]) == 0
        report = load(strict_dir, "compare-osa.json")
        assert report["sensitivity_dbm"] == -120.0
        assert report["comparison"]["osa"]["admitted_count"] == 0


class TestUnreachableReceivers:
    """campus.json with a path loss so steep that every gain underflows to 0 mW."""

    COMMANDS = ("occupancy", "opportunity", "quantify", "report", "admit", "enforce", "compare-osa")

    def scenario_file(self, tmp_path):
        data = json.loads(CAMPUS.read_text())
        data["propagation"]["reference_loss_db"] = 4000.0
        return write(tmp_path, data)

    def test_every_command_writes_finite_strict_artifacts(self, tmp_path):
        scn = self.scenario_file(tmp_path)

        def reject(constant):
            raise ValueError(f"non-standard JSON constant {constant}")

        for command in self.COMMANDS:
            out = tmp_path / command
            assert run([command, "--scenario", str(scn), "--out", str(out)]) == 0, command
            for path in out.iterdir():
                text = path.read_text()
                assert "nan" not in text.lower(), path.name
                if path.suffix == ".json":
                    json.loads(text, parse_constant=reject)

    def test_no_receiver_caps_an_entrant(self, tmp_path):
        # Every receiver's margin is 0, but no entrant power reaches it either:
        # opportunity is p_max everywhere except the cells hosting a receiver.
        scenario = load_scenario(self.scenario_file(tmp_path))
        grid, bounds = scenario.grid, scenario.bounds
        budget = LinkBudget(scenario)
        for band in range(scenario.dims.b_hat):
            for quantum in range(scenario.dims.t_hat):
                hosts: dict = {}
                for rx in budget.slice(band, quantum).receivers:
                    hosts.setdefault(grid.cell_of(rx.position), rx.id)
                field = opportunity_map(scenario, band, quantum).values_dbm
                for iy, ix in np.ndindex(field.shape):
                    host = hosts.get((ix, iy))
                    expected = (bounds.p_max_dbm, None) if host is None else (bounds.p_min_dbm, host)
                    assert field[iy, ix] == expected[0]
                    assert budget.opportunity_at_cell(band, quantum, (ix, iy)) == expected
