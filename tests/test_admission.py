import dataclasses
import json
import math
import time
from functools import reduce
from pathlib import Path

import numpy as np
import pytest

from spectrumspace import (
    AccessRequest,
    LinkBudget,
    PropagationConfig,
    Receiver,
    RFNetwork,
    ScenarioValidationError,
    SpectrumSpaceDims,
    Transmitter,
    admit_osa,
    admit_quantified,
    aggregate_opportunity,
    available_spectrum,
    combine_consumption,
    compare_policies,
    db_to_linear,
    enforce,
    opportunity_at_cell,
    opportunity_map,
    quantify,
    sinr_db,
    tx_consumption,
)
from spectrumspace import admission as admission_module
from spectrumspace import model
from spectrumspace.admission import ENTRANT_NETWORK_ID, rights_register
from spectrumspace.scenario_io import load_document, parse_document

from helpers import (
    BOUNDS,
    crowded_scenario,
    make_grid,
    make_link,
    make_scenario,
    o_admit,
    o_sinr_db,
    random_requests,
    random_scenario,
    sectored_scenario,
)


CAMPUS = Path(__file__).resolve().parents[1] / "demos" / "scenarios" / "campus.json"


def canonical_link():
    return make_scenario([make_link("a", (50.0, 50.0), (150.0, 50.0), 30.0)],
                         grid=make_grid(12, 1, 100.0))


def campus_with_an_entrant_id_taken():
    """campus.json with bb-tx renamed r-mid:b0 (bb-rx linked to it) and r-mid asking for 2 bands,
    so r-mid's band-0 entrant would take an observed transmitter's id."""
    data = json.loads(CAMPUS.read_text())
    backbone = data["networks"][0]
    backbone["transmitters"][0]["id"] = backbone["receivers"][0]["linked_tx"] = "r-mid:b0"
    next(r for r in data["requests"] if r["id"] == "r-mid")["required_bands"] = 2
    return parse_document(data)


def _request(request_id, position, desired=30.0, min_useful=-20.0, bands=(0,),
             required=1, quanta=(0,), priority=0):
    return AccessRequest(
        request_id=request_id, position=position, desired_dbm=desired,
        min_useful_dbm=min_useful, required_bands=required,
        acceptable_bands=frozenset(bands), quanta=frozenset(quanta),
        priority=priority)


class TestAdmitQuantified:
    def test_empty_scenario_admits_at_desired_power(self):
        scn = make_scenario([], grid=make_grid(12, 1, 100.0))
        outcome, final = admit_quantified(scn, [_request("r1", (250.0, 50.0))], 0.0)
        assert outcome.admitted_count == 1
        assert outcome.outcomes[0].admitted
        assert outcome.outcomes[0].bands == (0,)
        assert outcome.outcomes[0].powers_dbm == (30.0,)
        entrants = final.network(ENTRANT_NETWORK_ID)
        assert [tx.id for tx in entrants.transmitters] == ["r1"]
        assert entrants.transmitters[0].position == (250.0, 50.0)
        assert entrants.transmitters[0].tx_power_dbm == 30.0

    def test_entrant_snaps_to_its_cell_center(self):
        scn = make_scenario([], grid=make_grid(12, 1, 100.0))
        _, final = admit_quantified(scn, [_request("r1", (230.0, 70.0))], 0.0)
        assert final.network(ENTRANT_NETWORK_ID).transmitters[0].position == (250.0, 50.0)

    def test_second_colocated_request_sees_the_residual(self):
        scn = canonical_link()
        requests = [_request("r1", (250.0, 50.0), priority=0),
                    _request("r2", (250.0, 50.0), priority=1)]
        outcome, final = admit_quantified(scn, requests, 0.0)
        first, second = outcome.outcomes
        assert first.request_id == "r1" and first.admitted
        assert first.powers_dbm[0] == pytest.approx(19.999565683801926, rel=1e-12)
        # r1 consumed the entire margin at that cell, so r2 is shut out
        assert second.request_id == "r2" and not second.admitted
        assert second.refusals[0].limiting_rx_id == "a-rx"
        assert [tx.id for tx in final.network(ENTRANT_NETWORK_ID).transmitters] == ["r1"]
        rx = final.receiver("a-rx")
        assert sinr_db(final, rx, 0) >= rx.beta_db - 1e-6

    def test_priority_decides_who_goes_first(self):
        scn = canonical_link()
        requests = [_request("r1", (250.0, 50.0), priority=5),
                    _request("r2", (250.0, 50.0), priority=1)]
        outcome, final = admit_quantified(scn, requests, 0.0)
        assert [o.request_id for o in outcome.outcomes] == ["r2", "r1"]
        assert outcome.outcomes[0].admitted
        assert not outcome.outcomes[1].admitted
        assert [tx.id for tx in final.network(ENTRANT_NETWORK_ID).transmitters] == ["r2"]

    def test_equal_priority_ties_break_by_request_id(self):
        scn = canonical_link()
        requests = [_request("r2", (250.0, 50.0)), _request("r1", (250.0, 50.0))]
        outcome, _ = admit_quantified(scn, requests, 0.0)
        assert [o.request_id for o in outcome.outcomes] == ["r1", "r2"]
        assert outcome.outcomes[0].admitted

    def test_all_or_nothing_across_required_bands(self):
        # band 0 is dead everywhere (zero-margin receiver), band 1 is open
        dead = make_link("z", (550.0, 50.0), (650.0, 50.0), -60.0)
        scn = make_scenario([dead], grid=make_grid(12, 1, 100.0),
                            dims=SpectrumSpaceDims(b_hat=2, t_hat=1))
        request = _request("r1", (250.0, 50.0), bands=(0, 1), required=2)
        outcome, final = admit_quantified(scn, [request], 0.0)
        assert outcome.admitted_count == 0
        assert not outcome.outcomes[0].admitted
        assert [r.band for r in outcome.outcomes[0].refusals] == [0]
        assert final.network(ENTRANT_NETWORK_ID) is None
        assert final is scn

    def test_two_band_request_realizes_one_entrant_per_band(self):
        scn = make_scenario([], grid=make_grid(12, 1, 100.0),
                            dims=SpectrumSpaceDims(b_hat=2, t_hat=1))
        request = _request("m1", (250.0, 50.0), bands=(0, 1), required=2)
        outcome, final = admit_quantified(scn, [request], 0.0)
        assert outcome.outcomes[0].bands == (0, 1)
        assert sorted(tx.id for tx in final.network(ENTRANT_NETWORK_ID).transmitters) == [
            "m1:b0", "m1:b1"]

    def test_highest_cap_band_wins_with_index_tiebreak(self):
        empty = make_scenario([], grid=make_grid(12, 1, 100.0),
                              dims=SpectrumSpaceDims(b_hat=2, t_hat=1))
        outcome, _ = admit_quantified(empty, [_request("r1", (250.0, 50.0), bands=(0, 1))], 0.0)
        assert outcome.outcomes[0].bands == (0,)
        # a receiver on band 0 lowers that cap, so band 1 wins
        scn = make_scenario([make_link("a", (50.0, 50.0), (150.0, 50.0), 30.0)],
                            grid=make_grid(12, 1, 100.0),
                            dims=SpectrumSpaceDims(b_hat=2, t_hat=1))
        outcome, _ = admit_quantified(scn, [_request("r1", (250.0, 50.0), bands=(0, 1))], 0.0)
        assert outcome.outcomes[0].bands == (1,)
        assert outcome.outcomes[0].powers_dbm == (30.0,)

    def test_admissions_only_shrink_opportunity(self):
        scn = canonical_link()
        before = opportunity_map(scn, 0, 0).values_dbm
        requests = [_request("r1", (250.0, 50.0), desired=10.0),
                    _request("r2", (650.0, 50.0), desired=10.0),
                    _request("r3", (1050.0, 50.0), desired=10.0)]
        outcome, final = admit_quantified(scn, requests, 0.0)
        after = opportunity_map(final, 0, 0).values_dbm
        assert np.all(after <= before)
        assert outcome.post_available.value == pytest.approx(
            available_spectrum(final).value, rel=1e-12)

    def test_margin_shrinks_caps(self):
        scn = canonical_link()
        plain, _ = admit_quantified(scn, [_request("r1", (250.0, 50.0))], 0.0)
        guarded, _ = admit_quantified(scn, [_request("r1", (250.0, 50.0))], 6.0)
        assert guarded.outcomes[0].powers_dbm[0] == pytest.approx(
            plain.outcomes[0].powers_dbm[0] - 6.0, abs=1e-9)

    def test_request_validation(self):
        scn = canonical_link()
        bad_power = _request("r1", (250.0, 50.0), desired=-30.0, min_useful=0.0)
        with pytest.raises(ValueError, match="min useful"):
            admit_quantified(scn, [bad_power], 0.0)
        bad_bands = _request("r1", (250.0, 50.0), bands=(0,), required=2)
        with pytest.raises(ValueError, match="required band count"):
            admit_quantified(scn, [bad_bands], 0.0)
        no_quanta = _request("r1", (250.0, 50.0), quanta=())
        with pytest.raises(ValueError, match="no time quanta"):
            admit_quantified(scn, [no_quanta], 0.0)
        collision = _request("a-tx", (250.0, 50.0))
        with pytest.raises(ValueError, match="collides"):
            admit_quantified(scn, [collision], 0.0)
        twins = [_request("r1", (250.0, 50.0)), _request("r1", (650.0, 50.0))]
        with pytest.raises(ValueError, match="collides"):
            admit_quantified(scn, twins, 0.0)

    @pytest.mark.parametrize("admit", [
        lambda scn, reqs: admit_quantified(scn, reqs, 0.0),
        lambda scn, reqs: admit_osa(scn, reqs, -90.0),
        lambda scn, reqs: compare_policies(scn, reqs, 0.0, -90.0),
        lambda scn, reqs: rights_register(scn, reqs, 0.0),
    ], ids=["quantified", "osa", "compare", "register"])
    def test_every_entry_point_lists_every_request_error(self, admit):
        scn = canonical_link()
        requests = [_request("r1", (-10.0, 50.0)), _request("r2", (250.0, 50.0), bands=(0, 1)),
                    _request("a-rx", (650.0, 50.0))]
        with pytest.raises(ScenarioValidationError) as err:
            admit(scn, requests)
        assert err.value.errors == model.request_errors(scn, requests) + [
            "request 'a-rx': id collides with an existing one"]
        assert "request 'r1': position (-10.0, 50.0) outside grid extent" in str(err.value)
        assert "request 'r2': acceptable_bands: band index 1 out of range [0, 1)" in str(err.value)

    @pytest.mark.parametrize("admit", [
        lambda scn, reqs, protected: admit_quantified(scn, reqs, 0.0, protected),
        lambda scn, reqs, protected: compare_policies(scn, reqs, 0.0, -90.0, protected),
        lambda scn, reqs, protected: rights_register(scn, reqs, 0.0, protected),
    ], ids=["quantified", "compare", "register"])
    def test_every_entry_point_refuses_an_unknown_protected_id(self, admit):
        scn = canonical_link()
        requests = [_request("r1", (250.0, 50.0))]
        with pytest.raises(ValueError, match="unknown receiver 'nope'"):
            admit(scn, requests, ["nope"])
        admit(scn, requests, ["a-rx"])

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("admit, label", [
        (lambda scn, reqs, value: admit_quantified(scn, reqs, value), "guard margin"),
        (lambda scn, reqs, value: rights_register(scn, reqs, value), "guard margin"),
        (lambda scn, reqs, value: admit_osa(scn, reqs, value), "sensing threshold"),
        (lambda scn, reqs, value: compare_policies(scn, reqs, value, -90.0), "guard margin"),
        (lambda scn, reqs, value: compare_policies(scn, reqs, 0.0, value), "sensing threshold"),
    ], ids=["quantified", "register", "osa", "compare-margin", "compare-threshold"])
    def test_every_entry_point_refuses_a_non_finite_number(self, admit, label, value):
        # refused up front, also when no request would reach a price
        for requests in ([_request("r1", (250.0, 50.0))], []):
            with pytest.raises(ValueError, match=f"{label} must be finite"):
                admit(canonical_link(), requests, value)

    @pytest.mark.parametrize("value", ["a", 1j, [0.0], None, True], ids=["str", "complex", "list", "None", "bool"])
    @pytest.mark.parametrize("admit, label", [
        (lambda scn, reqs, value: admit_quantified(scn, reqs, value), "guard margin"),
        (lambda scn, reqs, value: rights_register(scn, reqs, value), "guard margin"),
        (lambda scn, reqs, value: admit_osa(scn, reqs, value), "sensing threshold"),
        (lambda scn, reqs, value: compare_policies(scn, reqs, value, -90.0), "guard margin"),
        (lambda scn, reqs, value: compare_policies(scn, reqs, 0.0, value), "sensing threshold"),
    ], ids=["quantified", "register", "osa", "compare-margin", "compare-threshold"])
    def test_every_entry_point_refuses_a_value_that_is_not_a_number(self, admit, label, value):
        # math.isfinite used to leak its own TypeError ("must be real number, not str")
        for requests in ([_request("r1", (250.0, 50.0))], []):
            with pytest.raises(ValueError, match=f"{label} must be finite"):
                admit(canonical_link(), requests, value)

    @pytest.mark.parametrize("admit", [
        lambda scn, reqs: admit_quantified(scn, reqs, -1.0),
        lambda scn, reqs: rights_register(scn, reqs, -1.0),
        lambda scn, reqs: compare_policies(scn, reqs, -1.0, -90.0),
    ], ids=["quantified", "register", "compare"])
    def test_every_entry_point_refuses_a_negative_margin_up_front(self, admit):
        # refused before the walk, also when no request would reach a price
        doc = load_document(CAMPUS)
        for requests in ([], doc.requests):
            with pytest.raises(ValueError, match=r"guard margin must be finite and non-negative \(got -1.0\)"):
                admit(doc.scenario, requests)

    @pytest.mark.parametrize("admit", [
        lambda scn, reqs: admit_quantified(scn, reqs, None),
        lambda scn, reqs: rights_register(scn, reqs, None),
        lambda scn, reqs: compare_policies(scn, reqs, None, -90.0),
    ], ids=["quantified", "register", "compare"])
    def test_every_entry_point_refuses_a_none_margin(self, admit):
        # None is a margin like any other, not "no margin given": refused also with no requests
        doc = load_document(CAMPUS)
        for requests in ([], doc.requests):
            with pytest.raises(ValueError, match=r"guard margin must be finite and non-negative \(got None\)"):
                admit(doc.scenario, requests)

    @pytest.mark.parametrize("admit", [
        lambda scn, reqs: admit_quantified(scn, reqs, 3.0),
        lambda scn, reqs: admit_osa(scn, reqs, -90.0),
        lambda scn, reqs: compare_policies(scn, reqs, 3.0, -90.0),
    ], ids=["quantified", "osa", "compare"])
    def test_an_entrant_id_that_names_a_transmitter_is_refused(self, admit):
        doc = campus_with_an_entrant_id_taken()
        with pytest.raises(ScenarioValidationError) as err:
            admit(doc.scenario, doc.requests)
        assert err.value.errors == ["request 'r-mid': entrant id 'r-mid:b0' collides with an existing one"]

    def test_the_register_audits_an_observed_entrant_named_like_its_request(self):
        # rights_register strips observed transmitters named like entrants before it replays admission
        doc = campus_with_an_entrant_id_taken()
        rights_register(doc.scenario, doc.requests, 3.0)

    @pytest.mark.parametrize("admit", [
        lambda scn, reqs: admit_quantified(scn, reqs, 0.0),
        lambda scn, reqs: admit_osa(scn, reqs, -90.0),
        lambda scn, reqs: compare_policies(scn, reqs, 0.0, -90.0),
        lambda scn, reqs: rights_register(scn, reqs, 0.0),
    ], ids=["quantified", "osa", "compare", "register"])
    @pytest.mark.parametrize("order, named", [
        ("two-band first", "request 'a:b0': id collides with an existing one"),
        ("two-band last", "request 'a': entrant id 'a:b0' collides with an existing one"),
    ])
    def test_a_request_id_that_names_an_earlier_entrant_is_refused(self, admit, order, named):
        scn = make_scenario([], grid=make_grid(12, 1, 100.0), dims=SpectrumSpaceDims(b_hat=2, t_hat=1))
        requests = [_request("a", (250.0, 50.0), bands=(0, 1), required=2),
                    _request("a:b0", (650.0, 50.0))]
        if order == "two-band last":
            requests.reverse()
        with pytest.raises(ScenarioValidationError) as err:
            admit(scn, requests)
        assert err.value.errors == [named]

    def test_access_request_is_the_model_record(self):
        assert admission_module.AccessRequest is model.AccessRequest is AccessRequest


class TestAdmitOsa:
    def test_empty_scenario_admits_everyone_at_full_power(self):
        scn = make_scenario([], grid=make_grid(12, 1, 100.0))
        outcome, final = admit_osa(scn, [_request("r1", (250.0, 50.0), desired=12.0)], -90.0)
        assert outcome.admitted_count == 1
        assert outcome.outcomes[0].powers_dbm == (12.0,)
        assert final.network(ENTRANT_NETWORK_ID).transmitters[0].tx_power_dbm == 12.0

    def test_sensed_occupancy_above_threshold_refuses(self):
        scn = canonical_link()
        outcome, _ = admit_osa(scn, [_request("r1", (350.0, 50.0))], -90.0)
        assert outcome.admitted_count == 0
        refusal = outcome.outcomes[0].refusals[0]
        assert "sensed occupancy" in refusal.reason
        assert "-59.5424" in refusal.reason

    def test_quiet_cell_admits_despite_hidden_receiver(self):
        # the incumbent tx whispers at -5 dBm, so 1 km away the band sounds free
        scn = make_scenario([make_link("f", (50.0, 50.0), (150.0, 50.0), -5.0)],
                            grid=make_grid(12, 1, 100.0))
        outcome, final = admit_osa(scn, [_request("r1", (1050.0, 50.0), desired=20.0)], -90.0)
        assert outcome.admitted_count == 1
        rx = final.receiver("f-rx")
        assert sinr_db(final, rx, 0) < rx.beta_db
        assert o_sinr_db(final, rx, 0) < rx.beta_db

    def test_prefers_the_quietest_band(self):
        scn = make_scenario([make_link("a", (50.0, 50.0), (150.0, 50.0), 30.0)],
                            grid=make_grid(12, 1, 100.0),
                            dims=SpectrumSpaceDims(b_hat=2, t_hat=1))
        outcome, _ = admit_osa(scn, [_request("r1", (350.0, 50.0), bands=(0, 1))], -50.0)
        assert outcome.outcomes[0].bands == (1,)

    def test_senses_the_loudest_requested_quantum(self):
        late = make_link("a", (50.0, 50.0), (150.0, 50.0), 30.0, quanta=(1,))
        scn = make_scenario([late], grid=make_grid(12, 1, 100.0),
                            dims=SpectrumSpaceDims(b_hat=1, t_hat=2))
        outcome, _ = admit_osa(scn, [_request("r1", (350.0, 50.0), quanta=(0, 1))], -90.0)
        assert outcome.admitted_count == 0


class TestAggregateOpportunity:
    def test_empty_single_band(self):
        scn = make_scenario([], grid=make_grid(12, 1, 100.0))
        entries, quantity = aggregate_opportunity(scn, (250.0, 50.0))
        assert entries == [(0, 0, 30.0)]
        expected = BOUNDS.p_cmax_linear * scn.grid.cell_area / 1000.0
        assert quantity.value == pytest.approx(expected, rel=1e-12)

    def test_blocked_band_contributes_nothing(self):
        dead = make_link("z", (250.0, 50.0), (350.0, 50.0), -60.0)
        scn = make_scenario([dead], grid=make_grid(12, 1, 100.0),
                            dims=SpectrumSpaceDims(b_hat=2, t_hat=1))
        entries, quantity = aggregate_opportunity(scn, (650.0, 50.0))
        assert entries[0][:2] == (1, 0) and entries[0][2] == 30.0
        assert entries[1][:2] == (0, 0) and entries[1][2] == -125.0
        assert quantity.breakdown[(0, 0)] == 0.0
        assert quantity.value == pytest.approx(
            BOUNDS.p_cmax_linear * scn.grid.cell_area / 1000.0, rel=1e-12)

    def test_linear_sum_across_bands(self):
        scn = make_scenario([make_link("a", (50.0, 50.0), (150.0, 50.0), 30.0)],
                            grid=make_grid(12, 1, 100.0),
                            dims=SpectrumSpaceDims(b_hat=2, t_hat=1))
        entries, quantity = aggregate_opportunity(scn, (250.0, 50.0))
        per_band = {band: db_to_linear(v) for band, _, v in entries}
        expected = (per_band[0] + per_band[1] - 2 * BOUNDS.p_min_linear) \
            * scn.grid.cell_area / 1000.0
        assert quantity.value == pytest.approx(expected, rel=1e-12)
        cell_value, _ = opportunity_at_cell(scn, 0, 0, (2, 0))
        assert entries[1][2] == pytest.approx(cell_value, rel=1e-12)

    def test_quanta_subset(self):
        scn = make_scenario([], grid=make_grid(12, 1, 100.0),
                            dims=SpectrumSpaceDims(b_hat=1, t_hat=3))
        entries, _ = aggregate_opportunity(scn, (250.0, 50.0), quanta=[2])
        assert [(b, q) for b, q, _ in entries] == [(0, 2)]

    def test_a_quantum_listed_twice_is_one_slice(self):
        # listed twice, a quantum used to give each of its slices two entries, while the quantity
        # counted each slice once
        scn = make_scenario([make_link("a", (50.0, 50.0), (150.0, 50.0), 30.0)],
                            grid=make_grid(12, 1, 100.0), dims=SpectrumSpaceDims(b_hat=2, t_hat=2))
        entries, quantity = aggregate_opportunity(scn, (250.0, 50.0), quanta=[0, 0])
        assert sorted((b, q) for b, q, _ in entries) == [(0, 0), (1, 0)]
        assert (entries, quantity) == aggregate_opportunity(scn, (250.0, 50.0), quanta=[0])

    def test_position_outside_grid_rejected(self):
        scn = make_scenario([], grid=make_grid(12, 1, 100.0))
        with pytest.raises(ValueError, match="outside grid extent"):
            aggregate_opportunity(scn, (-10.0, 50.0))


def comparison_family():
    return make_scenario([make_link("inc", (250.0, 250.0), (350.0, 250.0), 20.0)],
                         grid=make_grid(10, 10, 100.0))


class TestComparePolicies:
    def test_aggressive_sensing_hurts_the_hidden_receiver(self):
        scn = comparison_family()
        requests = [_request("r1", (450.0, 250.0), desired=25.0)]
        result = compare_policies(scn, requests, margin_db=0.0, sensitivity_dbm=-30.0)
        assert result.quantified.admitted_count == 1
        assert result.quantified.violation_count == 0
        assert result.quantified.outcomes[0].powers_dbm[0] == pytest.approx(
            9.995654882259824, rel=1e-12)
        assert result.osa.admitted_count == 1
        assert result.osa.violation_count >= 1
        assert result.osa.violation_total_db > 0.0
        assert result.quantified.exploited.value > 0.0
        assert result.osa.exploited.value > result.quantified.exploited.value

    def test_conservative_sensing_admits_no_more_than_quantified(self):
        scn = comparison_family()
        requests = [_request("r1", (450.0, 250.0), desired=25.0)]
        result = compare_policies(scn, requests, margin_db=0.0, sensitivity_dbm=-120.0)
        assert result.osa.admitted_count <= result.quantified.admitted_count
        assert result.osa.admitted_count == 0
        assert result.osa.violation_count == 0
        assert result.osa.exploited.value == 0.0

    def test_empty_scenario_is_harmless_for_both(self):
        # powers low enough that the first entrant stays under the second's
        # sensing threshold
        scn = make_scenario([], grid=make_grid(10, 10, 100.0))
        requests = [_request("r1", (450.0, 250.0), desired=0.0),
                    _request("r2", (850.0, 850.0), desired=-5.0)]
        result = compare_policies(scn, requests, margin_db=0.0, sensitivity_dbm=-90.0)
        assert result.quantified.admitted_count == 2
        assert result.osa.admitted_count == 2
        assert result.quantified.violation_count == 0
        assert result.osa.violation_count == 0

    def test_receiver_already_below_beta_is_not_blamed(self):
        # The weak link starts ~66 dB below beta with no request at all.
        scn = make_scenario([make_link("inc", (250.0, 250.0), (350.0, 250.0), 20.0),
                             make_link("weak", (950.0, 950.0), (300.0, 250.0), -10.0)],
                            grid=make_grid(10, 10, 100.0))
        assert sinr_db(scn, scn.receiver("weak-rx"), 0) < -50.0
        result = compare_policies(scn, [], margin_db=0.0, sensitivity_dbm=-90.0)
        for side in (result.quantified, result.osa):
            assert side.violation_count == 0
            assert side.violation_total_db == 0.0

    def test_silent_linked_transmitter_is_not_blamed(self):
        # The receiver listens in quanta 0 and 1, its transmitter talks only in
        # 0: SINR is -inf in quantum 1 before any admission.
        scn = make_scenario(
            [RFNetwork(id="inc", transmitters=(
                Transmitter(id="inc-tx", network_id="inc", position=(250.0, 250.0),
                            tx_power_dbm=20.0, band=0, quanta=frozenset({0})),
            ), receivers=(
                Receiver(id="inc-rx", network_id="inc", position=(350.0, 250.0), band=0,
                         quanta=frozenset({0, 1}), beta_db=10.0, noise_floor_dbm=-100.0,
                         linked_tx_id="inc-tx"),
            ))],
            grid=make_grid(10, 10, 100.0), dims=SpectrumSpaceDims(b_hat=1, t_hat=2))
        assert sinr_db(scn, scn.receiver("inc-rx"), 1) == float("-inf")
        requests = [_request("r1", (850.0, 850.0), desired=-20.0, quanta=(0, 1))]
        result = compare_policies(scn, requests, margin_db=0.0, sensitivity_dbm=-30.0)
        for side in (result.quantified, result.osa):
            assert side.violation_count == 0
            assert side.violation_total_db == 0.0

    def test_healthy_receiver_pushed_below_beta_is_still_counted(self):
        # Beside a receiver that starts below beta, the sensing baseline's
        # entrant pushes the healthy one under: only that one counts.
        scn = make_scenario([make_link("inc", (250.0, 250.0), (350.0, 250.0), 20.0),
                             make_link("weak", (950.0, 950.0), (850.0, 150.0), -10.0)],
                            grid=make_grid(10, 10, 100.0))
        healthy, weak = scn.receiver("inc-rx"), scn.receiver("weak-rx")
        assert sinr_db(scn, healthy, 0) >= healthy.beta_db > sinr_db(scn, weak, 0)
        requests = [_request("r1", (450.0, 250.0), desired=25.0)]
        result = compare_policies(scn, requests, margin_db=0.0, sensitivity_dbm=-30.0)
        assert result.osa.admitted_count == 1
        _, final = admit_osa(scn, requests, -30.0)
        assert sinr_db(final, weak, 0) < weak.beta_db
        assert result.osa.violation_count == 1
        assert result.osa.violation_total_db == healthy.beta_db - sinr_db(final, healthy, 0)
        assert result.quantified.violation_count == 0

    def test_deterministic(self):
        scn = comparison_family()
        requests = [_request("r1", (450.0, 250.0), desired=25.0),
                    _request("r2", (650.0, 250.0), desired=15.0, priority=1)]
        first = compare_policies(scn, requests, margin_db=3.0, sensitivity_dbm=-70.0)
        second = compare_policies(scn, requests, margin_db=3.0, sensitivity_dbm=-70.0)
        assert first == second


def _protected_subset(scn, seed):
    """None for even seeds, else every other receiver in declaration order."""
    return None if seed % 2 == 0 else [rx.id for rx in scn.receivers()][::2]


class TestIncrementalBudget:
    """Admission's incrementally kept link budget against budgets built from scratch."""

    def admit_and_compare(self, monkeypatch, scn, requests, protected):
        added = []
        real_add = LinkBudget.add

        def add_then_compare(budget, scenario, tx):
            real_add(budget, scenario, tx)
            fresh = LinkBudget(scenario, protected)
            for band in range(scenario.dims.b_hat):
                for quantum in range(scenario.dims.t_hat):
                    kept, rebuilt = budget.slice(band, quantum), fresh.slice(band, quantum)
                    assert [rx.id for rx in kept.receivers] == [rx.id for rx in rebuilt.receivers]
                    assert kept.signal == rebuilt.signal
                    assert kept.interference == rebuilt.interference
                    assert kept.margin == rebuilt.margin
            added.append(tx.id)

        def entrant_ids(scenario):
            net = scenario.network(ENTRANT_NETWORK_ID)
            return [tx.id for tx in net.transmitters] if net else []

        monkeypatch.setattr(LinkBudget, "add", add_then_compare)
        outcome, final = admit_quantified(scn, requests, 1.0, protected)
        assert entrant_ids(scn) + added == entrant_ids(final)
        return outcome, final

    @pytest.mark.parametrize("seed", range(12))
    def test_equals_a_rebuilt_budget_after_every_admission(self, monkeypatch, seed):
        scn = random_scenario(seed, b_hat=2, t_hat=2, n_networks=3)
        requests = random_requests(seed + 100, scn, n=10)
        outcome, _ = self.admit_and_compare(monkeypatch, scn, requests, _protected_subset(scn, seed))
        assert outcome.admitted_count > 0

    @pytest.mark.parametrize("seed", range(4))
    def test_pre_existing_entrants_network_before_others(self, monkeypatch, seed):
        # New entrants join the "entrants" network, which here is not the
        # last one, so each lands mid-way through the declaration order.
        scn = random_scenario(seed, b_hat=2, t_hat=2, n_networks=3)
        first = scn.networks[0]
        entrants = dataclasses.replace(
            first, id=ENTRANT_NETWORK_ID, receivers=(),
            transmitters=tuple(dataclasses.replace(tx, network_id=ENTRANT_NETWORK_ID)
                               for tx in first.transmitters))
        scn = make_scenario((entrants,) + scn.networks[1:] + (make_link(
            "last", (10.0, 10.0), (60.0, 10.0), 20.0, quanta=(0, 1)),),
            grid=scn.grid, dims=scn.dims)
        requests = random_requests(seed + 200, scn, n=10)
        _, final = self.admit_and_compare(monkeypatch, scn, requests, None)
        assert final.networks[-1].id == "last"

    def test_entrant_linked_to_a_protected_receiver_sets_its_signal(self):
        # A budget fed a transmitter some receiver links to must replace that
        # receiver's signal, as a rebuild would, not count it as interference.
        full = make_scenario([make_link("a", (50.0, 50.0), (150.0, 50.0), 20.0)])
        net = full.networks[0]
        budget = LinkBudget(dataclasses.replace(full, networks=(
            dataclasses.replace(net, transmitters=()),)))
        assert budget.slice(0, 0).signal == [0.0]
        budget.add(full, net.transmitters[0])
        fresh = LinkBudget(full).slice(0, 0)
        assert budget.slice(0, 0).signal == fresh.signal
        assert budget.slice(0, 0).interference == fresh.interference == [0.0]
        assert budget.slice(0, 0).margin == fresh.margin


class TestSliceState:
    """After every add in a sectored walk, each slice state the walk's budget has built equals that
    of a budget built fresh on the augmented scenario: its active transmitters, its receivers with
    their margins, and its opportunity_at_cell answers."""

    def walk_and_compare(self, monkeypatch, scn, requests, protected):
        """Run the quantified and the sensing walk; returns (slice states appended to, dropped)."""
        counts = [0, 0]
        real_add = LinkBudget.add
        grid = scn.grid
        cells = [(ix, iy) for ix in range(0, grid.n_x, 3) for iy in range(0, grid.n_y, 3)]

        def add_then_compare(budget, scenario, tx):
            keys = [(tx.band, q) for q in sorted(tx.quanta)]
            built = [key for key in keys if key in budget._active or key in budget._slices]
            real_add(budget, scenario, tx)
            appended = scenario.networks[-1].transmitters[-1:] == (tx,)
            counts[0 if appended else 1] += len(built)
            if not appended:
                assert not any(key in budget._active or key in budget._slices for key in keys)
            fresh = LinkBudget(scenario, budget._receivers)
            for key in list(budget._active):
                assert budget.active(*key) == fresh.active(*key)
            for key, found in budget._slices.items():
                assert found == fresh.slice(*key)
                for cell in cells:
                    assert budget.opportunity_at_cell(*key, cell) == fresh.opportunity_at_cell(*key, cell)

        # a context per walk, so a later walk's wrapper does not call an earlier walk's, whose
        # cells belong to another grid
        with monkeypatch.context() as patched:
            patched.setattr(LinkBudget, "add", add_then_compare)
            admit_quantified(scn, requests, 1.0, protected)
            admit_osa(scn, requests, -80.0)
        return counts

    def test_appended_states_equal_fresh_ones(self, monkeypatch):
        appended = 0
        for seed in range(6):
            scn = sectored_scenario(seed)
            counts = self.walk_and_compare(monkeypatch, scn, random_requests(seed + 500, scn, n=10),
                                           _protected_subset(scn, seed))
            assert counts[1] == 0
            appended += counts[0]
        assert appended > 0

    def test_dropped_states_are_rebuilt_equal_to_fresh_ones(self, monkeypatch):
        # The entrants network comes first, so every entrant lands mid-way
        # through the declaration order and the slices it is active in are dropped.
        dropped = 0
        for seed in range(3):
            scn = sectored_scenario(seed)
            first = scn.networks[0]
            entrants = dataclasses.replace(
                first, id=ENTRANT_NETWORK_ID, receivers=(),
                transmitters=tuple(dataclasses.replace(tx, network_id=ENTRANT_NETWORK_ID)
                                   for tx in first.transmitters))
            scn = make_scenario((entrants,) + scn.networks[1:], grid=scn.grid, dims=scn.dims)
            counts = self.walk_and_compare(monkeypatch, scn, random_requests(seed + 600, scn, n=10), None)
            assert counts[0] == 0
            dropped += counts[1]
        assert dropped > 0


class TestCommandsAgree:
    """An entrant admit grants passes enforce, enforce's register is admit's, and compare-osa's
    quantified side is admit (ROADMAP item 5), over random and sectored scenarios."""

    @pytest.mark.parametrize("margin_db", [0.0, 3.0])
    @pytest.mark.parametrize("make", [random_scenario, sectored_scenario])
    def test_register_enforce_and_comparison_agree_with_admission(self, make, margin_db):
        started = time.perf_counter()
        admitted = 0
        for seed in range(60):
            scn = make(seed)
            requests = random_requests(20_000 + seed, scn, n=10)
            protected = _protected_subset(scn, seed)
            outcome, final = admit_quantified(scn, requests, margin_db, protected)
            grants = [grant for o in outcome.outcomes for grant in o.grants]
            assert rights_register(final, requests, margin_db, protected)[0] == grants
            entrants = final.network(ENTRANT_NETWORK_ID)
            entrant_ids = {tx.id for tx in entrants.transmitters} if entrants else set()
            assert [v for v in enforce(grants, final, tolerance_db=0.0) if v.tx_id in entrant_ids] == []
            comparison = compare_policies(scn, requests, margin_db, -80.0, protected)
            assert comparison.quantified.outcomes == outcome.outcomes
            admitted += outcome.admitted_count
        assert admitted > 0
        assert time.perf_counter() - started < 60.0


class TestOneAdmissionWalk:
    """The comparison runs the walks the two admissions run, and nothing more."""

    # With a 25 dB guard margin and a -80 dBm threshold, both sides admit
    # and refuse requests across these seeds.
    @pytest.mark.parametrize("seed", range(6))
    def test_comparison_outcomes_equal_the_admissions(self, seed):
        scn = random_scenario(seed, b_hat=2, t_hat=2)
        requests = random_requests(seed + 400, scn, n=10)
        protected = _protected_subset(scn, seed)
        result = compare_policies(scn, requests, 25.0, -80.0, protected)
        quantified, _ = admit_quantified(scn, requests, 25.0, protected)
        osa, _ = admit_osa(scn, requests, -80.0)
        assert result.quantified.outcomes == quantified.outcomes
        assert result.osa.outcomes == osa.outcomes
        assert result.quantified.admitted_count == quantified.admitted_count
        assert result.osa.admitted_count == osa.admitted_count

    @pytest.mark.parametrize("world", [*range(8), "crowded"])
    def test_quantified_post_available_is_that_of_the_final_scenario(self, world):
        """Bit for bit: the kept budget's margins have shrunk with every entrant, and the fold's
        cap windows must be those of the final margins, as a fresh budget's are. On
        crowded_scenario the windows cut the grid and the entrants shrink margins by more than
        the windows' guard, so windows of the margins before admission would be too small."""
        if world == "crowded":
            scn = crowded_scenario()
            requests = random_requests(5, scn, n=10)
        else:
            scn = random_scenario(world, b_hat=2, t_hat=2)
            requests = random_requests(world + 400, scn, n=10)
        outcome, final = admit_quantified(scn, requests, 3.0)
        assert outcome.admitted_count > 0
        assert outcome.post_available == available_spectrum(final)

    @pytest.mark.parametrize("seed", range(4))
    def test_osa_post_available_is_that_of_the_final_scenario(self, seed):
        scn = random_scenario(seed, b_hat=2, t_hat=2)
        outcome, final = admit_osa(scn, random_requests(seed + 400, scn, n=10), -80.0)
        assert outcome.admitted_count > 0
        assert outcome.post_available == available_spectrum(final)

    def test_comparison_computes_no_available_spectrum(self, monkeypatch):
        def refuse(budget):
            raise AssertionError("available spectrum computed")

        monkeypatch.setattr(LinkBudget, "available_spectrum", refuse)
        scn = comparison_family()
        result = compare_policies(scn, [_request("r1", (450.0, 250.0), desired=25.0)],
                                  margin_db=0.0, sensitivity_dbm=-30.0)
        assert result.quantified.admitted_count == result.osa.admitted_count == 1


class TestEntrantUnion:
    """compare_policies unions the entrants' consumption in one pass per slice."""

    @pytest.mark.parametrize("seed", range(6))
    def test_exploited_equals_the_pairwise_union(self, seed):
        scn = random_scenario(seed, b_hat=2, t_hat=2)
        requests = random_requests(seed + 400, scn, n=10)
        result = compare_policies(scn, requests, 25.0, -80.0)
        _, quantified = admit_quantified(scn, requests, 25.0)
        _, osa = admit_osa(scn, requests, -80.0)
        for summary, final in [(result.quantified, quantified), (result.osa, osa)]:
            entrants = final.network(ENTRANT_NETWORK_ID).transmitters
            assert len(entrants) >= 2
            union = reduce(lambda a, b: combine_consumption(a, b, final.bounds),
                           [tx_consumption(tx, final) for tx in entrants])
            assert summary.exploited == quantify(union, final.grid, final.dims)

    def test_overlapping_entrants_clip_once(self):
        # With no reference loss an entrant's own cell receives its full power,
        # so two entrants at p_max in one cell overlap beyond the point scale.
        lossless = PropagationConfig(reference_loss_db=0.0)
        scn = make_scenario([], grid=make_grid(10, 10, 100.0), prop=lossless)
        requests = [_request("r1", (450.0, 250.0)), _request("r2", (450.0, 250.0))]
        result = compare_policies(scn, requests, margin_db=0.0, sensitivity_dbm=-90.0)
        _, final = admit_quantified(scn, requests, 0.0)
        a, b = (tx_consumption(tx, final) for tx in final.network(ENTRANT_NETWORK_ID).transmitters)
        assert a.slices[(0, 0)][2, 4] == b.slices[(0, 0)][2, 4] == BOUNDS.p_cmax_linear
        union = quantify(combine_consumption(a, b, BOUNDS), final.grid, final.dims)
        assert result.quantified.exploited == union
        assert union.value < quantify(a, final.grid).value + quantify(b, final.grid).value

    def test_an_incumbent_network_named_like_the_entrants_is_not_exploitation(self):
        # campus.json with its sensors network renamed "entrants": each side's entrants join that
        # incumbent network, and only they count, so nothing moves from campus.json itself
        data = json.loads(CAMPUS.read_text())
        assert data["networks"][1]["id"] == "sensors"
        data["networks"][1]["id"] = ENTRANT_NETWORK_ID
        renamed, campus = parse_document(data), load_document(CAMPUS)
        after = compare_policies(renamed.scenario, renamed.requests, 3.0, -90.0)
        before = compare_policies(campus.scenario, campus.requests, 3.0, -90.0)
        for side in ("quantified", "osa"):
            assert getattr(after, side).outcomes == getattr(before, side).outcomes
            assert getattr(after, side).exploited == getattr(before, side).exploited
        assert before.quantified.exploited.value > 0.0 and before.osa.exploited.value > 0.0

    def test_slices_no_entrant_is_active_in_stay_idle_views(self, monkeypatch):
        # Both entrants transmit in band 0, quantum 0 only: that slice sums a
        # copy of the first one's cells, and every other slice is left as an
        # entrant's read-only, zero-stride idle view, neither copied nor clipped.
        scn = make_scenario([], grid=make_grid(6, 4, 100.0), dims=SpectrumSpaceDims(b_hat=2, t_hat=2))
        requests = [_request("r1", (150.0, 150.0)), _request("r2", (450.0, 250.0))]
        unions = []
        real_quantify = admission_module.quantify

        def recording(space, grid, dims=None):
            unions.append(space)
            return real_quantify(space, grid, dims)

        monkeypatch.setattr(admission_module, "quantify", recording)
        result = compare_policies(scn, requests, margin_db=3.0, sensitivity_dbm=-90.0)
        assert len(unions) == 2 and unions[0].entity_ids == frozenset({"r1", "r2"})
        for space in unions:
            for key, cells in space.slices.items():
                built = key == (0, 0)
                assert cells.flags.writeable == cells.flags.c_contiguous == built
                assert (cells.strides == (0, 0)) != built
                assert np.all(cells == 0.0) != built
        for summary in (result.quantified, result.osa):
            assert [summary.exploited.breakdown[key] for key in [(0, 1), (1, 0), (1, 1)]] == [0.0] * 3


class TestAgainstStraightLoopAdmission:
    # A 25 dB guard margin makes refusals, and so limiting receivers, common.
    @pytest.mark.parametrize("margin_db", [2.0, 25.0])
    @pytest.mark.parametrize("seed", range(20))
    def test_bands_powers_and_limiting_receivers(self, seed, margin_db):
        scn = random_scenario(seed, b_hat=2, t_hat=2)
        requests = random_requests(seed + 300, scn, n=10)
        protected = _protected_subset(scn, seed)
        outcome, _ = admit_quantified(scn, requests, margin_db, protected)
        expected = o_admit(scn, requests, margin_db, None if protected is None else set(protected))
        assert [o.request_id for o in outcome.outcomes] == [e[0] for e in expected]
        for got, (_, bands, powers, limits) in zip(outcome.outcomes, expected):
            assert got.admitted == bool(bands)
            assert list(got.bands) == bands
            assert list(got.powers_dbm) == pytest.approx(powers, rel=1e-12, abs=0.0)
            assert [r.limiting_rx_id for r in got.refusals] == limits
