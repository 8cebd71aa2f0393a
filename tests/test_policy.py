import math
from pathlib import Path

import numpy as np
import pytest

from spectrumspace import (
    Grant,
    Grid,
    PowerField,
    PriceSheet,
    Receiver,
    Refusal,
    RFNetwork,
    RightsRequest,
    Scenario,
    ScenarioValidationError,
    SpectrumQuantity,
    SpectrumSpaceDims,
    Transmitter,
    apply_guard_margin,
    attribute_harmful_interference,
    db_to_linear,
    define_rights,
    enforce,
    opportunity_map,
    price,
)
from spectrumspace.scenario_io import load_scenario

from helpers import (
    BOUNDS,
    PROP,
    make_grid,
    make_link,
    make_scenario,
    o_lin,
    o_signal_interference,
)


CAMPUS = Path(__file__).resolve().parents[1] / "demos" / "scenarios" / "campus.json"


def canonical_link():
    return make_scenario([make_link("a", (50.0, 50.0), (150.0, 50.0), 30.0)],
                         grid=make_grid(12, 1, 100.0))


def _integrated_above_floor(field: PowerField, grid) -> float:
    above = db_to_linear(field.values_dbm) - BOUNDS.p_min_linear
    return float(np.sum(above)) * grid.cell_area / 1000.0


class TestGuardMargin:
    def test_zero_margin_is_identity(self):
        scn = canonical_link()
        field = opportunity_map(scn, 0, 0)
        guarded = apply_guard_margin(field, 0.0, BOUNDS)
        np.testing.assert_array_equal(guarded.values_dbm, field.values_dbm)
        assert (guarded.band, guarded.quantum) == (field.band, field.quantum)

    def test_uniform_shift(self):
        field = PowerField(0, 0, np.full((2, 3), 20.0))
        guarded = apply_guard_margin(field, 10.0, BOUNDS)
        np.testing.assert_array_equal(guarded.values_dbm, 10.0)

    def test_floor_is_not_crossed(self):
        field = PowerField(0, 0, np.full((1, 2), BOUNDS.p_min_dbm + 3.0))
        guarded = apply_guard_margin(field, 10.0, BOUNDS)
        np.testing.assert_array_equal(guarded.values_dbm, BOUNDS.p_min_dbm)

    def test_negative_margin_rejected(self):
        field = PowerField(0, 0, np.zeros((1, 1)))
        with pytest.raises(ValueError, match="non-negative"):
            apply_guard_margin(field, -1.0, BOUNDS)

    @pytest.mark.parametrize("margin_db", [math.nan, math.inf, -math.inf])
    def test_non_finite_margin_rejected(self, margin_db):
        # a NaN margin used to give back an all-NaN field
        field = PowerField(0, 0, np.zeros((1, 1)))
        with pytest.raises(ValueError, match="finite"):
            apply_guard_margin(field, margin_db, BOUNDS)

    def test_larger_margin_never_leaves_more_available(self):
        scn = canonical_link()
        field = opportunity_map(scn, 0, 0)
        small = _integrated_above_floor(apply_guard_margin(field, 2.0, BOUNDS), scn.grid)
        large = _integrated_above_floor(apply_guard_margin(field, 5.0, BOUNDS), scn.grid)
        assert large <= small


class TestDefineRights:
    def test_unconstrained_request_gets_desired_power(self):
        scn = make_scenario([], grid=make_grid(12, 1, 100.0))
        request = RightsRequest(tx_id="e1", position=(250.0, 50.0), desired_dbm=30.0,
                                min_useful_dbm=0.0, band=0, quanta=frozenset({0}))
        grant = define_rights(scn, request, margin_db=0.0)
        assert isinstance(grant, Grant)
        assert grant.grant_id == "grant:e1:b0"
        assert grant.caps_dbm == {(0, 0): {(2, 0): 30.0}}
        assert grant.cap_dbm() == 30.0

    def test_cap_dbm_of_a_uniform_multi_slice_grant(self):
        scn = make_scenario([make_link("a", (50.0, 50.0), (150.0, 50.0), 30.0, quanta=(0, 1))],
                            grid=make_grid(12, 1, 100.0), dims=SpectrumSpaceDims(t_hat=2))
        request = RightsRequest(tx_id="e1", position=(250.0, 50.0), desired_dbm=5.0,
                                min_useful_dbm=0.0, band=0, quanta=frozenset({0, 1}))
        grant = define_rights(scn, request, margin_db=0.0)
        assert len(grant.caps_dbm) == 2
        assert grant.cap_dbm() == 5.0

    def test_cap_dbm_refuses_differing_caps(self):
        # The first cap inserted is not the binding one.
        grant = Grant(grant_id="g", grantee_tx_id="e1", margin_db=0.0,
                      caps_dbm={(0, 0): {(2, 0): 7.0}, (0, 1): {(2, 0): 5.0}})
        with pytest.raises(ValueError, match="2 distinct caps"):
            grant.cap_dbm()
        with pytest.raises(ValueError, match="0 distinct caps"):
            Grant(grant_id="g", grantee_tx_id="e1", margin_db=0.0, caps_dbm={}).cap_dbm()

    def test_desired_below_opportunity_is_kept(self):
        scn = canonical_link()
        request = RightsRequest(tx_id="e1", position=(250.0, 50.0), desired_dbm=5.0,
                                min_useful_dbm=0.0, band=0, quanta=frozenset({0}))
        grant = define_rights(scn, request, margin_db=0.0)
        assert grant.cap_dbm() == 5.0

    def test_guarded_refusal_names_the_limiting_receiver(self):
        scn = canonical_link()
        request = RightsRequest(tx_id="e1", position=(250.0, 50.0), desired_dbm=30.0,
                                min_useful_dbm=15.0, band=0, quanta=frozenset({0}))
        refusal = define_rights(scn, request, margin_db=10.0)
        assert isinstance(refusal, Refusal)
        assert refusal.limiting_rx_id == "a-rx"
        assert refusal.guarded_opportunity_dbm == pytest.approx(9.999565683801926, rel=1e-12)
        assert "minimum useful" in refusal.reason

    def test_cap_uses_the_worst_requested_quantum(self):
        # an extra interferer active only in quantum 1 drags that margin down
        tx = Transmitter(id="a-tx", network_id="a", position=(50.0, 50.0),
                         tx_power_dbm=30.0, band=0, quanta=frozenset({0, 1}))
        rx = Receiver(id="a-rx", network_id="a", position=(150.0, 50.0), band=0,
                      quanta=frozenset({0, 1}), beta_db=10.0, noise_floor_dbm=-100.0,
                      linked_tx_id="a-tx")
        interferer = Transmitter(id="i-tx", network_id="i", position=(1150.0, 50.0),
                                 tx_power_dbm=20.0, band=0, quanta=frozenset({1}))
        scn = make_scenario(
            [RFNetwork(id="a", transmitters=(tx,), receivers=(rx,)),
             RFNetwork(id="i", transmitters=(interferer,))],
            grid=make_grid(12, 1, 100.0), dims=SpectrumSpaceDims(b_hat=1, t_hat=2))
        request = RightsRequest(tx_id="e1", position=(250.0, 50.0), desired_dbm=30.0,
                                min_useful_dbm=0.0, band=0, quanta=frozenset({0, 1}))
        grant = define_rights(scn, request, margin_db=0.0)
        assert grant.cap_dbm() == pytest.approx(19.955913242523536, rel=1e-12)
        assert set(grant.caps_dbm) == {(0, 0), (0, 1)}

    def test_invalid_arguments(self):
        scn = canonical_link()
        request = RightsRequest(tx_id="e1", position=(250.0, 50.0), desired_dbm=30.0,
                                min_useful_dbm=0.0, band=0, quanta=frozenset({0}))
        with pytest.raises(ValueError, match="non-negative"):
            define_rights(scn, request, margin_db=-2.0)
        for margin_db in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="finite"):
                define_rights(scn, request, margin_db=margin_db)
        empty = RightsRequest(tx_id="e1", position=(250.0, 50.0), desired_dbm=30.0,
                              min_useful_dbm=0.0, band=0, quanta=frozenset())
        with pytest.raises(ValueError, match="no time quanta"):
            define_rights(scn, empty, margin_db=0.0)

    @pytest.mark.parametrize("desired, min_useful, named", [
        (math.nan, -20.0, "request 'e1': desired_dbm must be finite (got nan)"),
        (0.0, math.nan, "request 'e1': min_useful_dbm must be finite (got nan)"),
        (0.0, 5.0, "request 'e1': min useful power exceeds desired power "
                   "(min_useful_dbm 5.0 > desired_dbm 0.0)"),
    ])
    def test_a_request_is_checked_as_an_access_request(self, desired, min_useful, named):
        # a NaN power once gave a NaN cap, and a minimum above the desired power a refusal
        # blaming an opportunity that is above that minimum
        request = RightsRequest(tx_id="e1", position=(475.0, 125.0), desired_dbm=desired,
                                min_useful_dbm=min_useful, band=0, quanta=frozenset({0}))
        with pytest.raises(ScenarioValidationError) as err:
            define_rights(load_scenario(CAMPUS), request, margin_db=0.0)
        assert err.value.errors == [named]

    def test_a_position_given_as_a_list_or_array_is_still_checked_and_granted(self):
        scn = load_scenario(CAMPUS)
        for position in ([475.0, 125.0], np.array([475.0, 125.0])):
            request = RightsRequest(tx_id="e1", position=position, desired_dbm=10.0,
                                    min_useful_dbm=-20.0, band=0, quanta=frozenset({0}))
            assert isinstance(define_rights(scn, request, margin_db=0.0), Grant)


def _observed(power_dbm, position=(250.0, 50.0), tx_id="e1", band=0, quanta=(0,)):
    tx = Transmitter(id=tx_id, network_id="entrants", position=position,
                     tx_power_dbm=power_dbm, band=band, quanta=frozenset(quanta))
    return make_scenario(
        [make_link("a", (50.0, 50.0), (150.0, 50.0), 30.0),
         RFNetwork(id="entrants", transmitters=(tx,))],
        grid=make_grid(12, 1, 100.0))


class TestEnforce:
    def _grant(self):
        request = RightsRequest(tx_id="e1", position=(250.0, 50.0), desired_dbm=30.0,
                                min_useful_dbm=-30.0, band=0, quanta=frozenset({0}))
        return define_rights(canonical_link(), request, margin_db=0.0)

    @staticmethod
    def _against(tx_id, violations):
        return [v for v in violations if v.tx_id == tx_id]

    def test_compliant_at_cap_passes_any_tolerance(self):
        grant = self._grant()
        observed = _observed(grant.cap_dbm())
        assert self._against("e1", enforce([grant], observed, tolerance_db=0.0)) == []

    def test_within_tolerance_passes(self):
        grant = self._grant()
        observed = _observed(grant.cap_dbm() + 0.4)
        assert self._against("e1", enforce([grant], observed)) == []

    def test_over_tolerance_is_flagged(self):
        grant = self._grant()
        observed = _observed(grant.cap_dbm() + 0.6)
        violations = self._against("e1", enforce([grant], observed))
        assert len(violations) == 1
        v = violations[0]
        assert (v.grant_id, v.tx_id, v.cell, v.band, v.quantum) == (
            grant.grant_id, "e1", (2, 0), 0, 0)
        assert v.excess_db == pytest.approx(0.6, abs=1e-9)

    @pytest.mark.parametrize("tolerance_db", [math.nan, math.inf, -math.inf])
    def test_non_finite_tolerance_rejected(self, tolerance_db):
        # a NaN or infinite tolerance used to pass a transmitter 5 dB over its cap
        grant = self._grant()
        observed = _observed(grant.cap_dbm() + 5.0)
        with pytest.raises(ValueError, match="finite"):
            enforce([grant], observed, tolerance_db=tolerance_db)

    def test_negative_tolerance_rejected(self):
        # a negative tolerance flagged an entrant transmitting exactly at its cap
        grant = self._grant()
        with pytest.raises(ValueError, match=r"tolerance must be finite and non-negative \(got -1.0\)"):
            enforce([grant], _observed(grant.cap_dbm()), tolerance_db=-1.0)

    def test_ungranted_transmitter_reported_against_floor(self):
        observed = _observed(10.0)
        violations = enforce([], observed)
        # both the incumbent and the entrant lack grants here
        flagged = {v.tx_id: v for v in violations}
        assert flagged["e1"].granted_dbm == BOUNDS.p_min_dbm
        assert flagged["e1"].excess_db == pytest.approx(135.0, abs=1e-9)
        assert flagged["e1"].grant_id is None
        assert flagged["a-tx"].excess_db == pytest.approx(155.0, abs=1e-9)

    def test_floor_level_transmitter_is_not_flagged(self):
        observed = _observed(BOUNDS.p_min_dbm)
        violations = enforce([], observed)
        assert "e1" not in {v.tx_id for v in violations}

    def test_a_transmitter_one_ulp_inside_the_upper_edge_is_audited(self):
        # floor((x - origin) / cell_size) rounds up to n_x there; the cell is still the last one
        grid = Grid((-397.5, 0.0), 32.1, 22, 1)
        x = math.nextafter(grid.extent[2], -math.inf)
        observed = make_scenario([make_link("a", (x, 10.0), (0.0, 10.0), 10.0)], grid=grid)
        violations = enforce([], observed)
        assert [(v.tx_id, v.cell) for v in violations] == [("a-tx", (21, 0))]

    def test_absent_grantee_is_compliant(self):
        grant = self._grant()
        assert self._against("e1", enforce([grant], canonical_link())) == []

    def test_transmitting_from_an_uncovered_cell_is_unauthorized(self):
        grant = self._grant()
        observed = _observed(grant.cap_dbm(), position=(350.0, 50.0))
        flagged = {v.tx_id: v for v in enforce([grant], observed)}
        assert flagged["e1"].grant_id is None
        assert flagged["e1"].granted_dbm == BOUNDS.p_min_dbm
        assert flagged["e1"].cell == (3, 0)

    def test_best_cap_among_overlapping_grants_wins(self):
        lenient = Grant(grant_id="g-hi", grantee_tx_id="e1",
                        caps_dbm={(0, 0): {(2, 0): 15.0}}, margin_db=0.0)
        strict = Grant(grant_id="g-lo", grantee_tx_id="e1",
                       caps_dbm={(0, 0): {(2, 0): 10.0}}, margin_db=0.0)
        observed = _observed(14.0)
        assert self._against("e1", enforce([strict, lenient], observed)) == []
        violations = self._against("e1", enforce([strict], observed))
        assert len(violations) == 1
        assert violations[0].granted_dbm == 10.0


def attribution_scenario():
    """Two interferers deliver 2e-7 and 8e-7 mW while the link tolerates 5e-7."""
    p_link = 26.990568545476677    # 5.001e-6 mW received over 100 m
    p_i1 = 13.010299956639813      # 2e-7 mW over 100 m
    p_i2 = 28.57332496431269       # 8e-7 mW over 300 m
    tx = Transmitter(id="v-tx", network_id="v", position=(150.0, 50.0),
                     tx_power_dbm=p_link, band=0, quanta=frozenset({0}))
    rx = Receiver(id="v-rx", network_id="v", position=(50.0, 50.0), band=0,
                  quanta=frozenset({0}), beta_db=10.0, noise_floor_dbm=-100.0,
                  linked_tx_id="v-tx")
    i1 = Transmitter(id="i1", network_id="w1", position=(50.0, 150.0),
                     tx_power_dbm=p_i1, band=0, quanta=frozenset({0}))
    i2 = Transmitter(id="i2", network_id="w2", position=(350.0, 50.0),
                     tx_power_dbm=p_i2, band=0, quanta=frozenset({0}))
    return make_scenario([
        RFNetwork(id="v", transmitters=(tx,), receivers=(rx,)),
        RFNetwork(id="w1", transmitters=(i1,)),
        RFNetwork(id="w2", transmitters=(i2,)),
    ], grid=make_grid(10, 10, 100.0))


class TestAttribution:
    def test_proportional_shares(self):
        scn = attribution_scenario()
        shares = attribute_harmful_interference("v-rx", scn, 0)
        assert set(shares) == {"i1", "i2"}
        assert shares["i1"] == pytest.approx(1e-7, rel=1e-9)
        assert shares["i2"] == pytest.approx(4e-7, rel=1e-9)

    def test_shares_conserve_the_excess(self):
        scn = attribution_scenario()
        rx = scn.receiver("v-rx")
        shares = attribute_harmful_interference(rx, scn, 0)
        signal, interference = o_signal_interference(scn, rx, 0)
        allowed = max(0.0, signal / o_lin(rx.beta_db) - o_lin(rx.noise_floor_dbm))
        excess = interference - allowed
        assert sum(shares.values()) == pytest.approx(excess, rel=1e-12)
        assert all(s >= 0.0 for s in shares.values())

    def test_single_interferer_takes_the_full_excess(self):
        scn = attribution_scenario()
        pruned = Scenario(
            grid=scn.grid, dims=scn.dims, bounds=scn.bounds, propagation=scn.propagation,
            networks=tuple(net for net in scn.networks if net.id != "w1"))
        rx = pruned.receiver("v-rx")
        shares = attribute_harmful_interference(rx, pruned, 0)
        signal, interference = o_signal_interference(pruned, rx, 0)
        allowed = max(0.0, signal / o_lin(rx.beta_db) - o_lin(rx.noise_floor_dbm))
        assert set(shares) == {"i2"}
        assert shares["i2"] == pytest.approx(interference - allowed, rel=1e-12)
        assert shares["i2"] == pytest.approx(3e-7, rel=1e-9)

    def test_healthy_link_attributes_nothing(self):
        scn = make_scenario(
            [make_link("a", (50.0, 50.0), (150.0, 50.0), 30.0),
             RFNetwork(id="w", transmitters=(Transmitter(
                 id="weak", network_id="w", position=(1150.0, 50.0),
                 tx_power_dbm=-20.0, band=0, quanta=frozenset({0})),))],
            grid=make_grid(12, 1, 100.0))
        shares = attribute_harmful_interference("a-rx", scn, 0)
        assert shares == {"weak": 0.0}

    def test_no_interferers_yields_empty_mapping(self):
        scn = make_scenario([make_link("a", (50.0, 50.0), (150.0, 50.0), 30.0)],
                            grid=make_grid(12, 1, 100.0))
        assert attribute_harmful_interference("a-rx", scn, 0) == {}

    def test_unknown_receiver_rejected(self):
        with pytest.raises(ValueError, match="unknown receiver"):
            attribute_harmful_interference("ghost", attribution_scenario(), 0)


class TestPrice:
    def test_zero_consumption_is_free(self):
        assert price(SpectrumQuantity(0.0), PriceSheet(rate=5.0)) == 0.0

    def test_flat_rate(self):
        assert price(SpectrumQuantity(10.0), PriceSheet(rate=2.0)) == 20.0

    def test_slice_rates_dot_breakdown(self):
        consumed = SpectrumQuantity(6.0, {(0, 0): 4.0, (1, 0): 2.0})
        sheet = PriceSheet(slice_rates={(0, 0): 1.0, (1, 0): 3.0})
        assert price(consumed, sheet) == 10.0

    def test_missing_slice_rate_falls_back_to_flat(self):
        consumed = SpectrumQuantity(6.0, {(0, 0): 4.0, (1, 0): 2.0})
        sheet = PriceSheet(rate=2.0, slice_rates={(0, 0): 1.0})
        assert price(consumed, sheet) == 4.0 + 4.0

    def test_additive_over_disjoint_slices(self):
        sheet = PriceSheet(rate=1.5, slice_rates={(0, 0): 2.0, (0, 1): 4.0})
        a = SpectrumQuantity(3.0, {(0, 0): 3.0})
        b = SpectrumQuantity(5.0, {(0, 1): 5.0})
        merged = SpectrumQuantity(8.0, {(0, 0): 3.0, (0, 1): 5.0})
        assert price(merged, sheet) == price(a, sheet) + price(b, sheet)

    def test_negative_rates_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            price(SpectrumQuantity(1.0), PriceSheet(rate=-1.0))
        with pytest.raises(ValueError, match="non-negative"):
            price(SpectrumQuantity(1.0, {(0, 0): 1.0}),
                  PriceSheet(slice_rates={(0, 0): -0.5}))

    @pytest.mark.parametrize("rate", [math.nan, math.inf])
    def test_non_finite_rates_rejected(self, rate):
        # a NaN rate used to price any quantity at NaN
        with pytest.raises(ValueError, match="finite"):
            price(SpectrumQuantity(1.0), PriceSheet(rate=rate))
        with pytest.raises(ValueError, match="finite"):
            price(SpectrumQuantity(1.0, {(0, 0): 1.0}), PriceSheet(slice_rates={(0, 0): rate}))
