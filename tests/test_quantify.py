import math

import numpy as np
import pytest

from spectrumspace import (
    AntennaPattern,
    ConsumptionSpace,
    PowerField,
    Receiver,
    RFNetwork,
    Scenario,
    SpectrumSpaceDims,
    Transmitter,
    available_spectrum,
    combine_consumption,
    db_to_linear,
    denied_consumption,
    harvest_metrics,
    linear_to_db,
    occupancy_at_cell,
    occupancy_linear,
    occupancy_map,
    opportunity_at_cell,
    opportunity_map,
    quantify,
    receiver_margin_linear,
    rx_consumption,
    sinr_db,
    total_spectrum,
    tx_consumption,
)
from spectrumspace.quantify import link_powers, received_linear

from helpers import (
    BOUNDS,
    make_grid,
    make_link,
    make_scenario,
    o_available,
    o_occupancy_cell,
    o_opportunity_cell,
    o_rx_consumption_value,
    o_sinr_db,
    o_tx_consumption_value,
    random_scenario,
)


def canonical_link() -> Scenario:
    """30 dBm tx at (50,50), linked rx 100 m away, on a 12x1 strip of 100 m cells."""
    return make_scenario([make_link("a", (50.0, 50.0), (150.0, 50.0), 30.0)],
                         grid=make_grid(12, 1, 100.0))


def zero_margin_link() -> Scenario:
    """The rx's own link is hopeless (-60 dBm tx at 100 m, beta 10)."""
    return make_scenario([make_link("z", (50.0, 50.0), (150.0, 50.0), -60.0)],
                         grid=make_grid(5, 5, 100.0))


class TestOccupancy:
    def test_empty_scenario_is_floor(self):
        scn = make_scenario([], grid=make_grid(4, 3, 100.0))
        field = occupancy_map(scn, 0, 0)
        assert field.values_dbm.shape == (3, 4)
        np.testing.assert_array_equal(field.values_dbm, -125.0)

    def test_canonical_cells(self):
        scn = canonical_link()
        field = occupancy_map(scn, 0, 0)
        # own cell: distance clamps to 1 m, 30 - 40
        assert field.values_dbm[0, 0] == pytest.approx(-10.0, abs=1e-9)
        # neighbor 100 m away: 30 - 80
        assert field.values_dbm[0, 1] == pytest.approx(-50.0, abs=1e-9)
        assert field.values_dbm[0, 2] == pytest.approx(-56.020599913279625, abs=1e-9)

    def test_colocated_pair_doubles_linear_power(self):
        single = canonical_link()
        twin = Transmitter(id="b-tx", network_id="b", position=(50.0, 50.0),
                           tx_power_dbm=30.0, band=0, quanta=frozenset({0}))
        double = make_scenario(
            [make_link("a", (50.0, 50.0), (150.0, 50.0), 30.0),
             RFNetwork(id="b", transmitters=(twin,))],
            grid=make_grid(12, 1, 100.0))
        delta = (occupancy_map(double, 0, 0).values_dbm[0, 2]
                 - occupancy_map(single, 0, 0).values_dbm[0, 2])
        assert delta == pytest.approx(10.0 * math.log10(2.0), abs=1e-9)

    def test_linear_field_decomposes_exactly_per_network(self):
        net_a = make_link("a", (150.0, 250.0), (350.0, 250.0), 26.0)
        net_b = make_link("b", (750.0, 750.0), (650.0, 650.0), 18.0)
        grid = make_grid(10, 10, 100.0)
        union = make_scenario([net_a, net_b], grid=grid)
        only_a = make_scenario([net_a], grid=grid)
        only_b = make_scenario([net_b], grid=grid)
        np.testing.assert_array_equal(
            occupancy_linear(union, 0, 0),
            occupancy_linear(only_a, 0, 0) + occupancy_linear(only_b, 0, 0))

    def test_map_matches_cell_lookup_and_reference_loop(self):
        scn = random_scenario(seed=3, max_n=8)
        for band in range(scn.dims.b_hat):
            for quantum in range(scn.dims.t_hat):
                field = occupancy_map(scn, band, quantum).values_dbm
                for iy in range(scn.grid.n_y):
                    for ix in range(scn.grid.n_x):
                        got = occupancy_at_cell(scn, band, quantum, (ix, iy))
                        assert field[iy, ix] == pytest.approx(got, abs=1e-9)
                        expected = o_occupancy_cell(scn, band, quantum, ix, iy)
                        assert got == pytest.approx(expected, abs=1e-9)

    def test_slice_index_out_of_range(self):
        scn = canonical_link()
        with pytest.raises(ValueError, match="band index"):
            occupancy_map(scn, 1, 0)
        with pytest.raises(ValueError, match="time quantum"):
            occupancy_at_cell(scn, 0, 5, (0, 0))

    @pytest.mark.parametrize("seed", range(4))
    def test_values_always_within_bounds(self, seed):
        scn = random_scenario(seed=seed, max_n=7)
        field = occupancy_map(scn, 0, 0).values_dbm
        assert np.all(field >= BOUNDS.p_min_dbm)
        assert np.all(field <= BOUNDS.p_max_dbm)


class TestSinrAndMargin:
    def test_canonical_link_sinr(self):
        scn = canonical_link()
        assert sinr_db(scn, scn.receiver("a-rx"), 0) == pytest.approx(50.0, abs=1e-9)
        assert receiver_margin_linear(scn, scn.receiver("a-rx"), 0) == pytest.approx(
            9.999000000000002e-07, rel=1e-12)

    def test_silent_linked_tx_gives_minus_inf(self):
        # rx listens in quantum 1 where its tx is idle
        tx = Transmitter(id="a-tx", network_id="a", position=(50.0, 50.0),
                         tx_power_dbm=30.0, band=0, quanta=frozenset({0}))
        rx = Receiver(id="a-rx", network_id="a", position=(150.0, 50.0), band=0,
                      quanta=frozenset({0, 1}), beta_db=10.0, noise_floor_dbm=-100.0,
                      linked_tx_id="a-tx")
        scn = make_scenario([RFNetwork(id="a", transmitters=(tx,), receivers=(rx,))],
                            grid=make_grid(12, 1, 100.0),
                            dims=SpectrumSpaceDims(b_hat=1, t_hat=2))
        assert sinr_db(scn, rx, 1) == float("-inf")
        assert receiver_margin_linear(scn, rx, 1) == 0.0

    def test_link_powers_splits_linked_signal_from_interferers(self):
        scn = make_scenario([make_link(n, (50.0 + 100.0 * i, 50.0), (150.0 + 100.0 * i, 250.0), 30.0 - i)
                             for i, n in enumerate("cab")], grid=make_grid(5, 5, 100.0))
        rx, config = scn.receiver("a-rx"), scn.propagation
        signal, interference, interferers = link_powers(rx, 0, scn.transmitters(), config)
        assert signal == received_linear(scn.transmitter("a-tx"), rx, config)
        assert list(interferers) == ["c-tx", "b-tx"]
        for tx_id, power in interferers.items():
            assert power == received_linear(scn.transmitter(tx_id), rx, config)
        assert interference == interferers["c-tx"] + interferers["b-tx"]
        assert sinr_db(scn, rx, 0) == linear_to_db(signal / (db_to_linear(-100.0) + interference))

    def test_matches_reference_loop(self):
        scn = random_scenario(seed=11, max_n=9)
        for rx in scn.receivers():
            for quantum in sorted(rx.quanta):
                assert sinr_db(scn, rx, quantum) == pytest.approx(
                    o_sinr_db(scn, rx, quantum), abs=1e-9)


class TestOpportunity:
    def test_no_receivers_means_ceiling_everywhere(self):
        scn = make_scenario([], grid=make_grid(4, 4, 100.0))
        field = opportunity_map(scn, 0, 0)
        np.testing.assert_array_equal(field.values_dbm, 30.0)
        assert field.zero_margin_rx_ids == ()
        value, limiting = opportunity_at_cell(scn, 0, 0, (2, 2))
        assert (value, limiting) == (30.0, None)

    def test_canonical_values(self):
        scn = canonical_link()
        field = opportunity_map(scn, 0, 0).values_dbm
        assert field[0, 2] == pytest.approx(19.999565683801926, rel=1e-12)
        assert field[0, 11] == 30.0   # clipped at the ceiling 1 km out
        assert field[0, 1] == -125.0  # the cell hosting the receiver
        assert field[0, 4] == pytest.approx(29.541990778195178, rel=1e-12)

    def test_cell_lookup_reports_limiting_receiver(self):
        scn = canonical_link()
        value, limiting = opportunity_at_cell(scn, 0, 0, (2, 0))
        assert value == pytest.approx(19.999565683801926, rel=1e-12)
        assert limiting == "a-rx"
        hosted_value, hosted_rx = opportunity_at_cell(scn, 0, 0, (1, 0))
        assert (hosted_value, hosted_rx) == (-125.0, "a-rx")

    def test_zero_margin_receiver_floors_field_and_is_flagged(self):
        scn = zero_margin_link()
        field = opportunity_map(scn, 0, 0)
        assert field.zero_margin_rx_ids == ("z-rx",)
        np.testing.assert_array_equal(field.values_dbm, -125.0)

    def test_protecting_nobody_is_unconstrained(self):
        scn = canonical_link()
        field = opportunity_map(scn, 0, 0, protected=[])
        np.testing.assert_array_equal(field.values_dbm, 30.0)

    def test_protected_accepts_ids_and_objects(self):
        scn = canonical_link()
        by_id = opportunity_map(scn, 0, 0, protected=["a-rx"])
        by_obj = opportunity_map(scn, 0, 0, protected=[scn.receiver("a-rx")])
        np.testing.assert_array_equal(by_id.values_dbm, by_obj.values_dbm)

    def test_map_matches_cell_lookup_and_reference_loop(self):
        scn = random_scenario(seed=5, max_n=7)
        for band in range(scn.dims.b_hat):
            for quantum in range(scn.dims.t_hat):
                field = opportunity_map(scn, band, quantum).values_dbm
                for iy in range(scn.grid.n_y):
                    for ix in range(scn.grid.n_x):
                        got, _ = opportunity_at_cell(scn, band, quantum, (ix, iy))
                        assert field[iy, ix] == pytest.approx(got, abs=1e-9)
                        expected = o_opportunity_cell(scn, band, quantum, None, ix, iy)
                        assert got == pytest.approx(expected, abs=1e-9)

    @pytest.mark.parametrize("seed", range(4))
    def test_values_always_within_bounds(self, seed):
        scn = random_scenario(seed=seed, max_n=7)
        field = opportunity_map(scn, 0, 0).values_dbm
        assert np.all(field >= BOUNDS.p_min_dbm)
        assert np.all(field <= BOUNDS.p_max_dbm)


class TestTxConsumption:
    def test_canonical_cells(self):
        scn = canonical_link()
        space = tx_consumption("a-tx", scn)
        assert space.entity_ids == frozenset({"a-tx"})
        cells = space.slices[(0, 0)]
        # -50 dBm received, floor removed
        assert cells[0, 1] == pytest.approx(9.999999683772235e-06, rel=1e-12)
        assert cells[0, 0] == pytest.approx(0.09999999999968377, rel=1e-12)

    def test_inactive_slice_is_all_zero(self):
        scn = make_scenario([make_link("a", (50.0, 50.0), (150.0, 50.0), 30.0, quanta=(0,))],
                            grid=make_grid(12, 1, 100.0),
                            dims=SpectrumSpaceDims(b_hat=1, t_hat=2))
        space = tx_consumption("a-tx", scn)
        np.testing.assert_array_equal(space.slices[(0, 1)], 0.0)
        assert np.all(space.slices[(0, 0)] >= 0.0)

    def test_saturated_cell_consumes_the_full_scale(self):
        # 360-degree "sector" main lobe adds 50 dB, so the own cell receives
        # 30 + 50 - 40 = 40 dBm and clips at p_max
        hot = AntennaPattern(kind="sectored", boresight_deg=0.0, beamwidth_deg=360.0,
                             main_gain_db=50.0, back_gain_db=0.0)
        tx = Transmitter(id="h-tx", network_id="h", position=(50.0, 50.0),
                         tx_power_dbm=30.0, band=0, quanta=frozenset({0}), pattern=hot)
        scn = make_scenario([RFNetwork(id="h", transmitters=(tx,))],
                            grid=make_grid(3, 1, 100.0))
        cells = tx_consumption(tx, scn).slices[(0, 0)]
        assert cells[0, 0] == BOUNDS.p_cmax_linear

    def test_quantified_value_matches_reference_loop(self):
        scn = canonical_link()
        quantity = quantify(tx_consumption("a-tx", scn), scn.grid, scn.dims)
        assert quantity.value == pytest.approx(1.00015580318145, rel=1e-9)
        assert quantity.value == pytest.approx(
            o_tx_consumption_value(scn, scn.transmitter("a-tx")), rel=1e-9)

    def test_unknown_id_rejected(self):
        with pytest.raises(ValueError, match="unknown transmitter"):
            tx_consumption("ghost", canonical_link())


class TestRxConsumption:
    def test_denial_complements_solo_opportunity(self):
        scn = canonical_link()
        space = rx_consumption("a-rx", scn)
        opp = opportunity_map(scn, 0, 0, protected=["a-rx"])
        np.testing.assert_array_equal(
            space.slices[(0, 0)],
            BOUNDS.p_max_linear - db_to_linear(opp.values_dbm))

    def test_quantified_value_matches_reference_loop(self):
        scn = canonical_link()
        quantity = quantify(rx_consumption("a-rx", scn), scn.grid, scn.dims)
        assert quantity.value == pytest.approx(35001.49999999998, rel=1e-9)
        assert quantity.value == pytest.approx(
            o_rx_consumption_value(scn, scn.receiver("a-rx")), rel=1e-9)

    def test_zero_margin_receiver_consumes_everything(self):
        scn = zero_margin_link()
        cells = rx_consumption("z-rx", scn).slices[(0, 0)]
        np.testing.assert_array_equal(cells, BOUNDS.p_cmax_linear)

    def test_unknown_id_rejected(self):
        with pytest.raises(ValueError, match="unknown receiver"):
            rx_consumption("ghost", canonical_link())


class TestCombineAndQuantify:
    def test_disjoint_union_adds_exactly(self):
        grid = make_grid(10, 10, 100.0)
        scn = make_scenario(
            [make_link("a", (150.0, 250.0), (350.0, 250.0), 26.0),
             make_link("b", (750.0, 750.0), (650.0, 650.0), 18.0)],
            grid=grid)
        a = tx_consumption("a-tx", scn)
        b = tx_consumption("b-tx", scn)
        union = combine_consumption(a, b, BOUNDS)
        assert union.entity_ids == frozenset({"a-tx", "b-tx"})
        total = quantify(union, grid).value
        assert total == pytest.approx(
            quantify(a, grid).value + quantify(b, grid).value, rel=1e-12)

    def test_union_never_exceeds_sum_and_clips_at_scale(self):
        hot = AntennaPattern(kind="sectored", boresight_deg=0.0, beamwidth_deg=360.0,
                             main_gain_db=50.0, back_gain_db=0.0)
        grid = make_grid(3, 1, 100.0)
        nets = [
            RFNetwork(id=n, transmitters=(Transmitter(
                id=f"{n}-tx", network_id=n, position=(50.0, 50.0), tx_power_dbm=30.0,
                band=0, quanta=frozenset({0}), pattern=hot),))
            for n in ("h1", "h2")
        ]
        scn = make_scenario(nets, grid=grid)
        a = tx_consumption("h1-tx", scn)
        b = tx_consumption("h2-tx", scn)
        union = combine_consumption(a, b, BOUNDS)
        assert union.slices[(0, 0)][0, 0] == BOUNDS.p_cmax_linear
        assert quantify(union, grid).value < (
            quantify(a, grid).value + quantify(b, grid).value)
        assert quantify(union, grid).value <= total_spectrum(
            grid, scn.dims, BOUNDS).value * (1 + 1e-12)

    def test_mismatched_slice_sets_still_combine(self):
        grid = make_grid(2, 1, 100.0)
        a = ConsumptionSpace(frozenset({"a"}), {(0, 0): np.full((1, 2), 1.0)})
        b = ConsumptionSpace(frozenset({"b"}), {(0, 1): np.full((1, 2), 2.0)})
        union = combine_consumption(a, b, BOUNDS)
        np.testing.assert_array_equal(union.slices[(0, 0)], 1.0)
        np.testing.assert_array_equal(union.slices[(0, 1)], 2.0)

    def test_breakdown_sums_to_value(self):
        scn = random_scenario(seed=7, max_n=6, b_hat=2, t_hat=2)
        tx = next(iter(scn.transmitters()))
        quantity = quantify(tx_consumption(tx, scn), scn.grid, scn.dims)
        assert quantity.value == pytest.approx(sum(quantity.breakdown.values()), rel=1e-12)
        assert set(quantity.breakdown) == {(b, t) for b in range(2) for t in range(2)}

    def test_zero_space_quantifies_to_zero(self):
        grid = make_grid(2, 2, 50.0)
        space = ConsumptionSpace(frozenset({"x"}), {(0, 0): np.zeros((2, 2))})
        assert quantify(space, grid).value == 0.0

    def test_shape_mismatch_rejected(self):
        grid = make_grid(3, 2, 50.0)
        space = ConsumptionSpace(frozenset({"x"}), {(0, 0): np.zeros((3, 3))})
        with pytest.raises(ValueError, match="does not match grid"):
            quantify(space, grid)


class TestTotalsAndAvailability:
    def test_total_matches_hand_evaluation(self):
        grid = make_grid(10, 10, 100.0)
        total = total_spectrum(grid, SpectrumSpaceDims(), BOUNDS)
        assert total.value == pytest.approx(1e6, rel=1e-12)
        assert total.breakdown is None

    def test_total_scales_linearly_in_band_count(self):
        grid = make_grid(10, 10, 100.0)
        one = total_spectrum(grid, SpectrumSpaceDims(b_hat=1), BOUNDS)
        two = total_spectrum(grid, SpectrumSpaceDims(b_hat=2), BOUNDS)
        assert two.value == 2.0 * one.value

    def test_degenerate_single_cell(self):
        grid = make_grid(1, 1, 25.0)
        total = total_spectrum(grid, SpectrumSpaceDims(), BOUNDS)
        assert total.value == pytest.approx(BOUNDS.p_cmax_linear / 1000.0 * 625.0, rel=1e-12)

    def test_empty_scenario_availability_equals_total(self):
        scn = make_scenario([], grid=make_grid(7, 5, 100.0),
                            dims=SpectrumSpaceDims(b_hat=2, t_hat=3))
        available = available_spectrum(scn)
        total = total_spectrum(scn.grid, scn.dims, BOUNDS)
        assert available.value == pytest.approx(total.value, rel=1e-12)

    def test_canonical_availability_matches_reference_loop(self):
        scn = canonical_link()
        available = available_spectrum(scn)
        assert available.value == pytest.approx(84998.5, rel=1e-9)
        assert available.value == pytest.approx(o_available(scn), rel=1e-9)

    def test_zero_margin_receiver_leaves_nothing(self):
        assert available_spectrum(zero_margin_link()).value == 0.0

    def test_per_cell_conservation_with_denied(self):
        scn = random_scenario(seed=21, max_n=8)
        denied = denied_consumption(scn)
        for (band, quantum), denied_cells in denied.slices.items():
            opp = opportunity_map(scn, band, quantum)
            above = db_to_linear(opp.values_dbm) - BOUNDS.p_min_linear
            np.testing.assert_allclose(
                above + denied_cells, BOUNDS.p_cmax_linear, rtol=1e-9)

    def test_refinement_converges(self):
        values = []
        for cell_size in (200.0, 100.0, 50.0, 25.0):
            n = int(800 / cell_size)
            scn = make_scenario(
                [make_link("a", (190.0, 410.0), (390.0, 410.0), 24.0)],
                grid=make_grid(n, n, cell_size))
            values.append(available_spectrum(scn).value)
        deltas = [abs(b - a) / a for a, b in zip(values, values[1:])]
        assert deltas[1] < deltas[0]
        assert deltas[2] < deltas[1]


class TestHarvest:
    def _field(self, linear_above_floor, band=0, quantum=0):
        values = linear_to_db(np.asarray(linear_above_floor, dtype=float)
                              + BOUNDS.p_min_linear)
        return PowerField(band, quantum, values)

    def test_perfect_estimate(self):
        scn = canonical_link()
        truth = opportunity_map(scn, 0, 0)
        metrics = harvest_metrics(truth, truth, scn.grid, BOUNDS)
        assert metrics.lost_available.value == 0.0
        assert metrics.potentially_incursed.value == 0.0
        above = db_to_linear(truth.values_dbm) - BOUNDS.p_min_linear
        expected = float(np.sum(above)) * scn.grid.cell_area / 1000.0
        assert metrics.recovered.value == pytest.approx(expected, rel=1e-12)

    def test_floor_estimate_recovers_nothing(self):
        scn = canonical_link()
        truth = opportunity_map(scn, 0, 0)
        floor = PowerField(0, 0, np.full_like(truth.values_dbm, BOUNDS.p_min_dbm))
        metrics = harvest_metrics(floor, truth, scn.grid, BOUNDS)
        assert metrics.recovered.value == 0.0
        assert metrics.potentially_incursed.value == 0.0
        above = db_to_linear(truth.values_dbm) - BOUNDS.p_min_linear
        expected = float(np.sum(above)) * scn.grid.cell_area / 1000.0
        assert metrics.lost_available.value == pytest.approx(expected, rel=1e-12)

    def test_two_cell_hand_case(self):
        grid = make_grid(2, 1, 1.0)
        truth = self._field([[10.0, 100.0]])
        est = self._field([[40.0, 70.0]])
        metrics = harvest_metrics(est, truth, grid, BOUNDS)
        assert metrics.recovered.value == pytest.approx(0.08, rel=1e-12)
        assert metrics.lost_available.value == pytest.approx(0.03, rel=1e-12)
        assert metrics.potentially_incursed.value == pytest.approx(0.03, rel=1e-12)

    def test_decomposition_identities(self):
        scn = random_scenario(seed=13, max_n=6)
        truth = opportunity_map(scn, 0, 0)
        noisy = PowerField(0, 0, np.clip(truth.values_dbm - 3.0, -125.0, 30.0))
        metrics = harvest_metrics(noisy, truth, scn.grid, BOUNDS)
        truth_total = quantify(
            ConsumptionSpace(frozenset({"t"}),
                             {(0, 0): db_to_linear(truth.values_dbm) - BOUNDS.p_min_linear}),
            scn.grid).value
        est_total = quantify(
            ConsumptionSpace(frozenset({"e"}),
                             {(0, 0): db_to_linear(noisy.values_dbm) - BOUNDS.p_min_linear}),
            scn.grid).value
        assert metrics.recovered.value + metrics.lost_available.value == pytest.approx(
            truth_total, rel=1e-12)
        assert metrics.recovered.value + metrics.potentially_incursed.value == pytest.approx(
            est_total, rel=1e-12)

    def test_mismatches_rejected(self):
        grid = make_grid(2, 1, 1.0)
        a = self._field([[10.0, 20.0]])
        with pytest.raises(ValueError, match="slice mismatch"):
            harvest_metrics(a, self._field([[10.0, 20.0]], band=1), grid, BOUNDS)
        with pytest.raises(ValueError, match="shape mismatch"):
            harvest_metrics(a, self._field([[10.0, 20.0, 30.0]]), grid, BOUNDS)
