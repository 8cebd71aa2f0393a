import importlib
import math
import tracemalloc
from collections import deque
from dataclasses import replace

import numpy as np
import pytest

from spectrumspace import (
    AntennaPattern,
    ConsumptionSpace,
    LinkBudget,
    PowerField,
    PriceSheet,
    Receiver,
    RFNetwork,
    Scenario,
    SpectrumSpaceDims,
    Transmitter,
    aggregate_opportunity,
    available_spectrum,
    combine_consumption,
    compare_policies,
    db_to_linear,
    denied_consumption,
    harvest_metrics,
    linear_to_db,
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
from spectrumspace.propagation import entrant_gain_field_linear, link_gain_db
from spectrumspace.model import linear_to_db_in_place, validation_errors
from spectrumspace.quantify import link_powers, occupancy_maps

from helpers import (
    BOUNDS,
    crowded_scenario,
    make_grid,
    make_link,
    make_scenario,
    o_available,
    o_occupancy_cell,
    o_occupancy_linear,
    o_opportunity_cell,
    o_rx_consumption_value,
    o_sinr_db,
    o_tx_consumption_value,
    o_tx_field,
    random_requests,
    random_scenario,
    same_bits,
    sectored_scenario,
)

# the package exports a function named quantify, which hides the module
quantify_module = importlib.import_module("spectrumspace.quantify")
admission_module = importlib.import_module("spectrumspace.admission")


def canonical_link() -> Scenario:
    """30 dBm tx at (50,50), linked rx 100 m away, on a 12x1 strip of 100 m cells."""
    return make_scenario([make_link("a", (50.0, 50.0), (150.0, 50.0), 30.0)],
                         grid=make_grid(12, 1, 100.0))


def zero_margin_link() -> Scenario:
    """The rx's own link is hopeless (-60 dBm tx at 100 m, beta 10)."""
    return make_scenario([make_link("z", (50.0, 50.0), (150.0, 50.0), -60.0)],
                         grid=make_grid(5, 5, 100.0))


def spanning_scenario(seed: int) -> Scenario:
    """random_scenario (B=2, T=2) plus a network of five transmitters in band 0: a field shared
    by both quanta comes first in each quantum, then one quantum's own, then another shared."""
    base = random_scenario(seed, b_hat=2, t_hat=2)
    rng = np.random.default_rng(seed)
    x_min, y_min, x_max, y_max = base.grid.extent
    txs = tuple(
        Transmitter(id=f"span{i}", network_id="span",
                    position=(float(rng.uniform(x_min, x_max)), float(rng.uniform(y_min, y_max))),
                    tx_power_dbm=float(rng.uniform(-5.0, 28.0)), band=0, quanta=frozenset(quanta))
        for i, quanta in enumerate([{0, 1}, {0}, {0, 1}, {1}, {0, 1}])
    )
    return base.with_network(RFNetwork("span", txs))


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
                        assert field[iy, ix] == got
                        expected = o_occupancy_cell(scn, band, quantum, ix, iy)
                        assert got == pytest.approx(expected, abs=1e-9)

    def test_slice_index_out_of_range(self):
        scn = canonical_link()
        with pytest.raises(ValueError, match="band index"):
            occupancy_map(scn, 1, 0)
        with pytest.raises(ValueError, match="time quantum"):
            occupancy_at_cell(scn, 0, 5, (0, 0))

    @pytest.mark.parametrize("keys", [[(0, 0), (0, 0)], [(0, 0), (1, 0), (0, 0)]], ids=["adjacent", "apart"])
    def test_a_slice_listed_twice_is_refused_before_any_field_is_built(self, monkeypatch, keys):
        # listed twice in a row, a slice used to raise a bare KeyError; apart, it got two fields
        built = []
        monkeypatch.setattr(quantify_module, "tx_gain_db_field", lambda *args: built.append(args))
        with pytest.raises(ValueError, match=r"slice \(0, 0\) is listed twice"):
            next(occupancy_maps(spanning_scenario(0), keys))
        assert built == []

    @pytest.mark.parametrize("seed", range(4))
    def test_values_always_within_bounds(self, seed):
        scn = random_scenario(seed=seed, max_n=7)
        field = occupancy_map(scn, 0, 0).values_dbm
        assert np.all(field >= BOUNDS.p_min_dbm)
        assert np.all(field <= BOUNDS.p_max_dbm)


    @pytest.mark.parametrize("make", [random_scenario, sectored_scenario])
    @pytest.mark.parametrize("seed", range(10))
    def test_fields_have_the_oracle_bits(self, make, seed):
        # The oracle starts every network's sum at zeros, idle in the slice or not.
        scn = make(seed)
        for b in range(scn.dims.b_hat):
            for q in range(scn.dims.t_hat):
                assert same_bits(occupancy_linear(scn, b, q), o_occupancy_linear(scn, b, q))

    @pytest.mark.parametrize("make", [random_scenario, sectored_scenario, spanning_scenario],
                             ids=["random", "sectored", "spanning"])
    @pytest.mark.parametrize("seed", range(5))
    def test_the_band_major_walk_gives_each_slice_its_own_bits(self, make, seed):
        scn = make(seed)
        keys = [(b, q) for b in range(scn.dims.b_hat) for q in range(scn.dims.t_hat)]
        for order in (keys, keys[::-1]):
            fields = list(occupancy_maps(scn, order))
            assert [(f.band, f.quantum) for f in fields] == order
            for field in fields:
                key = (field.band, field.quantum)
                assert same_bits(field.values_dbm, occupancy_map(scn, *key).values_dbm)
                expected = linear_to_db_in_place(o_occupancy_linear(scn, *key), scn.bounds)
                assert same_bits(field.values_dbm, expected)

    def test_oracle_scenarios_have_idle_networks(self):
        scn = sectored_scenario(0)
        assert any(not tx.active_in(0, 1) for tx in scn.network("zero").transmitters)
        assert scn.network("host").transmitters[0].active_in(0, 1)


def two_by_two_link() -> Scenario:
    """canonical_link's link, active in both quanta, in a space of two bands and two quanta, so a
    bool or float index equal to 0 or 1 names a slice that exists."""
    return make_scenario([make_link("a", (50.0, 50.0), (150.0, 50.0), 30.0, quanta=(0, 1))],
                         grid=make_grid(12, 1, 100.0), dims=SpectrumSpaceDims(b_hat=2, t_hat=2))


class TestSliceIndices:
    """A band or quantum is an int or numpy integer, never a bool or a float, as the model's
    validation reports one: a float used to match no slice and a bool to pass as 0 or 1, so a
    query answered for a slice that does not exist (p_max everywhere, an SINR of -inf) or
    labelled its field with the bool."""

    QUERIES = {
        "occupancy_map band True": lambda scn: occupancy_map(scn, True, 0),
        "occupancy_map quantum 0.0": lambda scn: occupancy_map(scn, 0, 0.0),
        "occupancy_at_cell band False": lambda scn: occupancy_at_cell(scn, False, 0, (0, 0)),
        "opportunity_map quantum 0.5": lambda scn: opportunity_map(scn, 0, 0.5),
        "opportunity_map band 1.0": lambda scn: opportunity_map(scn, 1.0, 0),
        "opportunity_at_cell quantum True": lambda scn: opportunity_at_cell(scn, 0, True, (3, 0)),
        "aggregate_opportunity quanta [0.5]": lambda scn: aggregate_opportunity(scn, (350.0, 50.0), [0.5]),
        "aggregate_opportunity quanta [1, True]": lambda scn: aggregate_opportunity(scn, (350.0, 50.0), [1, True]),
        "sinr_db quantum 0.5": lambda scn: sinr_db(scn, scn.receiver("a-rx"), 0.5),
        "receiver_margin_linear quantum True": lambda scn: receiver_margin_linear(scn, scn.receiver("a-rx"), True),
        "quantify with dims, key (0, True)": lambda scn: quantify(
            ConsumptionSpace(frozenset(), {(0, True): np.zeros((1, 12))}), scn.grid, scn.dims),
    }

    @pytest.mark.parametrize("name", QUERIES)
    def test_a_non_integer_index_is_refused(self, name):
        with pytest.raises(ValueError, match="(band index|time quantum) .* is not an integer"):
            self.QUERIES[name](two_by_two_link())

    def test_a_built_slice_is_not_reached_through_a_bool(self):
        # (0, True) == (0, 1) as a dict key, so a budget that has built slice (0, 1) must check
        # the index before it looks the slice up
        budget = LinkBudget(two_by_two_link())
        budget.slice(0, 1)
        budget.active(0, 1)
        for query in (budget.slice, budget.active, lambda b, q: budget.opportunity_at_cell(b, q, (3, 0))):
            with pytest.raises(ValueError, match="time quantum True is not an integer"):
                query(0, True)

    @pytest.mark.parametrize("b_hat", [2.0, 2.5, "2"])
    def test_a_count_that_is_not_an_integer_bounds_no_index(self, b_hat):
        # One slice rule, model.check_slices: validation reports such a count once and the range
        # checks skip it. So does quantify's key check, which the only caller that can pass such
        # dims unvalidated reaches; an index that is not an integer is still refused.
        dims = SpectrumSpaceDims(b_hat=b_hat, t_hat=2)
        grid = make_grid(1, 1, 1.0)
        assert quantify(ConsumptionSpace(frozenset(), {(5, 0): np.ones((1, 1))}), grid, dims).value == 0.001
        with pytest.raises(ValueError, match="band index 0.5 is not an integer"):
            quantify(ConsumptionSpace(frozenset(), {(0.5, 0): np.ones((1, 1))}), grid, dims)
        with pytest.raises(ValueError, match=r"time quantum 2 out of range \[0, 2\)"):
            quantify(ConsumptionSpace(frozenset(), {(5, 2): np.ones((1, 1))}), grid, dims)
        assert validation_errors(replace(two_by_two_link(), dims=dims)) == [
            f"dims: b_hat must be an integer (got {b_hat!r})"]

    def test_numpy_integers_are_slice_indices(self):
        scn = two_by_two_link()
        field = opportunity_map(scn, np.int64(1), np.int32(1))
        assert (field.band, field.quantum) == (1, 1)
        assert same_bits(field.values_dbm, opportunity_map(scn, 1, 1).values_dbm)
        assert sinr_db(scn, scn.receiver("a-rx"), np.int8(1)) == sinr_db(scn, scn.receiver("a-rx"), 1)
        occupancy = occupancy_map(scn, np.int16(0), np.uint8(1))
        assert (occupancy.band, occupancy.quantum) == (0, 1)
        assert same_bits(occupancy.values_dbm, occupancy_map(scn, 0, 1).values_dbm)


class TestCellQueries:
    """A cell query answers only for a cell of its grid: integer indices in [0, n_x) x [0, n_y).
    A cell past an edge, or a fractional one, used to get the number of a point no map has."""

    MISSING = [(12, 0), (0, 12), (-1, 0), (500, 500), (1.5, 2)]

    @staticmethod
    def square() -> Scenario:
        """canonical_link's 30 dBm link on a 12 x 12 grid of 100 m cells."""
        return make_scenario([make_link("a", (50.0, 50.0), (150.0, 50.0), 30.0)], grid=make_grid(12, 12, 100.0))

    @pytest.mark.parametrize("cell", MISSING)
    def test_module_functions_refuse_a_missing_cell(self, cell):
        scn = self.square()
        with pytest.raises(ValueError, match="not a cell of the 12x12 grid"):
            occupancy_at_cell(scn, 0, 0, cell)
        # protecting nobody answers before any gain is computed
        for protected in (None, []):
            with pytest.raises(ValueError, match="not a cell of the 12x12 grid"):
                opportunity_at_cell(scn, 0, 0, cell, protected)

    @pytest.mark.parametrize("cell", MISSING)
    def test_link_budget_methods_refuse_a_missing_cell(self, cell):
        budget = LinkBudget(self.square())
        with pytest.raises(ValueError, match="not a cell of the 12x12 grid"):
            budget.occupancy_at_cell(0, 0, cell)
        with pytest.raises(ValueError, match="not a cell of the 12x12 grid"):
            budget.opportunity_at_cell(0, 0, cell)

    def test_list_and_array_cells_answer_as_the_map_does(self):
        # Reports write a cell as a list. On a receiver's own cell a list used to miss the
        # hosting check and get the entrant cap, and a numpy array raised an ambiguity error.
        scn = crowded_scenario()
        budget = LinkBudget(scn)
        cells = {scn.grid.cell_of(rx.position) for rx in scn.receivers()}
        for band in range(scn.dims.b_hat):
            for quantum in range(scn.dims.t_hat):
                field = opportunity_map(scn, band, quantum).values_dbm
                for ix, iy in sorted(cells):
                    for cell in ((ix, iy), [ix, iy], np.array([ix, iy])):
                        value, _ = budget.opportunity_at_cell(band, quantum, cell)
                        assert value == field[iy, ix]


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
        signal, interference, interferers = link_powers(rx, LinkBudget(scn).active(rx.band, 0), config)

        def received(tx_id):
            tx = scn.transmitter(tx_id)
            return db_to_linear(tx.tx_power_dbm) * db_to_linear(link_gain_db(tx, rx.position, config, rx.pattern))

        assert signal == received("a-tx")
        assert list(interferers) == ["c-tx", "b-tx"]
        for tx_id, power in interferers.items():
            assert power == received(tx_id)
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
                        assert field[iy, ix] == got
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

    @pytest.mark.parametrize("seed", range(5))
    def test_active_cells_have_the_oracle_bits(self, seed):
        scn = sectored_scenario(seed)
        for tx in scn.transmitters():
            received = 10.0 ** ((tx.tx_power_dbm + o_tx_field(tx, scn.grid, scn.propagation)) / 10.0)
            expected = np.clip(received, BOUNDS.p_min_linear, BOUNDS.p_max_linear) - BOUNDS.p_min_linear
            assert same_bits(tx_consumption(tx, scn).slices[(tx.band, min(tx.quanta))], expected)

    def test_unknown_id_rejected(self):
        with pytest.raises(ValueError, match="unknown transmitter"):
            tx_consumption("ghost", canonical_link())

    def test_slices_share_two_read_only_arrays(self):
        scn = make_scenario([make_link("a", (50.0, 50.0), (150.0, 50.0), 30.0, quanta=(0, 2))],
                            grid=make_grid(6, 2, 100.0),
                            dims=SpectrumSpaceDims(b_hat=2, t_hat=3))
        slices = tx_consumption("a-tx", scn).slices
        assert sorted(slices) == [(b, t) for b in range(2) for t in range(3)]
        active, idle = slices[(0, 0)], slices[(0, 1)]
        assert slices[(0, 2)] is active
        assert all(slices[key] is idle for key in [(1, 0), (1, 1), (1, 2)])
        np.testing.assert_array_equal(idle, 0.0)
        for cells in (active, idle):
            with pytest.raises(ValueError, match="read-only"):
                cells += 1.0


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

    @pytest.mark.parametrize("seed", range(5))
    def test_equals_the_joint_denial_of_the_receiver_alone(self, seed):
        # Zero-margin and host-cell receivers included: the solo charge has the bits of
        # denied_consumption protecting that receiver alone, in every slice.
        scn = sectored_scenario(seed)
        for rx in scn.receivers():
            solo, joint = rx_consumption(rx, scn), denied_consumption(scn, [rx.id])
            assert solo.entity_ids == frozenset({rx.id})
            assert sorted(solo.slices) == sorted(joint.slices)
            for key, cells in joint.slices.items():
                assert same_bits(solo.slices[key], cells)

    def test_unknown_id_rejected(self):
        with pytest.raises(ValueError, match="unknown receiver"):
            rx_consumption("ghost", canonical_link())
        with pytest.raises(ValueError, match="unknown receiver 'z-rx'"):
            rx_consumption(zero_margin_link().receiver("z-rx"), canonical_link())


class TestProtectedIds:
    """A protected id that names no receiver of the scenario is refused, not dropped: dropped, it
    would protect nobody and leave the whole spectrum open."""

    ENTRY_POINTS = {
        "LinkBudget": lambda scn, p: LinkBudget(scn, p),
        "opportunity_map": lambda scn, p: opportunity_map(scn, 0, 0, protected=p),
        "opportunity_at_cell": lambda scn, p: opportunity_at_cell(scn, 0, 0, (3, 0), protected=p),
        "aggregate_opportunity": lambda scn, p: aggregate_opportunity(scn, (350.0, 50.0), protected=p),
        "available_spectrum": lambda scn, p: available_spectrum(scn, p),
        "denied_consumption": lambda scn, p: denied_consumption(scn, p),
        "receiver_accounting": lambda scn, p: receiver_accounting(scn, p),
    }

    @pytest.mark.parametrize("name", ENTRY_POINTS)
    def test_unknown_id_rejected(self, name):
        scn = canonical_link()
        with pytest.raises(ValueError, match="unknown receiver 'a-rxx'"):
            self.ENTRY_POINTS[name](scn, ["a-rx", "a-rxx"])
        for protected in (None, (), ["a-rx"], [scn.receiver("a-rx")]):
            self.ENTRY_POINTS[name](scn, protected)

    def test_a_receiver_of_another_scenario_is_unknown(self):
        with pytest.raises(ValueError, match="unknown receiver 'z-rx'"):
            LinkBudget(canonical_link(), [zero_margin_link().receiver("z-rx")])

    @pytest.mark.parametrize("name", ENTRY_POINTS)
    def test_a_bare_string_is_refused(self, name):
        # read one character at a time, "a-rx" would name receivers 'a', '-', 'r' and 'x'
        with pytest.raises(TypeError, match="expects a collection of receiver ids"):
            self.ENTRY_POINTS[name](canonical_link(), "a-rx")

    def test_a_string_of_one_character_ids_is_refused(self):
        # receivers "x" and "y": read one character at a time, "xy" would protect both
        links = [make_link(f"net-{rx_id}", (50.0 + 600.0 * i, 50.0), (150.0 + 600.0 * i, 50.0), 20.0)
                 for i, rx_id in enumerate("xy")]
        scn = make_scenario([replace(net, receivers=(replace(net.receivers[0], id=rx_id),))
                             for net, rx_id in zip(links, "xy")], grid=make_grid(12, 1, 100.0))
        with pytest.raises(TypeError, match="expects a collection of receiver ids"):
            available_spectrum(scn, protected="xy")
        available_spectrum(scn, protected=["x", "y"])


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

    def test_totals_add_in_slice_order(self):
        # Ten slices of 0.1 W m^2 add up to 0.9999999999999999 with +=; sum() compensates float
        # sums from Python 3.12 and would give 1.0.
        space = ConsumptionSpace(frozenset({"x"}), {(0, t): np.full((1, 1), 100.0) for t in range(10)})
        quantity = quantify(space, make_grid(1, 1, 1.0))
        assert list(quantity.breakdown.values()) == [0.1] * 10
        assert quantity.value == 0.9999999999999999
        rates = PriceSheet(slice_rates=dict.fromkeys(quantity.breakdown, 1.0))
        assert price(quantity, rates) == 0.9999999999999999

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


class TestReceiverMajorFields:
    """Every slice's opportunity field from one receiver walk equals its one-slice field."""

    @staticmethod
    def slices(scn):
        return [(b, t) for b in range(scn.dims.b_hat) for t in range(scn.dims.t_hat)]

    @pytest.mark.parametrize("protect", ["all", "half"])
    @pytest.mark.parametrize("seed", range(10))
    def test_all_slices_at_once_equal_one_at_a_time(self, seed, protect):
        scn = sectored_scenario(seed)
        protected = None if protect == "all" else [rx.id for rx in scn.receivers()][::2]
        keys = self.slices(scn)[::-1]
        together = list(LinkBudget(scn, protected)._opportunity_fields(keys))
        assert [(f.band, f.quantum) for f in together] == keys
        for key, field in zip(keys, together):
            alone = opportunity_map(scn, *key, protected=protected)
            assert (alone.band, alone.quantum) == key
            assert field.zero_margin_rx_ids == alone.zero_margin_rx_ids
            assert np.array_equal(field.values_dbm, alone.values_dbm)

    def test_scenario_covers_zero_margin_and_host_cells(self):
        scn = sectored_scenario(0)
        assert opportunity_map(scn, 0, 0).zero_margin_rx_ids == ("zero-rx",)
        host = opportunity_map(scn, 0, 1)
        assert host.zero_margin_rx_ids == ()
        ix, iy = scn.grid.cell_of(scn.receiver("host-rx").position)
        assert host.values_dbm[iy, ix] == BOUNDS.p_min_dbm
        assert np.any(host.values_dbm > BOUNDS.p_min_dbm)

    @pytest.fixture
    def cells(self):
        """The cells each entrant gain build computed, in build order, filled by ``built``."""
        return []

    @pytest.fixture
    def built(self, monkeypatch, cells):
        """The receiver positions of the entrant gain builds, in build order."""
        positions = []
        real = quantify_module.entrant_gain_field_linear

        def counting(position, *args):
            positions.append(position)
            gain = real(position, *args)
            cells.append(gain.size)
            return gain

        monkeypatch.setattr(quantify_module, "entrant_gain_field_linear", counting)
        return positions

    @pytest.mark.parametrize("seed", range(5))
    def test_available_spectrum_builds_each_receiver_field_once(self, seed, built):
        """Band by band, in declaration order within a band, each receiver exactly once."""
        scn = sectored_scenario(seed)
        available_spectrum(scn)
        assert built == [rx.position for rx in sorted(scn.receivers(), key=lambda rx: rx.band)]

    def test_available_spectrum_computes_only_the_cap_windows(self, built, cells):
        """A work count: on sectored_scenario(4)'s 16 x 20 grid the four entrant gains are built
        over windows of 320, 320, 0 and 120 cells (the host receiver's own link is so strong that
        no cell of the grid can bring its cap below p_max), not 4 x 320."""
        scn = sectored_scenario(4)
        available_spectrum(scn)
        assert cells == [320, 320, 0, 120]
        assert sum(cells) == 760 < len(built) * scn.grid.a_hat

    @pytest.mark.parametrize("seed", range(5))
    def test_rx_consumption_builds_its_field_once(self, seed, built):
        scn = sectored_scenario(seed)
        for rx in scn.receivers():
            built.clear()
            rx_consumption(rx, scn)
            assert built == [rx.position]


class TestReceiverChargeWork:
    """A link budget resolves its protected receivers once and builds state only for their slices.

    receiver_accounting charges every receiver through the one budget that
    holds its slice entries, so its work does not grow with the receiver
    count: with everything protected it reads the receivers B + 2 times (once
    for its one budget, once per band of the receiver walk, and once to order
    the charges) and prepares targets and computes link powers exactly as
    available_spectrum does. A one-receiver budget, rx_consumption's, prepares
    the receiver and the active transmitters of each slice the receiver is
    active in, and nothing for any other slice.
    """

    SCENARIOS = [crowded_scenario(), *(random_scenario(seed) for seed in range(4))]

    @pytest.mark.parametrize("scn", SCENARIOS)
    def test_receiver_accounting_reads_the_receivers_once_per_budget_and_band(self, monkeypatch, scn):
        reads = []
        real = Scenario.receivers
        monkeypatch.setattr(Scenario, "receivers", lambda scenario: reads.append(scenario) or real(scenario))
        receiver_accounting(scn, None)
        assert len(reads) == scn.dims.b_hat + 2

    @pytest.mark.parametrize("scn", SCENARIOS)
    def test_receiver_accounting_builds_the_state_available_spectrum_builds(self, monkeypatch, scn):
        """The same prepare_targets calls (by the ids prepared) and link_powers calls (by receiver), in
        the same order."""
        calls = []
        prepare, powers = quantify_module.prepare_targets, quantify_module.link_powers
        monkeypatch.setattr(quantify_module, "prepare_targets",
                            lambda items: calls.append([item.id for item in items]) or prepare(items))
        monkeypatch.setattr(quantify_module, "link_powers",
                            lambda rx, *args: calls.append(rx.id) or powers(rx, *args))
        available_spectrum(scn)
        alone = list(calls)
        calls.clear()
        receiver_accounting(scn, None)
        assert calls == alone

    @pytest.mark.parametrize("scn", SCENARIOS)
    def test_rx_consumption_prepares_targets_for_its_own_slices(self, monkeypatch, scn):
        prepared = []
        real = quantify_module.prepare_targets
        monkeypatch.setattr(quantify_module, "prepare_targets",
                            lambda items: prepared.append(items) or real(items))
        for rx in scn.receivers():
            prepared.clear()
            rx_consumption(rx, scn)
            assert len(prepared) == 2 * len(rx.quanta)

    def test_a_receiver_the_walk_leaves_out_neither_caps_nor_marks_the_field(self):
        """A budget over a healthy and a hopeless (zero-margin) receiver, walked with only the
        healthy one's gain field, gives the healthy one's solo field: the hopeless one's cell is
        not floored and its id is not flagged."""
        scn = make_scenario([make_link("a", (150.0, 150.0), (250.0, 150.0), 20.0),
                             make_link("z", (750.0, 850.0), (850.0, 850.0), -60.0)],
                            grid=make_grid(10, 10, 100.0))
        healthy, hopeless = scn.receiver("a-rx"), scn.receiver("z-rx")
        assert opportunity_map(scn, 0, 0).zero_margin_rx_ids == (hopeless.id,)
        gain = entrant_gain_field_linear(healthy.position, healthy.pattern, scn.grid, scn.propagation)
        whole = (slice(None), slice(None))
        field = next(LinkBudget(scn)._opportunity_fields([(0, 0)], lambda _: [(healthy, whole, gain)]))
        solo = opportunity_map(scn, 0, 0, [healthy.id])
        assert field.zero_margin_rx_ids == solo.zero_margin_rx_ids == ()
        assert np.array_equal(field.values_dbm, solo.values_dbm)
        ix, iy = scn.grid.cell_of(hopeless.position)
        assert field.values_dbm[iy, ix] > BOUNDS.p_min_dbm


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


def idle_in_quantum_one() -> Scenario:
    """One link active in quantum 0 only: slices (0, 1), (1, 0) and (1, 1) are idle for it."""
    return make_scenario([make_link("a", (150.0, 150.0), (250.0, 150.0), 20.0)],
                         grid=make_grid(6, 4, 100.0), dims=SpectrumSpaceDims(b_hat=2, t_hat=2))


IDLE_KEYS = [(0, 1), (1, 0), (1, 1)]
IDLE_SPACES = {
    "tx_consumption": lambda scn: tx_consumption("a-tx", scn),
    "rx_consumption": lambda scn: rx_consumption("a-rx", scn),
    "denied_consumption": lambda scn: denied_consumption(scn),
}


class TestIdleSlices:
    """A slice an entity is idle in is a read-only, zero-stride view of 0.0, not a new array."""

    @pytest.mark.parametrize("space_of", IDLE_SPACES.values(), ids=IDLE_SPACES.keys())
    def test_idle_slices_are_read_only_zero_stride_zeros(self, space_of):
        scn = idle_in_quantum_one()
        slices = space_of(scn).slices
        for key in IDLE_KEYS:
            cells = slices[key]
            assert cells.shape == (4, 6) and cells.strides == (0, 0)
            assert not cells.flags.writeable
            assert same_bits(np.array(cells), np.zeros((4, 6)))
            with pytest.raises(ValueError, match="read-only"):
                cells[0, 0] = 1.0
        assert slices[(0, 0)].flags.c_contiguous and np.any(slices[(0, 0)] > 0.0)

    def test_combining_idle_slices_gives_writable_contiguous_arrays(self):
        scn = idle_in_quantum_one()
        tx, rx = tx_consumption("a-tx", scn), rx_consumption("a-rx", scn)
        one_sided = ConsumptionSpace(frozenset({"b"}), {(1, 1): rx.slices[(1, 1)]})
        for union in (combine_consumption(tx, rx, BOUNDS), combine_consumption(tx, one_sided, BOUNDS),
                      combine_consumption(one_sided, rx, BOUNDS)):
            for key, cells in union.slices.items():
                assert cells.flags.writeable and cells.flags.c_contiguous
            for key in IDLE_KEYS:
                assert same_bits(union.slices[key], np.zeros((4, 6)))

    def test_a_space_of_idle_slices_quantifies_to_exactly_zero(self):
        scn = idle_in_quantum_one()
        nothing = denied_consumption(scn, protected=[])
        assert len({id(cells) for cells in nothing.slices.values()}) == 1
        quantity = quantify(nothing, scn.grid, scn.dims)
        assert same_bits(np.array([quantity.value, *quantity.breakdown.values()]), np.zeros(5))

    def test_a_shared_array_is_summed_once(self):
        class Counted(np.ndarray):
            sums = 0

            def sum(self, *args, **kwargs):
                Counted.sums += 1
                return super().sum(*args, **kwargs)

        scn = idle_in_quantum_one()
        shared = np.full((4, 6), 0.5).view(Counted)
        quantity = quantify(ConsumptionSpace(frozenset({"x"}), dict.fromkeys(IDLE_KEYS, shared)), scn.grid)
        assert Counted.sums == 1
        assert list(quantity.breakdown.values()) == [12.0 * scn.grid.cell_area / 1000.0] * 3


class TestFieldMemory:
    """receiver_accounting holds only the fields its walk needs, not one per receiver or per slice.

    A field of this 250 x 250 grid is 8 B * 62,500 cells = 500,000 B. The
    walk goes band by band over three bands of two quanta, each with two
    receivers in each quantum, and holds at most, at once:

    - one array per slice of the band being walked, its first receiver's
      caps with every later receiver's folded in: 2 fields;
    - the entrant gain of the receiver being charged, over its cap window
      (at most the grid): 1;
    - that receiver's one-receiver denial, charged one slice at a time (its
      caps folded, finished, turned into denial and summed before the next
      slice's are folded): 1;
    - while that slice turns from dBm into mW, two boolean masks of one
      byte per cell (the cells on p_min and on p_max): 2/8.

    A later receiver's caps are folded in a few rows at a time, through a
    temporary of about 4,096 cells (0.07 field), so no full-grid scratch is
    held. That is 4.25 fields; the bound adds half a field for the small
    arrays (cell axes, link budgets, the fold's block) and tracemalloc's own
    counting, 4.75 in all (3.85 measured: each gain here is built over a
    window of under half the grid). A charge that folds both slices of a
    two-quanta receiver before it converts either holds one field more, a
    walk that holds every slice's caps until the last receiver has folded
    holds 4 more, one that keeps a band's last finished slice while the next
    band is walked holds one more, and a whole-run field cache holds one per
    receiver. A fold that divides a later receiver's caps into a scratch of
    its whole window holds only that window more (4.43 measured), which this
    bound does not see; TestWalkMemory's crowded_scenario walks do.
    """

    SLICES, GAIN, SOLO, MASKS, SMALL = 2, 1, 1, 2 / 8, 1 / 2

    def test_peak_of_the_receiver_walk(self):
        links = [make_link(f"b{band}t{quantum}k{k}", (x, y), (x + 200.0, y), 20.0, band=band,
                           quanta=(quantum,) if k == 0 else (0, 1))
                 for band in range(3) for quantum in range(2) for k in range(2)
                 for x, y in [(1000.0 + 3000.0 * quantum + 2000.0 * k, 1000.0 + 3000.0 * band)]]
        scn = make_scenario(links, grid=make_grid(250, 250, 40.0), dims=SpectrumSpaceDims(b_hat=3, t_hat=2))
        field_bytes = 8 * scn.grid.a_hat
        quantify_module.receiver_accounting(scn, None)
        tracemalloc.start()
        try:
            quantify_module.receiver_accounting(scn, None)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        bound = self.SLICES + self.GAIN + self.SOLO + self.MASKS + self.SMALL
        assert peak / field_bytes < bound


class TestWalkMemory:
    """The occupancy and opportunity walks hold only the fields their design needs, counted on
    crowded_scenario, where a network has two or three transmitters active in each band-0 slice.

    A field of its 250 x 250 grid is 8 B * 62,500 cells = 500,000 B. Each walk's fields are
    dropped as they are read, as the occupancy and opportunity commands write and drop them. Each
    bound adds half a field for the small arrays and the gain kernel's broadcast buffers (numpy's
    two 8,192-element buffers, 0.26 field here); in the opportunity walks that includes the block
    of about 4,096 cells (0.07 field) a later receiver's caps are folded through, a few rows at a
    time, so no walk holds a full-grid scratch.
    """

    SMALL = 1 / 2

    @staticmethod
    def peak_fields(walk, scn) -> float:
        walk()
        tracemalloc.start()
        try:
            walk()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return peak / (8 * scn.grid.a_hat)

    def test_peak_of_the_occupancy_walk_over_every_slice(self):
        """occupancy_maps over all six slices walks band 0 first, all three of its quanta listed,
        and holds at most, at once:

        - one total per listed quantum of the band: 3 fields;
        - the crowd network's partial sum of each quantum: 3;
        - the received field being added: 1;
        - the new sum it is added into out of place, built before the old sum is dropped: 1.

        That is 8 fields, 8.5 with the small arrays (8.01 measured). The out-of-place sum sets
        this peak, so it does not see a walk that keeps the received field last folded in bound
        while the next one is built (8.28): test_cli's TestCommandMemory does, on networks of one
        transmitter. A walk that builds every band's totals at once holds 11, and one that keeps
        each transmitter's field until its network is summed holds 9.
        """
        scn = crowded_scenario()
        keys = [(b, q) for b in range(scn.dims.b_hat) for q in range(scn.dims.t_hat)]
        totals, sums, in_hand, new = scn.dims.t_hat, scn.dims.t_hat, 1, 1
        peak = self.peak_fields(lambda: deque(occupancy_maps(scn, keys), maxlen=0), scn)
        assert peak < totals + sums + in_hand + new + self.SMALL

    def test_peak_of_the_opportunity_walk_one_slice_at_a_time(self):
        """opportunity_map over each slice in turn holds at most, at once:

        - the slice's caps, its first receiver's with every later one's folded in: 1 field;
        - the gain field being built, the one last folded in already dropped: 1.

        That is 2 fields, 2.5 with the small arrays (2.29 measured). A gain is built over the
        receiver's cap window, which here covers most of the grid, so a fold that divides a later
        receiver's caps into a scratch of its whole window holds 3.01 (measured), a walk that also
        keeps the gain last folded in bound while the next one is built 3.11, one that keeps every
        receiver's gain holds more in slice (0, 1), where four receivers are active, and one that
        keeps a slice's field while the next is built holds at least 3.
        """
        scn = crowded_scenario()
        keys = [(b, q) for b in range(scn.dims.b_hat) for q in range(scn.dims.t_hat)]
        caps, building = 1, 1

        def walk():
            for key in keys:
                opportunity_map(scn, *key)

        assert self.peak_fields(walk, scn) < caps + building + self.SMALL

    def test_peak_of_the_available_spectrum_walk(self):
        """available_spectrum over all six slices (the quantify command) walks band by band,
        folding every receiver of a band into one array per slice before it reads that band's
        fields, and holds at most, at once:

        - the caps of each slice of band 0 a receiver is active in: 3 fields (band 1 has two,
          and its fields are folded only after band 0's have been read and dropped);
        - the gain field being built, the one last folded in already dropped: 1.

        That is 4 fields, 4.5 with the small arrays (4.29 measured). A fold that divides a later
        receiver's caps into a scratch of its whole cap window holds 5.02 (measured), a walk that
        also keeps the gain last folded in bound while the next one is built 5.12, and one that
        folds every band's caps before it reads any holds at least 5.
        """
        scn = crowded_scenario()
        caps, building = 3, 1
        peak = self.peak_fields(lambda: available_spectrum(scn), scn)
        assert peak < caps + building + self.SMALL

    def test_peak_of_quantified_admission(self):
        """admit_quantified on random_requests(5, crowd, n=10) (the admit command) prices each
        request by point queries, so its fields are those of its closing available_spectrum over
        the augmented scenario. The entrants are transmitters, so that walk holds the fields of
        test_peak_of_the_available_spectrum_walk: 4, 4.5 with the small arrays (4.33 measured).
        A fold that divides a later receiver's caps into a scratch of its whole cap window holds
        5.06 (measured), and a walk that also keeps the gain last folded in bound while the next
        one is built 5.33.
        """
        scn = crowded_scenario()
        requests = random_requests(5, scn, n=10)
        caps, building = 3, 1
        peak = self.peak_fields(lambda: admission_module.admit_quantified(scn, requests, 3.0), scn)
        assert peak < caps + building + self.SMALL

    def test_peak_of_the_transmitter_charges(self):
        """quantify(tx_consumption(tx)) for each transmitter in turn, as the report command charges
        them, holds one field: the transmitter's received power, clipped and made consumption in
        place, shared by every slice it is active in, while each idle slice is a zero-stride view.

        That is 1 field, 1.5 with the small arrays. A consumption that copies the field into each
        active slice holds 3 for crowd0, and one that allocates each idle slice holds 1 more per
        idle slice.
        """
        scn = crowded_scenario()

        def walk():
            for tx in scn.transmitters():
                quantify(tx_consumption(tx, scn), scn.grid, scn.dims)

        assert self.peak_fields(walk, scn) < 1 + self.SMALL

    def test_peak_of_the_policy_comparison(self):
        """compare_policies prices requests by point queries, so its fields are those of each side's
        entrant union (_entrant_exploitation), which holds at most, at once:

        - one sum per slice an entrant is active in: 6 fields, every slice here on both sides;
        - the consumption field of the entrant being built, the previous entrant's released: 1.

        That is 7 fields, 7.5 with the small arrays (7.36 measured). The two sides run one after
        the other, so their peaks do not add. A union that keeps the previous entrant's field
        bound to its loop while the next is built holds 8 (8.28 measured), one that keeps every
        entrant's field until it sums them holds 18 on the quantified side's 12 entrants, and one
        that allocates idle slices holds more.
        """
        scn = crowded_scenario()
        requests = random_requests(5, scn, n=10)
        sums, building = scn.dims.b_hat * scn.dims.t_hat, 1
        peak = self.peak_fields(lambda: compare_policies(scn, requests, 3.0, -80.0), scn)
        assert peak < sums + building + self.SMALL

    def test_peak_of_each_entrant_union(self):
        """_entrant_exploitation of each side's augmented scenario holds at most, at once:

        - one sum per slice an entrant is active in: 6 fields, every slice here on both sides;
        - the consumption field of the entrant being built: 1.

        That is 7 fields, 7.5 with the small arrays. The previous entrant's field is released
        before the next one's is built; a union that keeps it bound to its loop while the next is
        built holds 8 on the quantified side (8.28 measured).
        """
        scn = crowded_scenario()
        requests = random_requests(5, scn, n=10)
        sums, building = scn.dims.b_hat * scn.dims.t_hat, 1
        sides = {"quantified": admission_module.admit_quantified(scn, requests, 3.0)[1],
                 "osa": admission_module.admit_osa(scn, requests, -80.0)[1]}
        peaks = {name: self.peak_fields(lambda: admission_module._entrant_exploitation(
                     augmented, augmented.network("entrants").transmitters), scn)
                 for name, augmented in sides.items()}
        assert all(peak < sums + building + self.SMALL for peak in peaks.values()), peaks
