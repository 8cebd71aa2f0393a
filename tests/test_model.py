import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from spectrumspace import (
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
from spectrumspace.model import MAX_CELLS, MAX_SLICES
from spectrumspace.propagation import PropagationConfig

from helpers import BOUNDS, PROP, make_grid, make_link, make_scenario


class TestConversions:
    def test_reference_points(self):
        assert db_to_linear(0.0) == 1.0
        assert db_to_linear(30.0) == 1000.0
        assert db_to_linear(-125.0) == pytest.approx(3.1622776601683794e-13, rel=1e-15)
        assert linear_to_db(1.0) == 0.0
        assert linear_to_db(1000.0) == pytest.approx(30.0, abs=1e-12)

    def test_zero_maps_to_minus_inf(self):
        assert linear_to_db(0.0) == float("-inf")
        out = linear_to_db(np.array([0.0, 1.0]))
        assert out[0] == float("-inf") and out[1] == 0.0

    @given(st.floats(min_value=-200.0, max_value=50.0))
    def test_round_trip(self, x):
        assert abs(linear_to_db(db_to_linear(x)) - x) < 1e-9

    def test_array_form(self):
        np.testing.assert_allclose(db_to_linear(np.array([0.0, 10.0])), [1.0, 10.0])


class TestPowerBounds:
    def test_consumption_scale(self):
        assert BOUNDS.p_cmax_linear == pytest.approx(999.9999999999997, rel=1e-14)
        assert BOUNDS.p_cmax_linear == BOUNDS.p_max_linear - BOUNDS.p_min_linear


class TestGrid:
    def test_geometry(self):
        grid = make_grid(10, 5, 100.0)
        assert grid.cell_area == 10000.0
        assert grid.a_hat == 50
        assert grid.extent == (0.0, 0.0, 1000.0, 500.0)
        assert grid.cell_center(0, 0) == (50.0, 50.0)
        assert grid.cell_center(9, 4) == (950.0, 450.0)

    def test_cell_of_interior_boundary_goes_up(self):
        grid = make_grid(10, 10, 100.0)
        assert grid.cell_of((0.0, 0.0)) == (0, 0)
        assert grid.cell_of((100.0, 0.0)) == (1, 0)
        assert grid.cell_of((99.9999, 250.0)) == (0, 2)

    def test_cell_of_outer_edge_stays_inside(self):
        grid = make_grid(10, 10, 100.0)
        assert grid.cell_of((1000.0, 1000.0)) == (9, 9)
        assert grid.cell_of((0.0, 1000.0)) == (0, 9)

    def test_cell_of_outside_raises(self):
        grid = make_grid(10, 10, 100.0)
        with pytest.raises(ValueError, match="outside grid extent"):
            grid.cell_of((-0.001, 50.0))
        with pytest.raises(ValueError):
            grid.cell_of((50.0, 1000.001))

    @given(st.floats(min_value=0.0, max_value=999.999), st.floats(min_value=0.0, max_value=999.999))
    def test_cell_of_partitions_extent(self, x, y):
        grid = make_grid(10, 10, 100.0)
        ix, iy = grid.cell_of((x, y))
        assert 0 <= ix < 10 and 0 <= iy < 10
        assert ix * 100.0 <= x and (x < (ix + 1) * 100.0 or x == 1000.0)
        assert iy * 100.0 <= y

    def test_center_arrays_align_with_cell_center(self):
        grid = make_grid(4, 3, 50.0, origin=(10.0, -20.0))
        cx, cy = grid.center_axes()
        assert cx.shape == (1, 4) and cy.shape == (3, 1)
        for iy in range(3):
            for ix in range(4):
                assert (cx[0, ix], cy[iy, 0]) == grid.cell_center(ix, iy)


class TestAntennaPattern:
    def test_omni_is_flat_zero(self):
        omni = AntennaPattern()
        for bearing in (-180.0, 0.0, 37.5, 180.0, 359.0):
            assert float(omni.gain_db(bearing)) == 0.0

    @pytest.mark.parametrize("bearing,expected", [
        (75.0, 6.0),     # inside the sector
        (130.0, -20.0),  # outside
        (60.0, 6.0),     # exactly on the edge counts as inside
        (120.0, 6.0),
        (-90.0, -20.0),  # wraps around the back
    ])
    def test_sector_edges(self, bearing, expected):
        sector = AntennaPattern(kind="sectored", boresight_deg=90.0, beamwidth_deg=60.0,
                                main_gain_db=6.0, back_gain_db=-20.0)
        assert float(sector.gain_db(bearing)) == expected

    def test_vectorized_matches_scalar(self):
        sector = AntennaPattern(kind="sectored", boresight_deg=10.0, beamwidth_deg=90.0,
                                main_gain_db=3.0, back_gain_db=-15.0)
        bearings = np.linspace(-180.0, 180.0, 73)
        vec = sector.gain_db(bearings)
        for b, g in zip(bearings, vec):
            assert float(sector.gain_db(float(b))) == g


def _two_link_scenario():
    return make_scenario([
        make_link("a", (200.0, 200.0), (300.0, 200.0), 20.0),
        make_link("b", (700.0, 700.0), (600.0, 700.0), 15.0),
    ])


class TestValidation:
    def test_valid_scenario_passes_through(self):
        scn = _two_link_scenario()
        assert validate_scenario(scn) is scn
        assert validation_errors(scn) == []

    def test_validation_is_idempotent(self):
        scn = _two_link_scenario()
        assert validate_scenario(validate_scenario(scn)) is scn

    def test_all_errors_reported_at_once(self):
        tx = Transmitter(id="t1", network_id="net", position=(0.0, 0.0),
                         tx_power_dbm=45.0, band=3, quanta=frozenset({0, 9}))
        rx = Receiver(id="r1", network_id="net", position=(10.0, 0.0), band=0,
                      quanta=frozenset({0}), beta_db=-1.0, noise_floor_dbm=-100.0,
                      linked_tx_id="ghost")
        scn = Scenario(
            grid=make_grid(), dims=SpectrumSpaceDims(),
            bounds=PowerBounds(p_max_dbm=30.0, p_min_dbm=30.0), propagation=PROP,
            networks=(RFNetwork(id="net", transmitters=(tx,), receivers=(rx,)),),
        )
        errors = validation_errors(scn)
        text = "\n".join(errors)
        assert "p_max" in text and "must exceed p_min" in text
        assert "power above p_max" in text
        assert "band index 3 out of range" in text
        assert "time quantum 9 out of range" in text
        assert "beta_db must be positive" in text
        assert "dangling link 'ghost'" in text
        assert len(errors) >= 6
        with pytest.raises(ScenarioValidationError) as err:
            validate_scenario(scn)
        assert err.value.errors == errors

    def test_duplicate_ids(self):
        net = make_link("a", (0.0, 0.0), (10.0, 0.0), 10.0)
        dup = RFNetwork(id="b", transmitters=(
            dataclasses.replace(net.transmitters[0], network_id="b"),
        ))
        scn = Scenario(grid=make_grid(), dims=SpectrumSpaceDims(), bounds=BOUNDS,
                       propagation=PROP, networks=(net, dup))
        errors = validation_errors(scn)
        assert any("duplicate id 'a-tx'" in e for e in errors)

    def test_cross_band_link(self):
        net = make_link("a", (0.0, 0.0), (100.0, 0.0), 10.0)
        bad_rx = dataclasses.replace(net.receivers[0], band=1)
        scn = Scenario(grid=make_grid(), dims=SpectrumSpaceDims(b_hat=2),
                       bounds=BOUNDS, propagation=PROP,
                       networks=(RFNetwork(id="a", transmitters=net.transmitters,
                                           receivers=(bad_rx,)),))
        errors = validation_errors(scn)
        assert any("uses band 0, receiver uses band 1" in e for e in errors)

    def test_bad_grid_and_dims(self):
        scn = Scenario(grid=Grid(origin=(0.0, 0.0), cell_size=0.0, n_x=0, n_y=5),
                       dims=SpectrumSpaceDims(b_hat=0, t_hat=0), bounds=BOUNDS,
                       propagation=PROP)
        text = "\n".join(validation_errors(scn))
        assert "non-positive grid dims" in text
        assert "band count must be >= 1" in text
        assert "time-quantum count must be >= 1" in text

    def test_bad_pattern_and_propagation(self):
        tx = Transmitter(id="t", network_id="n", position=(0.0, 0.0), tx_power_dbm=0.0,
                         band=0, quanta=frozenset({0}),
                         pattern=AntennaPattern(kind="sectored", beamwidth_deg=0.0))
        scn = Scenario(grid=make_grid(), dims=SpectrumSpaceDims(), bounds=BOUNDS,
                       propagation=PropagationConfig(model="two-ray"),
                       networks=(RFNetwork(id="n", transmitters=(tx,)),))
        text = "\n".join(validation_errors(scn))
        assert "beamwidth_deg must be in (0, 360]" in text
        assert "unknown model 'two-ray'" in text

    def test_nan_power_is_rejected(self):
        # NaN compares false with both power bounds. Before the finiteness
        # check this scenario validated clean, its occupancy was NaN and its
        # available spectrum read 0.0.
        scn = Scenario(grid=make_grid(), dims=SpectrumSpaceDims(), bounds=BOUNDS,
                       propagation=PROP,
                       networks=(make_link("a", (50.0, 50.0), (150.0, 50.0), power_dbm=math.nan),))
        assert validation_errors(scn) == ["transmitter 'a-tx': tx_power_dbm must be finite (got nan)"]
        with pytest.raises(ScenarioValidationError):
            validate_scenario(scn)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("owner,field", [
        ("grid", "origin"), ("grid", "cell_size"),
        ("dims", "band_width_hz"), ("dims", "quantum_duration_s"),
        ("bounds", "p_max_dbm"), ("bounds", "p_min_dbm"),
        ("propagation", "path_loss_exponent"), ("propagation", "reference_distance_m"),
        ("propagation", "reference_loss_db"), ("propagation", "min_distance_clamp_m"),
        ("transmitter", "position"), ("transmitter", "tx_power_dbm"),
        ("receiver", "position"), ("receiver", "beta_db"), ("receiver", "noise_floor_dbm"),
        *((who, field) for who in ("transmitter pattern", "receiver pattern")
          for field in ("boresight_deg", "beamwidth_deg", "main_gain_db", "back_gain_db")),
    ])
    def test_every_model_float_must_be_finite(self, owner, field, bad):
        sector = AntennaPattern(kind="sectored", boresight_deg=0.0, beamwidth_deg=90.0,
                                main_gain_db=6.0, back_gain_db=-10.0)
        net = make_link("a", (50.0, 50.0), (150.0, 50.0), 10.0,
                        tx_pattern=sector, rx_pattern=sector)
        parts = {"grid": make_grid(), "dims": SpectrumSpaceDims(), "bounds": BOUNDS,
                 "propagation": PROP, "transmitter": net.transmitters[0],
                 "receiver": net.receivers[0]}
        value = (bad, 50.0) if field in ("origin", "position") else bad
        entity, _, attr = owner.partition(" ")
        if attr:
            pattern = dataclasses.replace(parts[entity].pattern, **{field: value})
            parts[entity] = dataclasses.replace(parts[entity], pattern=pattern)
        else:
            parts[entity] = dataclasses.replace(parts[entity], **{field: value})
        scn = Scenario(
            grid=parts["grid"], dims=parts["dims"], bounds=parts["bounds"],
            propagation=parts["propagation"],
            networks=(RFNetwork(id="a", transmitters=(parts["transmitter"],),
                                receivers=(parts["receiver"],)),),
        )
        errors = validation_errors(scn)
        assert any(e.startswith(entity) and f"{field} must be finite" in e for e in errors), errors

    def test_scenario_is_immutable(self):
        scn = _two_link_scenario()
        with pytest.raises(dataclasses.FrozenInstanceError):
            scn.bounds = BOUNDS
        with pytest.raises(dataclasses.FrozenInstanceError):
            scn.networks[0].transmitters[0].tx_power_dbm = 0.0


class TestSizeLimits:
    """Validation bounds the cells per slice and the slice count; it never builds a field."""

    @staticmethod
    def sized(n_x, n_y, b_hat=1, t_hat=1):
        return Scenario(grid=Grid(origin=(0.0, 0.0), cell_size=1.0, n_x=n_x, n_y=n_y),
                        dims=SpectrumSpaceDims(b_hat=b_hat, t_hat=t_hat), bounds=BOUNDS, propagation=PROP)

    def test_the_limits_are_a_bounded_memory(self):
        assert MAX_CELLS == 1024 * 1024
        assert 8 * MAX_CELLS * (MAX_SLICES + 4) == 4 * 2**30

    def test_a_scenario_exactly_at_both_limits_validates(self):
        assert validation_errors(self.sized(1024, 1024, 4, 127)) == []
        assert validation_errors(self.sized(MAX_CELLS, 1, MAX_SLICES, 1)) == []

    def test_one_cell_too_many_is_named(self):
        assert validation_errors(self.sized(1025, 1024)) == [
            "grid: n_x * n_y = 1025 * 1024 cells per slice exceeds the limit of 1048576"]
        assert any("n_x * n_y" in e for e in validation_errors(self.sized(10**12, 1)))

    def test_one_slice_too_many_is_named(self):
        assert validation_errors(self.sized(2, 2, 509, 1)) == [
            "dims: bands * quanta = 509 * 1 slices exceeds the limit of 508"]
        assert any("bands * quanta" in e for e in validation_errors(self.sized(2, 2, 1, 10**12)))

    def test_non_positive_sizes_are_not_also_too_large(self):
        text = "\n".join(validation_errors(self.sized(-10**12, -1, -10**12, -1)))
        assert "non-positive grid dims" in text and "band count must be >= 1" in text
        assert "exceeds the limit" not in text


class TestScenarioAccessors:
    def test_lookups(self):
        scn = _two_link_scenario()
        assert scn.transmitter("a-tx").tx_power_dbm == 20.0
        assert scn.receiver("b-rx").linked_tx_id == "b-tx"
        assert scn.transmitter("nope") is None
        assert scn.network("b").id == "b"

    def test_with_network_appends(self):
        scn = _two_link_scenario()
        grown = scn.with_network(RFNetwork(id="c"))
        assert [n.id for n in grown.networks] == ["a", "b", "c"]
        assert [n.id for n in scn.networks] == ["a", "b"]
