import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

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
from spectrumspace.model import MAX_CELLS, MAX_SLICES, AccessRequest, request_errors
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

    @pytest.mark.parametrize("cell", [(10, 0), (0, 5), (-1, 0), (500, 500), (1.5, 2), (2, 1.0), (True, 0),
                                      (0, False)])
    def test_cell_center_refuses_a_cell_the_grid_does_not_have(self, cell):
        with pytest.raises(ValueError, match="not a cell of the 10x5 grid"):
            make_grid(10, 5, 100.0).cell_center(*cell)

    def test_cell_center_takes_numpy_indices(self):
        assert make_grid(10, 5, 100.0).cell_center(np.int64(9), np.int32(4)) == (950.0, 450.0)

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

    @given(origin=st.tuples(st.floats(-1e4, 1e4), st.floats(-1e4, 1e4)),
           cell_size=st.floats(1e-3, 1e4), n_x=st.integers(1, 1024), n_y=st.integers(1, 1024),
           steps=st.integers(0, 3))
    @example(origin=(-397.5, 0.0), cell_size=32.1, n_x=22, n_y=1, steps=1)
    def test_contains_holds_exactly_when_cell_of_returns(self, origin, cell_size, n_x, n_y, steps):
        """At the extent's edges and up to ``steps`` ulps either side of them, cell_of returns a
        cell of the grid for every point contains accepts, and raises for every other one."""
        grid = Grid(origin, cell_size, n_x, n_y)
        x_min, y_min, x_max, y_max = grid.extent

        def near(edge):
            points = [edge]
            for toward in (-math.inf, math.inf):
                point = edge
                for _ in range(steps):
                    point = math.nextafter(point, toward)
                    points.append(point)
            return points

        xs = near(x_min) + near(x_max) + [grid.cell_center(n_x // 2, 0)[0]]
        ys = near(y_min) + near(y_max) + [grid.cell_center(0, n_y // 2)[1]]
        for point in [(x, y) for x in xs for y in ys]:
            if grid.contains(point):
                ix, iy = grid.cell_of(point)
                assert 0 <= ix < n_x and 0 <= iy < n_y
            else:
                with pytest.raises(ValueError, match="outside grid extent"):
                    grid.cell_of(point)

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

    @pytest.mark.parametrize("bad", [12.5, 3.0, True, "3"])
    @pytest.mark.parametrize("owner,field", [("grid", "n_x"), ("grid", "n_y"), ("dims", "b_hat"), ("dims", "t_hat")])
    def test_counts_must_be_integers(self, owner, field, bad):
        # Grid(n_x=12.5) used to validate clean and crash later in numpy; Grid(n_x="3") raised
        # TypeError in a range check instead of being reported.
        scn = make_scenario([make_link("a", (50.0, 50.0), (150.0, 50.0), 10.0)])
        part = dataclasses.replace(getattr(scn, owner), **{field: bad})
        assert validation_errors(dataclasses.replace(scn, **{owner: part})) == [
            f"{owner}: {field} must be an integer (got {bad!r})"]

    @pytest.mark.parametrize("bad", [0.5, 0.0, True, "1"])
    @pytest.mark.parametrize("entity", ["transmitter", "receiver"])
    def test_bands_and_quanta_must_be_integers(self, entity, bad):
        # A quantum of 0.5 used to validate clean and leave its entity silently never active;
        # quanta {2, "1"} raised TypeError when sorted for the report.
        net = make_link("a", (50.0, 50.0), (150.0, 50.0), 10.0)
        valid = make_scenario([net], dims=SpectrumSpaceDims(t_hat=3))
        field = entity + "s"
        who = f"{entity} {getattr(net, field)[0].id!r}"

        def errors(**changes):
            changed = dataclasses.replace(getattr(net, field)[0], **changes)
            network = dataclasses.replace(net, **{field: (changed,)})
            return validation_errors(dataclasses.replace(valid, networks=(network,)))

        assert errors(quanta=frozenset({2, bad})) == [f"{who}: time quantum {bad!r} is not an integer"]
        assert f"{who}: band index {bad!r} is not an integer" in errors(band=bad)

    def test_numpy_integers_are_integers(self):
        net = make_link("a", (50.0, 50.0), (150.0, 50.0), 10.0, band=np.int64(1),
                        quanta=(np.int64(0), np.int32(1)))
        scn = make_scenario([net], grid=make_grid(np.int64(12), np.int16(3), 100.0),
                            dims=SpectrumSpaceDims(b_hat=np.int64(2), t_hat=np.uint8(2)))
        assert validation_errors(scn) == []

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

    @pytest.mark.parametrize("changes, message", [
        ({"path_loss_exponent": 0.5}, "propagation: path_loss_exponent must be >= 1 (got 0.5)"),
        ({"reference_distance_m": 0.0}, "propagation: reference_distance_m must be positive"),
        ({"min_distance_clamp_m": -1.0}, "propagation: min_distance_clamp_m must be positive"),
    ], ids=["exponent", "reference", "clamp"])
    def test_each_propagation_rule_is_named(self, changes, message):
        scn = dataclasses.replace(_two_link_scenario(), propagation=dataclasses.replace(PROP, **changes))
        assert validation_errors(scn) == [message]

    def test_power_below_p_min_is_named(self):
        scn = dataclasses.replace(_two_link_scenario(),
                                  networks=(make_link("bb", (50.0, 50.0), (150.0, 50.0), -1000.0),))
        assert validation_errors(scn) == ["transmitter 'bb-tx': power below p_min (-1000.0 < -125.0 dBm)"]

    def test_an_unknown_antenna_kind_is_named(self):
        # the document parser refuses this kind first, so only a scenario built in code reaches the rule
        scn = dataclasses.replace(_two_link_scenario(), networks=(
            make_link("a", (50.0, 50.0), (150.0, 50.0), 10.0, tx_pattern=AntennaPattern(kind="dish")),))
        with pytest.raises(ScenarioValidationError) as err:
            validate_scenario(scn)
        assert err.value.errors == ["transmitter 'a-tx': unknown antenna kind 'dish'"]

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

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, "1"])
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
        if isinstance(bad, str):  # one error: no range check compares a value of the wrong type
            assert len(errors) == 1 and errors[0].startswith(entity), errors
            assert errors[0].endswith(f": {field} must be a number (got {value!r})")
        else:
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


class TestRequestErrors:
    """Request rules that need only the scenario; id collisions are admission's."""

    @staticmethod
    def request(**changes):
        fields = dict(request_id="r1", position=(250.0, 50.0), desired_dbm=20.0,
                      min_useful_dbm=-20.0, required_bands=1, acceptable_bands=frozenset({0}),
                      quanta=frozenset({0}))
        return AccessRequest(**{**fields, **changes})

    @staticmethod
    def scenario():
        return make_scenario([make_link("a", (50.0, 50.0), (150.0, 50.0), 30.0)],
                             grid=make_grid(12, 1, 100.0), dims=SpectrumSpaceDims(b_hat=2, t_hat=2))

    def test_a_valid_request_and_an_id_shared_with_the_scenario_pass(self):
        scn = self.scenario()
        numpy_ints = self.request(request_id="r3", acceptable_bands=frozenset({np.int64(1)}),
                                  quanta=frozenset({np.int32(1)}))
        assert request_errors(scn, [self.request(), self.request(request_id="a-tx"), numpy_ints]) == []

    @pytest.mark.parametrize("changes, named", [
        ({"position": (-10.0, 50.0)}, "position (-10.0, 50.0) outside grid extent"),
        ({"position": (1200.5, 50.0)}, "position (1200.5, 50.0) outside grid extent"),
        ({"position": (math.nan, 50.0)}, "position must be finite"),
        ({"desired_dbm": math.inf}, "desired_dbm must be finite"),
        ({"min_useful_dbm": 21.0}, "min_useful_dbm 21.0 > desired_dbm 20.0"),
        ({"required_bands": 0}, "required_bands 0 of 1 acceptable_bands"),
        ({"required_bands": 2}, "required_bands 2 of 1 acceptable_bands"),
        ({"acceptable_bands": frozenset()}, "required_bands 1 of 0 acceptable_bands"),
        ({"quanta": frozenset()}, "no time quanta requested"),
        ({"acceptable_bands": frozenset({0, 2})}, "acceptable_bands: band index 2 out of range [0, 2)"),
        ({"acceptable_bands": frozenset({-1, 0})}, "acceptable_bands: band index -1 out of range"),
        ({"quanta": frozenset({0, 5})}, "quanta: time quantum 5 out of range [0, 2)"),
        ({"acceptable_bands": frozenset({0.5})}, "acceptable_bands: band index 0.5 is not an integer"),
        ({"acceptable_bands": frozenset({True})}, "acceptable_bands: band index True is not an integer"),
        ({"quanta": frozenset({0, 1.0})}, "quanta: time quantum 1.0 is not an integer"),
        ({"required_bands": 1.5, "acceptable_bands": frozenset({0, 1})}, "required_bands must be an integer (got 1.5)"),
        ({"position": ("250", 50.0)}, "position must be a number (got ('250', 50.0))"),
        ({"desired_dbm": "20"}, "desired_dbm must be a number (got '20')"),
        ({"required_bands": "1"}, "required_bands must be an integer (got '1')"),
        ({"acceptable_bands": frozenset({0, "1"})}, "acceptable_bands: band index '1' is not an integer"),
        ({"quanta": frozenset({0, "1"})}, "quanta: time quantum '1' is not an integer"),
    ])
    def test_each_rule_names_the_request_and_its_field(self, changes, named):
        errors = request_errors(self.scenario(), [self.request(), self.request(request_id="r2", **changes)])
        assert len(errors) == 1
        assert errors[0].startswith("request 'r2': ") and named in errors[0]

    def test_the_upper_grid_edge_is_on_the_grid(self):
        assert request_errors(self.scenario(), [self.request(position=(1200.0, 100.0))]) == []

    def test_all_errors_reported_at_once(self):
        bad = self.request(position=(5000.0, 50.0), min_useful_dbm=30.0, required_bands=3,
                           acceptable_bands=frozenset({0, 7}), quanta=frozenset({4}))
        assert len(request_errors(self.scenario(), [bad])) == 5


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
