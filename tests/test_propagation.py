import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from spectrumspace import OMNI, AntennaPattern, Grid, PropagationConfig, Transmitter, db_to_linear
from spectrumspace.propagation import (
    FREE_SPACE,
    LOG_DISTANCE,
    entrant_gain_field_linear,
    gain_db,
    gains_db,
    link_gain_db,
    prepare_targets,
    tx_gain_db_field,
)

from helpers import PROP, make_grid, o_bearing, o_entrant_field, o_gain_db, o_tx_field, same_bits


def _tx(pos=(0.0, 0.0), pattern=None):
    return Transmitter(id="t", network_id="n", position=pos, tx_power_dbm=30.0,
                       band=0, quanta=frozenset({0}), pattern=pattern or AntennaPattern())


def _sector(boresight, beamwidth=1.0, main=10.0, back=-10.0):
    return AntennaPattern(kind="sectored", boresight_deg=boresight, beamwidth_deg=beamwidth,
                          main_gain_db=main, back_gain_db=back)


def _random_sector(rng):
    return _sector(float(rng.uniform(-180.0, 180.0)), float(rng.uniform(5.0, 300.0)),
                   float(rng.uniform(0.0, 12.0)), float(rng.uniform(-30.0, 0.0)))


# Positions inside and outside a 1000 m square grid, and arbitrary sectors.
POINTS = st.tuples(st.floats(-500.0, 1500.0), st.floats(-500.0, 1500.0))
SECTORS = st.builds(_sector, st.floats(-360.0, 360.0), st.floats(1.0, 360.0),
                    st.floats(-10.0, 15.0), st.floats(-40.0, 0.0))
PATTERNS = st.one_of(st.just(AntennaPattern()), SECTORS)


def _near_edge(pattern, bearing):
    """Within 1e-9 deg of a sector edge, where numpy's and math's atan2 may round apart."""
    off = abs((bearing - pattern.boresight_deg + 180.0) % 360.0 - 180.0)
    return abs(off - pattern.beamwidth_deg / 2.0) < 1e-9


def _path_loss(distance, config):
    """Path loss in dB at a distance (scalar or array): minus the omni-to-omni gain along x."""
    return -gain_db((0.0, 0.0), OMNI, (distance, 0.0), OMNI, config)


class TestPathLoss:
    @pytest.mark.parametrize("distance,expected", [
        (1.0, 40.0),
        (100.0, 80.0),
        (1000.0, 100.0),
        (250.0, 87.95880017344075),
        (0.5, 40.0),   # clamped up to 1 m
        (0.0, 40.0),
    ])
    def test_reference_curve(self, distance, expected):
        assert _path_loss(distance, PROP) == pytest.approx(expected, abs=1e-12)

    def test_exponent_and_reference_shift(self):
        cfg = PropagationConfig(path_loss_exponent=3.5, reference_loss_db=46.67)
        assert _path_loss(7.0, cfg) == pytest.approx(76.24843140049899, abs=1e-12)

    @given(st.floats(min_value=0.0, max_value=1e5))
    def test_free_space_is_exponent_two(self, distance):
        fs = PropagationConfig(model=FREE_SPACE, path_loss_exponent=3.7)
        ld = PropagationConfig(path_loss_exponent=2.0)
        assert _path_loss(distance, fs) == _path_loss(distance, ld)

    @given(st.floats(min_value=0.1, max_value=1e4), st.floats(min_value=0.1, max_value=1e4))
    def test_monotone_in_distance(self, d1, d2):
        lo, hi = sorted((d1, d2))
        assert _path_loss(lo, PROP) <= _path_loss(hi, PROP)

    def test_array_input(self):
        out = _path_loss(np.array([1.0, 100.0, 1000.0]), PROP)
        np.testing.assert_allclose(out, [40.0, 80.0, 100.0], atol=1e-12)


class TestLinkGain:
    def test_omni_link_at_100m(self):
        g = link_gain_db(_tx(), (100.0, 0.0), PROP)
        assert g == pytest.approx(-80.0, abs=1e-12)
        assert db_to_linear(g) == pytest.approx(1e-8, rel=1e-12)

    def test_main_lobe_gain_folds_in(self):
        # 6 dB toward the receiver on an 80 dB path: net -74 dB
        sector = AntennaPattern(kind="sectored", boresight_deg=0.0, beamwidth_deg=60.0,
                                main_gain_db=6.0, back_gain_db=-20.0)
        g = db_to_linear(link_gain_db(_tx(pattern=sector), (100.0, 0.0), PROP))
        assert g == pytest.approx(3.981071705534969e-08, rel=1e-12)

    def test_rx_pattern_applies_on_arrival_bearing(self):
        # receiver at (100, 0) looking along +x: the transmitter sits behind it
        rx_pattern = AntennaPattern(kind="sectored", boresight_deg=0.0, beamwidth_deg=90.0,
                                    main_gain_db=9.0, back_gain_db=-30.0)
        g = link_gain_db(_tx(), (100.0, 0.0), PROP, rx_pattern)
        assert g == pytest.approx(-110.0, abs=1e-12)

    def test_reciprocity_for_omni(self):
        a, b = (120.0, 45.0), (371.0, 402.0)
        assert link_gain_db(_tx(pos=a), b, PROP) == link_gain_db(_tx(pos=b), a, PROP)

    def test_matches_reference_loops(self):
        tx_pattern = AntennaPattern(kind="sectored", boresight_deg=45.0, beamwidth_deg=120.0,
                                    main_gain_db=4.0, back_gain_db=-12.0)
        rx_pattern = AntennaPattern(kind="sectored", boresight_deg=200.0, beamwidth_deg=30.0,
                                    main_gain_db=8.0, back_gain_db=-25.0)
        tx = _tx(pos=(37.0, 91.0), pattern=tx_pattern)
        for point in [(200.0, 150.0), (37.0, 500.0), (-80.0, 91.0)]:
            expected = o_gain_db(tx.position, tx_pattern, point, rx_pattern, PROP)
            assert link_gain_db(tx, point, PROP, rx_pattern) == pytest.approx(expected, abs=1e-12)


class TestGainKernel:
    @pytest.mark.parametrize("target,bearing", [
        ((1.0, 0.0), 0.0),
        ((0.0, 1.0), 90.0),
        ((-1.0, 0.0), 180.0),
        ((0.0, -1.0), -90.0),
    ])
    def test_cardinal_directions(self, target, bearing):
        # 1 m away the path loss is the 40 dB reference; a 1-degree sector
        # adds its main gain only when aimed along the bearing.
        toward, away = _sector(bearing), _sector(bearing + 180.0)
        omni = AntennaPattern()
        assert gain_db((0.0, 0.0), toward, target, omni, PROP) == pytest.approx(-30.0, abs=1e-12)
        assert gain_db((0.0, 0.0), away, target, omni, PROP) == pytest.approx(-50.0, abs=1e-12)
        assert gain_db((0.0, 0.0), omni, target, away, PROP) == pytest.approx(-30.0, abs=1e-12)
        assert gain_db((0.0, 0.0), toward, target, toward, PROP) == pytest.approx(-40.0, abs=1e-12)

    def test_broadcasts_over_destination_arrays(self):
        xs, ys = np.array([[100.0, 0.0], [-80.0, 37.0]]), np.array([[0.0, 250.0], [91.0, -5.0]])
        tx_pattern, rx_pattern = _sector(30.0, 120.0, 4.0, -12.0), _sector(200.0, 60.0, 8.0, -25.0)
        field = gain_db((37.0, 91.0), tx_pattern, (xs, ys), rx_pattern, PROP)
        assert field.shape == (2, 2)
        for i, j in np.ndindex(2, 2):
            point = (float(xs[i, j]), float(ys[i, j]))
            assert field[i, j] == gain_db((37.0, 91.0), tx_pattern, point, rx_pattern, PROP)

    @given(src=POINTS, points=st.lists(POINTS, min_size=1, max_size=8),
           src_pattern=SECTORS, dst_pattern=SECTORS)
    def test_matches_straight_loop_oracle(self, src, points, src_pattern, dst_pattern):
        points = [p for p in points
                  if not _near_edge(src_pattern, o_bearing(src, p))
                  and not _near_edge(dst_pattern, o_bearing(p, src))]
        if not points:
            return
        xs, ys = np.array([p[0] for p in points]), np.array([p[1] for p in points])
        field = gain_db(src, src_pattern, (xs, ys), dst_pattern, PROP)
        for k, point in enumerate(points):
            expected = o_gain_db(src, src_pattern, point, dst_pattern, PROP)
            assert field[k] == pytest.approx(expected, abs=1e-9)
            assert float(gain_db(src, src_pattern, point, dst_pattern, PROP)) == field[k]

    @given(src=POINTS, src_pattern=PATTERNS, others=st.lists(st.tuples(POINTS, PATTERNS), max_size=8))
    def test_gains_db_is_reciprocal(self, src, src_pattern, others):
        # Omni and sectored entries share one call; each entry is bit for bit
        # the scalar kernel run the other way, from the entity to the point.
        entities = [_tx(pos=pos, pattern=pattern) for pos, pattern in others]
        gains = gains_db(src, src_pattern, prepare_targets(entities), PROP)
        assert gains.shape == (len(entities),)
        for k, entity in enumerate(entities):
            assert gains[k] == float(gain_db(entity.position, entity.pattern, src, src_pattern, PROP))

    @given(src=POINTS, others=st.lists(st.tuples(POINTS, PATTERNS), max_size=8))
    def test_targets_are_equal_when_their_arrays_are(self, src, others):
        # An all-omni preparation keeps the one OMNI pattern; any sectored entry
        # gives per-entry arrays, with omni entries as 0 dB full circles.
        entities = [_tx(pos=pos, pattern=pattern) for pos, pattern in others]
        targets = prepare_targets(entities)
        assert targets == prepare_targets(list(entities))
        assert (targets.pattern is OMNI) == all(e.pattern.kind == "omni" for e in entities)
        if entities:
            moved = [_tx(pos=(src[0] + 1.0, src[1]), pattern=entities[0].pattern)] + entities[1:]
            assert (prepare_targets(moved) == targets) == (moved[0].position == entities[0].position)


class TestFieldHelpers:
    # Seeded random sectors over 2,400 cells each, with transmitters and
    # receivers inside and outside the grid: the fields and the scalar links
    # go through one kernel, so they agree bit for bit.
    GRID = make_grid(60, 40, 25.0)

    def _positions_and_patterns(self, seed):
        rng = np.random.default_rng(seed)
        for _ in range(6):
            yield (float(rng.uniform(-200.0, 1700.0)), float(rng.uniform(-200.0, 1200.0))), _random_sector(rng)

    def test_tx_gain_field_matches_scalar_links(self):
        grid = self.GRID
        for pos, pattern in self._positions_and_patterns(7):
            tx = _tx(pos=pos, pattern=pattern)
            field = tx_gain_db_field(tx, grid, PROP)
            assert field.shape == (grid.n_y, grid.n_x)
            scalar = np.array([[link_gain_db(tx, grid.cell_center(ix, iy), PROP)
                                for ix in range(grid.n_x)] for iy in range(grid.n_y)])
            assert np.count_nonzero(field != scalar) == 0

    def test_entrant_gain_field_matches_scalar_links(self):
        grid = self.GRID
        for rx_pos, rx_pattern in self._positions_and_patterns(8):
            field = entrant_gain_field_linear(rx_pos, rx_pattern, grid, PROP)
            scalar_db = np.array([[link_gain_db(_tx(pos=grid.cell_center(ix, iy)), rx_pos, PROP, rx_pattern)
                                   for ix in range(grid.n_x)] for iy in range(grid.n_y)])
            # One dB-to-linear conversion on both sides: equal fields mean equal dB gains.
            assert np.count_nonzero(field != db_to_linear(scalar_db)) == 0


# Small grids anywhere, and curves where the clamp may equal d0 and the reference loss may be 0,
# so a path loss of exactly +0.0 can occur.
GRIDS = st.builds(Grid, origin=st.tuples(st.floats(-1e4, 1e4), st.floats(-1e4, 1e4)),
                  cell_size=st.floats(0.01, 1000.0), n_x=st.integers(1, 6), n_y=st.integers(1, 6))


@st.composite
def _configs(draw):
    clamp = draw(st.floats(0.01, 100.0))
    return PropagationConfig(
        model=draw(st.sampled_from([LOG_DISTANCE, FREE_SPACE])),
        path_loss_exponent=draw(st.floats(1.0, 6.0)),
        reference_distance_m=draw(st.one_of(st.just(clamp), st.floats(0.01, 100.0))),
        reference_loss_db=draw(st.one_of(st.just(0.0), st.floats(0.0, 100.0))),
        min_distance_clamp_m=clamp,
    )


def _source(data, grid):
    """A point inside the grid, outside it, or on a cell center (distance 0, where the clamp applies)."""
    x_min, y_min, x_max, y_max = grid.extent
    kind = data.draw(st.sampled_from(["inside", "outside", "center"]))
    if kind == "center":
        return grid.cell_center(data.draw(st.integers(0, grid.n_x - 1)), data.draw(st.integers(0, grid.n_y - 1)))
    u, v = data.draw(st.floats(0.0, 1.0)), data.draw(st.floats(0.0, 1.0))
    if kind == "outside":
        u, v = u + data.draw(st.floats(1.01, 10.0)), v - data.draw(st.floats(-1.0, 10.0))
    return (x_min + u * (x_max - x_min), y_min + v * (y_max - y_min))


class TestFieldKernelExactness:
    """The fields computed in place on broadcast cell-center axes have the bits of the
    expressions they replaced: full coordinate arrays and one new array per step."""

    @given(data=st.data(), grid=GRIDS, pattern=PATTERNS, cfg=_configs())
    def test_entrant_field_has_the_oracle_bits(self, data, grid, pattern, cfg):
        src = _source(data, grid)
        assert same_bits(entrant_gain_field_linear(src, pattern, grid, cfg), o_entrant_field(src, pattern, grid, cfg))

    @given(data=st.data(), grid=GRIDS, pattern=PATTERNS, cfg=_configs())
    def test_a_window_of_the_entrant_field_has_the_oracle_bits(self, data, grid, pattern, cfg):
        """Any box of rows and columns, empty ones included, is that box of the whole field."""
        src = _source(data, grid)
        rows = slice(data.draw(st.integers(0, grid.n_y)), data.draw(st.integers(0, grid.n_y)))
        cols = slice(data.draw(st.integers(0, grid.n_x)), data.draw(st.integers(0, grid.n_x)))
        window = entrant_gain_field_linear(src, pattern, grid, cfg, (rows, cols))
        assert same_bits(window, o_entrant_field(src, pattern, grid, cfg)[rows, cols])

    @given(data=st.data(), grid=GRIDS, pattern=PATTERNS, cfg=_configs())
    def test_tx_field_has_the_oracle_bits(self, data, grid, pattern, cfg):
        tx = _tx(pos=_source(data, grid), pattern=pattern)
        assert same_bits(tx_gain_db_field(tx, grid, cfg), o_tx_field(tx, grid, cfg))

    def test_zero_path_loss_keeps_a_positive_zero(self):
        # Source on the center of the one cell, clamp = d0 = 1 m, no reference loss: the
        # path loss is +0.0, so the gain is 0.0 - 0.0 = +0.0; negating the loss would give -0.0.
        grid = make_grid(1, 1, 2.0)
        cfg = PropagationConfig(reference_loss_db=0.0)
        field = tx_gain_db_field(_tx(pos=grid.cell_center(0, 0)), grid, cfg)
        assert same_bits(field, np.zeros((1, 1)))
        assert same_bits(field, o_tx_field(_tx(pos=grid.cell_center(0, 0)), grid, cfg))
        assert entrant_gain_field_linear(grid.cell_center(0, 0), AntennaPattern(), grid, cfg)[0, 0] == 1.0


class TestKernelLeavesItsInputs:
    """The kernel computes over arrays it made; the arrays a caller passes stay as they were."""

    @pytest.mark.parametrize("dst_pattern", [AntennaPattern(), _sector(200.0, 60.0, 8.0, -25.0)])
    @pytest.mark.parametrize("src_pattern", [AntennaPattern(), _sector(30.0, 120.0, 4.0, -12.0)])
    def test_gain_db(self, src_pattern, dst_pattern):
        xs, ys = np.array([[37.0, 0.0], [-80.0, 37.0]]), np.array([[91.0, 250.0], [91.0, -5.0]])
        before = xs.copy(), ys.copy()
        gain_db((37.0, 91.0), src_pattern, (xs, ys), dst_pattern, PROP)
        assert same_bits(xs, before[0]) and same_bits(ys, before[1])
        axes = make_grid(3, 2, 50.0).center_axes()
        copies = tuple(a.copy() for a in axes)
        gain_db((37.0, 91.0), src_pattern, axes, dst_pattern, PROP)
        assert all(same_bits(a, c) for a, c in zip(axes, copies))

    def test_gains_db(self):
        # Per-entry pattern arrays, as gains_db builds them, go in as the destination pattern.
        boresights, beamwidths = np.array([10.0, 200.0]), np.array([90.0, 30.0])
        mains, backs = np.array([6.0, 3.0]), np.array([-20.0, -5.0])
        pattern = AntennaPattern("sectored", boresights, beamwidths, mains, backs)
        xs, ys = np.array([100.0, -40.0]), np.array([0.0, 60.0])
        before = [a.copy() for a in (boresights, beamwidths, mains, backs, xs, ys)]
        gain_db((0.0, 0.0), AntennaPattern(), (xs, ys), pattern, PROP)
        entities = [_tx(pos=(100.0, 0.0), pattern=_sector(10.0, 90.0, 6.0, -20.0)), _tx(pos=(-40.0, 60.0))]
        gains_db((0.0, 0.0), _sector(45.0, 90.0), prepare_targets(entities), PROP)
        assert entities == [_tx(pos=(100.0, 0.0), pattern=_sector(10.0, 90.0, 6.0, -20.0)), _tx(pos=(-40.0, 60.0))]
        for a, b in zip((boresights, beamwidths, mains, backs, xs, ys), before):
            assert same_bits(a, b)

    def test_db_to_linear(self):
        db = np.array([-125.0, -0.0, 0.0, 30.0])
        before = db.copy()
        assert same_bits(db_to_linear(db), 10.0 ** (before / 10.0))
        assert same_bits(db, before)
