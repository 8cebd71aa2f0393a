"""Spectrum accounting is exact where a field sits on a power bound.

PowerBounds converts its bounds with Python's float **, fields convert with
numpy's vectorized **, and the two may round 10 ** (x / 10) to neighbouring
floats (25 and -118 dBm among them on SIMD builds of numpy). A cell on a
bound must still count as exactly that bound, so an idle slice denies 0.0
and a blocked one leaves 0.0 available.
"""

import importlib

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from spectrumspace import (
    PowerBounds,
    PropagationConfig,
    SpectrumSpaceDims,
    available_spectrum,
    db_to_linear,
    denied_consumption,
    harvest_metrics,
    linear_to_db,
    opportunity_map,
    rx_consumption,
)
from spectrumspace import model
from spectrumspace.model import linear_to_db_in_place

from helpers import make_grid, make_link, make_scenario, random_scenario, same_bits

# the package exports a function named quantify, which hides the module
quantify_module = importlib.import_module("spectrumspace.quantify")

DIMS = SpectrumSpaceDims(b_hat=2, t_hat=2)
STEEP = PropagationConfig(path_loss_exponent=4.0)


def bounded(bounds: PowerBounds):
    """A working link on band 0, a hopeless one on band 1, both in quantum 0 only.

    Under the steep path loss, slice (0, 0) opens from about 37 dBm next to
    its receiver's cell to about 84 dBm at the far end, so it reaches p_max
    for every p_max up to there, and p_min in the receiver's cell. Slice
    (1, 0) is on the floor everywhere, and quantum 1 protects nobody.
    """
    return make_scenario(
        [make_link("a", (50.0, 50.0), (60.0, 50.0), 0.0),
         make_link("z", (550.0, 50.0), (650.0, 50.0), -60.0, band=1)],
        grid=make_grid(24, 1, 100.0), dims=DIMS, bounds=bounds, prop=STEEP)


def blocked(bounds: PowerBounds):
    """The hopeless link alone: every cell of its slice sits on the floor."""
    return make_scenario([make_link("z", (50.0, 50.0), (150.0, 50.0), -60.0)],
                         grid=make_grid(5, 5, 100.0), bounds=bounds)


def test_fully_blocked_scenario_leaves_exactly_nothing():
    bounds = PowerBounds(p_max_dbm=30.0, p_min_dbm=-118.0)
    assert available_spectrum(blocked(bounds)).value == 0.0


def test_idle_receiver_slice_denies_exactly_nothing():
    bounds = PowerBounds(p_max_dbm=25.0, p_min_dbm=-125.0)
    space = rx_consumption("a-rx", bounded(bounds))
    for key in [(0, 1), (1, 0), (1, 1)]:
        assert np.all(space.slices[key] == 0.0)
    assert np.any(space.slices[(0, 0)] > 0.0)


@given(p_max=st.integers(0, 400).map(lambda k: k / 4.0),
       p_min=st.integers(-600, -240).map(lambda k: k / 4.0))
@example(p_max=25.0, p_min=-118.0)
def test_cells_on_a_bound_count_exactly(p_max, p_min):
    bounds = PowerBounds(p_max_dbm=p_max, p_min_dbm=p_min)
    scn = bounded(bounds)
    denied = denied_consumption(scn)
    available = available_spectrum(scn)
    for key, cells in denied.slices.items():
        values = opportunity_map(scn, *key).values_dbm
        assert np.all(cells >= 0.0)
        assert np.all(cells[values == p_max] == 0.0)
        assert np.all(cells[values == p_min] == bounds.p_cmax_linear)
        assert available.breakdown[key] >= 0.0
    assert available.breakdown[(1, 0)] == 0.0


@pytest.mark.parametrize("seed", range(30))
def test_perfect_harvest_recovers_exactly_the_available_spectrum(seed):
    scn = random_scenario(seed)
    available = available_spectrum(scn)
    for key, amount in available.breakdown.items():
        truth = opportunity_map(scn, *key)
        assert harvest_metrics(truth, truth, scn.grid, scn.bounds).recovered.value == amount


# The edges of an integrated field run over arrays the walk already owns:
# linear_to_db_in_place turns folded caps into clipped dBm, and the quantify
# module's _linear_in_place turns that dBm back into mW, then copies each
# bound's exact linear value over the cells that sit on it
# (np.copyto(..., where=)). These properties feed it bound and free runs of
# every length from 1 to 17 at varied offsets, so every bound cell is
# overwritten and every free cell keeps the ** of the unmasked call the
# fields were pinned with.

SPECIAL = (np.nan, np.inf, -np.inf, -0.0)
RUN_KINDS = ("min", "max", "free")
EVERY_RUN = [(kind, length) for length in range(1, 18) for kind in RUN_KINDS]

quarter_db_bounds = dict(p_max=st.integers(0, 400).map(lambda k: k / 4.0),
                         p_min=st.integers(-600, -240).map(lambda k: k / 4.0))
field_shapes = dict(n_y=st.integers(1, 3), n_x=st.integers(1, 300), seed=st.integers(0, 2**32 - 1),
                    runs=st.lists(st.tuples(st.sampled_from(RUN_KINDS), st.integers(1, 17)),
                                  min_size=1, max_size=40))


def dbm_cells(bounds: PowerBounds, n_y: int, n_x: int, runs, seed: int) -> np.ndarray:
    """An (n_y, n_x) dBm field laid out row-major from ``runs``, repeated until it is full.

    A "min" or "max" run is that many cells on the bound; a "free" run is
    that many quarter-dB or arbitrary values, about one in five of them NaN,
    +-inf or -0.0.
    """
    rng = np.random.default_rng(seed)
    cells: list[float] = []
    while len(cells) < n_y * n_x:
        for kind, length in runs:
            if kind == "min":
                cells += [bounds.p_min_dbm] * length
            elif kind == "max":
                cells += [bounds.p_max_dbm] * length
            else:
                quarter = rng.integers(-800, 600, length) / 4.0
                arbitrary = rng.uniform(-200.0, 150.0, length)
                special = rng.choice(np.array(SPECIAL), length)
                pick = rng.integers(0, 5, length)
                cells += np.where(pick < 2, quarter, np.where(pick < 4, arbitrary, special)).tolist()
    return np.array(cells[:n_y * n_x]).reshape(n_y, n_x)


@given(**quarter_db_bounds, **field_shapes)
@example(p_max=25.0, p_min=-118.0, n_y=1, n_x=300, runs=EVERY_RUN, seed=0)
@example(p_max=30.0, p_min=-125.0, n_y=3, n_x=293, runs=EVERY_RUN[::-1], seed=1)
def test_in_place_mw_conversion_is_the_copying_formula(p_max, p_min, n_y, n_x, runs, seed):
    bounds = PowerBounds(p_max_dbm=p_max, p_min_dbm=p_min)
    values = dbm_cells(bounds, n_y, n_x, runs, seed)
    expected = db_to_linear(values)
    expected[values == bounds.p_min_dbm] = bounds.p_min_linear
    expected[values == bounds.p_max_dbm] = bounds.p_max_linear

    owned = values.copy()
    assert quantify_module._linear_in_place(owned, bounds) is owned
    assert same_bits(owned, expected)


@given(**quarter_db_bounds, **field_shapes)
@example(p_max=25.0, p_min=-118.0, n_y=1, n_x=300, runs=EVERY_RUN, seed=0)
def test_in_place_dbm_conversion_is_the_clipped_formula(p_max, p_min, n_y, n_x, runs, seed):
    """Cells come from a dBm field: +-0.0 dBm as +-0.0 mW, p_min as Python's float ** of it,
    every other cell, p_max among them, as numpy's."""
    bounds = PowerBounds(p_max_dbm=p_max, p_min_dbm=p_min)
    cells = dbm_cells(bounds, n_y, n_x, runs, seed)
    linear = np.where(cells == 0.0, cells, db_to_linear(cells))
    linear[cells == bounds.p_min_dbm] = bounds.p_min_linear
    expected = np.clip(linear_to_db(linear), bounds.p_min_dbm, bounds.p_max_dbm)

    owned = linear.copy()
    assert linear_to_db_in_place(owned, bounds) is owned
    assert same_bits(owned, expected)


# model.db_to_linear_in_place is the package's one array 10 ** (x / 10). It
# feeds np.power a contiguous base block of 10.0 instead of the scalar, block
# by block over a large array's flat view. These properties pin it to the
# scalar-base call bit for bit across the block edges; any CPU whose power
# loop rounds a contiguous base differently fails them.

BLOCK = model._TENS.size
BLOCK_EDGES = [0, 1, BLOCK - 1, BLOCK, BLOCK + 1, 62_500]
HUGE = (np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, -5e-324, 1e308, -1e308, 4000.0, -4000.0)


def scalar_base(db: np.ndarray) -> np.ndarray:
    """np.power(10.0, db / 10) on a copy."""
    out = db / 10.0
    with np.errstate(over="ignore"):
        return np.power(10.0, out, out=out)


def kernel_cells(size: int, seed: int) -> np.ndarray:
    """``size`` dB values: about half in [-400, 400], the rest special or huge."""
    rng = np.random.default_rng(seed)
    cells = rng.uniform(-400.0, 400.0, size)
    special = rng.integers(0, 2, size).astype(bool)
    cells[special] = rng.choice(np.array(HUGE), int(special.sum()))
    return cells


@given(size=st.sampled_from(BLOCK_EDGES) | st.integers(0, 3 * BLOCK + 7),
       rows=st.sampled_from([1, 2, 5, 250]), seed=st.integers(0, 2**32 - 1))
@example(size=62_500, rows=250, seed=0)
@example(size=BLOCK + 1, rows=1, seed=0)
@example(size=BLOCK, rows=1, seed=0)
@example(size=BLOCK - 1, rows=1, seed=0)
@example(size=1, rows=1, seed=0)
@example(size=0, rows=1, seed=0)
def test_block_kernel_is_the_scalar_base_call(size, rows, seed):
    cells = kernel_cells(size, seed)
    shape = (rows, size // rows) if size % rows == 0 and rows > 1 else (size,)
    cells = cells.reshape(shape)

    owned = cells.copy()
    with np.errstate(over="ignore"):
        assert model.db_to_linear_in_place(owned) is owned
    assert same_bits(owned, scalar_base(cells))


@pytest.mark.parametrize("make", [
    lambda a: a[:, ::2],         # strided rows no flat view reaches, larger than a block
    lambda a: a.T,               # Fortran order, larger than a block
    lambda a: a[:3, ::7],        # strided, within one block
], ids=["strided", "transposed", "small strided"])
def test_non_contiguous_arrays_are_converted_where_they_lie(make):
    base = kernel_cells(100 * 91, 7).reshape(100, 91)
    before = base.copy()
    view = make(base)
    assert not view.flags.c_contiguous
    expected = scalar_base(make(before))

    with np.errstate(over="ignore"):
        assert model.db_to_linear_in_place(view) is view
    assert same_bits(make(base), expected)
    untouched = np.ones(base.shape, dtype=bool)
    make(untouched)[...] = False
    assert same_bits(base[untouched], before[untouched])
